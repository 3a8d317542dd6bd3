"""Closed-form and all-lags-at-once code against the routes it replaced.

The reference functions below are the earlier implementations, kept verbatim
as oracles: the truncated MA(infinity) sum behind ``acs_via_ma_infinity``, the
per-lag ``convolve`` and ``tilted_convolve``, the per-lag tail scan of
``_two_sided_to_acs``, the column-wise ``_innovations``, and the
process-level frequency route (edge transfers over 1 - a_j(z), two sandwich
solves, one rebuilt model per noise source) behind the reduced-form
``spectral_density``, ``cctf`` and ``decompose_by_source``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import svarpg.filters as filters
from conftest import (
    CYCLIC_LATENT_EDGES,
    FIXTURE_NAMES,
    FIXTURES,
    ar1,
    explosive_target,
    random_model,
)
from svarpg.errors import NonConvergentError
from svarpg.filters import (
    FiniteFilter,
    _two_sided_to_acs,
    acs_via_ma_infinity,
    convolve,
    tilted_convolve,
)
from svarpg.model import (
    SvarModel,
    companion_matrix,
    contemporaneous_solve_matrix,
    load_model,
    reduced_lag_matrices,
)
from svarpg.simulate import _blocked_recursion, _innovations, simulate
from svarpg.spectral import (
    SpectralMatrix,
    _decompose_from,
    _inverse_entry,
    _transfer,
    cctf,
    decompose_by_source,
    frequency_grid,
    spectral_density,
)


def _ma_psi_loop(m: SvarModel, L_acs: int, L_psi: int) -> np.ndarray:
    """Reference: sum_k psi_{k+tau} W psi_k^T truncated at L_psi, one einsum per lag."""
    n = m.n_processes
    b = contemporaneous_solve_matrix(m)
    w_prime = b @ np.diag([m.noise_var[name] for name in m.processes]) @ b.T
    phi_prime = reduced_lag_matrices(m).transpose(0, 2, 1)
    psi = np.zeros((L_psi + 1, n, n))
    psi[0] = np.eye(n)
    for k in range(1, L_psi + 1):
        acc = np.zeros((n, n))
        for l in range(1, min(k, m.order) + 1):
            acc += psi[k - l] @ phi_prime[l]
        psi[k] = acc
    weighted = np.einsum("ij,kjl->kil", w_prime, psi)
    values = np.zeros((L_acs + 1, n, n))
    for tau in range(L_acs + 1):
        count = L_psi + 1 - tau
        values[tau] = np.einsum("kij,kil->jl", psi[tau : tau + count], weighted[:count])
    n_obs = m.n_observed
    return values[:, :n_obs, :n_obs]


def _convolve_loop(a: FiniteFilter, b: FiniteFilter) -> FiniteFilter:
    out = np.zeros((a.n_lags + b.n_lags - 1, a.rows, b.cols))
    for i in range(a.n_lags):
        out[i : i + b.n_lags] += np.einsum("rn,tnc->trc", a.values[i], b.values)
    return FiniteFilter(start=a.start + b.start, values=out)


def _tilted_convolve_loop(a: FiniteFilter, b: FiniteFilter) -> FiniteFilter:
    out = np.zeros((a.n_lags + b.n_lags - 1, a.rows, b.cols))
    for t_idx in range(b.n_lags):
        shift = b.n_lags - 1 - t_idx
        out[shift : shift + a.n_lags] += np.einsum("tan,nc->tac", a.values, b.values[t_idx])
    return FiniteFilter(start=a.start - b.end, values=out)


def _two_sided_to_acs_loop(composite: FiniteFilter, L_acs: int) -> tuple[np.ndarray, float]:
    values = np.stack([composite.at(tau) for tau in range(L_acs + 1)])
    beyond = 0.0
    mags = []
    for tau in range(composite.start, composite.end + 1):
        mag = float(np.abs(composite.at(tau)).max())
        if abs(tau) > L_acs:
            beyond += mag
        mags.append((abs(tau), mag))
    edge_mags = sorted(mags)[-8:]
    last = max(m for _, m in edge_mags) if edge_mags else 0.0
    ratio = 0.9
    return values, beyond + last * ratio / (1.0 - ratio)


def _innovations_columns(m: SvarModel, n_steps: int, seed: int) -> np.ndarray:
    out = np.empty((n_steps, m.n_processes))
    for idx, name in enumerate(m.processes):
        bits = np.random.Philox(key=np.array([seed, idx], dtype=np.uint64))
        rng = np.random.Generator(bits)
        scale = np.sqrt(m.noise_var[name])
        out[:, idx] = scale * rng.standard_normal(n_steps)
    return out


def _sandwich_loop(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(A)^{-T} S (A)^{-*} per frequency, batched."""
    left = np.linalg.solve(a.transpose(0, 2, 1), s)
    right = np.linalg.solve(np.conj(a).transpose(0, 2, 1), left.transpose(0, 2, 1))
    return right.transpose(0, 2, 1)


def _process_level_spectrum(m: SvarModel, omegas: np.ndarray) -> np.ndarray:
    """(I - H)^{-T} S_LI (I - H)^{-*}, S_LI from the internal spectra and the latent sandwich."""
    h, d = _transfer(m, omegas)
    internal = np.array([m.noise_var[name] for name in m.processes]) / np.abs(d) ** 2
    s_int = internal[:, :, None] * np.eye(m.n_processes)
    n = m.n_observed
    s_li = s_int[:, :n, :n]
    if m.latents:
        j = h[:, n:, :n]
        s_lat = s_int[:, n:, n:]
        if m._edge_mask[n:, n:].any():
            s_lat = _sandwich_loop(np.eye(len(m.latents))[None, :, :] - h[:, n:, n:], s_lat)
        s_li = s_li + np.einsum("wdi,wde,wej->wij", j, s_lat, np.conj(j))
    return _sandwich_loop(np.eye(n)[None, :, :] - h[:, :n, :n], s_li)


def _process_level_cctf(m: SvarModel, x: str, y: str, controls, omegas) -> np.ndarray:
    """Entry (x, y) of (I - H_cut)^{-1}, H_cut without the columns of x and the controls."""
    n = m.n_observed
    h = _transfer(m, omegas)[0][:, :n, :n]
    h[:, :, [m.observed.index(name) for name in set(controls) | {x}]] = 0.0
    return _inverse_entry(np.eye(n) - h, m.observed.index(x), m.observed.index(y), omegas)


def _solo_model_split(m: SvarModel, ancestor: str, target: str, omegas: np.ndarray) -> dict:
    """One rebuilt model per source, every other innovation variance zeroed."""
    ctf = _process_level_cctf(m, ancestor, target, (), omegas)
    sources = {}
    for name in m.observed:
        solo = dataclasses.replace(
            m, noise_var={k: (v if k == name else 0.0) for k, v in m.noise_var.items()}
        )
        s_solo = SpectralMatrix(m.observed, omegas, _process_level_spectrum(solo, omegas))
        sources[name] = _decompose_from(s_solo, ctf, ancestor, target)
    return sources


def _order0() -> SvarModel:
    return SvarModel(
        observed=("A", "B", "C"),
        latents=(),
        order=0,
        coeffs={("A", "B", 0): 0.5, ("B", "C", 0): -0.4},
        noise_var={"A": 1.0, "B": 0.7, "C": 1.3},
    )


def _cyclic(rng_seed: int = 11) -> SvarModel:
    return random_model(
        np.random.default_rng(rng_seed),
        ("A", "B", "C"),
        ("L1", "L2"),
        CYCLIC_LATENT_EDGES,
        order=3,
        contemporaneous=True,
    )


MA_MODELS = {
    **{name: (lambda name=name: load_model(FIXTURES / f"{name}.json")) for name in FIXTURE_NAMES},
    "cyclic_latent": _cyclic,
    "order0": _order0,
    "explosive_target": explosive_target,
}


# -- acs_via_ma_infinity: companion Lyapunov solve ----------------------------


@pytest.mark.parametrize("name", MA_MODELS)
def test_ma_infinity_matches_truncated_psi_sum(name):
    m = MA_MODELS[name]()
    acs = acs_via_ma_infinity(m, 64, 2048)
    expected = _ma_psi_loop(m, 64, 2048)
    assert acs.values.shape == expected.shape
    assert np.abs(acs.values - expected).max() <= 1e-13 * np.abs(expected).max()
    assert 0.0 <= acs.tail_bound <= 1e-15 * np.abs(expected).max()
    # summed to convergence: the MA horizon no longer changes a bit
    assert np.array_equal(acs_via_ma_infinity(m, 8, 8).values, acs.values[:9])


def test_ma_infinity_converges_just_below_the_stability_threshold():
    a = 1.0 - 2e-9  # companion radius below STABLE_RADIUS = 1 - 1e-9
    acs = acs_via_ma_infinity(ar1(a), 2, 2)
    assert acs.values[0, 0, 0] == pytest.approx(1.0 / (1.0 - a * a), rel=1e-5)
    assert acs.values[2, 0, 0] == pytest.approx(a * a / (1.0 - a * a), rel=1e-5)


def test_ma_infinity_doubling_cap_raises_instead_of_looping(monkeypatch):
    # a certificate that understates the radius (0.5 for a true 0.9999)
    # caps the doubling at 10 steps, far short of convergence
    monkeypatch.setattr(filters, "_certify", lambda a, what: 0.5)
    with pytest.raises(NonConvergentError, match="doubling stalled"):
        acs_via_ma_infinity(ar1(0.9999), 4, 4)


# -- lag-axis FFT convolutions -------------------------------------------------


CONV_SHAPES = [
    # (a lags, b lags, rows, inner, cols, a start, b start)
    (1, 1, 1, 1, 1, 0, 0),
    (1, 7, 1, 1, 1, 0, 0),
    (9, 1, 2, 3, 2, -4, 0),
    (5, 4, 2, 3, 2, 0, -2),
    (33, 129, 4, 4, 4, -16, 3),
    (129, 257, 6, 6, 6, 0, -128),
    (2, 64, 1, 5, 3, 7, -9),
]


@pytest.mark.parametrize("shape", CONV_SHAPES, ids=[str(s) for s in CONV_SHAPES])
def test_fft_convolutions_match_lag_loops(shape):
    la, lb, rows, inner, cols, sa, sb = shape
    rng = np.random.default_rng(la * 1000 + lb)
    # entry-level structural zeros: random entries, the rows of a past the
    # first and the columns of b past the second are all-zero series
    mask_a = rng.random((rows, inner)) < 0.7
    mask_b = rng.random((inner, cols)) < 0.7
    mask_a[1:] = False
    mask_b[:, 2:] = False
    a = FiniteFilter(start=sa, values=rng.normal(size=(la, rows, inner)) * mask_a)
    b = FiniteFilter(start=sb, values=rng.normal(size=(lb, inner, cols)) * mask_b)
    structural = (mask_a.astype(int) @ mask_b.astype(int)) == 0
    for got, want in (
        (convolve(a, b), _convolve_loop(a, b)),
        (tilted_convolve(a, b), _tilted_convolve_loop(a, b)),
    ):
        assert got.start == want.start and got.values.shape == want.values.shape
        assert np.abs(got.values - want.values).max() <= 1e-14 * np.abs(want.values).max()
        assert np.all(got.values[:, structural] == 0.0)


# -- _two_sided_to_acs ---------------------------------------------------------


@pytest.mark.parametrize("L_acs", [0, 3, 8, 40, 200])
def test_two_sided_to_acs_matches_lag_loop_bit_for_bit(L_acs):
    rng = np.random.default_rng(L_acs)
    composites = [
        FiniteFilter(start=-60, values=rng.normal(size=(121, 3, 3))),  # symmetric support
        FiniteFilter(start=-5, values=rng.normal(size=(30, 2, 2))),
        FiniteFilter(start=2, values=rng.normal(size=(9, 1, 1))),
        FiniteFilter(start=-3, values=np.zeros((7, 2, 2))),
        FiniteFilter(start=-4, values=np.ones((9, 1, 1))),  # ties in (|tau|, mag)
    ]
    for composite in composites:
        acs = _two_sided_to_acs(("a",) * composite.rows, composite, L_acs)
        values, tail = _two_sided_to_acs_loop(composite, L_acs)
        assert np.array_equal(acs.values, values)
        assert acs.tail_bound == tail


# -- simulate: row-wise innovations --------------------------------------------


@pytest.mark.parametrize("name", ["graph_b", "instrument", "cyclic_latent"])
def test_trajectories_match_column_innovations_bit_for_bit(name):
    # instrument and cyclic_latent have lag-0 edges, graph_b has none
    m = _cyclic(5) if name == "cyclic_latent" else load_model(FIXTURES / f"{name}.json")
    T, burn_in, seed = 3000, 200, 9
    eta = _innovations_columns(m, T + burn_in, seed)
    assert np.array_equal(_innovations(m, T + burn_in, seed), eta)
    expected = _blocked_recursion(companion_matrix(m), eta @ contemporaneous_solve_matrix(m).T)
    assert np.array_equal(simulate(m, T, seed, burn_in).values, expected[burn_in:])


# -- frequency engine: one solve on M(omega) = I - Phi(z) ------------------------


FREQ_MODELS = {name: MA_MODELS[name] for name in (*FIXTURE_NAMES, "cyclic_latent")}
OM = frequency_grid(128)


@pytest.mark.parametrize("name", FREQ_MODELS)
def test_spectral_density_matches_process_level_route(name):
    m = FREQ_MODELS[name]()
    expected = _process_level_spectrum(m, OM)
    got = spectral_density(m, OM).values
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("name", FREQ_MODELS)
def test_cctf_matches_inverse_of_cut_edge_transfers(name):
    m = FREQ_MODELS[name]()
    for x in m.observed:
        for y in m.observed:
            if x == y:
                continue
            for controls in [()] + [(c,) for c in m.observed if c not in (x, y)]:
                expected = _process_level_cctf(m, x, y, controls, OM)
                got = cctf(m, x, y, controls, OM).scalar_values()
                assert np.abs(got - expected).max() <= 1e-13, (x, y, controls)


@pytest.mark.parametrize("name", [name for name in FREQ_MODELS if not FREQ_MODELS[name]().latents])
def test_per_source_split_matches_solo_model_loop(name):
    m = FREQ_MODELS[name]()
    for ancestor in m.observed:
        for target in m.observed:
            if ancestor == target:
                continue
            expected = _solo_model_split(m, ancestor, target, OM)
            got = decompose_by_source(m, ancestor, target, OM).sources
            assert list(got) == list(expected)
            for source, dec in got.items():
                for part in ("causal", "confounding", "residual", "target_spectrum"):
                    diff = getattr(dec, part) - getattr(expected[source], part)
                    assert np.abs(diff).max() <= 1e-13, (ancestor, target, source, part)

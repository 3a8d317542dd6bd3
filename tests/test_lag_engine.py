"""The lag-domain engine against the work it no longer repeats.

``_filter_series`` takes each lag's psi terms in one stacked product, and
``_lag_recursion`` each lag's terms in one reduce; the oracles below are the
loops they replaced, kept verbatim.  ``_smooth_length`` is checked against a
brute-force search for the transform lengths of ``_lag_convolve``.  Trek path
filters are kept on the model by vertex prefix, and every companion-radius
certificate is solved once per model, block and cut; each caller still gates
the kept radius itself.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from conftest import CYCLIC_LATENT_EDGES, FIXTURE_NAMES, FIXTURES, random_model
from svarpg.cli import run
from svarpg.errors import NonConvergentError, SingularContemporaneousError
from svarpg.filters import (
    _cut,
    _filter_series,
    _lag_recursion,
    _smooth_length,
    acs_via_ma_infinity,
    acs_via_sep,
    ccf,
    lambda_infinity,
    trek_monomial_filter,
)
from svarpg.graph import enumerate_treks, latent_projection
from svarpg.model import SvarModel, check_stability, load_model, process_graph
from svarpg.spectral import spectral_density


def _psi_loop_series(m: SvarModel, L: int, block: slice, cut=()) -> np.ndarray:
    """Reference: the filter series with one Python sum of matmuls per lag."""
    fed = m._edge_mask[block, block].any(axis=0)
    fed[list(cut)] = False
    phi = m.Phi[:, block, block] * fed
    k, p = len(fed), len(phi) - 1
    inv0 = np.linalg.inv(np.eye(k) - phi[0])
    psi = np.zeros((L + 1, k, k))
    psi[0] = np.eye(k)
    for s in range(L + 1):
        psi[s] = (psi[s] + sum(psi[s - t] @ phi[t] for t in range(1, min(s, p) + 1))) @ inv0
    g = psi.copy()
    autos = np.diagonal(phi, axis1=1, axis2=2)
    for t in range(1, min(L, p) + 1):
        g[t:] -= autos[t][:, None] * psi[: L + 1 - t]
    return g


def _lag_recursion_loop(a: np.ndarray, b: np.ndarray, L: int) -> np.ndarray:
    """Reference: the recursion with one Python sum of products per lag."""
    p = len(b) - 1
    lam = np.zeros((L + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for s in range(L + 1):
        acc = b[s] if s <= p else 0.0
        for j in range(1, min(s, p) + 1):
            acc = acc + lam[s - j] * a[j]
        lam[s] = acc
    return lam


RECURSION_SHAPES = [
    # (a shape, b shape) past the lag axis
    ((), ()),
    ((1,), ()),
    ((1, 1), (1, 1)),
    ((1, 5), (5, 5)),
    ((5, 5), (5, 5)),
    ((4,), ()),
]


@pytest.mark.parametrize("shapes", RECURSION_SHAPES, ids=[str(s) for s in RECURSION_SHAPES])
@pytest.mark.parametrize("p,L", [(0, 0), (0, 6), (3, 1), (3, 40), (11, 7), (11, 64)])
def test_one_reduce_per_lag_equals_the_scalar_loop_bit_for_bit(shapes, p, L):
    rng = np.random.default_rng(100 * p + L)
    a_shape, b_shape = shapes
    # magnitudes over twenty decades, so any change in the order of the sums shows
    a = rng.normal(size=(p + 1, *a_shape)) * 0.4
    b = rng.normal(size=(p + 1, *b_shape)) * 10.0 ** rng.integers(-10, 10, size=(p + 1, *b_shape))
    got, want = _lag_recursion(a, b, L), _lag_recursion_loop(a, b, L)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_smooth_length_is_the_least_5_smooth_length_not_below_the_size():
    # every 2^i 3^j 5^k up to 2^14 = 16384, the least one above 10000 included
    smooth = np.unique([2**i * 3**j * 5**k for i in range(15) for j in range(10) for k in range(7)])
    sizes = np.arange(1, 10001)
    want = smooth[np.searchsorted(smooth, sizes)]
    assert [_smooth_length(int(n)) for n in sizes] == want.tolist()


def _cyclic(order: int = 2, seed: int = 11) -> SvarModel:
    return random_model(
        np.random.default_rng(seed), ("A", "B", "C"), ("L1", "L2"), CYCLIC_LATENT_EDGES, order, True
    )


SERIES_MODELS = {name: (lambda name=name: load_model(FIXTURES / f"{name}.json")) for name in FIXTURE_NAMES}
SERIES_MODELS["cyclic_latent"] = _cyclic
SERIES_MODELS.update({f"seeded_p{p}": (lambda p=p: _cyclic(p, 100 + p)) for p in (0, 1, 3, 6)})


@pytest.mark.parametrize("name", SERIES_MODELS)
def test_stacked_psi_step_equals_the_per_lag_loop(name):
    m = SERIES_MODELS[name]()
    observed = slice(None, m.n_observed)
    cuts = [()] + [
        _cut(m, x, y, controls)
        for x, y in itertools.permutations(m.observed, 2)
        for controls in [()] + [(z,) for z in m.observed if z not in (x, y)]
    ]
    for L in sorted({0, 1, m.order, 64, 128}):
        for cut in cuts:
            got = _filter_series(m, L, observed, cut)
            assert np.array_equal(got, _psi_loop_series(m, L, observed, cut)), (L, cut)
        if m._edge_mask[m.n_observed :, m.n_observed :].any():
            latent = slice(m.n_observed, None)
            assert np.array_equal(_filter_series(m, L, latent, paths=False), _psi_loop_series(m, L, latent))


def _treks(m):
    proj = latent_projection(process_graph(m))
    return [t for v in m.observed for w in m.observed for t in enumerate_treks(proj, v, w)]


@pytest.mark.parametrize("name", ["graph_b", "instrument", "confounded_mediator", "cyclic_latent"])
def test_warm_trek_filters_in_reverse_order_equal_fresh_models(name):
    m = SERIES_MODELS[name]()
    treks = _treks(m)
    for trek in treks:
        trek_monomial_filter(m, trek, 32)
    for trek in reversed(treks):
        got = trek_monomial_filter(m, trek, 32)
        expected = trek_monomial_filter(SERIES_MODELS[name](), trek, 32)
        assert got.start == expected.start and np.array_equal(got.values, expected.values)


def test_a_second_horizon_rebuilds_the_path_filters():
    m = SERIES_MODELS["cyclic_latent"]()
    treks = _treks(m)
    for L in (96, 5, 96):
        fresh = SERIES_MODELS["cyclic_latent"]()
        for trek in treks:
            got = trek_monomial_filter(m, trek, L)
            assert np.array_equal(got.values, trek_monomial_filter(fresh, trek, L).values)
        key, (_, _, prefixes) = m._memo["trek_filter"]
        assert key == L and prefixes
        assert {f.values.shape for f in prefixes.values()} == {(L + 1, 1, 1)}


def test_an_unstable_model_raises_on_every_call_after_check_stability():
    # Y's own root 1.05 is outside the unit circle: no spectrum, ccf or covariance exists
    m = SvarModel(
        observed=("X", "Y"),
        latents=(),
        order=1,
        coeffs={("X", "Y", 1): 0.5, ("Y", "Y", 1): 1.05},
        noise_var={"X": 1.0, "Y": 1.0},
    )
    calls = {
        "no stationary spectrum: companion radius 1.05 >= 1": lambda: spectral_density(m, 8),
        "filter series not summable: companion radius 1.05 >= 1": lambda: ccf(m, "X", "Y", L=8),
        "companion spectral radius 1.05 >= 1": lambda: acs_via_ma_infinity(m, 4),
    }
    for _round in range(3):
        for message, call in calls.items():
            for _ in range(2):
                with pytest.raises(NonConvergentError, match=message):
                    call()
        rep = check_stability(m, 8)
        assert not rep.stable and rep.companion_spectral_radius == pytest.approx(1.05)
    assert set(m._memo) == {"radius"}


def _latent_loop(l1_l2: float, l2_l1: float) -> dict:
    """Observed X fed at lag 1 by latent L1, which loops with L2 at lag 0."""
    return {
        "observed": ["X"],
        "latents": ["L1", "L2"],
        "order": 1,
        "edges": [
            {"from": "L1", "to": "L2", "lag": 0, "coeff": l1_l2},
            {"from": "L2", "to": "L1", "lag": 0, "coeff": l2_l1},
            {"from": "L1", "to": "X", "lag": 1, "coeff": 0.5},
        ],
        "noise_var": {"X": 1.0, "L1": 1.0, "L2": 1.0},
    }


def test_latent_lag0_loop_needs_only_a_solvable_block(tmp_path):
    # rho(phi_0) = sqrt(2) among the latents, but I - phi_0 is invertible:
    # L1 = -(e1 + e2), so var X = 0.25 * 2 + 1 = 1.5 and X is white
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(_latent_loop(2.0, 1.0)))
    m = load_model(path)
    sep, ma = acs_via_sep(m, 16, 64), acs_via_ma_infinity(m, 16)
    assert np.abs(sep.values - ma.values).max() <= 1e-12 * np.abs(ma.values).max()
    assert ma.values[0, 0, 0] == pytest.approx(1.5, rel=1e-12)
    total = sum(trek_monomial_filter(m, trek, 16).scalar_at(0) for trek in _treks(m))
    assert total == pytest.approx(1.5, rel=1e-12)
    assert spectral_density(m, 4).values[:, 0, 0] == pytest.approx([1.5] * 4, rel=1e-12)
    # the path-sum readings keep their rho(Lambda_0) gate where the loop is observed
    observed = SvarModel(("X", "L1", "L2"), (), 1, m.coeffs, m.noise_var)
    for call in (lambda: lambda_infinity(observed, 8), lambda: ccf(observed, "X", "L1", L=8)):
        with pytest.raises(NonConvergentError, match="lag-0 loops have spectral radius 1.414"):
            call()
    assert acs_via_ma_infinity(observed, 4).values[0, 0, 0] == pytest.approx(1.5, rel=1e-12)


def test_singular_latent_lag0_block_is_a_typed_error(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(_latent_loop(2.0, 0.5)))  # I - phi_0 is singular
    with pytest.raises(SingularContemporaneousError):
        acs_via_sep(load_model(path), 4, 16)
    assert run(["acs", str(path), "--lags", "4"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SingularContemporaneousError"


def test_each_cut_keeps_its_own_certificate():
    # A <-> B and A <-> C at gain 0.6006: rho(Lambda_0) = 1.096 on the whole
    # block, while ccf(B, C) cuts the edges into B and converges
    c = 0.6006**0.5
    coeffs = {(src, dst, 0): c for src, dst in (("A", "B"), ("B", "A"), ("A", "C"), ("C", "A"))}
    m = SvarModel(("A", "B", "C"), (), 0, coeffs, {"A": 1.0, "B": 1.0, "C": 1.0})
    fresh = ccf(SvarModel(("A", "B", "C"), (), 0, coeffs, m.noise_var), "B", "C", L=16).values
    for _ in range(2):
        with pytest.raises(NonConvergentError, match="lag-0 loops have spectral radius 1.096"):
            lambda_infinity(m, 16)
        assert np.array_equal(ccf(m, "B", "C", L=16).values, fresh)

from __future__ import annotations

import dataclasses
import importlib
import os
import threading
import warnings

import numpy as np
import pytest

from conftest import CYCLIC_LATENT_EDGES, FIXTURE_NAMES, FIXTURES, ar1, random_model
from svarpg import spectral
from svarpg.errors import ExplosionError, SemanticError, TooShortError
from svarpg.filters import acs_via_sep
from svarpg.model import SvarModel, companion_matrix, contemporaneous_solve_matrix, load_model
from svarpg.simulate import _innovations, simulate, welch_spectrum
from svarpg.spectral import SpectralMatrix, spectral_density

simulate_module = importlib.import_module("svarpg.simulate")  # the package exports the function


def _model(name: str) -> SvarModel:
    if name == "cyclic_latent":  # seeded cyclic model with latents and lag-0 edges
        return random_model(
            np.random.default_rng(5),
            ("A", "B", "C"),
            ("L1", "L2"),
            CYCLIC_LATENT_EDGES,
            order=3,
            contemporaneous=True,
        )
    return load_model(FIXTURES / f"{name}.json")


def _step_loop(m: SvarModel, T: int, seed: int, burn_in: int) -> np.ndarray:
    """Reference: the companion recursion, one time step per iteration."""
    n, p = m.n_processes, m.order
    n_steps = T + burn_in
    eta = _innovations(m, n_steps, seed) @ contemporaneous_solve_matrix(m).T
    comp = companion_matrix(m)
    state = np.zeros(n * p)
    values = np.empty((n_steps, n))
    for t in range(n_steps):
        state = comp @ state
        state[:n] += eta[t]
        values[t] = state[:n]
    return values[burn_in:]


def _one_stream_at_a_time(m: SvarModel, n_steps: int, seed: int) -> np.ndarray:
    """Reference: every process's substream drawn in turn on the caller's thread."""
    out = np.empty((m.n_processes, n_steps))
    for idx, name in enumerate(m.processes):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, idx], dtype=np.uint64)))
        out[idx] = np.sqrt(m.noise_var[name]) * rng.standard_normal(n_steps)
    return out.T


def _welch_loop(data: np.ndarray, segment_len: int, overlap: float, grid: int) -> np.ndarray:
    """Reference: full-length accumulator, one einsum per segment, bins subsampled last."""
    step = max(1, int(round(segment_len * (1.0 - overlap))))
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    acc = np.zeros((segment_len, data.shape[1], data.shape[1]), dtype=complex)
    count = 0
    for s0 in range(0, data.shape[0] - segment_len + 1, step):
        seg_fft = np.fft.fft(data[s0 : s0 + segment_len] * window[:, None], axis=0)
        acc += np.einsum("wi,wj->wij", seg_fft, np.conj(seg_fft))
        count += 1
    return acc[:: segment_len // grid] / (count * (window**2).sum())


def _batch_se(samples: np.ndarray, n_batches: int = 100) -> float:
    """Standard error of the mean from batch means (handles serial dependence)."""
    usable = len(samples) - len(samples) % n_batches
    means = samples[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def test_reproducibility():
    m = ar1(0.7)
    a = simulate(m, T=2048, seed=123)
    b = simulate(m, T=2048, seed=123)
    assert np.array_equal(a.values, b.values)
    c = simulate(m, T=2048, seed=124)
    assert not np.array_equal(a.values, c.values)


def test_zero_variance_gives_zero_trajectory():
    m = SvarModel(
        observed=("U",), latents=(), order=1, coeffs={("U", "U", 1): 0.7}, noise_var={"U": 0.0}
    )
    traj = simulate(m, T=256, seed=5)
    assert np.all(traj.values == 0.0)


def test_ar1_sample_variance():
    traj = simulate(ar1(0.7), T=200_000, seed=7)
    x = traj.observed()[:, 0]
    sq = x**2
    se = _batch_se(sq)
    assert abs(sq.mean() - 1.0 / 0.51) < 3.0 * se


def test_cross_correlation_matches_acs(graph_a):
    traj = simulate(graph_a, T=400_000, seed=21)
    x = traj.series("X")
    m_series = traj.series("M")
    prods = m_series[1:] * x[:-1]
    se = _batch_se(prods)
    analytic = acs_via_sep(graph_a, L_acs=2, L_filter=128).entry("M", "X", 1)
    assert abs(prods.mean() - analytic) < 3.0 * se


def test_latents_are_sampled_but_separate(instrument_model):
    traj = simulate(instrument_model, T=512, seed=3)
    assert traj.values.shape == (512, 4)
    assert traj.observed().shape == (512, 3)
    assert traj.labels.index("L") == 3


def test_explosion_detected():
    m = SvarModel(
        observed=("U",), latents=(), order=1, coeffs={("U", "U", 1): 1.2}, noise_var={"U": 1.0}
    )
    with pytest.raises(ExplosionError):
        simulate(m, T=200_000, seed=1)


def test_contemporaneous_edges_sampled_consistently():
    m = SvarModel(
        observed=("A", "B"),
        latents=(),
        order=1,
        coeffs={("A", "B", 0): 0.8, ("A", "A", 1): 0.5},
        noise_var={"A": 1.0, "B": 0.5},
    )
    traj = simulate(m, T=100_000, seed=9)
    a, b = traj.series("A"), traj.series("B")
    resid = b - 0.8 * a
    prods = resid * a
    se = _batch_se(prods)
    assert abs(prods.mean()) < 3.0 * se  # residual noise of B is orthogonal to A


def test_welch_white_noise_flat():
    m = SvarModel(observed=("U",), latents=(), order=0, coeffs={}, noise_var={"U": 1.0})
    traj = simulate(m, T=2**18, seed=2)
    est = welch_spectrum(traj, segment_len=512, overlap=0.5, grid=128)
    deviations = np.abs(est.values[:, 0, 0].real - 1.0)
    assert np.median(deviations) < 0.05
    assert deviations.max() < 0.2
    assert np.abs(est.values.imag).max() < 1e-12


def test_welch_ar1_peak():
    traj = simulate(ar1(0.7), T=2**18, seed=4)
    est = welch_spectrum(traj, segment_len=2048, overlap=0.5, grid=128)
    assert est.values[0, 0, 0].real == pytest.approx(1.0 / 0.09, rel=0.1)


def test_welch_hermitian_and_real_diagonal(graph_b):
    traj = simulate(graph_b, T=2**15, seed=6)
    est = welch_spectrum(traj, segment_len=1024, overlap=0.5, grid=64)
    defect = np.abs(est.values - np.conj(est.values).transpose(0, 2, 1)).max()
    assert defect < 1e-12
    diag = np.real(np.diagonal(est.values, axis1=1, axis2=2))
    assert (diag >= 0.0).all()
    assert np.abs(np.imag(np.diagonal(est.values, axis1=1, axis2=2))).max() < 1e-12


def test_welch_error_shrinks_with_length(graph_c):
    s = spectral_density(graph_c, 64)
    diag = np.real(np.diagonal(s.values, axis1=1, axis2=2))
    medians = []
    for exponent in (14, 15, 16, 17):
        traj = simulate(graph_c, T=2**exponent, seed=13)
        est = welch_spectrum(traj, segment_len=512, overlap=0.5, grid=64)
        est_diag = np.real(np.diagonal(est.values, axis1=1, axis2=2))
        medians.append(np.median(np.abs(est_diag - diag) / diag))
    assert medians[0] > medians[1] > medians[2] > medians[3]


def test_welch_too_short():
    traj = simulate(ar1(0.5), T=1000, seed=0)
    with pytest.raises(TooShortError):
        welch_spectrum(traj, segment_len=1024, overlap=0.5, grid=64)


def test_welch_grid_must_divide_segment():
    traj = simulate(ar1(0.5), T=8192, seed=0)
    with pytest.raises(SemanticError):
        welch_spectrum(traj, segment_len=1000, overlap=0.5, grid=64)


def _assert_matches_step_loop(m: SvarModel, T: int, seed: int, burn_in: int) -> None:
    got = simulate(m, T=T, seed=seed, burn_in=burn_in).values
    want = _step_loop(m, T, seed, burn_in)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "cyclic_latent"])
def test_blocked_simulation_matches_step_loop(name):
    _assert_matches_step_loop(_model(name), T=3000, seed=17, burn_in=1024)


# n_steps around the block length B = ceil(sqrt(n_steps)): 1; B - 1, B and
# B + 1 for B = 2 and 8, i.e. 3, 4, 5 and 63, 64, 65; fewer steps than the
# order (graph_b has p = 6); and the non-square 1000
@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 63, 64, 65, 1000])
@pytest.mark.parametrize("name", ["graph_b", "cyclic_latent"])
def test_blocked_simulation_lengths_without_burn_in(name, n_steps):
    _assert_matches_step_loop(_model(name), T=n_steps, seed=3, burn_in=0)


def test_zero_variance_stays_exactly_zero_with_cross_lags():
    m = SvarModel(
        observed=("A", "B"),
        latents=(),
        order=2,
        coeffs={("A", "A", 1): 0.5, ("A", "B", 2): 0.3, ("B", "A", 1): -0.2},
        noise_var={"A": 0.0, "B": 0.0},
    )
    assert np.all(simulate(m, T=5000, seed=1).values == 0.0)


def test_explosive_order_two_raises_without_warnings():
    m = SvarModel(
        observed=("A", "B"),
        latents=(),
        order=2,
        coeffs={("A", "A", 1): 0.9, ("A", "B", 1): 0.8, ("B", "A", 2): 0.9, ("B", "B", 1): 0.5},
        noise_var={"A": 1.0, "B": 1.0},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExplosionError):
            simulate(m, T=100_000, seed=2)


@pytest.mark.parametrize("burn_in", [-1, -5])
def test_negative_burn_in_is_semantic_error(burn_in):
    with pytest.raises(SemanticError):
        simulate(ar1(0.5), T=100, burn_in=burn_in)


def test_seed_range_is_semantic_error():
    assert simulate(ar1(0.5), T=4, seed=2**64 - 1).length == 4
    for seed in (-1, 2**64, 2**70):
        with pytest.raises(SemanticError):
            simulate(ar1(0.5), T=4, seed=seed)


@pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
@pytest.mark.parametrize("observed_only", [True, False])
@pytest.mark.parametrize("segment_len,grid", [(512, 128), (375, 75)])
def test_welch_matches_segment_loop(instrument_model, overlap, observed_only, segment_len, grid):
    traj = simulate(instrument_model, T=20_000, seed=8)
    if not observed_only:
        traj = dataclasses.replace(traj, n_observed=len(traj.labels))
    est = welch_spectrum(traj, segment_len=segment_len, overlap=overlap, grid=grid)
    data = traj.observed()
    want = _welch_loop(data, segment_len, overlap, grid)
    step = max(1, int(round(segment_len * (1.0 - overlap))))
    assert est.segment_count == len(range(0, 20_000 - segment_len + 1, step))
    assert est.values.shape == want.shape
    assert np.abs(est.values - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize(
    "segment_len,grid", [(1024, 0), (1024, -256), (0, 64), (-1024, 64), (0, 0)]
)
def test_welch_nonpositive_sizes_are_semantic_errors(segment_len, grid):
    traj = simulate(ar1(0.5), T=8192, seed=0)
    with pytest.raises(SemanticError):
        welch_spectrum(traj, segment_len=segment_len, overlap=0.5, grid=grid)


# an even grid, an odd one, one bin per segment sample, and the single bin omega = 0
@pytest.mark.parametrize("segment_len,grid", [(512, 128), (375, 75), (256, 256), (128, 1)])
def test_welch_bins_are_exact_conjugate_mirrors(instrument_model, segment_len, grid):
    traj = simulate(instrument_model, T=8000, seed=8)
    values = welch_spectrum(traj, segment_len=segment_len, overlap=0.5, grid=grid).values
    k = np.arange(1, grid)
    assert np.array_equal(values[grid - k], np.conj(values[k]))
    assert not values[0].imag.any()


def test_welch_mirror_has_no_negative_zero_where_the_half_grid_is_real(graph_b):
    # conj(x + 0j) is x - 0j; an exactly real bin must mirror to +0.0, as it prints
    values = welch_spectrum(simulate(graph_b, T=512, seed=5), segment_len=128, grid=32).values
    real = values.imag == 0.0
    assert real[32 // 2 + 1 :].any()  # here some diagonal entries are exactly real on both halves
    assert not np.signbit(values.imag[real]).any()


def test_spectral_estimate_is_a_spectral_matrix(instrument_model):
    est = welch_spectrum(simulate(instrument_model, T=4096, seed=1), segment_len=512, grid=32)
    assert isinstance(est, SpectralMatrix)
    assert np.array_equal(est.entry("M", "X"), est.values[:, 1, 0])
    with pytest.raises(SemanticError, match="no process Q"):
        est.entry("X", "Q")


@pytest.mark.parametrize("cores", [1, 8])
def test_innovations_split_across_cores_equal_one_stream_at_a_time(monkeypatch, cores):
    m = _model("cyclic_latent")  # five processes, so 8 cores give one row each
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(spectral, "_PARALLEL_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(threading, "Thread", Counted)
    for n_steps in (1, 7, 4096):
        assert np.array_equal(_innovations(m, n_steps, 11), _one_stream_at_a_time(m, n_steps, 11))
    assert len(started) == (0 if cores == 1 else 3 * (m.n_processes - 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("order", [0, 2])
def test_nonfinite_trajectory_raises_without_warnings(monkeypatch, bad, order):
    coeffs = {("A", "A", 1): 0.5, ("A", "B", order): 0.3} if order else {("A", "B", 0): 0.3}

    def poisoned(m, n_steps, seed):
        eta = _innovations(m, n_steps, seed)
        eta[n_steps // 2, 0] = bad
        return eta

    m = SvarModel(observed=("A", "B"), latents=(), order=order, coeffs=coeffs, noise_var={"A": 1.0, "B": 1.0})
    monkeypatch.setattr(simulate_module, "_innovations", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExplosionError):
            simulate(m, T=3000, seed=2)

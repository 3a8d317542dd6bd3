"""Monte-Carlo ground truth: trajectory sampling and Welch cross-spectra.

Sampling uses the counter-based Philox generator with one substream per
process, keyed by (master seed, process index), so trajectories are
bit-reproducible for a fixed seed and numpy version.  The Welch estimator
targets the same spectral convention as the analytic code: the plain Fourier
sum of the auto-covariance sequence, no 1/2pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExplosionError, SemanticError, TooShortError
from .model import SvarModel, companion_matrix, contemporaneous_solve_matrix

_EXPLOSION_LIMIT = 1e12


@dataclass(frozen=True)
class Trajectory:
    """Sampled series for every process (observed and latent), burn-in removed."""

    labels: tuple[str, ...]
    n_observed: int
    values: np.ndarray  # (T, n_processes)
    seed: int
    burn_in: int

    @property
    def length(self) -> int:
        return self.values.shape[0]

    def observed(self) -> np.ndarray:
        return self.values[:, : self.n_observed]

    def series(self, name: str) -> np.ndarray:
        return self.values[:, self.labels.index(name)]


@dataclass(frozen=True)
class SpectralEstimate:
    """Averaged tapered cross-periodogram on an equispaced grid."""

    labels: tuple[str, ...]
    omegas: np.ndarray
    values: np.ndarray  # (N, m, m) complex, hermitian per frequency
    segment_count: int
    segment_len: int
    taper: str

    def entry(self, v: str, w: str) -> np.ndarray:
        return self.values[:, self.labels.index(v), self.labels.index(w)]


def _innovations(m: SvarModel, n_steps: int, seed: int) -> np.ndarray:
    if seed < 0:
        raise SemanticError("seed must be nonnegative")
    out = np.empty((n_steps, m.n_processes))
    for idx, name in enumerate(m.processes):
        bits = np.random.Philox(key=np.array([seed, idx], dtype=np.uint64))
        rng = np.random.Generator(bits)
        scale = np.sqrt(m.noise_var[name])
        out[:, idx] = scale * rng.standard_normal(n_steps)
    return out


def simulate(m: SvarModel, T: int, seed: int = 0, burn_in: int = 1024) -> Trajectory:
    """Draw one trajectory of length T after discarding burn_in samples."""
    if T <= 0:
        raise SemanticError("trajectory length must be positive")
    n = m.n_processes
    p = m.order
    n_steps = T + burn_in

    solve0 = contemporaneous_solve_matrix(m)  # (I - Phi(0)^T)^{-1}
    eta = _innovations(m, n_steps, seed) @ solve0.T

    if p == 0:
        values = eta
    else:
        comp = companion_matrix(m)  # folds the contemporaneous solve
        state = np.zeros(n * p)
        values = np.empty((n_steps, n))
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(n_steps):
                state = comp @ state
                state[:n] += eta[t]
                values[t] = state[:n]
                if t % 256 == 0 and not np.all(np.abs(state) < _EXPLOSION_LIMIT):
                    raise ExplosionError(f"trajectory left the finite guard at step {t}")

    if not np.all(np.isfinite(values)) or np.abs(values).max() >= _EXPLOSION_LIMIT:
        raise ExplosionError("trajectory left the finite guard")
    return Trajectory(
        labels=m.processes,
        n_observed=m.n_observed,
        values=values[burn_in:],
        seed=seed,
        burn_in=burn_in,
    )


def welch_spectrum(
    traj: Trajectory,
    segment_len: int = 4096,
    overlap: float = 0.5,
    grid: int = 256,
    observed_only: bool = True,
) -> SpectralEstimate:
    """Averaged Hann-tapered cross-spectra on the grid omega_j = 2 pi j / grid.

    The segment length must be a multiple of the grid size; segment FFT bins
    are subsampled onto the grid, so no interpolation happens.
    """
    data = traj.observed() if observed_only else traj.values
    labels = traj.labels[: traj.n_observed] if observed_only else traj.labels
    T, n_series = data.shape
    if T < 2 * segment_len:
        raise TooShortError(f"need at least {2 * segment_len} samples, got {T}")
    if not 0.0 <= overlap < 1.0:
        raise SemanticError("overlap must be in [0, 1)")
    if segment_len % grid != 0:
        raise SemanticError("segment_len must be a multiple of the grid size")

    step = max(1, int(round(segment_len * (1.0 - overlap))))
    starts = range(0, T - segment_len + 1, step)
    idx = np.arange(segment_len)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * idx / segment_len)
    norm = (window**2).sum()

    acc = np.zeros((segment_len, n_series, n_series), dtype=complex)
    count = 0
    for s0 in starts:
        seg = data[s0 : s0 + segment_len] * window[:, None]
        seg_fft = np.fft.fft(seg, axis=0)  # (segment_len, n_series)
        acc += np.einsum("wi,wj->wij", seg_fft, np.conj(seg_fft))
        count += 1
    acc /= count * norm

    stride = segment_len // grid
    values = acc[::stride]
    omegas = 2.0 * np.pi * np.arange(grid) / grid
    return SpectralEstimate(
        labels=labels,
        omegas=omegas,
        values=values,
        segment_count=count,
        segment_len=segment_len,
        taper="hann",
    )

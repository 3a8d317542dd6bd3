"""Monte-Carlo ground truth: trajectory sampling and Welch cross-spectra.

Sampling uses the counter-based Philox generator with one substream per
process, keyed by (master seed, process index).  For order p >= 1 the
companion recursion s_t = C s_{t-1} + [eta_t; 0] is evaluated in two levels:
the n_steps innovations are cut into blocks of B = ceil(sqrt(n_steps)) steps,
every block runs its B steps at once from a zero start (its forced response),
a loop over the blocks carries the start states s = C^B s + end state, and
one product with the top rows of C^1..C^B adds each block's free response.
That is about 2 sqrt(n_steps) vectorised steps instead of n_steps, with the
same values as the step-by-step recursion up to rounding.  The innovation
rows are drawn in place, in contiguous slices of processes across the cores
this process may use (numpy's generators release the GIL); every process has
its own stream, so the draw is bit-identical on any number of cores.
Trajectories are bit-reproducible for a fixed seed, numpy version and BLAS.

The Welch estimator targets the same spectral convention as the analytic
code: the plain Fourier sum of the auto-covariance sequence, no 1/2pi.  Only
the grid bins are computed.  Bin j * stride of a segment's DFT is bin j of the
length-grid DFT of the tapered segment folded modulo grid (its stride pieces
of length grid summed), and real data need only bins 0..grid//2 of that DFT,
from ``np.fft.rfft``.  The cross-periodograms are accumulated on that half
grid, over chunks of segments whose size follows from a fixed memory budget,
and mirrored once by conjugation onto the full grid, as the frequency engine
mirrors its solves (``spectral._mirror``), on the engine's ``frequency_grid``.
The estimate is a ``spectral.SpectralMatrix`` that also records how it was made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ExplosionError, SemanticError, TooShortError
from .model import SvarModel, companion_matrix, contemporaneous_solve_matrix
from .spectral import SpectralMatrix, _in_slices, _mirror, frequency_grid

_EXPLOSION_LIMIT = 1e12
# bound on the tapered copy of one chunk of segments, the largest temporary of
# the chunk: its fold, half-grid rfft and cross products are stride times smaller
_WELCH_CHUNK_BYTES = 1 << 21


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
class SpectralEstimate(SpectralMatrix):
    """A spectral matrix averaged from tapered cross-periodograms on an equispaced grid."""

    segment_count: int
    segment_len: int
    taper: str


def _innovations(m: SvarModel, n_steps: int, seed: int) -> np.ndarray:
    if not 0 <= seed < 2**64:
        raise SemanticError("seed must be in [0, 2^64)")
    out = np.empty((m.n_processes, n_steps))

    def draw(lo: int, hi: int) -> None:
        for idx in range(lo, hi):
            bits = np.random.Philox(key=np.array([seed, idx], dtype=np.uint64))
            np.random.Generator(bits).standard_normal(n_steps, out=out[idx])
            out[idx] *= np.sqrt(m.noise_var[m.processes[idx]])

    _in_slices(m.n_processes, m.n_processes * n_steps, draw)
    return out.T


def _blocked_recursion(comp: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Top rows of s_t = comp s_{t-1} + [eta_t; 0] from s_{-1} = 0, in sqrt-sized blocks."""
    n_steps, n = eta.shape
    k = comp.shape[0]
    size = math.isqrt(n_steps - 1) + 1  # ceil(sqrt(n_steps))
    blocks = -(-n_steps // size)
    # rows [:blocks] are the zero-padded innovation blocks; the k rows after
    # them start at the identity and collect the top rows of comp^1..comp^size
    out = np.zeros((blocks + k, size, n))
    out[:blocks].reshape(-1, n)[:n_steps] = eta
    state = np.zeros((blocks + k, k))
    state[blocks:] = np.eye(k)
    for j in range(size):
        state = state @ comp.T
        state[:, :n] += out[:, j]
        out[:, j] = state[:, :n]
    start = np.zeros((blocks, k))  # s_{b*size - 1}, the state each block starts from
    for b in range(1, blocks):
        start[b] = start[b - 1] @ state[blocks:] + state[b - 1]
    out[:blocks] += (start @ out[blocks:].reshape(k, -1)).reshape(blocks, size, n)
    return out[:blocks].reshape(-1, n)[:n_steps]


def simulate(m: SvarModel, T: int, seed: int = 0, burn_in: int = 1024) -> Trajectory:
    """Draw one trajectory of length T after discarding burn_in samples."""
    if T <= 0:
        raise SemanticError("trajectory length must be positive")
    if burn_in < 0:
        raise SemanticError("burn_in must be nonnegative")
    n_steps = T + burn_in

    eta = _innovations(m, n_steps, seed)
    if m.Phi[0].any():  # otherwise the solve matrix (I - Phi(0)^T)^{-1} is exactly I
        eta = eta @ contemporaneous_solve_matrix(m).T

    if m.order == 0:
        values = eta
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            values = _blocked_recursion(companion_matrix(m), eta)

    if not np.abs(values).max() < _EXPLOSION_LIMIT:  # also catches NaN and +-inf
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
) -> SpectralEstimate:
    """Averaged Hann-tapered cross-spectra of the observed series on the grid
    omega_j = 2 pi j / grid; for every process, observed and latent, pass
    ``dataclasses.replace(traj, n_observed=len(traj.labels))``.

    The segment length must be a multiple of the grid size; each tapered
    segment is folded onto the grid, so its DFT bins on the grid are exact and
    no interpolation happens.  ``values[grid - j]`` is ``conj(values[j])``.
    """
    if segment_len < 1 or grid < 1:
        raise SemanticError("segment_len and grid must be positive")
    data = traj.observed()
    T, n_series = data.shape
    if T < 2 * segment_len:
        raise TooShortError(f"need at least {2 * segment_len} samples, got {T}")
    if not 0.0 <= overlap < 1.0:
        raise SemanticError("overlap must be in [0, 1)")
    if segment_len % grid != 0:
        raise SemanticError("segment_len must be a multiple of the grid size")

    step = max(1, int(round(segment_len * (1.0 - overlap))))
    stride = segment_len // grid
    idx = np.arange(segment_len)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * idx / segment_len)
    norm = (window**2).sum()

    # (count, n_series, segment_len) views of the series, no copy
    segments = sliding_window_view(data, segment_len, axis=0)[::step]
    count = segments.shape[0]
    chunk = max(1, _WELCH_CHUNK_BYTES // (8 * n_series * segment_len))
    half = np.zeros((grid // 2 + 1, n_series, n_series), dtype=complex)
    for c0 in range(0, count, chunk):
        tapered = segments[c0 : c0 + chunk] * window
        folded = tapered.reshape(*tapered.shape[:2], stride, grid).sum(axis=2)
        bins = np.fft.rfft(folded, axis=-1)
        half += bins.transpose(2, 1, 0) @ np.conj(bins).transpose(2, 0, 1)
    half /= count * norm
    return SpectralEstimate(
        labels=traj.labels[: traj.n_observed],
        omegas=frequency_grid(grid),
        values=_mirror(half, grid),
        segment_count=count,
        segment_len=segment_len,
        taper="hann",
    )

"""Frequency-domain representation: transfer functions, spectra, decompositions.

Every edge carries a rational transfer function on the complex unit circle
(numerator from the cross coefficients, denominator from the target's
auto-dependencies).  Spectral densities follow the plain Fourier sum of the
auto-covariance sequence, with no 1/2pi normalization.  Frequency grids are
equispaced on [0, 2pi).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import LatentPresentError, SemanticError, SingularAtFrequencyError
from .filters import FiniteFilter
from .graph import DirectedPath, Trek, cycle_basis, enumerate_paths
from .model import SvarModel, process_graph


def frequency_grid(n: int) -> np.ndarray:
    """omega_j = 2 pi j / n for j = 0..n-1."""
    if n <= 0:
        raise SemanticError("grid size must be positive")
    return 2.0 * np.pi * np.arange(n) / n


def _as_omegas(grid: int | np.ndarray) -> np.ndarray:
    if isinstance(grid, (int, np.integer)):
        return frequency_grid(int(grid))
    return np.asarray(grid, dtype=float)


@dataclass(frozen=True)
class RationalTransfer:
    """Rational polynomial in z = exp(-i omega), restricted to the unit circle.

    ``num[k]`` multiplies z^k; ``den`` starts at 1 and carries the negated
    auto-coefficients of the target process, so the denominator never vanishes
    on the circle when the per-process stability condition holds.
    """

    num: np.ndarray
    den: np.ndarray

    def evaluate(self, omegas: np.ndarray | float) -> np.ndarray:
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        z = np.exp(-1j * omegas)
        powers = z[:, None] ** np.arange(len(self.den))[None, :]
        num = powers[:, : len(self.num)] @ self.num
        den = powers @ self.den
        return num / den


@dataclass(frozen=True)
class TransferGrid:
    """Complex matrix (or scalar) samples on a frequency grid."""

    omegas: np.ndarray
    values: np.ndarray  # (N, rows, cols) complex

    @property
    def is_scalar(self) -> bool:
        return self.values.shape[1] == 1 and self.values.shape[2] == 1

    def scalar_values(self) -> np.ndarray:
        if not self.is_scalar:
            raise SemanticError("not a scalar grid")
        return self.values[:, 0, 0]

    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        """Modulus and phase of a scalar grid; phase in (-pi, pi]."""
        vals = self.scalar_values()
        return np.abs(vals), np.angle(vals)


@dataclass(frozen=True)
class SpectralMatrix:
    """Per-frequency spectral density matrix over named processes."""

    labels: tuple[str, ...]
    omegas: np.ndarray
    values: np.ndarray  # (N, m, m) complex

    def entry(self, v: str, w: str) -> np.ndarray:
        return self.values[:, self.labels.index(v), self.labels.index(w)]

    def hermitian_defect(self) -> float:
        return float(np.abs(self.values - np.conj(self.values).transpose(0, 2, 1)).max())

    def min_eigenvalue(self) -> float:
        sym = 0.5 * (self.values + np.conj(self.values).transpose(0, 2, 1))
        return float(np.linalg.eigvalsh(sym).min())


@dataclass(frozen=True)
class SpectralDecomposition:
    """Split of a target spectrum into causal, confounding and residual parts."""

    ancestor: str
    target: str
    omegas: np.ndarray
    causal: np.ndarray
    confounding: np.ndarray
    residual: np.ndarray
    target_spectrum: np.ndarray


def edge_transfer(m: SvarModel, v: str, w: str) -> RationalTransfer:
    """Rational transfer function of the edge v -> w.

    The denominator uses the auto-coefficients of the target w, matching the
    recursion that defines the direct effect filter.
    """
    if v == w:
        raise SemanticError("edge transfer requires distinct processes")
    num = m.cross_coeffs(v, w)
    den = -m.auto_coeffs(w)
    den[0] = 1.0
    return RationalTransfer(num=num, den=den)


def internal_spectrum(m: SvarModel, v: str, omegas: np.ndarray) -> np.ndarray:
    """Spectral density of the internal dynamics of one process (real, positive)."""
    _, den = _transfer(m, omegas)
    return m.noise_var[v] / np.abs(den[:, m._index(v)]) ** 2


def fourier(f: FiniteFilter, grid: int | np.ndarray) -> TransferGrid:
    """Direct evaluation of sum_s f(s) exp(-i omega s) on the grid."""
    omegas = _as_omegas(grid)
    lags = f.start + np.arange(f.n_lags)
    phases = np.exp(-1j * np.outer(omegas, lags))
    values = np.einsum("wt,trc->wrc", phases, f.values)
    return TransferGrid(omegas=omegas, values=values)


def _transfer(m: SvarModel, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge transfer functions H(omega) over all processes and the denominators D(omega).

    ``H[:, i, j]`` is ``edge_transfer(m, processes[i], processes[j])`` on the
    grid, evaluated only at edge-mask positions and exactly zero elsewhere;
    ``D[:, j] = 1 - sum_k a_j(k) z^k`` carries the auto-dependencies of
    process j.  Shapes (N, n, n) and (N, n).
    """
    z = np.exp(-1j * omegas)
    powers = z[:, None] ** np.arange(m.order + 1)[None, :]
    den = -np.diagonal(m.Phi, axis1=1, axis2=2)
    den[0] = 1.0
    d = powers @ den
    rows, cols = np.nonzero(m._edge_mask)
    h = np.zeros((len(omegas), m.n_processes, m.n_processes), dtype=complex)
    h[:, rows, cols] = (powers @ m.Phi[:, rows, cols]) / d[:, cols]
    return h, d


def _solve(a: np.ndarray, b: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) batched over frequencies.

    When the batch fails, the frequencies are redone one at a time so that the
    singular one is reported as SingularAtFrequencyError.
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.empty(b.shape, dtype=complex)
        for i in range(len(omegas)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError as exc:
                raise SingularAtFrequencyError(float(omegas[i])) from exc
        return out


def _solve_sandwich(a: np.ndarray, s: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """(A)^{-T} S (A)^{-*} per frequency, batched."""
    left = _solve(a.transpose(0, 2, 1), s, omegas)
    right = _solve(np.conj(a).transpose(0, 2, 1), left.transpose(0, 2, 1), omegas)
    return right.transpose(0, 2, 1)


def _inverse_entry(h: np.ndarray, i: int, j: int, omegas: np.ndarray) -> np.ndarray:
    """Entry (i, j) of (I - h)^{-1} per frequency, from one column solve."""
    n = h.shape[1]
    rhs = np.zeros((len(omegas), n, 1), dtype=complex)
    rhs[:, j, 0] = 1.0
    return _solve(np.eye(n)[None, :, :] - h, rhs, omegas)[:, i, 0]


def _assemble(m: SvarModel, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Observed edge transfers H and the projected noise spectrum S_LI.

    S_LI holds the internal spectra of the observed processes on its diagonal
    plus the latent contribution J^T S_lat J^*, where the latent spectrum
    S_lat is itself solved through the latent-to-latent edges when any exist.
    """
    h, d = _transfer(m, omegas)
    internal = np.array([m.noise_var[name] for name in m.processes]) / np.abs(d) ** 2
    s_int = internal[:, :, None] * np.eye(m.n_processes)
    n = m.n_observed
    s_li = s_int[:, :n, :n]
    if m.latents:
        j = h[:, n:, :n]
        s_lat = s_int[:, n:, n:]
        if m._edge_mask[n:, n:].any():
            eye = np.eye(len(m.latents))[None, :, :]
            s_lat = _solve_sandwich(eye - h[:, n:, n:], s_lat, omegas)
        s_li = s_li + np.einsum("wdi,wde,wej->wij", j, s_lat, np.conj(j))
    return h[:, :n, :n], s_li


def spectral_density(m: SvarModel, grid: int | np.ndarray = 256) -> SpectralMatrix:
    """Analytic spectral density of the observed processes."""
    omegas = _as_omegas(grid)
    h, s_li = _assemble(m, omegas)
    eye = np.eye(m.n_observed)[None, :, :]
    values = _solve_sandwich(eye - h, s_li, omegas)
    return SpectralMatrix(labels=m.observed, omegas=omegas, values=values)


def cctf(
    m: SvarModel,
    x: str,
    y: str,
    controls: Iterable[str] = (),
    grid: int | np.ndarray = 256,
) -> TransferGrid:
    """Controlled causal transfer function of x on y.

    Entry (x, y) of the inverse of (I - H) after zeroing every column into x
    and into the controls; the grid must keep rho(H(omega)) below one for the
    result to agree with the path series.
    """
    controls = set(controls)
    if x not in m.observed or y not in m.observed:
        raise SemanticError("cause and target must be observed processes")
    if y in controls:
        raise SemanticError("target cannot be controlled")
    if not controls <= set(m.observed):
        raise SemanticError("controls must be observed processes")
    omegas = _as_omegas(grid)
    n = m.n_observed
    h = _transfer(m, omegas)[0][:, :n, :n]
    h[:, :, [m.observed.index(name) for name in controls | {x}]] = 0.0
    values = _inverse_entry(h, m.observed.index(x), m.observed.index(y), omegas)
    return TransferGrid(omegas=omegas, values=values[:, None, None])


def path_transfer(m: SvarModel, path: DirectedPath, grid: int | np.ndarray) -> np.ndarray:
    """Pointwise product of edge transfer functions along a path."""
    omegas = _as_omegas(grid)
    out = np.ones(len(omegas), dtype=complex)
    for src, dst in path.edge_list():
        out = out * edge_transfer(m, src, dst).evaluate(omegas)
    return out


def loop_gain_report(m: SvarModel, grid: int | np.ndarray = 256) -> dict[tuple[str, ...], float]:
    """Max modulus of the transfer product around each minimal cycle.

    An exponential diagnostic (it enumerates every cycle), kept as a test
    oracle: loops that share a vertex compound, so no set of per-cycle gains
    decides convergence.  ``check_stability`` reports max_omega rho(H(omega))
    instead.
    """
    omegas = _as_omegas(grid)
    gains: dict[tuple[str, ...], float] = {}
    for cycle in cycle_basis(process_graph(m)):
        closed = DirectedPath(vertices=cycle + (cycle[0],))
        gains[cycle] = float(np.abs(path_transfer(m, closed, omegas)).max())
    return gains


def freq_path_rule_check(
    m: SvarModel,
    v: str,
    w: str,
    grid: int | np.ndarray = 256,
    depth: int = 0,
) -> float:
    """Max deviation between the matrix-inverse entry and the truncated path sum."""
    omegas = _as_omegas(grid)
    n = m.n_observed
    h = _transfer(m, omegas)[0][:, :n, :n]
    exact = _inverse_entry(h, m.observed.index(v), m.observed.index(w), omegas)
    total = np.zeros(len(omegas), dtype=complex)
    for path in enumerate_paths(process_graph(m), v, w, max_cycle_depth=depth):
        if all(name not in m.latents for name in path.vertices):
            total += path_transfer(m, path, omegas)
    return float(np.abs(exact - total).max())


def trek_monomial_function(m: SvarModel, trek: Trek, grid: int | np.ndarray = 256) -> np.ndarray:
    """Per-frequency contribution of one trek to the cross spectrum."""
    omegas = _as_omegas(grid)
    _, s_li = _assemble(m, omegas)
    if trek.bidirected is None:
        i = j = m.observed.index(trek.top)
    else:
        i = m.observed.index(trek.bidirected[0])
        j = m.observed.index(trek.bidirected[1])
    middle = s_li[:, i, j]
    left = path_transfer(m, trek.left, omegas)
    right = path_transfer(m, trek.right, omegas)
    return left * middle * np.conj(right)


def decompose_spectrum(
    m: SvarModel, ancestor: str, target: str, grid: int | np.ndarray = 256
) -> SpectralDecomposition:
    """Split the target spectrum into causal, confounding and residual parts.

    causal = |H|^2 S_ancestor with H the causal transfer function;
    confounding = 2 Re(H S_{ancestor,target}) - 2 |H|^2 S_ancestor;
    residual is the remainder.
    """
    if ancestor == target:
        raise SemanticError("ancestor and target must differ")
    omegas = _as_omegas(grid)
    s = spectral_density(m, omegas)
    ctf = cctf(m, ancestor, target, (), omegas).scalar_values()
    return _decompose_from(s, ctf, ancestor, target)


def _decompose_from(
    s: SpectralMatrix, ctf: np.ndarray, ancestor: str, target: str
) -> SpectralDecomposition:
    s_anc = s.entry(ancestor, ancestor).real
    s_tgt = s.entry(target, target).real
    cross = s.entry(ancestor, target)
    causal = (np.abs(ctf) ** 2) * s_anc
    confounding = 2.0 * np.real(ctf * cross) - 2.0 * causal
    residual = s_tgt - causal - confounding
    assert causal.min() >= -1e-12
    return SpectralDecomposition(
        ancestor=ancestor,
        target=target,
        omegas=s.omegas,
        causal=causal,
        confounding=confounding,
        residual=residual,
        target_spectrum=s_tgt,
    )


@dataclass(frozen=True)
class SourceDecomposition:
    """Per-noise-source split of the spectral decomposition factors."""

    total: SpectralDecomposition
    sources: Mapping[str, SpectralDecomposition]


def decompose_by_source(
    m: SvarModel, ancestor: str, target: str, grid: int | np.ndarray = 256
) -> SourceDecomposition:
    """Attribute each decomposition factor to the individual noise sources.

    Zeroes all innovation variances except one and reruns the factor formulas
    with the unchanged transfer functions; the portions add up to the full
    factors because every factor is linear in the noise variances.
    """
    if m.latents:
        raise LatentPresentError("per-source split requires a latent-free model")
    omegas = _as_omegas(grid)
    total = decompose_spectrum(m, ancestor, target, omegas)
    ctf = cctf(m, ancestor, target, (), omegas).scalar_values()
    sources = {}
    for name in m.observed:
        solo = m.with_noise_var({other: 0.0 for other in m.observed if other != name})
        s_solo = spectral_density(solo, omegas)
        sources[name] = _decompose_from(s_solo, ctf, ancestor, target)
    return SourceDecomposition(total=total, sources=sources)

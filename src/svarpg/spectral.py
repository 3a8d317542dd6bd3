"""Frequency-domain representation: transfer functions, spectra, decompositions.

Every edge carries a rational transfer function on the complex unit circle
(numerator from the cross coefficients, denominator from the target's
auto-dependencies).  Spectra, cctf and per-source splits solve on the one
matrix M(omega) = I - sum_k Phi_k exp(-i omega k) and divide by no 1 - a_j(z):
S = X X^H with X = M^{-T} diag(sigma).  Spectral densities follow the plain
Fourier sum of the auto-covariance sequence, with no 1/2pi normalization.
Frequency grids are equispaced on [0, 2pi).

A spectrum exists only for a stationary process: ``_noise_factor`` certifies
its block's companion radius and ``model._certify_own`` the internal dynamics
1 - a_j(z), before any grid point is read (NonConvergentError).  Transfer
functions stay ungated and raise SingularAtFrequencyError at a pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import LatentPresentError, SemanticError, SingularAtFrequencyError
from .filters import FiniteFilter, _cut
from .graph import DirectedPath, Trek, cycle_basis, enumerate_paths
from .model import SvarModel, _certify, _certify_own, phi_companion, process_graph


def frequency_grid(n: int) -> np.ndarray:
    """omega_j = 2 pi j / n for j = 0..n-1."""
    if n <= 0:
        raise SemanticError("grid size must be positive")
    return 2.0 * np.pi * np.arange(n) / n


def _as_omegas(grid: int | np.ndarray) -> np.ndarray:
    if isinstance(grid, (int, np.integer)):
        return frequency_grid(int(grid))
    return np.asarray(grid, dtype=float)


def _nonzero(d: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """The divisors ``d`` (frequency on axis 0), after raising
    SingularAtFrequencyError at the first omega where one of them, a 1 - a_j(z),
    is exactly zero: the edge functions into process j have a pole there."""
    if not d.all():
        omega = float(omegas[np.nonzero(d == 0)[0][0]])
        raise SingularAtFrequencyError(omega, f"a denominator 1 - a_j(z) vanishes at omega={omega:.6g}")
    return d


@dataclass(frozen=True)
class RationalTransfer:
    """Rational polynomial in z = exp(-i omega), restricted to the unit circle.

    ``num[k]`` multiplies z^k; ``den`` starts at 1 and carries the negated
    auto-coefficients of the target process, so the denominator never vanishes
    on the circle when the per-process stability condition holds; where it
    does, ``evaluate`` raises SingularAtFrequencyError.
    """

    num: np.ndarray
    den: np.ndarray

    def evaluate(self, omegas: np.ndarray | float) -> np.ndarray:
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        z = np.exp(-1j * omegas)
        powers = z[:, None] ** np.arange(len(self.den))[None, :]
        num = powers[:, : len(self.num)] @ self.num
        return num / _nonzero(powers @ self.den, omegas)


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


def internal_spectrum(m: SvarModel, v: str, omegas: int | np.ndarray) -> np.ndarray:
    """Spectral density of the internal dynamics of one process (real, positive);
    NonConvergentError unless those dynamics 1 - a_v(z) are stable."""
    i = m._index(v)
    _certify_own(m, slice(i, i + 1))
    omegas = _as_omegas(omegas)
    d = _denominators(m, omegas)[1][:, i]
    return m.noise_var[v] / np.abs(_nonzero(d, omegas)) ** 2


def fourier(f: FiniteFilter, grid: int | np.ndarray) -> TransferGrid:
    """Direct evaluation of sum_s f(s) exp(-i omega s) on the grid."""
    omegas = _as_omegas(grid)
    lags = f.start + np.arange(f.n_lags)
    phases = np.exp(-1j * np.outer(omegas, lags))
    values = np.einsum("wt,trc->wrc", phases, f.values)
    return TransferGrid(omegas=omegas, values=values)


def _denominators(m: SvarModel, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Powers z^k, shape (N, p + 1), and D[:, j] = 1 - sum_k a_j(k) z^k, shape (N, n)."""
    powers = np.exp(-1j * omegas)[:, None] ** np.arange(m.order + 1)[None, :]
    den = -np.diagonal(m.Phi, axis1=1, axis2=2)
    den[0] = 1.0
    return powers, powers @ den


def _transfer(m: SvarModel, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge transfer functions H(omega) over all processes and the denominators D(omega).

    ``H[:, i, j]`` is ``edge_transfer(m, processes[i], processes[j])`` on the
    grid, evaluated only at edge-mask positions and exactly zero elsewhere;
    ``D[:, j] = 1 - sum_k a_j(k) z^k`` carries the auto-dependencies of
    process j.  Shapes (N, n, n) and (N, n).  A zero D of a process that some
    edge enters is a SingularAtFrequencyError.
    """
    powers, d = _denominators(m, omegas)
    rows, cols = np.nonzero(m._edge_mask)
    h = np.zeros((len(omegas), m.n_processes, m.n_processes), dtype=complex)
    h[:, rows, cols] = (powers @ m.Phi[:, rows, cols]) / _nonzero(d[:, cols], omegas)
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


def _reduced(m: SvarModel, omegas: np.ndarray, block: slice, cut: Iterable[int] = ()) -> np.ndarray:
    """M(omega) = I - sum_k phi_k z^k over ``m.processes[block]``, evaluated only
    where phi is nonzero, with the block columns ``cut`` zeroed (autos included)."""
    phi = m.Phi[:, block, block]
    live = (phi != 0.0).any(axis=0)
    live[:, list(cut)] = False
    rows, cols = np.nonzero(live)
    powers = np.exp(-1j * omegas)[:, None] ** np.arange(m.order + 1)[None, :]
    out = np.zeros((len(omegas),) + live.shape, dtype=complex)
    out[:, rows, cols] = -(powers @ phi[:, rows, cols])
    diag = np.arange(len(live))
    out[:, diag, diag] += 1.0
    return out


def _noise_factor(m: SvarModel, omegas: np.ndarray, block: slice = slice(None)) -> np.ndarray:
    """X = M(omega)^{-T} diag(sigma) over ``m.processes[block]``: column k is
    the response to source k, and X X^H is the block's spectrum; it exists only
    for a companion radius below one, even where the solve stays finite."""
    _certify(phi_companion(m.Phi[:, block, block]), "no stationary spectrum: companion radius")
    a = _reduced(m, omegas, block).transpose(0, 2, 1)
    sigma = np.sqrt([m.noise_var[name] for name in m.processes[block]])
    return _solve(a, np.broadcast_to(np.diag(sigma), a.shape), omegas)


def _gram(x: np.ndarray) -> np.ndarray:
    """X X^H per frequency."""
    return x @ np.conj(x).transpose(0, 2, 1)


def _inverse_entry(a: np.ndarray, i: int, j: int, omegas: np.ndarray) -> np.ndarray:
    """Entry (i, j) of a^{-1} per frequency, from one column solve."""
    rhs = np.zeros((len(omegas), a.shape[1], 1), dtype=complex)
    rhs[:, j, 0] = 1.0
    return _solve(a, rhs, omegas)[:, i, 0]


def _assemble(m: SvarModel, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Observed edge transfers H and the trek rule's projected noise spectrum S_LI.

    S_LI holds the internal spectra of the observed processes on its diagonal
    plus the latent contribution J^T S_lat J^*, S_lat the latent block's spectrum.
    Like ``projected_noise_acs``, it exists only for stable internal dynamics.
    """
    _certify_own(m)
    h, d = _transfer(m, omegas)
    n = m.n_observed
    internal = np.array([m.noise_var[name] for name in m.observed]) / np.abs(_nonzero(d[:, :n], omegas)) ** 2
    s_li = internal[:, :, None] * np.eye(n)
    if m.latents:
        j = h[:, n:, :n]
        s_lat = _gram(_noise_factor(m, omegas, slice(n, None)))
        s_li = s_li + np.einsum("wdi,wde,wej->wij", j, s_lat, np.conj(j))
    return h[:, :n, :n], s_li


def spectral_density(m: SvarModel, grid: int | np.ndarray = 256) -> SpectralMatrix:
    """Analytic spectral density of the observed processes: S = X X^H on the
    observed rows of X = M(omega)^{-T} diag(sigma), one solve over all processes
    (latents receive no observed edges), no denominators.  It exists only for a
    stationary VAR: a companion radius of one or more is a NonConvergentError."""
    omegas = _as_omegas(grid)
    x = _noise_factor(m, omegas)[:, : m.n_observed]
    return SpectralMatrix(labels=m.observed, omegas=omegas, values=_gram(x))


def cctf(
    m: SvarModel,
    x: str,
    y: str,
    controls: Iterable[str] = (),
    grid: int | np.ndarray = 256,
) -> TransferGrid:
    """Controlled causal transfer function of x on y.

    Entry (x, y) of M_cut(omega)^{-1} on the observed block, the columns of x
    and the controls zeroed: (I - H_cut)^{-1} = diag(d) M_cut^{-1} and d_x = 1.
    No denominator is divided by; a true pole is a SingularAtFrequencyError.
    The grid must keep rho(H(omega)) below one for the result to agree with
    the path series.
    """
    cut = _cut(m, x, y, controls)
    omegas = _as_omegas(grid)
    a = _reduced(m, omegas, slice(None, m.n_observed), cut)
    values = _inverse_entry(a, m.observed.index(x), m.observed.index(y), omegas)
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
    exact = _inverse_entry(np.eye(n) - h, m.observed.index(v), m.observed.index(w), omegas)
    total = np.zeros(len(omegas), dtype=complex)
    for path in enumerate_paths(process_graph(m), v, w, max_cycle_depth=depth):
        if all(name not in m.latents for name in path.vertices):
            total += path_transfer(m, path, omegas)
    return float(np.abs(exact - total).max())


def trek_monomial_function(m: SvarModel, trek: Trek, grid: int | np.ndarray = 256) -> np.ndarray:
    """Per-frequency contribution of one trek to the cross spectrum.

    The observed edge transfers H and S_LI of ``_assemble`` depend on ``m``
    and the grid only: they are built once and kept on the model for the last
    grid, and each path product multiplies entries of that H.
    """
    omegas = _as_omegas(grid)
    h, s_li = m._cached("trek_function", omegas.tobytes(), lambda: _assemble(m, omegas))
    i, j = (m.observed.index(v) for v in trek.bidirected or (trek.top, trek.top))

    def path_product(path) -> np.ndarray:
        edges = (h[:, m.observed.index(src), m.observed.index(dst)] for src, dst in path.edge_list())
        return math.prod(edges, start=np.ones(len(omegas), dtype=complex))

    return path_product(trek.left) * s_li[:, i, j] * np.conj(path_product(trek.right))


def decompose_spectrum(
    m: SvarModel, ancestor: str, target: str, grid: int | np.ndarray = 256
) -> SpectralDecomposition:
    """Split the target spectrum into causal, confounding and residual parts.

    causal = |H|^2 S_ancestor with H the causal transfer function;
    confounding = 2 Re(H S_{ancestor,target}) - 2 |H|^2 S_ancestor;
    residual is the remainder.
    """
    omegas = _as_omegas(grid)
    s = spectral_density(m, omegas)
    ctf = cctf(m, ancestor, target, (), omegas).scalar_values()
    return _decompose_from(s, ctf, ancestor, target)


def _decompose_from(
    s: SpectralMatrix, ctf: np.ndarray, ancestor: str, target: str
) -> SpectralDecomposition:
    if ancestor == target:
        raise SemanticError("ancestor and target must differ")
    s_anc = s.entry(ancestor, ancestor).real
    s_tgt = s.entry(target, target).real
    cross = s.entry(ancestor, target)
    causal = (np.abs(ctf) ** 2) * s_anc
    confounding = 2.0 * np.real(ctf * cross) - 2.0 * causal
    residual = s_tgt - causal - confounding
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

    Source k's spectrum is the outer product of column k of X = M^{-T} diag(sigma);
    the factor formulas rerun on it with the unchanged cctf, and the portions
    add up to the full factors because S = X X^H sums those outer products.
    """
    if m.latents:
        raise LatentPresentError("per-source split requires a latent-free model")
    omegas = _as_omegas(grid)
    ctf = cctf(m, ancestor, target, (), omegas).scalar_values()
    x = _noise_factor(m, omegas)
    total = _decompose_from(SpectralMatrix(m.observed, omegas, _gram(x)), ctf, ancestor, target)
    sources = {
        name: _decompose_from(
            SpectralMatrix(m.observed, omegas, _gram(x[:, :, k : k + 1])), ctf, ancestor, target
        )
        for k, name in enumerate(m.observed)
    }
    return SourceDecomposition(total=total, sources=sources)

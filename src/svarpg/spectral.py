"""Frequency-domain representation: transfer functions, spectra, decompositions.

Every lag sequence reaches the complex unit circle through one evaluator,
``_on_circle``: M(omega), the edge transfer functions H(omega) (numerator from
the cross coefficients, denominator from the target's auto-dependencies), the
denominators and ``fourier``.  Spectra, cctf and per-source splits solve on the
one matrix M(omega) = I - sum_k Phi_k exp(-i omega k) and divide by no
1 - a_j(z): S = X X^H with X = M^{-T} diag(sigma).  Spectral densities follow
the plain Fourier sum of the auto-covariance sequence, with no 1/2pi
normalization.
Frequency grids are equispaced on [0, 2pi).  An int grid is solved on its
points in [0, pi] and mirrored, F(2pi - omega) = conj F(omega) for real
coefficients, with no -0.0 on the mirrored half; an explicit array is solved
point by point; the two agree to rounding.

A spectrum exists only for a stationary process: ``_noise_factor`` certifies
its block's companion radius and ``model._certify_own`` the internal dynamics
1 - a_j(z), before any grid point is read (NonConvergentError).  Transfer
functions stay ungated and raise SingularAtFrequencyError at a pole.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import LatentPresentError, SemanticError, SingularAtFrequencyError
from .filters import FiniteFilter, _cut
from .graph import DirectedPath, Trek, enumerate_paths
from .model import SvarModel, _certify, _certify_own, _companion_radius, process_graph


def frequency_grid(n: int) -> np.ndarray:
    """omega_j = 2 pi j / n for j = 0..n-1."""
    if n <= 0:
        raise SemanticError("grid size must be positive")
    return 2.0 * np.pi * np.arange(n) / n


def _sized(grid: int | np.ndarray) -> bool:
    """An int grid N means ``frequency_grid(N)``, solved by ``_on_grid`` on its half
    and mirrored; anything else is an explicit array of omegas, solved point by point."""
    return isinstance(grid, (int, np.integer))


def _as_omegas(grid: int | np.ndarray) -> np.ndarray:
    return frequency_grid(int(grid)) if _sized(grid) else np.asarray(grid, dtype=float)


def _half_grid(n: int) -> np.ndarray:
    """omega_0..omega_{n//2}, the points of ``frequency_grid(n)`` in [0, pi]."""
    return frequency_grid(n)[: n // 2 + 1]


def _on_grid(grid: int | np.ndarray, build) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """``(omegas, build(omegas))``, ``build`` giving a tuple of arrays with
    frequency on axis 0.  An int grid N is built on ``_half_grid(N)`` only and
    mirrored, F(omega_{N-j}) = conj F(omega_j), real at omega = 0 and pi; poles
    pair up the same way, so the first omega of a SingularAtFrequencyError holds."""
    omegas = _as_omegas(grid)
    if not _sized(grid):
        return omegas, build(omegas)
    n = len(omegas)
    return omegas, tuple(_mirror(half, n) for half in build(_half_grid(n)))


def _mirror(half: np.ndarray, n: int) -> np.ndarray:
    """F on ``frequency_grid(n)`` from F on ``_half_grid(n)`` (frequency on axis 0),
    by F(omega_{n-j}) = conj F(omega_j); the points omega = 0, and pi for even n,
    are set to their real part in place."""
    half[:: (n + 1) // 2] = half[:: (n + 1) // 2].real
    full = np.concatenate([half, half[1 : (n + 1) // 2][::-1]])
    if np.iscomplexobj(full):  # conj as 0.0 - im: an exactly real value keeps +0.0, not -0.0
        np.subtract(0.0, full.imag[len(half) :], out=full.imag[len(half) :])
    return full


def _on_circle(coeffs: np.ndarray, omegas: np.ndarray, start: int = 0) -> np.ndarray:
    """sum_k coeffs[k] z^(start + k) at z = exp(-i omega), the one evaluation of a
    lag sequence on the unit circle: lag on axis 0 of ``coeffs``, frequency on
    axis 0 of the result, the other axes kept."""
    table = np.exp(-1j * omegas)[:, None] ** (start + np.arange(len(coeffs)))
    return (table @ coeffs.reshape(len(coeffs), -1)).reshape(len(omegas), *coeffs.shape[1:])


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
        return _on_circle(self.num, omegas) / _nonzero(_on_circle(self.den, omegas), omegas)


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

    def _position(self, name: str) -> int:
        if name not in self.labels:
            raise SemanticError(f"no process {name} in the spectral matrix")
        return self.labels.index(name)

    def entry(self, v: str, w: str) -> np.ndarray:
        return self.values[:, self._position(v), self._position(w)]

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
    return RationalTransfer(num=m.cross_coeffs(v, w), den=_own(m)[:, m._index(w)])


def internal_spectrum(m: SvarModel, v: str, omegas: int | np.ndarray) -> np.ndarray:
    """Spectral density of the internal dynamics of one process (real, positive);
    NonConvergentError unless those dynamics 1 - a_v(z) are stable."""
    i = m._index(v)
    _certify_own(m, slice(i, i + 1))
    omegas = _as_omegas(omegas)
    d = _on_circle(_own(m), omegas)[:, i]
    return m.noise_var[v] / np.abs(_nonzero(d, omegas)) ** 2


def fourier(f: FiniteFilter, grid: int | np.ndarray) -> TransferGrid:
    """Direct evaluation of sum_s f(s) exp(-i omega s) on the grid."""
    omegas = _as_omegas(grid)
    return TransferGrid(omegas=omegas, values=_on_circle(f.values, omegas, f.start))


def _own(m: SvarModel) -> np.ndarray:
    """Coefficients of D_j(z) = 1 - sum_k a_j(k) z^k, lag on axis 0 and process j on axis 1."""
    den = -np.diagonal(m.Phi, axis1=1, axis2=2)
    den[0] = 1.0
    return den


def _transfer(m: SvarModel, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge transfer functions H(omega) over all processes and the denominators D(omega).

    ``H[:, i, j]`` is ``edge_transfer(m, processes[i], processes[j])`` on the
    grid, evaluated only at edge-mask positions and exactly zero elsewhere;
    ``D[:, j] = 1 - sum_k a_j(k) z^k`` carries the auto-dependencies of
    process j.  Shapes (N, n, n) and (N, n).  A zero D of a process that some
    edge enters is a SingularAtFrequencyError.  D and the edge numerators are
    the columns of one evaluation, so the table of powers is built once.
    """
    n = m.n_processes
    rows, cols = np.nonzero(m._edge_mask)
    both = _on_circle(np.hstack([_own(m), m.Phi[:, rows, cols]]), omegas)
    d = both[:, :n]
    h = np.zeros((len(omegas), n, n), dtype=complex)
    h[:, rows, cols] = both[:, n:] / _nonzero(d[:, cols], omegas)
    return h, d


# Each slice of a split holds at least this many units of work, so a batch
# below twice this runs on the caller's thread.  A unit is one frequency x
# dimension^3 of a per-frequency LAPACK call, or one drawn normal value.  On a
# 2-core Xeon (Python 3.11, OpenBLAS on one thread) starting and joining a
# thread takes about 90 us, and a two-way split 0.3-1 ms beyond half the serial
# time; 2^17 units take about 0.25 ms to solve at dimension 42, 0.6 ms at 12
# and 2.6 ms at 3, 2-10 ms to take the eigenvalues of, and 3 ms to draw.
_PARALLEL_WORK = 1 << 17


def _cores() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_slices(n: int, work: int, run) -> list:
    """``[run(lo, hi), ...]`` over contiguous slices ``[lo, hi)`` of ``range(n)``
    that cover it in order, ``work`` units in all.

    There is at most one slice per core this process may use and none below
    ``_PARALLEL_WORK`` units, run at once: the caller's thread takes the first
    and one short-lived thread each of the others, so ``run`` must release the
    GIL to gain anything.  A slice's exception is raised after every helper has
    joined, the earliest slice's first.  Nothing outlives the call.
    """
    parts = min(_cores(), n, work // _PARALLEL_WORK)
    if parts < 2:
        return [run(0, n)]
    cuts = [n * k // parts for k in range(parts + 1)]
    results: list = [None] * parts
    errors: list = [None] * parts

    def one(k: int) -> None:
        try:
            results[k] = run(cuts[k], cuts[k + 1])
        except Exception as exc:  # raised on the caller's thread below
            errors[k] = exc

    started = []
    try:
        for k in range(1, parts):
            helper = threading.Thread(target=one, args=(k,))
            helper.start()
            started.append(helper)
        one(0)
    finally:
        for helper in started:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _per_frequency(fn, *stacks: np.ndarray) -> np.ndarray:
    """``fn(*stacks)`` for a per-frequency numpy routine, frequency on axis 0,
    run on contiguous frequency slices across cores (``_in_slices``; numpy's
    linalg gufuncs release the GIL) and joined in frequency order.  Each
    frequency gets the same LAPACK call on the same matrix, so the result is
    bit-identical to ``fn(*stacks)`` on any number of cores.
    """
    n = len(stacks[0])
    slices = _in_slices(n, n * stacks[0].shape[-1] ** 3, lambda lo, hi: fn(*(s[lo:hi] for s in stacks)))
    return slices[0] if len(slices) == 1 else np.concatenate(slices)


def _solve(a: np.ndarray, b: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) batched over frequencies, on contiguous frequency
    slices across the cores this process may use (``_per_frequency``).

    When the batch fails, the frequencies are redone one at a time so that the
    first singular one is reported as SingularAtFrequencyError.
    """
    try:
        return _per_frequency(np.linalg.solve, a, b)
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
    out = np.zeros((len(omegas),) + live.shape, dtype=complex)
    out[:, rows, cols] = -_on_circle(phi[:, rows, cols], omegas)
    diag = np.arange(len(live))
    out[:, diag, diag] += 1.0
    return out


def _noise_factor(m: SvarModel, omegas: np.ndarray, block: slice = slice(None)) -> np.ndarray:
    """X = M(omega)^{-T} diag(sigma) over ``m.processes[block]``: column k is
    the response to source k, and X X^H is the block's spectrum; it exists only
    for a companion radius below one, even where the solve stays finite."""
    _certify(_companion_radius(m, block), "no stationary spectrum: companion radius")
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
    plus the latent contribution J^T S_lat J^* with J = h[latent, observed]; as
    S_lat = X X^H over the latent block, that is the gram of J^T X.
    Like ``projected_noise_acs``, it exists only for stable internal dynamics.
    """
    _certify_own(m)
    h, d = _transfer(m, omegas)
    n = m.n_observed
    internal = np.array([m.noise_var[name] for name in m.observed]) / np.abs(_nonzero(d[:, :n], omegas)) ** 2
    s_li = internal[:, :, None] * np.eye(n)
    if m.latents:
        s_li = s_li + _gram(h[:, n:, :n].transpose(0, 2, 1) @ _noise_factor(m, omegas, slice(n, None)))
    return h[:, :n, :n], s_li


def spectral_density(m: SvarModel, grid: int | np.ndarray = 256) -> SpectralMatrix:
    """Analytic spectral density of the observed processes: S = X X^H on the
    observed rows of X = M(omega)^{-T} diag(sigma), one solve over all processes
    (latents receive no observed edges), no denominators.  It exists only for a
    stationary VAR: a companion radius of one or more is a NonConvergentError."""
    omegas, (s,) = _on_grid(grid, lambda om: (_gram(_noise_factor(m, om)[:, : m.n_observed]),))
    return SpectralMatrix(labels=m.observed, omegas=omegas, values=s)


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
    i, j = m.observed.index(x), m.observed.index(y)
    omegas, (values,) = _on_grid(
        grid, lambda om: (_inverse_entry(_reduced(m, om, slice(None, m.n_observed), cut), i, j, om),)
    )
    return TransferGrid(omegas=omegas, values=values[:, None, None])


def _path_product(h: np.ndarray, index, path: DirectedPath) -> np.ndarray:
    """Product of ``h[:, index(src), index(dst)]`` over the edges of ``path``, ones for the empty path."""
    edges = (h[:, index(src), index(dst)] for src, dst in path.edge_list())
    return math.prod(edges, start=np.ones(len(h), dtype=complex))


def path_transfer(m: SvarModel, path: DirectedPath, grid: int | np.ndarray) -> np.ndarray:
    """Pointwise product of edge transfer functions along a path, over the one H(omega)
    of ``_transfer``: a pole of any edge function of ``m`` on the grid is a SingularAtFrequencyError."""
    return _path_product(_transfer(m, _as_omegas(grid))[0], m._index, path)


def freq_path_rule_check(
    m: SvarModel,
    v: str,
    w: str,
    grid: int | np.ndarray = 256,
    depth: int = 0,
) -> float:
    """Max deviation between entry (v, w) of (I - H)^{-1} and the truncated sum of
    walk products (``_path_product``), both over one observed H(omega).  A latent
    or unknown ``v`` or ``w`` is a SemanticError, as for ``cctf``."""
    _cut(m, v, w, ())
    omegas = _as_omegas(grid)
    n = m.n_observed
    h = _transfer(m, omegas)[0][:, :n, :n]
    exact = _inverse_entry(np.eye(n) - h, m.observed.index(v), m.observed.index(w), omegas)
    total = np.zeros(len(omegas), dtype=complex)
    for path in enumerate_paths(process_graph(m), v, w, avoid=m.latents, max_cycle_depth=depth):
        total += _path_product(h, m.observed.index, path)
    return float(np.abs(exact - total).max())


def trek_monomial_function(m: SvarModel, trek: Trek, grid: int | np.ndarray = 256) -> np.ndarray:
    """Per-frequency contribution of one trek to the cross spectrum.

    The observed edge transfers H and S_LI of ``_assemble`` depend on ``m``
    and the grid only: they are built once and kept on the model for the last
    grid (an int grid and an array take different paths, so different keys),
    and each side of the trek is a ``_path_product`` over that H.
    """
    key = (_sized(grid), _as_omegas(grid).tobytes())
    _, (h, s_li) = m._cached("trek_function", key, lambda: _on_grid(grid, lambda om: _assemble(m, om)))
    i, j = (m.observed.index(v) for v in trek.bidirected or (trek.top, trek.top))
    left, right = (_path_product(h, m.observed.index, side) for side in (trek.left, trek.right))
    return left * s_li[:, i, j] * np.conj(right)


def decompose_spectrum(
    m: SvarModel, ancestor: str, target: str, grid: int | np.ndarray = 256
) -> SpectralDecomposition:
    """Split the target spectrum into causal, confounding and residual parts.

    causal = |H|^2 S_ancestor with H the causal transfer function;
    confounding = 2 Re(H S_{ancestor,target}) - 2 |H|^2 S_ancestor;
    residual is the remainder.
    """
    s = spectral_density(m, grid)
    return _decompose_from(s, cctf(m, ancestor, target, (), grid).scalar_values(), ancestor, target)


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
    The formulas read only the ancestor and target rows, so each source's
    outer product is formed on those two rows alone.
    """
    if m.latents:
        raise LatentPresentError("per-source split requires a latent-free model")
    ctf = cctf(m, ancestor, target, (), grid).scalar_values()
    omegas, (x,) = _on_grid(grid, lambda om: (_noise_factor(m, om),))
    total = _decompose_from(SpectralMatrix(m.observed, omegas, _gram(x)), ctf, ancestor, target)
    pair = [m.observed.index(ancestor), m.observed.index(target)]
    sources = {
        name: _decompose_from(
            SpectralMatrix((ancestor, target), omegas, _gram(x[:, pair, k : k + 1])), ctf, ancestor, target
        )
        for k, name in enumerate(m.observed)
    }
    return SourceDecomposition(total=total, sources=sources)

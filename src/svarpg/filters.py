"""Time-domain representation: exact filter algebra and covariance sequences.

Filters are finitely supported Z-indexed matrix sequences; tilted
convolutions produce two-sided supports.  Convolutions run for all lags at
once (real FFTs along the lag axis at 5-smooth lengths, one batched
matmul): errors are a few eps * log2(length) times the operands' lag-l1
norms, so small entries lose relative accuracy, while an entry that pairs
only all-zero series stays exactly 0.  The filter series (I - Lambda)^{-1} of a block is
exact on lags 0..L (finite order-p recursion of (I - Phi(z))^{-1}) behind a
block companion radius below one, and rho(Lambda_0) < 1 where it is read as a
sum over paths.  Noise covariances exist only for stable internal dynamics
(``model._certify_own``, the certificate the frequency domain shares).  Each
radius is solved once per model, block and cut (``model._kept_radius``).  The
MA(infinity) covariance is the companion Lyapunov solution (Smith's doubling).
Covariance sequences stop at an explicit lag horizon with a tail estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonConvergentError,
    SelfPairError,
    SemanticError,
)
from .graph import Trek
from .model import (
    SvarModel,
    _certify,
    _certify_own,
    _companion_radius,
    _kept_radius,
    companion_matrix,
    contemporaneous_solve_matrix,
    phi_companion,
)

_LYAPUNOV_EPS = 1e-16  # doubling stops once an increment is below this share of max|Gamma_0|


@dataclass(frozen=True)
class FiniteFilter:
    """Matrix filter with explicit support [start, start + len - 1]."""

    start: int
    values: np.ndarray  # (n_lags, rows, cols)

    def __post_init__(self):
        if self.values.ndim != 3:
            raise DimensionMismatchError("filter values must be (lags, rows, cols)")

    @classmethod
    def from_scalar(cls, seq: Iterable[float], start: int = 0) -> "FiniteFilter":
        arr = np.asarray(list(seq), dtype=float).reshape(-1, 1, 1)
        return cls(start=start, values=arr)

    @classmethod
    def zeros(cls, n_lags: int, rows: int, cols: int, start: int = 0) -> "FiniteFilter":
        return cls(start=start, values=np.zeros((n_lags, rows, cols)))

    @classmethod
    def unit(cls, dim: int = 1) -> "FiniteFilter":
        return cls(start=0, values=np.eye(dim)[None, :, :].copy())

    @property
    def n_lags(self) -> int:
        return self.values.shape[0]

    @property
    def end(self) -> int:
        return self.start + self.n_lags - 1

    @property
    def rows(self) -> int:
        return self.values.shape[1]

    @property
    def cols(self) -> int:
        return self.values.shape[2]

    @property
    def is_scalar(self) -> bool:
        return self.rows == 1 and self.cols == 1

    def at(self, s: int) -> np.ndarray:
        """Value at lag s; zero outside the stored support."""
        if self.start <= s <= self.end:
            return self.values[s - self.start]
        return np.zeros((self.rows, self.cols))

    def scalar_at(self, s: int) -> float:
        return float(self.at(s)[0, 0])

    def scalar_values(self) -> np.ndarray:
        if not self.is_scalar:
            raise DimensionMismatchError("not a scalar filter")
        return self.values[:, 0, 0]

    def l1_norm(self) -> float:
        return float(np.sqrt((self.values**2).sum(axis=(1, 2))).sum())

    def transpose(self) -> "FiniteFilter":
        return FiniteFilter(start=self.start, values=self.values.transpose(0, 2, 1).copy())

    def entry(self, i: int, j: int) -> "FiniteFilter":
        return FiniteFilter(start=self.start, values=self.values[:, i : i + 1, j : j + 1].copy())

    def truncate(self, lo: int, hi: int) -> "FiniteFilter":
        """Restrict support to [lo, hi]."""
        if lo > hi:
            raise SemanticError("empty truncation window")
        out = np.zeros((hi - lo + 1, self.rows, self.cols))
        src_lo = max(lo, self.start)
        src_hi = min(hi, self.end)
        if src_lo <= src_hi:
            out[src_lo - lo : src_hi - lo + 1] = self.values[
                src_lo - self.start : src_hi - self.start + 1
            ]
        return FiniteFilter(start=lo, values=out)


def _smooth_length(size: int) -> int:
    """Least 2^a 3^b 5^c >= size: pocketfft transforms it in radix passes
    alone, where a prime length falls back to Bluestein's algorithm."""
    best, five = 1 << (size - 1).bit_length(), 1
    while five < best:
        three = five
        while three < best:  # three * 2^k for the least k that reaches size
            best = min(best, three << ((size - 1) // three).bit_length())
            three *= 3
        five *= 5
    return best


def _lag_convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[u] = sum_t x[t] @ y[u - t] over the first axis, all lags at once, by
    transforms padded to a 5-smooth length and sliced back to the full length."""
    if x.shape[-1] != y.shape[-2]:
        raise DimensionMismatchError(f"inner dimensions differ: {x.shape[1:]} and {y.shape[1:]}")
    size = len(x) + len(y) - 1
    fast = _smooth_length(size)
    fx = np.fft.rfft(x, fast, axis=0)
    fy = np.fft.rfft(y, fast, axis=0)
    return np.fft.irfft(fx @ fy, fast, axis=0)[:size]


def convolve(a: FiniteFilter, b: FiniteFilter) -> FiniteFilter:
    """(a * b)(u) = sum_t a(t) b(u - t)."""
    return FiniteFilter(start=a.start + b.start, values=_lag_convolve(a.values, b.values))


def tilted_convolve(a: FiniteFilter, b: FiniteFilter) -> FiniteFilter:
    """(a ^* b)(v) = sum_t a(t + v) b(t); support runs both ways."""
    return FiniteFilter(start=a.start - b.end, values=_lag_convolve(a.values, b.values[::-1]))


def _sandwich(a: FiniteFilter, c: FiniteFilter, b: FiniteFilter) -> FiniteFilter:
    """The trek rule's congruence a^T * c ^* b in the lag domain."""
    return convolve(a.transpose(), tilted_convolve(c, b))


def _lag_recursion(a: np.ndarray, b: np.ndarray, L: int) -> np.ndarray:
    """lam[s] = b[s] + sum_{j=1..min(s,p)} lam[s-j] a[j] for s = 0..L (b[s] = 0 past p).

    ``a`` and ``b`` carry lags 0..p on their first axis and broadcast over the
    rest, so one call runs the recursion for many filters.  One reduce per lag
    adds the rows b[s], lam[s-1] a[1], ... in turn, in the order of the scalar
    recursion.  It would sum one-entry rows pairwise, so a single filter runs
    as two equal columns.
    """
    _check_horizon(L)
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    if math.prod(shape) == 1:
        pair = _lag_recursion(a.reshape(-1, 1), np.repeat(b.reshape(-1, 1), 2, axis=1), L)
        return pair[:, 0].reshape((L + 1,) + shape)
    p = len(b) - 1
    lam = np.zeros((L + 1,) + shape)
    terms = np.empty((p + 1,) + shape)
    for s in range(L + 1):
        t = min(s, p)
        terms[0] = b[s] if s <= p else 0.0
        np.multiply(lam[s - t : s][::-1], a[1 : t + 1], out=terms[1 : t + 1])
        lam[s] = np.add.reduce(terms[: t + 1], axis=0)
    return lam


def _check_horizon(L: int) -> None:
    if L < 0:
        raise SemanticError(f"lag horizon {L} is negative")


def _impulse(m: SvarModel) -> np.ndarray:
    out = np.zeros(m.order + 1)
    out[0] = 1.0
    return out


def direct_effect_filter(m: SvarModel, v: str, w: str, L: int) -> FiniteFilter:
    """Lag response of w to v through the direct edges and w's auto-dependencies.

    Follows the recursion that folds each cross coefficient phi_{v,w}(k) into
    the auto-regressive dynamics of the target w.  Identically zero when there
    is no edge v -> w.
    """
    if v == w:
        raise SelfPairError(
            "direct effect filters are defined for distinct processes; "
            "auto-dependencies live in the internal dynamics filter"
        )
    return FiniteFilter.from_scalar(_lag_recursion(m.auto_coeffs(w), m.cross_coeffs(v, w), L))


def internal_dynamics_filter(m: SvarModel, v: str, L: int) -> FiniteFilter:
    """Response of a process to its own innovation through its auto-dependencies."""
    return FiniteFilter.from_scalar(_lag_recursion(m.auto_coeffs(v), _impulse(m), L))


def _edge_filters(m: SvarModel, L: int) -> np.ndarray:
    """Direct effect filters of every ordered pair of processes, (L+1, n, n).

    Entry [:, i, j] is the filter of processes[i] -> processes[j]; zero off
    the edge mask, including the diagonal.
    """
    cross = np.where(m._edge_mask, m.Phi, 0.0)
    autos = np.diagonal(m.Phi, axis1=1, axis2=2)[:, None, :]  # target j's a(k)
    return _lag_recursion(autos, cross, L)


def lambda_matrix(m: SvarModel, L: int) -> FiniteFilter:
    """Direct effect filters between observed processes."""
    n = m.n_observed
    return FiniteFilter(start=0, values=_edge_filters(m, L)[:, :n, :n])


def _filter_series(m: SvarModel, L: int, block: slice, cut: Iterable[int] = (), paths: bool = True) -> np.ndarray:
    """Exact (I - Lambda)^{-1} on lags 0..L, Lambda the edge filters among
    ``m.processes[block]`` without the edges into the block positions ``cut``.

    With phi the block's Phi, columns of processes that receive no edge zeroed,
    column j of Lambda is phi's off-diagonal column over d_j = 1 - a_j(z), so
    (I - Lambda)^{-1} = diag(d) Psi with Psi = (I - phi(z))^{-1}, which decays
    under the companion certificate even where Lambda itself grows.  The value
    needs a solvable I - phi_0 (SingularContemporaneousError otherwise); reading
    it as the sum over paths (``paths``) also needs rho(Lambda_0) < 1.
    """
    _check_horizon(L)
    fed = m._edge_mask[block, block].any(axis=0)
    cut = frozenset(cut)
    fed[list(cut)] = False
    phi = m.Phi[:, block, block] * fed
    key = (block.start, block.stop, cut)
    if paths:
        _certify(_kept_radius(m, ("lag-0", *key), lambda: phi[0]), "lag-0 loops have spectral radius")
    series = _kept_radius(m, ("series", *key), lambda: phi_companion(phi))
    _certify(series, "filter series not summable: companion radius")
    k, p = len(fed), len(phi) - 1
    inv0 = np.linalg.inv(np.eye(k) - phi[0])
    psi = np.zeros((L + 1, k, k))
    psi[0] = np.eye(k)
    for s in range(L + 1):  # Psi_s (I - phi_0) = delta_s I + sum_{t>=1} Psi_{s-t} phi_t
        t = min(s, p)
        psi[s] = (psi[s] + np.add.reduce(psi[s - t : s][::-1] @ phi[1 : t + 1], axis=0)) @ inv0
    g = psi.copy()
    autos = np.diagonal(phi, axis1=1, axis2=2)  # a_j(t); zero for unfed j
    for t in range(1, min(L, p) + 1):
        g[t:] -= autos[t][:, None] * psi[: L + 1 - t]
    return g


def lambda_infinity(m: SvarModel, L: int = 128) -> FiniteFilter:
    """Filter series sum_k Lambda^k over the observed processes, on lags 0..L."""
    return FiniteFilter(start=0, values=_filter_series(m, L, slice(None, m.n_observed)))


def _cut(m: SvarModel, x: str, y: str, controls: Iterable[str]) -> list[int]:
    """Observed-block positions of x and the controls, whose incoming edges a
    controlled effect of x on y removes; SemanticError for invalid arguments."""
    controls = set(controls)
    if x not in m.observed or y not in m.observed:
        raise SemanticError("cause and target must be observed processes")
    if y in controls:
        raise SemanticError("target cannot be controlled")
    if not controls <= set(m.observed):
        raise SemanticError("controls must be observed processes")
    return [m.observed.index(name) for name in controls | {x}]


def ccf(
    m: SvarModel, x: str, y: str, controls: Iterable[str] = (), L: int = 128
) -> FiniteFilter:
    """Controlled causal effect filter of x on y.

    Equals the sum of path filters over all paths from x to y that never pass
    through a control and never revisit x; computed as the (x, y) entry of the
    filter series of the model with all edges into x and the controls removed.
    """
    cut = _cut(m, x, y, controls)
    series = FiniteFilter(start=0, values=_filter_series(m, L, slice(None, m.n_observed), cut))
    return series.entry(m.observed.index(x), m.observed.index(y))


@dataclass(frozen=True)
class AcsSequence:
    """Auto-covariance sequence C(0..L); C(-tau) is implied by C(tau)^T.

    ``tail_bound`` is not a certified truncation bound (ROADMAP item 2).
    ``acs_via_sep`` gives the composite's weight beyond the horizon plus a
    geometric extrapolation at ratio 0.9; ``acs_via_ma_infinity`` gives the
    last Lyapunov doubling increment, which measures the doubling's
    convergence, not the weight beyond the horizon.
    """

    labels: tuple[str, ...]
    values: np.ndarray  # (L + 1, n, n)
    tail_bound: float = 0.0

    @property
    def max_lag(self) -> int:
        return self.values.shape[0] - 1

    def at(self, tau: int) -> np.ndarray:
        if tau >= 0:
            if tau > self.max_lag:
                return np.zeros_like(self.values[0])
            return self.values[tau]
        return self.at(-tau).T

    def entry(self, v: str, w: str, tau: int) -> float:
        return float(self.at(tau)[self.labels.index(v), self.labels.index(w)])

    def to_filter(self) -> FiniteFilter:
        """Two-sided filter over [-max_lag, max_lag], negative side transposed."""
        L = self.max_lag
        values = np.stack([self.at(tau) for tau in range(-L, L + 1)])
        return FiniteFilter(start=-L, values=values)


def _two_sided_to_acs(
    labels: tuple[str, ...], composite: FiniteFilter, L_acs: int
) -> AcsSequence:
    values = composite.truncate(0, L_acs).values
    # weight the composite carries beyond the horizon, plus a geometric
    # extrapolation for what the finite filter supports themselves cut off;
    # the sum runs in lag order and the last value is the largest of the 8
    # largest (|tau|, mag) pairs
    taus = np.abs(np.arange(composite.start, composite.end + 1))
    mags = np.abs(composite.values).max(axis=(1, 2))
    beyond = np.cumsum(np.r_[0.0, mags[taus > L_acs]])[-1]
    last = mags[np.lexsort((mags, taus))[-8:]].max()
    ratio = 0.9
    tail = float(beyond + last * ratio / (1.0 - ratio))
    return AcsSequence(labels=labels, values=values, tail_bound=tail)


def _internal_acs(m: SvarModel, block: slice, L: int) -> FiniteFilter:
    """Two-sided diagonal covariance filter of the internal dynamics of
    ``m.processes[block]``."""
    f = _lag_recursion(np.diagonal(m.Phi, axis1=1, axis2=2)[:, block], _impulse(m), L)
    k = f.shape[1]
    auto = _lag_convolve(f[..., None, None], f[::-1, :, None, None])[..., 0, 0]
    noise = np.array([m.noise_var[name] for name in m.processes[block]])
    out = FiniteFilter.zeros(2 * L + 1, k, k, start=-L)
    out.values[:, np.arange(k), np.arange(k)] = noise * auto
    return out


def projected_noise_acs(m: SvarModel, L: int = 128) -> FiniteFilter:
    """Covariance filter of the observed noise block: internal dynamics plus
    the direct latent contributions.  Off-diagonal entries are exactly the
    latent confounding captured by bidirected edges of the latent projection;
    they exist only when every process's internal dynamics 1 - a_j(z) are stable.

    The internal block lives on [-L, L]; the latent part on [-2L, 2L], or wider
    with latent feedback, so the internal block is added into that slice of it.
    """
    _certify_own(m)
    n = m.n_observed
    out = _internal_acs(m, slice(None, n), L)
    if m.latents:
        gamma = FiniteFilter(start=0, values=_edge_filters(m, L)[:, n:, :n])
        c_lat = _internal_acs(m, slice(n, None), L)
        if m._edge_mask[n:, n:].any():  # latents driving each other
            lam_inf = FiniteFilter(start=0, values=_filter_series(m, L, slice(n, None), paths=False))
            c_lat = _sandwich(lam_inf, c_lat, lam_inf)
        latent_part = _sandwich(gamma, c_lat, gamma)
        lo = out.start - latent_part.start
        latent_part.values[lo : lo + out.n_lags] += out.values
        latent_part.values[...] += 0.0  # an exact zero is 0.0, never -0.0
        return latent_part
    return out


def acs_via_sep(m: SvarModel, L_acs: int = 64, L_filter: int = 128) -> AcsSequence:
    """Observed auto-covariance sequence through the process-level equation.

    Composes the filter series with the projected noise covariance:
    C = (Lambda_inf)^T * C_noise ^* Lambda_inf.
    """
    _check_horizon(L_acs)
    lam_inf = lambda_infinity(m, L_filter)
    c_li = projected_noise_acs(m, L_filter)
    return _two_sided_to_acs(m.observed, _sandwich(lam_inf, c_li, lam_inf), L_acs)


def acs_via_ma_infinity(m: SvarModel, L_acs: int = 64, L_psi: int = 512) -> AcsSequence:
    """Observed auto-covariance sequence through the moving-average expansion.

    Independent oracle on the full reduced-form VAR (observed and latent
    together): Gamma_0 = C Gamma_0 C^T + Q on the companion matrix C, Q = b W b^T
    in the top block, by Smith's doubling to convergence (steps capped from the
    certified radius, NonConvergentError at the cap), then Gamma(tau) = C
    Gamma(tau - 1).  ``tail_bound`` is the last doubling increment, which is
    not a bound on the covariances beyond ``L_acs`` (ROADMAP item 2).  ``L_psi``
    changes no value and is ignored, except that a negative one is a
    SemanticError; it stays for positional callers.
    """
    _check_horizon(L_acs)
    _check_horizon(L_psi)
    comp = companion_matrix(m)
    rho = _certify(_companion_radius(m), "companion spectral radius")
    n, k = m.n_processes, len(comp)
    b = contemporaneous_solve_matrix(m)
    gamma = np.zeros((k, k))
    gamma[:n, :n] = b @ np.diag([m.noise_var[name] for name in m.processes]) @ b.T

    # after j steps gamma sums C^t Q C^tT over t < 2^j and power is C^(2^j),
    # of size rho^(2^j) once past the transient of a non-normal C (k steps at
    # most if C is nilpotent); four spare steps square that residual further
    horizon = max(k, math.log(_LYAPUNOV_EPS) / math.log(rho)) if rho > 0.0 else k
    power = comp
    for _ in range(math.ceil(math.log2(horizon)) + 4):
        increment = power @ gamma @ power.T
        gamma += increment
        power = power @ power
        tail = float(np.abs(increment).max())
        if tail <= _LYAPUNOV_EPS * np.abs(gamma).max():
            break
    else:
        raise NonConvergentError(f"Lyapunov doubling stalled at companion radius {rho:.4g}")

    n_obs = m.n_observed
    values = np.empty((L_acs + 1, n_obs, n_obs))
    cols = gamma[:, :n_obs]  # C^tau Gamma_0 on the observed columns; top rows Gamma(tau)
    for tau in range(L_acs + 1):
        values[tau] = cols[:n_obs]
        cols = comp @ cols
    return AcsSequence(labels=m.observed, values=values, tail_bound=tail)


def trek_monomial_filter(m: SvarModel, trek: Trek, L: int = 128) -> FiniteFilter:
    """Scalar two-sided covariance contribution of one trek.

    Convolves the left path filter with the relevant projected-noise entry and
    tilted-convolves with the right path filter.  The projected noise
    covariance and the edge filter tensor depend on ``m`` and ``L`` only: they
    are built once and kept on the model for the last ``L``, together with the
    path filters, keyed by vertex prefix.  A path filter extends its prefix by
    one slice of that tensor, so treks that share a prefix convolve it once.
    """
    noise, edges, prefixes = m._cached(
        "trek_filter", L, lambda: (projected_noise_acs(m, L), _edge_filters(m, L), {})
    )
    middle = noise.entry(*(m.observed.index(v) for v in trek.bidirected or (trek.top, trek.top)))

    def path_filter(path) -> FiniteFilter:
        out = FiniteFilter.unit(1)
        for k, (src, dst) in enumerate(path.edge_list(), 2):
            prefix = path.vertices[:k]
            if prefix not in prefixes:
                v, w = m._index(src), m._index(dst)
                edge = FiniteFilter(start=0, values=edges[:, v : v + 1, w : w + 1])
                prefixes[prefix] = convolve(out, edge).truncate(0, L)
            out = prefixes[prefix]
        return out

    return _sandwich(path_filter(trek.left), middle, path_filter(trek.right))

"""Recover direct transfer functions from a spectral density.

Each routine assumes the caller has matched the graph template (front-door
mediator, instrumental chain, or fully observed parents); none of them detect
the template from data.  All recovery happens frequency by frequency, so the
formulas are the familiar covariance identities applied per grid point.

Cross-spectrum orientation: with S hermitian and an edge v -> w, the entry
S[w, v] equals h_{v->w} S_v (the conjugate sits on S[v, w]).  The recovery
formulas below are arranged so they return the edge functions themselves, not
their conjugates; correctness is pinned by the forward-then-invert tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    ConfoundedTargetError,
    IllConditionedError,
    NotIdentifiableError,
    SemanticError,
)
from .graph import LatentProjection, _reach
from .spectral import SpectralMatrix, _solve

DENOM_THRESHOLD = 1e-9


@dataclass(frozen=True)
class IdentificationResult:
    """Recovered per-frequency edge functions plus per-point condition flags."""

    method: str
    omegas: np.ndarray
    edges: Mapping[tuple[str, str], np.ndarray]
    condition: Mapping[tuple[str, str], np.ndarray]

    def edge(self, v: str, w: str) -> np.ndarray:
        return self.edges[(v, w)]

    def flagged(self, v: str, w: str) -> np.ndarray:
        """Indices where the denominator guard tripped and a patch was applied."""
        return np.nonzero(~self.condition[(v, w)])[0]


def identify_frontdoor(s: SpectralMatrix, labels: tuple[str, str, str]) -> IdentificationResult:
    """Front-door recovery for the mediated chain x -> w -> y with x, y confounded.

    The first edge comes from a plain spectral regression of w on x; the
    second regresses y on the residual of w after removing x's contribution,
    whose spectrum is the denominator below.
    """
    x, w, y = _three_distinct(labels)
    s_x, h_xw = _regress(s, x, w)

    denom = (
        s.entry(w, w).real
        - 2.0 * np.real(h_xw * s.entry(x, w))
        + (np.abs(h_xw) ** 2) * s_x
    )
    _guard_positive(denom, s.omegas)
    h_wy = (s.entry(y, w) - np.conj(h_xw) * s.entry(y, x)) / denom

    ok = np.ones(len(s.omegas), dtype=bool)
    return IdentificationResult(
        method="frontdoor",
        omegas=s.omegas,
        edges={(x, w): h_xw, (w, y): h_wy},
        condition={(x, w): ok, (w, y): ok.copy()},
    )


def identify_instrument(s: SpectralMatrix, labels: tuple[str, str, str]) -> IdentificationResult:
    """Instrumental recovery for x -> m -> y with m, y latently confounded.

    The ratio S[y, x] / S[m, x] recovers the confounded edge m -> y wherever
    the instrument's transfer to m does not vanish; isolated zeros are patched
    by a local polynomial limit from neighbouring grid points and flagged.
    """
    x, mm, y = _three_distinct(labels)
    _, h_xm = _regress(s, x, mm)

    denom = s.entry(mm, x)
    good = np.abs(denom) >= DENOM_THRESHOLD
    if not good.any():
        raise NotIdentifiableError(
            f"{x} drives {mm} nowhere on the grid; it is not an instrument"
        )
    h_my = np.zeros(len(s.omegas), dtype=complex)
    h_my[good] = s.entry(y, x)[good] / denom[good]
    for idx in np.nonzero(~good)[0]:
        h_my[idx] = _neighbour_limit(s.omegas, h_my, good, idx)

    ok_first = np.ones(len(s.omegas), dtype=bool)
    return IdentificationResult(
        method="instrument",
        omegas=s.omegas,
        edges={(x, mm): h_xm, (mm, y): h_my},
        condition={(x, mm): ok_first, (mm, y): good},
    )


def identify_unconfounded_parents(
    s: SpectralMatrix, projection: LatentProjection, target: str
) -> IdentificationResult:
    """Spectral regression of a target on all of its parents.

    Requires the target to be unconfounded (no incident bidirected edge) and
    not part of a directed cycle, so its noise is orthogonal to the parents.
    """
    if target not in projection.observed:
        raise SemanticError(f"unknown target {target}")
    for a, b in projection.bidirected:
        if target in (a, b):
            raise ConfoundedTargetError(f"{target} has an incident bidirected edge")
    if target in _reach(projection, target, lambda _: True):
        raise ConfoundedTargetError(f"{target} lies on a directed cycle")

    parents = sorted(
        {src for src, dst in projection.directed if dst == target},
        key=projection.observed.index,
    )
    if not parents:
        raise SemanticError(f"{target} has no parents to regress on")

    n = len(s.omegas)
    # S[target, u] = sum_p h_{p->target} S[p, u] for each parent u: gram[:, a, b]
    # is S[parents[b], parents[a]] and rhs[:, a] is S[target, parents[a]]
    t = s._position(target)
    pos = np.array([s._position(p) for p in parents])
    gram = s.values[:, pos[None, :], pos[:, None]]
    rhs = s.values[:, t, pos]
    conds = np.linalg.cond(gram)
    bad = conds > 1.0 / DENOM_THRESHOLD
    if bad.any():
        raise IllConditionedError(float(s.omegas[int(np.argmax(bad))]))
    coeffs = _solve(gram, rhs[:, :, None], s.omegas)[:, :, 0]

    ok = np.ones(n, dtype=bool)
    edges = {(p, target): coeffs[:, i] for i, p in enumerate(parents)}
    condition = {key: ok.copy() for key in edges}
    return IdentificationResult(
        method="unconfounded", omegas=s.omegas, edges=edges, condition=condition
    )


def _three_distinct(labels: tuple[str, str, str]) -> tuple[str, str, str]:
    if len(labels) != 3 or len(set(labels)) != 3:
        raise SemanticError(f"labels must name three distinct processes, got {','.join(labels)}")
    return labels


def _regress(s: SpectralMatrix, x: str, w: str) -> tuple[np.ndarray, np.ndarray]:
    """The guarded spectrum S_x and the spectral regression S[w, x] / S_x of w on x."""
    s_x = s.entry(x, x).real
    _guard_positive(s_x, s.omegas)
    return s_x, s.entry(w, x) / s_x


def _guard_positive(values: np.ndarray, omegas: np.ndarray) -> None:
    bad = np.abs(values) < 1e-12
    if bad.any():
        raise IllConditionedError(float(omegas[int(np.argmax(bad))]))


def _neighbour_limit(
    omegas: np.ndarray, values: np.ndarray, good: np.ndarray, idx: int
) -> complex:
    """Quadratic extrapolation to a bad grid point from nearby valid points.

    The grid is circular; distances wrap at 2 pi.  Three valid neighbours give
    a local Lagrange estimate of the removable singularity.
    """
    valid = np.flatnonzero(good)
    dist = np.abs(valid - idx)
    support = valid[np.argsort(np.minimum(dist, len(omegas) - dist), kind="stable")[:3]]
    if not len(support):
        raise NotIdentifiableError("no valid grid points near the singularity")
    # unwrap around idx so the fit sees a contiguous axis
    delta = omegas[support] - omegas[idx]
    delta = np.where(delta > np.pi, delta - 2.0 * np.pi, delta)
    delta = np.where(delta < -np.pi, delta + 2.0 * np.pi, delta)

    total = 0.0 + 0.0j
    for i, value in enumerate(values[support]):
        term = value
        for jj in range(len(support)):
            if jj != i:
                term *= (0.0 - delta[jj]) / (delta[i] - delta[jj])
        total += term
    return total

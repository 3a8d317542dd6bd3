"""Latent-component SVAR model specifications and stability diagnostics.

A model is a set of named processes (observed and latent), a maximum lag,
a sparse coefficient map ``(from, to, lag) -> phi`` and per-process innovation
variances.  Every process has zero mean.  Edges with ``from == to`` and
``lag >= 1`` are auto-dependencies; contemporaneous self-loops are rejected,
and no observed process may point into a latent one.

The sparse ``coeffs`` map is the input and serialisation format only.  The
model densifies it once into the read-only tensor ``Phi`` of shape
``(p + 1, n, n)`` with ``Phi[k, i, j] = phi_{processes[i], processes[j]}(k)``,
plus an edge mask (nonzero at some lag, diagonal excluded); every
computation, matrix and graph view reads those two arrays.  The model is
immutable (read-only ``coeffs`` and ``noise_var`` copies), so ``_cached``
may keep results derived from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import (
    NonConvergentError,
    SchemaError,
    SemanticError,
    SingularAtFrequencyError,
    SingularContemporaneousError,
)

_COND_LIMIT = 1e12
STABLE_RADIUS = 1.0 - 1e-9  # companion spectral radii below this certify stability


@dataclass(frozen=True)
class SvarModel:
    """Validated SVAR specification.

    Attributes:
        observed: ordered observed process names.
        latents: ordered latent process names.
        order: maximum lag p (>= 0).
        coeffs: sparse map (from, to, lag) -> coefficient; absent means zero.
            Stored as a read-only copy of the given mapping.
        noise_var: innovation variance per process (>= 0; the JSON schema
            requires strictly positive values, the in-memory type tolerates
            zero for degenerate simulation cases).  Stored read-only too.
        Phi: read-only dense coefficients, shape (order + 1, n, n), with
            Phi[k, i, j] the coefficient of processes[i] -> processes[j] at
            lag k; built from ``coeffs`` on construction.
    """

    observed: tuple[str, ...]
    latents: tuple[str, ...]
    order: int
    coeffs: Mapping[tuple[str, str, int], float]
    noise_var: Mapping[str, float]
    Phi: np.ndarray = field(init=False, repr=False, compare=False)
    _edge_mask: np.ndarray = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", MappingProxyType(dict(self.coeffs)))
        object.__setattr__(self, "noise_var", MappingProxyType(dict(self.noise_var)))
        names = self.observed + self.latents
        if len(set(names)) != len(names):
            raise SemanticError("duplicate process names")
        if self.order < 0:
            raise SemanticError("order must be nonnegative")
        observed = set(self.observed)
        latents = set(self.latents)
        index = {name: i for i, name in enumerate(names)}
        phi = np.zeros((self.order + 1, len(names), len(names)))
        for (src, dst, lag), value in self.coeffs.items():
            if src not in observed | latents or dst not in observed | latents:
                raise SemanticError(f"unknown process in edge {src}->{dst}")
            if not 0 <= lag <= self.order:
                raise SemanticError(f"edge {src}->{dst} has lag {lag} outside 0..{self.order}")
            if src == dst and lag == 0:
                raise SemanticError(f"contemporaneous self-loop on {src}")
            if src in observed and dst in latents:
                raise SemanticError(f"edge from observed {src} into latent {dst}")
            if not math.isfinite(value):
                raise SemanticError(f"non-finite coefficient on {src}->{dst}")
            phi[lag, index[src], index[dst]] = value
        for name in names:
            if name not in self.noise_var:
                raise SemanticError(f"missing noise variance for {name}")
            if not (self.noise_var[name] >= 0.0):
                raise SemanticError(f"negative noise variance for {name}")
        mask = (phi != 0.0).any(axis=0)
        np.fill_diagonal(mask, False)
        phi.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "Phi", phi)
        object.__setattr__(self, "_edge_mask", mask)
        object.__setattr__(self, "_memo", {})

    def _cached(self, slot: str, key, build: Callable[[], object]):
        """``build()``, kept in ``slot`` for the last ``key``; a raise stores nothing."""
        held = self._memo.get(slot)
        if held is None or held[0] != key:
            held = self._memo[slot] = (key, build())
        return held[1]

    # -- structure accessors -------------------------------------------------

    @property
    def processes(self) -> tuple[str, ...]:
        """All process names, observed first."""
        return self.observed + self.latents

    @property
    def n_observed(self) -> int:
        return len(self.observed)

    @property
    def n_processes(self) -> int:
        return len(self.observed) + len(self.latents)

    def is_latent(self, name: str) -> bool:
        return name in self.latents

    def _index(self, name: str) -> int:
        try:
            return self.processes.index(name)
        except ValueError:
            raise SemanticError(f"unknown process {name}") from None

    def phi(self, src: str, dst: str, lag: int) -> float:
        if not 0 <= lag <= self.order:
            return 0.0
        return float(self.Phi[lag, self._index(src), self._index(dst)])

    def auto_coeffs(self, name: str) -> np.ndarray:
        """Auto-dependency coefficients a_1..a_p of one process (index = lag; a_0 = 0)."""
        i = self._index(name)
        return self.Phi[:, i, i]

    def cross_coeffs(self, src: str, dst: str) -> np.ndarray:
        """Coefficients phi_{src,dst}(0..p) as a dense vector."""
        return self.Phi[:, self._index(src), self._index(dst)]

    def parents(self, name: str) -> tuple[str, ...]:
        """Distinct processes with at least one edge into ``name``."""
        rows = np.flatnonzero(self._edge_mask[:, self._index(name)])
        return tuple(self.processes[i] for i in rows)

    def has_edge(self, src: str, dst: str) -> bool:
        return bool(self._edge_mask[self._index(src), self._index(dst)])

    # -- serialization -------------------------------------------------------

    def to_document(self) -> dict:
        edges = [
            {"from": src, "to": dst, "lag": lag, "coeff": value}
            for (src, dst, lag), value in sorted(self.coeffs.items())
        ]
        return {
            "observed": list(self.observed),
            "latents": list(self.latents),
            "order": self.order,
            "edges": edges,
            "noise_var": {name: self.noise_var[name] for name in self.processes},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2, sort_keys=False)


@dataclass(frozen=True)
class StabilityReport:
    """Stability diagnostics for one model.

    ``auto_sums_below_one`` holds when every process keeps the magnitudes of
    its own auto-coefficients summing below one; ``grand_sum_below_one`` is
    the much stronger requirement that the magnitudes of all coefficients in
    the model sum below one.  Both are reported, not used to decide anything.
    ``stable`` is decided by the companion spectral radius of the reduced
    VAR.  ``loop_spectral_radius`` is max_omega rho(H(omega)) over the edge
    transfer matrix of all processes: feedback is a property of H, since
    loops that share a vertex compound, and below one the path series of
    (I - H)^{-1} converges (Luetkepohl 2005, ch. 2).  It is infinite when
    some edge transfer function has a pole on the grid.  ``ok`` requires
    both certificates.
    """

    per_process_auto_sum: Mapping[str, float]
    auto_sums_below_one: bool
    grand_sum_below_one: bool
    companion_spectral_radius: float
    stable: bool
    loop_spectral_radius: float

    @property
    def ok(self) -> bool:
        return self.stable and self.loop_spectral_radius < STABLE_RADIUS

    def to_document(self) -> dict:
        return {
            "per_process_auto_sum": dict(self.per_process_auto_sum),
            "auto_sums_below_one": self.auto_sums_below_one,
            "grand_sum_below_one": self.grand_sum_below_one,
            "companion_spectral_radius": self.companion_spectral_radius,
            "stable": self.stable,
            "loop_spectral_radius": self.loop_spectral_radius,
            "ok": self.ok,
        }


def parse_document(doc: dict) -> SvarModel:
    """Build a validated model from an already-decoded JSON document."""
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    for key in ("observed", "order", "edges", "noise_var"):
        if key not in doc:
            raise SchemaError(f"missing required key {key!r}")
    observed = doc["observed"]
    latents = doc.get("latents", [])
    if not isinstance(observed, list) or not all(isinstance(s, str) for s in observed):
        raise SchemaError("'observed' must be a list of strings")
    if not isinstance(latents, list) or not all(isinstance(s, str) for s in latents):
        raise SchemaError("'latents' must be a list of strings")
    if not isinstance(doc["order"], int) or isinstance(doc["order"], bool):
        raise SchemaError("'order' must be an integer")
    if not isinstance(doc["edges"], list):
        raise SchemaError("'edges' must be a list")
    if not isinstance(doc["noise_var"], dict):
        raise SchemaError("'noise_var' must be an object")

    coeffs: dict[tuple[str, str, int], float] = {}
    for i, edge in enumerate(doc["edges"]):
        if not isinstance(edge, dict):
            raise SchemaError(f"edge #{i} is not an object")
        try:
            src, dst, lag, value = edge["from"], edge["to"], edge["lag"], edge["coeff"]
        except KeyError as exc:
            raise SchemaError(f"edge #{i} missing key {exc.args[0]!r}") from exc
        if not isinstance(src, str) or not isinstance(dst, str):
            raise SchemaError(f"edge #{i} endpoints must be strings")
        if not isinstance(lag, int) or isinstance(lag, bool):
            raise SchemaError(f"edge #{i} lag must be an integer")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"edge #{i} coeff must be a number")
        key = (src, dst, lag)
        if key in coeffs:
            raise SemanticError(f"duplicate edge {src}->{dst} at lag {lag}")
        coeffs[key] = float(value)

    noise_var = {}
    for name, value in doc["noise_var"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"noise variance for {name!r} must be a number")
        if value <= 0.0:
            raise SemanticError(f"non-positive noise variance for {name!r}")
        noise_var[name] = float(value)

    return SvarModel(
        observed=tuple(observed),
        latents=tuple(latents),
        order=doc["order"],
        coeffs=coeffs,
        noise_var=noise_var,
    )


def parse_model(text: str) -> SvarModel:
    """Parse and validate a JSON model document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return parse_document(doc)


def load_model(path) -> SvarModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


def contemporaneous_solve_matrix(m: SvarModel) -> np.ndarray:
    """Return (I - Phi(0)^T)^{-1}.

    Raises SingularContemporaneousError when the system is numerically singular.
    """
    return _solve_matrix(m.Phi[0])


def _solve_matrix(phi0: np.ndarray) -> np.ndarray:
    a = np.eye(len(phi0)) - phi0.T
    if np.linalg.cond(a) > _COND_LIMIT:
        raise SingularContemporaneousError(
            "I - Phi(0)^T is numerically singular; contemporaneous structure unsolvable"
        )
    return np.linalg.inv(a)


def reduced_lag_matrices(m: SvarModel) -> np.ndarray:
    """Reduced-form VAR coefficient stack A with A[k] = (I - Phi(0)^T)^{-1} Phi(k)^T."""
    return _reduced_lags(m.Phi)


def _reduced_lags(phi: np.ndarray) -> np.ndarray:
    stack = np.zeros(phi.shape)
    stack[1:] = _solve_matrix(phi[0]) @ phi[1:].transpose(0, 2, 1)
    return stack


def companion_matrix(m: SvarModel) -> np.ndarray:
    """Companion form of the reduced VAR(1) stacking; an n x n zero block for order 0."""
    return phi_companion(m.Phi)


def phi_companion(phi: np.ndarray) -> np.ndarray:
    """Companion matrix of the VAR with coefficient stack ``phi`` (shaped like ``Phi``)."""
    order, n = len(phi) - 1, phi.shape[1]
    p = max(order, 1)
    a = _reduced_lags(phi)
    comp = np.zeros((n * p, n * p))
    comp[:n, : n * order] = a[1:].transpose(1, 0, 2).reshape(n, n * order)
    comp[n:, : n * (p - 1)] = np.eye(n * (p - 1))
    return comp


def _radius(a: np.ndarray) -> float:
    """Spectral radius of ``a`` (0 for an empty matrix)."""
    return float(np.abs(np.linalg.eigvals(a)).max(initial=0.0))


def _certify(a: np.ndarray, what: str) -> float:
    """``_radius(a)``; NonConvergentError unless it is below STABLE_RADIUS."""
    rho = _radius(a)
    if rho >= STABLE_RADIUS:
        raise NonConvergentError(f"{what} {rho:.4g} >= 1")
    return rho


def _certify_own(m: SvarModel, block: slice = slice(None)) -> None:
    """NonConvergentError unless the internal dynamics 1 - a_j(z) of every process in
    ``m.processes[block]`` are stable: only then do internal spectra and covariances exist."""
    phi = m.Phi[:, block, block]
    _certify(phi_companion(phi * np.eye(phi.shape[1])), "internal dynamics not stable: companion radius")


def check_stability(m: SvarModel, grid_size: int = 256) -> StabilityReport:
    """Evaluate the per-process, grand-total and full-VAR stability conditions.

    ``stable`` comes from the companion spectral radius.  The loop radius
    max_omega rho(H(omega)) is sampled on ``frequency_grid(grid_size)`` up to
    omega = pi: real coefficients give H(2 pi - omega) = conj H(omega), so
    the upper half has the same radii; it is infinite when an edge function
    has a pole on that half grid.  A non-positive ``grid_size`` is a
    SemanticError.
    """
    from .spectral import _transfer, frequency_grid

    auto_sums = {
        name: float(np.abs(m.auto_coeffs(name)[1:]).sum()) for name in m.processes
    }
    radius_val = _radius(companion_matrix(m))
    try:
        h = _transfer(m, frequency_grid(grid_size)[: grid_size // 2 + 1])[0]
        loop_radius = float(np.abs(np.linalg.eigvals(h)).max())
    except SingularAtFrequencyError:
        loop_radius = math.inf

    return StabilityReport(
        per_process_auto_sum=auto_sums,
        auto_sums_below_one=all(s < 1.0 for s in auto_sums.values()),
        grand_sum_below_one=float(np.abs(m.Phi).sum()) < 1.0,
        companion_spectral_radius=radius_val,
        stable=radius_val < STABLE_RADIUS,
        loop_spectral_radius=loop_radius,
    )


def process_graph(m: SvarModel):
    """Finite process graph of the model: V -> W iff some phi_{V,W}(k) != 0, V != W."""
    from .graph import ProcessGraph

    names = m.processes
    edges = frozenset((names[i], names[j]) for i, j in zip(*np.nonzero(m._edge_mask)))
    return ProcessGraph(observed=m.observed, latents=m.latents, edges=edges)

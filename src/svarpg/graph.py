"""Finite mixed-graph machinery for process graphs.

Directed paths here are walks: vertices and edges may repeat.  On cyclic
graphs the path sets are infinite, so enumeration is lazy and bounded by a
per-cycle traversal budget.  Traversals are counted by first-repeat excision:
scanning a walk left to right, each arrival at a vertex already on the
reduced walk closes one minimal cycle, which is excised and counted.  This
matches the factorization of a walk into a simple path plus a multiset of
minimal cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import SemanticError
from .model import SvarModel


@dataclass(frozen=True)
class ProcessGraph:
    """Directed graph over observed and latent processes; no self-edges."""

    observed: tuple[str, ...]
    latents: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        vertices = set(self.observed) | set(self.latents)
        for src, dst in self.edges:
            if src == dst:
                raise SemanticError(f"self-edge on {src}")
            if src not in vertices or dst not in vertices:
                raise SemanticError(f"edge {src}->{dst} uses unknown vertex")
            if src in self.observed and dst in self.latents:
                raise SemanticError(f"edge from observed {src} into latent {dst}")

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.observed + self.latents

    def successors(self, v: str) -> list[str]:
        return sorted(dst for src, dst in self.edges if src == v)


@dataclass(frozen=True)
class LatentProjection:
    """Mixed graph over the observed processes: directed plus bidirected edges."""

    observed: tuple[str, ...]
    directed: frozenset[tuple[str, str]]
    bidirected: frozenset[tuple[str, str]]

    def __post_init__(self):
        vertices = set(self.observed)
        for src, dst in self.directed:
            if src == dst or src not in vertices or dst not in vertices:
                raise SemanticError(f"invalid directed edge {src}->{dst}")
        for a, b in self.bidirected:
            if a == b or a not in vertices or b not in vertices:
                raise SemanticError(f"invalid bidirected edge {a}<->{b}")
            if (b, a) not in self.bidirected:
                raise SemanticError(f"bidirected set not symmetric at {a}<->{b}")

    def successors(self, v: str) -> list[str]:
        return sorted(dst for src, dst in self.directed if src == v)

    def bidirected_pairs(self) -> list[tuple[str, str]]:
        """One canonical tuple per bidirected edge."""
        return sorted({tuple(sorted(e)) for e in self.bidirected})

    def as_directed_only(self) -> "ProcessGraph":
        return ProcessGraph(observed=self.observed, latents=(), edges=self.directed)


@dataclass(frozen=True)
class DirectedPath:
    """Directed walk v1 -> ... -> vk; a single vertex is the empty path."""

    vertices: tuple[str, ...]

    def __post_init__(self):
        if not self.vertices:
            raise SemanticError("a path needs at least one vertex")

    @property
    def start(self) -> str:
        return self.vertices[0]

    @property
    def end(self) -> str:
        return self.vertices[-1]

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 1

    def edge_list(self) -> list[tuple[str, str]]:
        return list(zip(self.vertices[:-1], self.vertices[1:]))


@dataclass(frozen=True)
class Trek:
    """Trek between two observed processes on a latent projection.

    ``left`` runs from the top vertex (or the left base of a bidirected edge)
    down to the trek's source endpoint; ``right`` runs to the target endpoint.
    ``bidirected`` is None for shared-top treks.
    """

    left: DirectedPath
    right: DirectedPath
    bidirected: tuple[str, str] | None = None

    def __post_init__(self):
        if self.bidirected is None:
            if self.left.start != self.right.start:
                raise SemanticError("shared-top trek sides must start at the same vertex")
        else:
            a, b = self.bidirected
            if self.left.start != a or self.right.start != b:
                raise SemanticError("trek sides must start at the bidirected endpoints")

    @property
    def source(self) -> str:
        return self.left.end

    @property
    def target(self) -> str:
        return self.right.end

    @property
    def top(self) -> str | None:
        return None if self.bidirected is not None else self.left.start

    @property
    def left_side(self) -> frozenset[str]:
        return frozenset(self.left.vertices)

    @property
    def right_side(self) -> frozenset[str]:
        return frozenset(self.right.vertices)


@dataclass(frozen=True)
class CycleBasis:
    """All minimal cycles of a graph, one representative per rotation class."""

    cycles: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)


def latent_projection(g: ProcessGraph) -> LatentProjection:
    """Project out latent processes, introducing bidirected edges.

    V <-> W appears iff some latent top vertex reaches both V and W through
    directed paths whose interior vertices are all latent.
    """
    latents = set(g.latents)
    directed = frozenset(
        (src, dst) for src, dst in g.edges if src not in latents and dst not in latents
    )

    bidirected: set[tuple[str, str]] = set()
    for top in g.latents:
        reachable = _observed_reach_through_latents(g, top, latents)
        for v in reachable:
            for w in reachable:
                if v != w:
                    bidirected.add((v, w))
    return LatentProjection(
        observed=g.observed, directed=directed, bidirected=frozenset(bidirected)
    )


def _observed_reach_through_latents(g: ProcessGraph, top: str, latents: set) -> set:
    """Observed vertices reachable from a latent top via latent-interior paths."""
    seen_latent = {top}
    frontier = [top]
    observed_hits = set()
    while frontier:
        src = frontier.pop()
        for dst in g.successors(src):
            if dst in latents:
                if dst not in seen_latent:
                    seen_latent.add(dst)
                    frontier.append(dst)
            else:
                observed_hits.add(dst)
    return observed_hits


def _canonical_rotation(cycle: tuple[str, ...]) -> tuple[str, ...]:
    """Lexicographically minimal rotation; input omits the closing repeat."""
    rotations = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return min(rotations)


def cycle_basis(g) -> CycleBasis:
    """Every minimal directed cycle, deduplicated by rotation.

    Accepts a ProcessGraph or a LatentProjection (directed part only).
    """
    found: set[tuple[str, ...]] = set()
    vertices = list(g.observed) + list(getattr(g, "latents", ()))

    def extend(path: list[str], start: str):
        for nxt in g.successors(path[-1]):
            if nxt == start:
                found.add(_canonical_rotation(tuple(path)))
            elif nxt not in path and nxt > start:
                # grow only cycles whose smallest vertex is the start;
                # rotations are then never produced twice
                path.append(nxt)
                extend(path, start)
                path.pop()

    for start in vertices:
        extend([start], start)
    return CycleBasis(cycles=tuple(sorted(found)))


def enumerate_paths(
    g,
    frm: str,
    to: str,
    avoid: Iterable[str] = (),
    max_cycle_depth: int = 0,
) -> Iterator[DirectedPath]:
    """Yield directed walks frm -> to whose interior vertices avoid ``avoid``.

    Endpoints are exempt from ``avoid``; this matches the avoiding-path sets
    behind controlled effect filters, where the cause sits in the avoid set
    but still starts the path.  Each minimal cycle may be traversed at most
    ``max_cycle_depth`` times (first-repeat excision count).  On acyclic
    graphs the stream is exhaustive for any depth, and the empty path is
    produced when frm == to.
    """
    avoid = set(avoid)
    if to in avoid:
        raise SemanticError("target vertex cannot be avoided")

    def walk(path: list[str], reduced: list[str], counts: dict) -> Iterator[DirectedPath]:
        if path[-1] == to:
            yield DirectedPath(vertices=tuple(path))
        for nxt in g.successors(path[-1]):
            if nxt in avoid:
                continue
            if nxt in reduced:
                cut = reduced.index(nxt)
                loop = _canonical_rotation(tuple(reduced[cut:]))
                counts[loop] = counts.get(loop, 0) + 1
                if counts[loop] > max_cycle_depth:
                    counts[loop] -= 1
                    continue
                path.append(nxt)
                yield from walk(path, reduced[: cut + 1], counts)
                path.pop()
                counts[loop] -= 1
            else:
                path.append(nxt)
                reduced.append(nxt)
                yield from walk(path, reduced, counts)
                reduced.pop()
                path.pop()

    yield from walk([frm], [frm], {})


def enumerate_treks(
    gp: LatentProjection, v: str, w: str, max_cycle_depth: int = 0
) -> Iterator[Trek]:
    """Yield treks from v to w on the latent projection.

    Shared-top treks pair directed walks top -> v and top -> w; bidirected
    treks pair walks from the two endpoints of a bidirected edge.  Cycle
    traversal is bounded per side.
    """
    directed_view = gp.as_directed_only()
    for top in gp.observed:
        for left in enumerate_paths(directed_view, top, v, max_cycle_depth=max_cycle_depth):
            for right in enumerate_paths(directed_view, top, w, max_cycle_depth=max_cycle_depth):
                yield Trek(left=left, right=right)
    for a, b in sorted(gp.bidirected):
        for left in enumerate_paths(directed_view, a, v, max_cycle_depth=max_cycle_depth):
            for right in enumerate_paths(directed_view, b, w, max_cycle_depth=max_cycle_depth):
                yield Trek(left=left, right=right, bidirected=(a, b))


def unrolled_paths(
    m: SvarModel,
    x: str,
    y: str,
    controls: Iterable[str] = (),
    s: int = 0,
) -> float:
    """Brute-force controlled effect oracle on the unrolled time-lag graph.

    Materializes the node grid (process, t-s .. t), deletes every edge
    pointing into x or into any control at any time, and sums the coefficient
    products over all directed paths from x at time t-s to y at time t.  The
    window of s lags holds every such path, because every edge moves forward
    in time, and a wider one would give the same sum.
    """
    if s < 0:
        raise SemanticError("lag must be nonnegative")
    if x not in m.processes or y not in m.processes:
        raise SemanticError(f"unknown process in pair ({x}, {y})")
    if y in set(controls):
        raise SemanticError("target cannot be controlled")
    blocked = set(controls) | {x}

    live_edges = [
        (src, dst, lag, val)
        for (src, dst, lag), val in m.coeffs.items()
        if val != 0.0 and dst not in blocked
    ]
    contemporaneous = {(src, dst) for src, dst, lag, _ in live_edges if lag == 0}
    topo = _topological_order(m.processes, contemporaneous)

    out_edges: dict[str, list[tuple[str, int, float]]] = {n: [] for n in m.processes}
    for src, dst, lag, val in live_edges:
        out_edges[src].append((dst, lag, val))

    target = (y, s)
    # value[(name, idx)]: sum over paths from that node to y(t) of coefficient
    # products, time index idx standing for t-s+idx; the empty path
    # contributes 1 at the target itself.
    value: dict[tuple[str, int], float] = {}
    for idx in range(s, -1, -1):
        for name in reversed(topo):
            acc = 1.0 if (name, idx) == target else 0.0
            for dst, lag, coeff in out_edges[name]:
                nxt = idx + lag
                if nxt <= s:
                    acc += coeff * value.get((dst, nxt), 0.0)
            value[(name, idx)] = acc
    return value[(x, 0)]


def _topological_order(names: tuple[str, ...], edges: set) -> list[str]:
    """Topological order of the contemporaneous subgraph; error if cyclic."""
    incoming = {n: {src for src, dst in edges if dst == n} for n in names}
    order: list[str] = []
    placed: set[str] = set()
    pending = list(names)
    while pending:
        ready = [n for n in pending if incoming[n] <= placed]
        if not ready:
            raise SemanticError("contemporaneous edges form a cycle; oracle unavailable")
        order.append(ready[0])
        placed.add(ready[0])
        pending.remove(ready[0])
    return order

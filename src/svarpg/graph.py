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

import graphlib
import itertools
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

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.observed

    def successors(self, v: str) -> list[str]:
        return sorted(dst for src, dst in self.directed if src == v)

    def bidirected_pairs(self) -> list[tuple[str, str]]:
        """One canonical tuple per bidirected edge."""
        return sorted({tuple(sorted(e)) for e in self.bidirected})


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
        bidirected.update(itertools.permutations(_reach(g, top, lambda v: v in latents) - latents, 2))
    return LatentProjection(
        observed=g.observed, directed=directed, bidirected=frozenset(bidirected)
    )


def _reach(g, start: str, expand) -> set[str]:
    """Vertices at the end of a directed path of one or more edges from ``start``
    whose interior vertices all satisfy ``expand``; ``start`` is in it only on a cycle."""
    seen: set[str] = set()
    frontier = [start]
    while frontier:
        for dst in g.successors(frontier.pop()):
            if dst not in seen:
                seen.add(dst)
                if expand(dst):
                    frontier.append(dst)
    return seen


def _canonical_rotation(cycle: tuple[str, ...]) -> tuple[str, ...]:
    """Lexicographically minimal rotation; input omits the closing repeat."""
    rotations = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return min(rotations)


def enumerate_paths(
    g,
    frm: str,
    to: str,
    avoid: Iterable[str] = (),
    max_cycle_depth: int = 0,
) -> Iterator[DirectedPath]:
    """Lazy stream of directed walks frm -> to on ``g`` whose interior vertices avoid ``avoid``.

    Endpoints are exempt from ``avoid``; this matches the avoiding-path sets
    behind controlled effect filters, where the cause sits in the avoid set
    but still starts the path.  Each minimal cycle may be traversed at most
    ``max_cycle_depth`` times (first-repeat excision count).  On acyclic graphs
    the stream is exhaustive for any depth, and the empty path is produced
    when frm == to.  Checked at the call, before any walk: a name that is no
    vertex of ``g``, an avoided target or a negative depth is a SemanticError.
    """
    avoid = set(avoid)
    if unknown := sorted(({frm, to} | avoid) - set(g.vertices)):
        raise SemanticError(f"no vertex {', '.join(unknown)} in the graph")
    if to in avoid:
        raise SemanticError("target vertex cannot be avoided")
    if max_cycle_depth < 0:
        raise SemanticError(f"cycle depth {max_cycle_depth} is negative")

    def walk(path: list[str], reduced: list[str], counts: dict) -> Iterator[DirectedPath]:
        if path[-1] == to:
            yield DirectedPath(vertices=tuple(path))
        for nxt in g.successors(path[-1]):
            if nxt in avoid:
                continue
            if nxt not in reduced:
                yield from walk(path + [nxt], reduced + [nxt], counts)
                continue
            cut = reduced.index(nxt)
            loop = _canonical_rotation(tuple(reduced[cut:]))
            if counts.get(loop, 0) < max_cycle_depth:
                counts[loop] = counts.get(loop, 0) + 1
                yield from walk(path + [nxt], reduced[: cut + 1], counts)
                counts[loop] -= 1

    return walk([frm], [frm], {})


def enumerate_treks(
    gp: LatentProjection, v: str, w: str, max_cycle_depth: int = 0
) -> Iterator[Trek]:
    """Yield treks from v to w on the latent projection.

    Shared-top treks pair directed walks top -> v and top -> w; bidirected
    treks pair walks from the two endpoints of a bidirected edge; each start
    enumerates its two walk sets once and pairs them.  Cycle traversal is
    bounded per side.  The walks follow the projection's directed edges only.
    """
    starts = [(top, top, None) for top in gp.observed] + [(a, b, (a, b)) for a, b in sorted(gp.bidirected)]
    for a, b, edge in starts:
        walks = [enumerate_paths(gp, src, dst, max_cycle_depth=max_cycle_depth) for src, dst in ((a, v), (b, w))]
        for left, right in itertools.product(*walks):
            yield Trek(left=left, right=right, bidirected=edge)


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
    incoming = {n: {src for src, dst in contemporaneous if dst == n} for n in m.processes}
    try:
        topo = list(graphlib.TopologicalSorter(incoming).static_order())
    except graphlib.CycleError:
        raise SemanticError("contemporaneous edges form a cycle; oracle unavailable") from None

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

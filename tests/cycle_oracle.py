"""Cycle enumeration and per-cycle loop gains, kept as test oracles.

Both take exponential time, because they enumerate every minimal cycle, and
no default path of the package needs them: loops that share a vertex
compound, so no set of per-cycle gains decides convergence, and
``check_stability`` reports max_omega rho(H(omega)) instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from svarpg.graph import DirectedPath, _canonical_rotation
from svarpg.model import SvarModel, process_graph
from svarpg.spectral import _as_omegas, path_transfer


@dataclass(frozen=True)
class CycleBasis:
    """All minimal cycles of a graph, one representative per rotation class."""

    cycles: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)


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


def loop_gain_report(m: SvarModel, grid: int | np.ndarray = 256) -> dict[tuple[str, ...], float]:
    """Max modulus of the transfer product around each minimal cycle."""
    omegas = _as_omegas(grid)
    gains: dict[tuple[str, ...], float] = {}
    for cycle in cycle_basis(process_graph(m)):
        closed = DirectedPath(vertices=cycle + (cycle[0],))
        gains[cycle] = float(np.abs(path_transfer(m, closed, omegas)).max())
    return gains

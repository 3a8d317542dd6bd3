from __future__ import annotations

import pytest

from svarpg.errors import SemanticError
from svarpg.filters import ccf
from svarpg.graph import (
    ProcessGraph,
    cycle_basis,
    enumerate_paths,
    enumerate_treks,
    latent_projection,
    unrolled_paths,
)
from svarpg.model import SvarModel, process_graph


def _graph(observed, latents, edges):
    return ProcessGraph(observed=tuple(observed), latents=tuple(latents), edges=frozenset(edges))


def _paths(g, frm, to, avoid=(), depth=0):
    return {p.vertices for p in enumerate_paths(g, frm, to, avoid, depth)}


# -- latent projection --------------------------------------------------------


def test_projection_instrument_chain():
    g = _graph("XMY", "L", {("X", "M"), ("M", "Y"), ("L", "M"), ("L", "Y")})
    proj = latent_projection(g)
    assert proj.directed == frozenset({("X", "M"), ("M", "Y")})
    assert proj.bidirected_pairs() == [("M", "Y")]


def test_projection_without_latents_is_identity(graph_b):
    g = process_graph(graph_b)
    proj = latent_projection(g)
    assert proj.directed == g.edges
    assert proj.bidirected == frozenset()
    # idempotent: projecting the directed part again changes nothing
    again = latent_projection(proj.as_directed_only())
    assert again.directed == proj.directed and again.bidirected == frozenset()


def test_projection_mediated_confounder():
    g = _graph("XWY", "L", {("L", "X"), ("L", "Y"), ("X", "W"), ("X", "Y"), ("W", "Y")})
    proj = latent_projection(g)
    assert proj.bidirected_pairs() == [("X", "Y")]
    assert proj.directed == frozenset({("X", "W"), ("X", "Y"), ("W", "Y")})


def test_projection_latent_chain():
    # latent drives latent; confounding still reaches through the chain
    g = _graph("AB", "HK", {("H", "K"), ("H", "A"), ("K", "B")})
    proj = latent_projection(g)
    assert proj.bidirected_pairs() == [("A", "B")]


# -- path enumeration ---------------------------------------------------------


def test_paths_two_route(graph_b):
    g = process_graph(graph_b)
    assert _paths(g, "X", "Y") == {("X", "Y"), ("X", "M", "Y")}


def test_paths_cyclic_partition(graph_c):
    g = process_graph(graph_c)
    assert _paths(g, "Z", "Y", depth=1) == {
        ("Z", "Y"),
        ("Z", "X", "Y"),
        ("Z", "Y", "X", "Y"),
        ("Z", "X", "Y", "X", "Y"),
    }


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_paths_cyclic_counts_and_nesting(graph_c, depth):
    g = process_graph(graph_c)
    now = _paths(g, "Z", "Y", depth=depth)
    # two families, each traversing the single cycle 0..depth times
    assert len(now) == 2 * (depth + 1)
    assert now <= _paths(g, "Z", "Y", depth=depth + 1)


def test_paths_empty_path_convention(graph_b):
    g = process_graph(graph_b)
    assert ("X",) in _paths(g, "X", "X")


def test_paths_avoid_set(graph_b):
    g = process_graph(graph_b)
    assert _paths(g, "X", "Y", avoid={"M"}) == {("X", "Y")}
    with pytest.raises(SemanticError):
        list(enumerate_paths(g, "X", "Y", avoid={"Y"}))


def test_paths_disconnected(graph_b):
    g = process_graph(graph_b)
    assert _paths(g, "Y", "Z") == set()


# -- treks --------------------------------------------------------------------


def test_treks_acyclic_chain(graph_a):
    proj = latent_projection(process_graph(graph_a))
    treks = list(enumerate_treks(proj, "X", "Y"))
    assert len(treks) == 1
    (t,) = treks
    assert t.top == "X" and t.left.is_empty and t.right.vertices == ("X", "M", "Y")


def test_treks_instrument_pair(instrument_model):
    proj = latent_projection(process_graph(instrument_model))
    treks = list(enumerate_treks(proj, "M", "Y"))
    assert len(treks) == 3
    tops = {t.top for t in treks}
    assert tops == {"M", "X", None}
    for t in treks:
        assert t.source == "M" and t.target == "Y"
        if t.bidirected is None:
            assert t.left.start == t.right.start == t.top
        else:
            assert (t.left.start, t.right.start) == t.bidirected


def test_treks_empty_graph():
    g = _graph("AB", "", set())
    proj = latent_projection(g)
    assert list(enumerate_treks(proj, "A", "B")) == []


def test_trek_sides(instrument_model):
    proj = latent_projection(process_graph(instrument_model))
    by_top = {t.top: t for t in enumerate_treks(proj, "M", "Y")}
    assert by_top["X"].left_side == {"X", "M"}
    assert by_top["X"].right_side == {"X", "M", "Y"}
    assert by_top[None].left_side == {"M"} and by_top[None].right_side == {"Y"}


# -- cycle basis --------------------------------------------------------------


def test_cycle_basis_feedback(graph_c):
    basis = cycle_basis(process_graph(graph_c))
    assert basis.cycles == (("X", "Y"),)


def test_cycle_basis_acyclic(graph_a):
    assert len(cycle_basis(process_graph(graph_a))) == 0


def test_cycle_basis_complete_digraph():
    vertices = "ABC"
    edges = {(a, b) for a in vertices for b in vertices if a != b}
    basis = cycle_basis(_graph(vertices, "", edges))
    two = [c for c in basis if len(c) == 2]
    three = [c for c in basis if len(c) == 3]
    assert len(two) == 3 and len(three) == 2 and len(basis) == 5


# -- unrolled time-lag oracle -------------------------------------------------


def test_unrolled_chain_two_steps(graph_a):
    assert unrolled_paths(graph_a, "X", "Y", (), 2) == pytest.approx(0.09)


def test_unrolled_auto_dependency_run(graph_a):
    # one cross edge followed by two auto-dependency steps of the target
    assert unrolled_paths(graph_a, "M", "Y", (), 3) == pytest.approx(0.3 * 0.7**2)


def test_unrolled_no_contemporaneous_link(graph_a):
    assert unrolled_paths(graph_a, "X", "Y", (), 0) == 0.0


def test_unrolled_contemporaneous_chain():
    m = SvarModel(
        observed=("A", "B", "C"),
        latents=(),
        order=1,
        coeffs={("A", "B", 0): 0.5, ("B", "C", 0): 0.4, ("A", "C", 1): 0.2},
        noise_var={"A": 1.0, "B": 1.0, "C": 1.0},
    )
    assert unrolled_paths(m, "A", "C", (), 0) == pytest.approx(0.5 * 0.4)
    assert unrolled_paths(m, "A", "C", (), 1) == pytest.approx(0.2)
    assert unrolled_paths(m, "A", "C", ("B",), 0) == 0.0


def test_unrolled_matches_ccf(graph_a, graph_b, feedback_mediator):
    cases = [
        (graph_a, "X", "Y", ()),
        (graph_b, "Z", "Y", ()),
        (graph_b, "Z", "Y", ("X",)),
        (feedback_mediator, "X", "Y", ()),
        (feedback_mediator, "X", "Y", ("W",)),
    ]
    for m, x, y, controls in cases:
        eff = ccf(m, x, y, controls, L=32)
        for s in range(7):
            assert eff.scalar_at(s) == pytest.approx(
                unrolled_paths(m, x, y, controls, s), abs=1e-12
            )

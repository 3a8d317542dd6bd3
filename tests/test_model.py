from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from conftest import CYCLIC_LATENT_EDGES, FIXTURE_NAMES, FIXTURES, ar1, random_model
from cycle_oracle import loop_gain_report
from svarpg.errors import SchemaError, SemanticError
from svarpg.model import (
    SvarModel,
    check_stability,
    load_model,
    parse_model,
    process_graph,
)
from svarpg.spectral import edge_transfer, frequency_grid


GRAPH_A_DOC = {
    "observed": ["X", "M", "Y"],
    "latents": [],
    "order": 2,
    "edges": [
        {"from": "X", "to": "X", "lag": 1, "coeff": 0.7},
        {"from": "M", "to": "M", "lag": 1, "coeff": 0.3},
        {"from": "M", "to": "M", "lag": 2, "coeff": -0.5},
        {"from": "X", "to": "M", "lag": 1, "coeff": 0.3},
        {"from": "Y", "to": "Y", "lag": 1, "coeff": 0.7},
        {"from": "M", "to": "Y", "lag": 1, "coeff": 0.3},
    ],
    "noise_var": {"X": 1.0, "M": 1.0, "Y": 1.0},
}


def test_parse_chain_document():
    m = parse_model(json.dumps(GRAPH_A_DOC))
    assert m.order == 2
    assert m.observed == ("X", "M", "Y")
    assert m.phi("X", "M", 1) == 0.3
    assert m.phi("M", "M", 2) == -0.5
    assert m.phi("X", "Y", 1) == 0.0


def test_parse_white_noise_model():
    doc = {"observed": ["A"], "order": 0, "edges": [], "noise_var": {"A": 1.0}}
    m = parse_model(json.dumps(doc))
    assert m.order == 0
    assert m.parents("A") == ()


def test_parse_rejects_observed_into_latent():
    doc = {
        "observed": ["X"],
        "latents": ["L"],
        "order": 1,
        "edges": [
            {"from": "L", "to": "X", "lag": 1, "coeff": 0.2},
            {"from": "X", "to": "L", "lag": 1, "coeff": 0.2},
        ],
        "noise_var": {"X": 1.0, "L": 1.0},
    }
    with pytest.raises(SemanticError):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate,exc",
    [
        (lambda d: d.pop("observed"), SchemaError),
        (lambda d: d.update(order="two"), SchemaError),
        (lambda d: d["edges"].append({"from": "X", "to": "M", "lag": 1, "coeff": 0.1}), SemanticError),
        (lambda d: d["edges"].append({"from": "X", "to": "M", "lag": 9, "coeff": 0.1}), SemanticError),
        (lambda d: d["edges"].append({"from": "Q", "to": "M", "lag": 1, "coeff": 0.1}), SemanticError),
        (lambda d: d["edges"].append({"from": "X", "to": "X", "lag": 0, "coeff": 0.1}), SemanticError),
        (lambda d: d["noise_var"].update(X=0.0), SemanticError),
        (lambda d: d["noise_var"].update(X=-1.0), SemanticError),
        (lambda d: d["noise_var"].update(Z=2.0), SemanticError),  # no process Z
        (lambda d: d["noise_var"].update(X=float("inf")), SemanticError),  # JSON Infinity
        (lambda d: d["noise_var"].update(X=float("nan")), SemanticError),  # JSON NaN
    ],
)
def test_parse_rejections(mutate, exc):
    doc = json.loads(json.dumps(GRAPH_A_DOC))
    mutate(doc)
    with pytest.raises(exc):
        parse_model(json.dumps(doc))


def test_parse_rejects_bad_json():
    with pytest.raises(SchemaError):
        parse_model("{not json")


def test_serialize_round_trip(graph_b):
    again = parse_model(graph_b.to_json())
    assert again == graph_b


def test_model_mappings_are_read_only_snapshots():
    coeffs = {("X", "X", 1): 0.5, ("X", "Y", 1): 0.3}
    noise_var = {"X": 1.0, "Y": 2.0}
    m = SvarModel(observed=("X", "Y"), latents=(), order=1, coeffs=coeffs, noise_var=noise_var)
    with pytest.raises(TypeError):
        m.noise_var["X"] = 4.0
    with pytest.raises(TypeError):
        m.coeffs[("X", "Y", 1)] = 9.0
    coeffs[("X", "Y", 1)] = 9.0  # the caller's dicts were copied
    noise_var["X"] = 4.0
    assert m.coeffs[("X", "Y", 1)] == m.phi("X", "Y", 1) == 0.3
    assert m.noise_var["X"] == 1.0
    assert json.loads(m.to_json())["noise_var"] == {"X": 1.0, "Y": 2.0}
    m._cached("slot", 0, lambda: "kept")
    louder = dataclasses.replace(m, noise_var={**m.noise_var, "X": 4.0})
    assert louder.noise_var["X"] == 4.0 and m.noise_var["X"] == 1.0
    assert louder._memo == {} and m._memo == {"slot": (0, "kept")}
    assert louder.coeffs == m.coeffs and louder == dataclasses.replace(m, noise_var={"X": 4.0, "Y": 2.0})


def test_stability_graph_c(graph_c):
    rep = check_stability(graph_c)
    assert rep.per_process_auto_sum == pytest.approx({"Z": 0.5, "X": 0.8, "Y": 0.6})
    assert rep.auto_sums_below_one
    # grand total of coefficient magnitudes is 3.0, far above the global bound
    assert not rep.grand_sum_below_one
    assert rep.stable
    assert 0.0 < rep.loop_spectral_radius < 1.0
    assert rep.ok


def test_loop_radius_squares_to_the_only_loop_gain(graph_c):
    # X <-> Y is graph_c's only cycle, so rho(H) = sqrt(|H_XY H_YX|) pointwise
    for grid_size in (7, 64, 256):
        radius = check_stability(graph_c, grid_size).loop_spectral_radius
        gain = max(loop_gain_report(graph_c, grid_size).values())
        assert abs(radius**2 - gain) <= 1e-12


def _loop_radius_per_point(m, grid_size):
    """Reference: H(omega_j) built edge by edge at every grid point."""
    names = m.processes
    best = 0.0
    for omega in frequency_grid(grid_size):
        h = np.zeros((len(names), len(names)), dtype=complex)
        for i, src in enumerate(names):
            for j, dst in enumerate(names):
                if m.has_edge(src, dst):
                    h[i, j] = edge_transfer(m, src, dst).evaluate(omega)[0]
        best = max(best, float(np.abs(np.linalg.eigvals(h)).max()))
    return best


def test_half_grid_loop_radius_matches_full_grid_reference():
    models = [load_model(FIXTURES / f"{name}.json") for name in FIXTURE_NAMES]
    models.append(
        random_model(
            np.random.default_rng(23),
            ("A", "B", "C"),
            ("L1", "L2"),
            CYCLIC_LATENT_EDGES,
            order=3,
            contemporaneous=True,
        )
    )
    for m in models:
        for grid_size in (1, 2, 7, 64):
            expected = _loop_radius_per_point(m, grid_size)
            radius = check_stability(m, grid_size).loop_spectral_radius
            assert abs(radius - expected) <= 1e-12 * expected


def test_loop_radius_covers_latent_cycles():
    # the observed part is acyclic; the series diverges through L1 <-> L2
    m = SvarModel(
        observed=("X",),
        latents=("L1", "L2"),
        order=0,
        coeffs={("L1", "L2", 0): 1.2, ("L2", "L1", 0): 1.2, ("L1", "X", 0): 0.5},
        noise_var={"X": 1.0, "L1": 1.0, "L2": 1.0},
    )
    rep = check_stability(m)
    assert rep.stable
    assert rep.loop_spectral_radius == pytest.approx(1.2, rel=1e-12)
    assert not rep.ok


def test_loop_radius_is_infinite_at_a_pole_on_the_grid():
    # X's own dynamics 1 - z vanish at omega = 0, so the edge Y -> X has a
    # pole there although the VAR itself is stable (companion radius 0.707)
    m = SvarModel(
        observed=("X", "Y"),
        latents=(),
        order=1,
        coeffs={("X", "X", 1): 1.0, ("X", "Y", 1): 0.5, ("Y", "X", 1): -1.0},
        noise_var={"X": 1.0, "Y": 1.0},
    )
    rep = check_stability(m)
    assert rep.stable
    assert rep.loop_spectral_radius == np.inf
    assert not rep.ok


def test_stability_ar1():
    rep = check_stability(ar1(0.7))
    assert rep.per_process_auto_sum == {"U": pytest.approx(0.7)}
    assert rep.auto_sums_below_one and rep.grand_sum_below_one and rep.stable


def test_stability_detects_explosive_model():
    rep = check_stability(ar1(1.05))
    assert not rep.stable
    assert rep.companion_spectral_radius == pytest.approx(1.05)


def test_stability_deterministic(graph_c):
    assert check_stability(graph_c, 128) == check_stability(graph_c, 128)


def test_process_graph_edges(graph_b):
    g = process_graph(graph_b)
    assert g.edges == frozenset(
        {("Z", "X"), ("Z", "M"), ("Z", "Y"), ("X", "M"), ("X", "Y"), ("M", "Y")}
    )


def test_process_graph_pure_autoregression():
    m = parse_model(
        json.dumps(
            {
                "observed": ["A", "B"],
                "order": 1,
                "edges": [
                    {"from": "A", "to": "A", "lag": 1, "coeff": 0.5},
                    {"from": "B", "to": "B", "lag": 1, "coeff": 0.4},
                ],
                "noise_var": {"A": 1.0, "B": 1.0},
            }
        )
    )
    assert process_graph(m).edges == frozenset()


def test_process_graph_with_latent(confounded_mediator):
    g = process_graph(confounded_mediator)
    assert g.edges == frozenset(
        {("L", "X"), ("L", "Y"), ("X", "W"), ("X", "Y"), ("W", "Y")}
    )
    assert ("X", "X") not in g.edges


def test_singular_contemporaneous_rejected():
    from svarpg.errors import SingularContemporaneousError

    m = SvarModel(
        observed=("A", "B"),
        latents=(),
        order=1,
        coeffs={("A", "B", 0): 1.0, ("B", "A", 0): 1.0, ("A", "A", 1): 0.1},
        noise_var={"A": 1.0, "B": 1.0},
    )
    with pytest.raises(SingularContemporaneousError):
        check_stability(m)


from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import CYCLIC_LATENT_EDGES, FIXTURES, ar1, random_model
from svarpg.errors import SchemaError, SemanticError
from svarpg.model import (
    check_stability,
    load_model,
    parse_model,
    process_graph,
    reduced_lag_matrices,
)


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


def test_stability_graph_c(graph_c):
    rep = check_stability(graph_c)
    assert rep.per_process_auto_sum == pytest.approx({"Z": 0.5, "X": 0.8, "Y": 0.6})
    assert rep.auto_sums_below_one
    # grand total of coefficient magnitudes is 3.0, far above the global bound
    assert not rep.grand_sum_below_one
    assert rep.stable
    assert rep.char_poly_min_modulus_margin > 0.0


def _margin_loop(m, grid_size):
    """Reference: one determinant per radius and grid point."""
    a = reduced_lag_matrices(m)
    margin = np.inf
    angles = 2.0 * np.pi * np.arange(grid_size) / grid_size
    for radius in (0.25, 0.5, 0.75, 1.0):
        for z in radius * np.exp(1j * angles):
            poly = np.eye(m.n_processes, dtype=complex)
            for k in range(1, m.order + 1):
                poly -= (z**k) * a[k]
            margin = min(margin, abs(np.linalg.det(poly)))
    return margin


def test_char_poly_margin_matches_determinant_loop():
    rng = np.random.default_rng(23)
    models = [load_model(path) for path in sorted(FIXTURES.glob("*.json"))]
    models += [
        random_model(
            rng, ("A", "B", "C"), ("L1", "L2"), CYCLIC_LATENT_EDGES, order=3, contemporaneous=True
        )
        for _ in range(5)
    ]
    for m in models:
        for grid_size in (1, 7, 64):
            expected = _margin_loop(m, grid_size)
            margin = check_stability(m, grid_size).char_poly_min_modulus_margin
            assert margin == pytest.approx(expected, rel=4 * np.finfo(float).eps)


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
    from svarpg.model import SvarModel

    m = SvarModel(
        observed=("A", "B"),
        latents=(),
        order=1,
        coeffs={("A", "B", 0): 1.0, ("B", "A", 0): 1.0, ("A", "A", 1): 0.1},
        noise_var={"A": 1.0, "B": 1.0},
    )
    with pytest.raises(SingularContemporaneousError):
        check_stability(m)


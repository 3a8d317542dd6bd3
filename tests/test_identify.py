from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import FIXTURES, random_frontdoor, random_instrument, random_regression
from svarpg.errors import ConfoundedTargetError, NotIdentifiableError, SemanticError
from svarpg.identify import (
    identify_frontdoor,
    identify_instrument,
    identify_unconfounded_parents,
)
from svarpg.graph import latent_projection
from svarpg.model import SvarModel, load_model, process_graph
from svarpg.spectral import edge_transfer, frequency_grid, spectral_density

OM = frequency_grid(256)


def _max_edge_error(m, result, pairs):
    worst = 0.0
    for v, w in pairs:
        exact = edge_transfer(m, v, w).evaluate(result.omegas)
        worst = max(worst, float(np.abs(result.edge(v, w) - exact).max()))
    return worst


def test_frontdoor_fixture_round_trip(confounded_mediator):
    s = spectral_density(confounded_mediator, OM)
    res = identify_frontdoor(s, ("X", "W", "Y"))
    assert _max_edge_error(confounded_mediator, res, [("X", "W"), ("W", "Y")]) < 1e-10
    assert res.method == "frontdoor"


def test_frontdoor_random_round_trips():
    rng = np.random.default_rng(42)
    for _ in range(5):
        m = random_frontdoor(rng)
        s = spectral_density(m, OM)
        res = identify_frontdoor(s, ("X", "W", "Y"))
        assert _max_edge_error(m, res, [("X", "W"), ("W", "Y")]) < 1e-8


def test_frontdoor_zero_latent_variance_matches_regression():
    rng = np.random.default_rng(7)
    m = random_frontdoor(rng)
    silent = dataclasses.replace(m, noise_var={**m.noise_var, "L": 0.0})
    s = spectral_density(silent, OM)
    front = identify_frontdoor(s, ("X", "W", "Y"))
    # without latent confounding, W has the single parent X and the plain
    # spectral regression applies to the same entries
    proj = latent_projection(
        process_graph(
            dataclasses.replace(silent, latents=(), noise_var={k: v for k, v in silent.noise_var.items() if k != "L"}, coeffs={k: v for k, v in silent.coeffs.items() if "L" not in k[:2]})
        )
    )
    reg_w = identify_unconfounded_parents(s, proj, "W")
    assert np.abs(front.edge("X", "W") - reg_w.edge("X", "W")).max() < 1e-8
    reg_y = identify_unconfounded_parents(s, proj, "Y")
    assert np.abs(front.edge("W", "Y") - reg_y.edge("W", "Y")).max() < 1e-8


def test_frontdoor_contemporaneous_reduces_to_covariance_ratios():
    m = SvarModel(
        observed=("X", "W", "Y"),
        latents=("L",),
        order=0,
        coeffs={
            ("X", "W", 0): 0.5,
            ("W", "Y", 0): -0.4,
            ("X", "Y", 0): 0.3,
            ("L", "X", 0): 0.6,
            ("L", "Y", 0): 0.7,
        },
        noise_var={"X": 1.0, "W": 0.5, "Y": 2.0, "L": 1.5},
    )
    s = spectral_density(m, 8)
    res = identify_frontdoor(s, ("X", "W", "Y"))
    sigma = s.values[0].real
    a_xw = sigma[1, 0] / sigma[0, 0]
    assert np.allclose(res.edge("X", "W"), a_xw)
    assert np.allclose(res.edge("X", "W"), 0.5, atol=1e-12)
    assert np.allclose(res.edge("W", "Y"), -0.4, atol=1e-12)


def test_instrument_fixture_with_degenerate_frequency(instrument_model):
    s = spectral_density(instrument_model, OM)
    res = identify_instrument(s, ("X", "M", "Y"))
    exact = edge_transfer(instrument_model, "M", "Y").evaluate(OM)
    flagged = res.flagged("M", "Y")
    # the numerator 0.4 + 0.4 z vanishes exactly at omega = pi
    assert list(flagged) == [128]
    good = np.ones(len(OM), dtype=bool)
    good[flagged] = False
    assert np.abs(res.edge("M", "Y") - exact)[good].max() < 1e-10
    assert np.abs(res.edge("M", "Y") - exact)[flagged].max() < 1e-4
    assert np.abs(res.edge("X", "M") - edge_transfer(instrument_model, "X", "M").evaluate(OM)).max() < 1e-10


def test_instrument_random_round_trips():
    rng = np.random.default_rng(43)
    for _ in range(5):
        m = random_instrument(rng)
        s = spectral_density(m, OM)
        res = identify_instrument(s, ("X", "M", "Y"))
        good = res.condition[("M", "Y")]
        exact = edge_transfer(m, "M", "Y").evaluate(OM)
        assert np.abs(res.edge("M", "Y") - exact)[good].max() < 1e-8


def test_instrument_not_identifiable(instrument_model):
    silent = dataclasses.replace(
        instrument_model,
        coeffs={k: v for k, v in instrument_model.coeffs.items() if k[:2] != ("X", "M")},
    )
    s = spectral_density(silent, 64)
    with pytest.raises(NotIdentifiableError):
        identify_instrument(s, ("X", "M", "Y"))


def test_unconfounded_parents_full_model(graph_b):
    s = spectral_density(graph_b, OM)
    proj = latent_projection(process_graph(graph_b))
    res = identify_unconfounded_parents(s, proj, "Y")
    assert set(res.edges) == {("Z", "Y"), ("X", "Y"), ("M", "Y")}
    assert _max_edge_error(graph_b, res, list(res.edges)) < 1e-10


def test_unconfounded_single_parent_ratio(graph_a):
    s = spectral_density(graph_a, OM)
    proj = latent_projection(process_graph(graph_a))
    res = identify_unconfounded_parents(s, proj, "M")
    ratio = s.entry("M", "X") / s.entry("X", "X")
    assert np.abs(res.edge("X", "M") - ratio).max() < 1e-12


def test_unconfounded_chain_second_route(graph_a):
    # in a pure chain the target regression also equals S[Y, M] / S[M, M]
    s = spectral_density(graph_a, OM)
    proj = latent_projection(process_graph(graph_a))
    res = identify_unconfounded_parents(s, proj, "Y")
    other = s.entry("Y", "M") / s.entry("M", "M")
    assert np.abs(res.edge("M", "Y") - other).max() < 1e-10


def test_unconfounded_random_round_trips():
    rng = np.random.default_rng(44)
    for _ in range(5):
        m = random_regression(rng)
        s = spectral_density(m, OM)
        proj = latent_projection(process_graph(m))
        res = identify_unconfounded_parents(s, proj, "Y")
        assert _max_edge_error(m, res, list(res.edges)) < 1e-8


def test_unconfounded_rejects_confounded_target(instrument_model):
    s = spectral_density(instrument_model, 32)
    proj = latent_projection(process_graph(instrument_model))
    with pytest.raises(ConfoundedTargetError):
        identify_unconfounded_parents(s, proj, "Y")


def test_unconfounded_rejects_cyclic_target(graph_c):
    s = spectral_density(graph_c, 32)
    proj = latent_projection(process_graph(graph_c))
    with pytest.raises(ConfoundedTargetError):
        identify_unconfounded_parents(s, proj, "Y")


def test_frontdoor_ill_conditioned_input():
    from svarpg.errors import IllConditionedError
    from svarpg.spectral import SpectralMatrix

    omegas = frequency_grid(4)
    values = np.zeros((4, 3, 3), dtype=complex)  # degenerate: S_X identically zero
    s = SpectralMatrix(labels=("X", "W", "Y"), omegas=omegas, values=values)
    with pytest.raises(IllConditionedError):
        identify_frontdoor(s, ("X", "W", "Y"))


def test_recovered_functions_conjugate_symmetric(confounded_mediator):
    n = 64
    s = spectral_density(confounded_mediator, n)
    res = identify_frontdoor(s, ("X", "W", "Y"))
    for key in res.edges:
        vals = res.edges[key]
        mirrored = np.conj(vals[(-np.arange(n)) % n])
        assert np.abs(vals - mirrored).max() < 1e-10


@pytest.mark.parametrize("method", [identify_frontdoor, identify_instrument])
@pytest.mark.parametrize(
    "labels,message",
    [
        (("X", "M", "Q"), "no process Q in the spectral matrix"),
        (("X", "X", "Y"), "labels must name three distinct processes, got X,X,Y"),
        (("X", "M", "X"), "labels must name three distinct processes, got X,M,X"),
        (("X", "M"), "labels must name three distinct processes, got X,M"),
    ],
    ids=["unknown", "repeated_first", "repeated_ends", "two"],
)
def test_unknown_or_repeated_labels_are_semantic_errors(method, labels, message):
    s = spectral_density(load_model(FIXTURES / "instrument.json"), 8)
    with pytest.raises(SemanticError) as exc:
        method(s, labels)
    assert str(exc.value) == message

"""Views derived from the dense coefficient tensor Phi agree with per-edge references."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import CYCLIC_LATENT_EDGES, FIXTURES, random_model
from svarpg.filters import _edge_filters, direct_effect_filter, lambda_matrix
from svarpg.model import load_model, parse_document, process_graph
from svarpg.spectral import _transfer, edge_transfer, frequency_grid

MODELS = [
    "graph_a",
    "graph_b",
    "graph_c",
    "instrument",
    "confounded_mediator",
    "feedback_mediator",
    "cyclic_latent",
]

OM = frequency_grid(128)


def _model(name):
    if name == "cyclic_latent":
        return random_model(
            np.random.default_rng(11),
            ("A", "B", "C"),
            ("L1", "L2"),
            CYCLIC_LATENT_EDGES,
            contemporaneous=True,
        )
    return load_model(FIXTURES / f"{name}.json")


def _scalar_filter(m, v, w, L):
    """Reference loop: lam[s] = phi_{v,w}(s) + sum_j lam[s - j] a_w(j)."""
    p = m.order
    lam = np.zeros(L + 1)
    for s in range(L + 1):
        acc = m.coeffs.get((v, w, s), 0.0) if s <= p else 0.0
        for j in range(1, min(s, p) + 1):
            acc += lam[s - j] * m.coeffs.get((w, w, j), 0.0)
        lam[s] = acc
    return lam


@pytest.mark.parametrize("name", MODELS)
def test_edge_filter_tensor_is_direct_filters(name):
    m = _model(name)
    L = 48
    tensor = _edge_filters(m, L)
    for i, v in enumerate(m.processes):
        for j, w in enumerate(m.processes):
            if v == w:
                assert not tensor[:, i, j].any()
                continue
            reference = _scalar_filter(m, v, w, L)
            np.testing.assert_array_equal(tensor[:, i, j], reference)
            np.testing.assert_array_equal(direct_effect_filter(m, v, w, L).scalar_values(), reference)
    n = m.n_observed
    np.testing.assert_array_equal(lambda_matrix(m, L).values, tensor[:, :n, :n])


@pytest.mark.parametrize("name", MODELS)
def test_transfer_blocks_are_edge_transfers(name):
    m = _model(name)
    h, _ = _transfer(m, OM)
    for i, v in enumerate(m.processes):
        for j, w in enumerate(m.processes):
            if m.has_edge(v, w):
                expected = edge_transfer(m, v, w).evaluate(OM)
                np.testing.assert_allclose(h[:, i, j], expected, rtol=0.0, atol=1e-14)
            else:
                assert not h[:, i, j].any()


@pytest.mark.parametrize("name", MODELS)
def test_graph_views_ignore_zero_coefficients(name):
    m = _model(name)
    doc = m.to_document()
    v, w = next(
        (v, w)
        for v in m.processes
        for w in m.processes
        if v != w and not m.has_edge(v, w) and not (m.is_latent(w) and not m.is_latent(v))
    )
    doc["edges"].append({"from": v, "to": w, "lag": m.order, "coeff": 0.0})
    padded = parse_document(doc)
    assert (v, w, m.order) in padded.coeffs
    assert not padded.has_edge(v, w)
    assert padded.parents(w) == m.parents(w)
    assert process_graph(padded) == process_graph(m)
    np.testing.assert_array_equal(padded.Phi, m.Phi)


@pytest.mark.parametrize("name", MODELS)
def test_phi_is_read_only(name):
    m = _model(name)
    with pytest.raises(ValueError):
        m.Phi[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        m.auto_coeffs(m.processes[0])[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.Phi = np.zeros_like(m.Phi)


@pytest.mark.parametrize("name", MODELS)
def test_phi_lookup_matches_sparse_map(name):
    m = _model(name)
    for (src, dst, lag), value in m.coeffs.items():
        assert m.phi(src, dst, lag) == value
        assert m.phi(src, dst, -1) == 0.0
        assert m.phi(src, dst, m.order + 1) == 0.0

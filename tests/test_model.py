from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from conftest import (
    CYCLIC_LATENT_EDGES,
    FIXTURE_NAMES,
    FIXTURES,
    FRONTDOOR_EDGES,
    INSTRUMENT_EDGES,
    REGRESSION_EDGES,
    ar1,
    random_model,
)
from cycle_oracle import loop_gain_report
from svarpg import model
from svarpg.errors import SchemaError, SemanticError, SingularAtFrequencyError
from svarpg.model import (
    SvarModel,
    check_stability,
    load_model,
    parse_model,
    process_graph,
)
from svarpg.spectral import _half_grid, _transfer, edge_transfer, frequency_grid
from test_per_frequency import _dense_model


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


@pytest.mark.parametrize("grid_size", [8.0, "256", None])
def test_a_non_integer_grid_size_is_a_semantic_error(graph_c, grid_size):
    with pytest.raises(SemanticError, match="grid size must be an integer"):
        check_stability(graph_c, grid_size)
    assert check_stability(graph_c, np.int64(8)) == check_stability(graph_c, 8)


def _radii(stack):
    return np.abs(np.linalg.eigvals(stack)).max(axis=1)


def _bound_stacks():
    rng = np.random.default_rng(24)
    stacks = [rng.standard_normal((32, n, n)) + 1j * rng.standard_normal((32, n, n)) for n in (1, 3, 8)]
    # permuted strictly triangular: nilpotent, rho = 0
    tri = np.triu(rng.standard_normal((16, 6, 6)), 1) * 10.0
    perm = rng.permutation(6)
    stacks.append(tri[:, perm][:, :, perm])
    # near-Jordan: eigenvalue lam, coupling 1e3, perturbed by 1e-10 (strongly non-normal)
    lam = rng.uniform(0.1, 1.0, 16) * np.exp(2j * np.pi * rng.uniform(size=16))
    jordan = lam[:, None, None] * np.eye(5) + 1e3 * np.eye(5, k=1)
    stacks.append(jordan + 1e-10 * rng.standard_normal((16, 5, 5)))
    # a diagonal behind an ill-conditioned similarity
    v = np.eye(4) + 0.999 * np.eye(4, k=1)
    diag = rng.uniform(-1.0, 1.0, (16, 4))[:, :, None] * np.eye(4)
    stacks.append(v @ diag @ np.linalg.inv(v))
    stacks.append(np.zeros((4, 3, 3), dtype=complex))
    return stacks


def test_radius_bound_is_an_upper_bound_point_by_point():
    stacks = _bound_stacks()
    for stack in stacks:
        bound = model._radius_bound(stack)
        assert bound.shape == (len(stack),)
        assert (bound >= _radii(stack)).all()
    for scale in (1e150, 1e-150):
        bound = model._radius_bound(stacks[2] * scale)
        assert np.isfinite(bound).all()
        assert (bound >= _radii(stacks[2] * scale)).all()
        assert np.allclose(bound / scale, model._radius_bound(stacks[2]), rtol=1e-9)


def test_radius_bound_is_infinite_where_a_norm_leaves_its_range():
    # norms 3, inf, 0, 9e153 (above 2^510) and 3e-152 (below 2^-500)
    stack = np.ones((5, 3, 3), dtype=complex)
    stack[1, 0, 2] = np.inf
    stack[2] = 0.0
    stack[3] *= 3e153
    stack[4] *= 1e-152
    bound = model._radius_bound(stack)
    assert bound[0] >= 3.0 and np.isfinite(bound[0])
    assert (bound[1:] == np.inf).all()


def _full_sweep(m, grid_size):
    """The sweep ``_loop_radius`` replaced: eigenvalues at every half-grid point."""
    try:
        h = _transfer(m, _half_grid(grid_size))[0]
    except SingularAtFrequencyError:
        return np.inf
    return float(np.abs(np.linalg.eigvals(h)).max())


def _resonance(c: float) -> SvarModel:
    """X <-> Y at lag 1 with gain c, Y an AR(2) resonance r = 0.999 between grid
    points of 256: the loop radius peaks far above its value on that grid."""
    r, theta = 0.999, 2.0 * np.pi * 20.5 / 256
    coeffs = {
        ("X", "Y", 1): c**0.5,
        ("Y", "X", 1): c**0.5,
        ("Y", "Y", 1): 2.0 * r * np.cos(theta),
        ("Y", "Y", 2): -r * r,
    }
    return SvarModel(observed=("X", "Y"), latents=(), order=2, coeffs=coeffs, noise_var={"X": 1.0, "Y": 1.0})


def _pruning_models():
    models = [load_model(FIXTURES / f"{name}.json") for name in FIXTURE_NAMES]
    structures = [
        (("A", "B", "C"), ("L1", "L2"), CYCLIC_LATENT_EDGES),
        (("X", "W", "Y"), ("L",), FRONTDOOR_EDGES),
        (("X", "M", "Y"), ("L",), INSTRUMENT_EDGES),
        (("Z", "X", "M", "Y"), (), REGRESSION_EDGES),
    ]
    for seed, (observed, latents, edges) in enumerate(structures):
        for contemporaneous in (False, True):
            rng = np.random.default_rng([24, seed])
            models.append(random_model(rng, observed, latents, edges, order=3, contemporaneous=contemporaneous))
    return models + [_dense_model()]


def test_pruned_loop_radius_equals_the_full_sweep_bit_for_bit():
    for m in _pruning_models():
        for grid_size in (1, 2, 7, 64, 256):
            assert check_stability(m, grid_size).loop_spectral_radius == _full_sweep(m, grid_size)
        h = _transfer(m, _half_grid(64))[0]
        assert (model._radius_bound(h) >= _radii(h)).all()
    resonance = _resonance(0.002)
    for grid_size, radius in ((256, 0.4129), (1024, 1.4405)):
        pruned = check_stability(resonance, grid_size)
        assert pruned.loop_spectral_radius == _full_sweep(resonance, grid_size)
        assert pruned.loop_spectral_radius == pytest.approx(radius, abs=1e-4)
        assert pruned.ok is (radius < 1.0)


def test_pruned_loop_radius_is_exact_across_blocks(monkeypatch):
    # one frequency per work stack and per batch of eigenvalues
    monkeypatch.setattr(model, "_BLOCK_ENTRIES", 1)
    for m in (_dense_model(), _resonance(0.002), load_model(FIXTURES / "graph_c.json")):
        assert check_stability(m, 256).loop_spectral_radius == _full_sweep(m, 256)


def test_eigenvalues_are_taken_only_where_the_bound_could_beat_the_maximum(graph_c, monkeypatch):
    eigvals, seen = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: seen.append(a.shape) or eigvals(a))
    rep = check_stability(graph_c, 256)
    matrices = sum(shape[0] for shape in seen if len(shape) == 3)
    assert 0 < matrices < 129
    assert rep.loop_spectral_radius == _full_sweep(graph_c, 256)


def _random_dag(seed: int) -> SvarModel:
    """Random edges from earlier to later vertices of a shuffled order, and a latent
    source into two observed processes."""
    rng = np.random.default_rng([26, seed])
    names = [str(v) for v in rng.permutation(list("ABCDE"))]
    edges = [(v, w) for i, v in enumerate(names) for w in names[i + 1 :] if rng.random() < 0.5]
    edges += [("L", names[i]) for i in rng.choice(5, size=2, replace=False)]
    return random_model(rng, tuple("ABCDE"), ("L",), tuple(edges), 3, bool(seed % 2))


def test_acyclic_masks_match_nilpotency():
    rng = np.random.default_rng(26)
    for n in range(1, 9):
        for density in (0.1, 0.3, 0.6):
            mask = rng.random((n, n)) < density
            np.fill_diagonal(mask, False)
            perm = rng.permutation(n)
            if rng.random() < 0.5:  # half of them DAGs
                mask = np.triu(mask)[np.ix_(perm, perm)]
            power = np.linalg.matrix_power(mask.astype(int), n)
            assert model._acyclic(mask) is (not power.any())


def test_acyclic_loop_radius_is_zero_without_eigenvalues(monkeypatch):
    dags = [load_model(FIXTURES / f"{name}.json") for name in ("graph_a", "graph_b", "instrument", "confounded_mediator")]
    dags += [_random_dag(seed) for seed in range(12)]
    grids = (1, 7, 256)
    sweeps = [[_full_sweep(m, grid_size) for grid_size in grids] for m in dags]
    eigvals, seen = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: seen.append(a.shape) or eigvals(a))
    for m, sweep in zip(dags, sweeps):
        assert [check_stability(m, grid_size).loop_spectral_radius for grid_size in grids] == sweep == [0.0] * 3
    assert sum(shape[0] for shape in seen if len(shape) == 3) == 0
    for name in ("graph_c", "feedback_mediator"):
        assert not model._acyclic(load_model(FIXTURES / f"{name}.json")._edge_mask)


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


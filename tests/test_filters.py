from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import CYCLIC_LATENT_EDGES, FIXTURES, ar1, explosive_target, random_model
from svarpg.errors import DimensionMismatchError, NonConvergentError, SelfPairError, SemanticError
from svarpg.filters import (
    FiniteFilter,
    acs_via_ma_infinity,
    acs_via_sep,
    ccf,
    convolve,
    direct_effect_filter,
    internal_dynamics_filter,
    lambda_infinity,
    lambda_matrix,
    projected_noise_acs,
    tilted_convolve,
    trek_monomial_filter,
)
from svarpg.graph import enumerate_paths, enumerate_treks, latent_projection, unrolled_paths
from svarpg.model import SvarModel, load_model, phi_companion, process_graph
from svarpg.spectral import cctf, edge_transfer, fourier


def scalar(seq, start=0):
    return FiniteFilter.from_scalar(seq, start)


# -- convolution algebra ------------------------------------------------------


def test_convolve_unit_neutral():
    a = scalar([0.3, -0.2, 0.1])
    out = convolve(a, FiniteFilter.unit())
    assert np.allclose(out.scalar_values(), a.scalar_values())
    assert out.start == 0


def test_convolve_edge_filters_chain(graph_a):
    xm = direct_effect_filter(graph_a, "X", "M", 8)
    my = direct_effect_filter(graph_a, "M", "Y", 8)
    assert convolve(xm, my).scalar_at(3) == pytest.approx(0.3 * 0.21 + 0.09 * 0.3)


def test_convolve_binomial():
    a = scalar([1.0, 1.0])
    assert np.allclose(convolve(a, a).scalar_values(), [1.0, 2.0, 1.0])


def test_convolve_dimension_mismatch():
    a = FiniteFilter.zeros(2, 2, 3)
    with pytest.raises(DimensionMismatchError):
        convolve(a, a)


def test_tilted_unit():
    out = tilted_convolve(FiniteFilter.unit(), FiniteFilter.unit())
    assert out.scalar_at(0) == 1.0 and out.scalar_at(1) == 0.0 and out.scalar_at(-1) == 0.0


def test_tilted_scalar_values():
    a = scalar([1.0, 0.5])
    out = tilted_convolve(a, a)
    assert out.scalar_at(0) == pytest.approx(1.25)
    assert out.scalar_at(1) == pytest.approx(0.5)
    assert out.scalar_at(-1) == pytest.approx(0.5)


def test_tilted_transpose_symmetry():
    rng = np.random.default_rng(5)
    a = FiniteFilter(start=0, values=rng.normal(size=(4, 3, 3)))
    sym = tilted_convolve(a.transpose(), a)
    for v in range(-3, 4):
        assert np.allclose(sym.at(v), sym.at(-v).T)


# -- effect and dynamics filters ----------------------------------------------


def test_direct_effect_filter_values(graph_a):
    assert np.allclose(
        direct_effect_filter(graph_a, "M", "Y", 3).scalar_values(), [0.0, 0.3, 0.21, 0.147]
    )
    assert np.allclose(
        direct_effect_filter(graph_a, "X", "M", 3).scalar_values(), [0.0, 0.3, 0.09, -0.123]
    )


def test_direct_effect_filter_absent_edge(graph_a):
    assert np.allclose(direct_effect_filter(graph_a, "Y", "X", 6).scalar_values(), 0.0)


def test_direct_effect_filter_rejects_self(graph_a):
    with pytest.raises(SelfPairError):
        direct_effect_filter(graph_a, "Y", "Y", 4)


def test_internal_dynamics_geometric():
    assert np.allclose(
        internal_dynamics_filter(ar1(0.7), "U", 3).scalar_values(), [1.0, 0.7, 0.49, 0.343]
    )


def test_internal_dynamics_two_lags(graph_a):
    assert np.allclose(
        internal_dynamics_filter(graph_a, "M", 4).scalar_values(),
        [1.0, 0.3, -0.41, -0.273, 0.1231],
    )


def test_internal_dynamics_without_autos():
    m = SvarModel(
        observed=("A", "B"),
        latents=(),
        order=1,
        coeffs={("A", "B", 1): 0.5},
        noise_var={"A": 1.0, "B": 1.0},
    )
    f = internal_dynamics_filter(m, "A", 5)
    assert f.scalar_at(0) == 1.0 and np.allclose(f.scalar_values()[1:], 0.0)


def test_internal_dynamics_l1_bound(graph_a, graph_c):
    # sum_j |f(j)| stays below 1 / (1 - sum_k |a_k|)
    for m in (graph_a, graph_c):
        for name in m.processes:
            f = internal_dynamics_filter(m, name, 256)
            auto_sum = float(np.abs(m.auto_coeffs(name)[1:]).sum())
            assert np.abs(f.scalar_values()).sum() <= 1.0 / (1.0 - auto_sum) + 1e-12


# -- filter series ------------------------------------------------------------


def test_lambda_infinity_dag_is_finite_sum(graph_a):
    lam = lambda_matrix(graph_a, 32)
    expected = FiniteFilter.unit(3).truncate(0, 32).values + lam.values
    expected = expected + convolve(lam, lam).truncate(0, 32).values
    inf = lambda_infinity(graph_a, 32)
    assert np.allclose(inf.values, expected)
    assert np.allclose(inf.values[0].diagonal(), 1.0)


def test_lambda_infinity_chain_entry(graph_a):
    inf = lambda_infinity(graph_a, 16)
    i, j = graph_a.observed.index("X"), graph_a.observed.index("Y")
    assert inf.values[2, i, j] == pytest.approx(0.09)


def test_lambda_infinity_matches_path_sum(graph_c):
    # partial path sums converge to the series entry as cycle depth grows
    inf = lambda_infinity(graph_c, 48)
    g = process_graph(graph_c)
    i, j = graph_c.observed.index("Z"), graph_c.observed.index("Y")
    deviations = []
    for depth in (1, 3, 5):
        total = np.zeros(49)
        for path in enumerate_paths(g, "Z", "Y", max_cycle_depth=depth):
            part = FiniteFilter.unit(1)
            for src, dst in path.edge_list():
                part = convolve(part, direct_effect_filter(graph_c, src, dst, 48)).truncate(0, 48)
            total += part.scalar_values()
        deviations.append(np.abs(total - inf.values[:, i, j]).max())
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[2] < 1e-4


def test_lambda_infinity_detects_divergence():
    m = SvarModel(
        observed=("A", "B"),
        latents=(),
        order=1,
        coeffs={("A", "B", 1): 1.1, ("B", "A", 1): 1.1},
        noise_var={"A": 1.0, "B": 1.0},
    )
    with pytest.raises(NonConvergentError):
        lambda_infinity(m, 32)


def test_power_norm_decays_for_globally_small_models():
    rng = np.random.default_rng(1)
    m = SvarModel(
        observed=("A", "B"),
        latents=(),
        order=1,
        coeffs={
            ("A", "A", 1): 0.2,
            ("B", "B", 1): 0.15,
            ("A", "B", 1): 0.2,
            ("B", "A", 1): 0.2,
        },
        noise_var={"A": 1.0, "B": 1.0},
    )
    lam = lambda_matrix(m, 64)
    power = lam
    norms = []
    for _ in range(12):
        norms.append(power.l1_norm())
        power = convolve(power, lam).truncate(0, 64)
    ratios = np.array(norms[3:]) / np.array(norms[2:-1])
    assert (ratios < 1.0).all()


def shared_vertex_loops() -> SvarModel:
    """Order 0, A <-> B and A <-> C loops of gain 0.6006 each: every loop alone
    is below one, but together rho(Lambda_0) = sqrt(2 * 0.6006) = 1.096."""
    c = math.sqrt(0.6006)
    return SvarModel(
        observed=("A", "B", "C"),
        latents=(),
        order=0,
        coeffs={("A", "B", 0): c, ("B", "A", 0): c, ("A", "C", 0): c, ("C", "A", 0): c},
        noise_var={"A": 1.0, "B": 1.0, "C": 1.0},
    )


def test_lambda_infinity_rejects_compounding_lag0_loops():
    with pytest.raises(NonConvergentError, match=r"radius 1\.096"):
        lambda_infinity(shared_vertex_loops(), 16)


def test_ccf_converges_once_the_shared_loop_is_cut():
    # cutting the edges into B leaves B -> A -> (C -> A)^k -> C, which sums to
    # 0.6006 / (1 - 0.6006) at lag 0
    m = shared_vertex_loops()
    eff = ccf(m, "B", "C", L=64)
    at_zero = cctf(m, "B", "C", (), np.zeros(1)).scalar_values()[0]
    assert at_zero.real == pytest.approx(0.6006 / (1.0 - 0.6006), rel=1e-12)
    assert eff.scalar_values().sum() == pytest.approx(at_zero.real, rel=1e-12)
    assert np.all(eff.scalar_values()[1:] == 0.0)


def test_ccf_ignores_the_dynamics_of_the_cut_cause():
    # X is explosive through its own lag and the Y -> X feedback, so the model
    # is not stationary; ccf cuts every edge into X, and what remains runs
    # only through Y's stable dynamics
    m = SvarModel(
        observed=("X", "Y"),
        latents=(),
        order=1,
        coeffs={("X", "X", 1): 1.0, ("X", "Y", 1): 0.5, ("Y", "Y", 1): 0.5, ("Y", "X", 1): 0.3},
        noise_var={"X": 1.0, "Y": 1.0},
    )
    expected = [0.0] + [0.5**s for s in range(1, 33)]
    np.testing.assert_allclose(ccf(m, "X", "Y", L=32).scalar_values(), expected, rtol=1e-15)
    with pytest.raises(NonConvergentError):
        lambda_infinity(m, 32)


def test_lambda_infinity_is_exact_when_a_fed_process_is_explosive():
    m = explosive_target()
    inf = lambda_infinity(m, 128)
    # short lags: the power series of the edge filters (Lambda_0 = 0, so
    # Lambda^k starts at lag k and eight powers reach lag 8)
    lam = lambda_matrix(m, 8)
    power, series = FiniteFilter.unit(2), np.zeros((9, 2, 2))
    series[0] = np.eye(2)
    for _ in range(8):
        power = convolve(power, lam).truncate(0, 8)
        series = series + power.values
    assert np.abs(inf.values[:9] - series).max() <= 1e-12
    # the whole horizon: the series is the expansion of (I - Lambda(omega))^{-1}
    omegas = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    lam_w = np.zeros((len(omegas), 2, 2), dtype=complex)
    lam_w[:, 0, 1] = edge_transfer(m, "X", "Y").evaluate(omegas)
    lam_w[:, 1, 0] = edge_transfer(m, "Y", "X").evaluate(omegas)
    exact = np.linalg.inv(np.eye(2) - lam_w)
    assert np.abs(fourier(inf, omegas).values - exact).max() <= 1e-12
    assert np.abs(inf.values[-1]).max() <= 1e-12


def test_noise_covariance_needs_stable_internal_dynamics():
    m = explosive_target()
    with pytest.raises(NonConvergentError, match="internal dynamics"):
        projected_noise_acs(m, 16)
    with pytest.raises(NonConvergentError, match="internal dynamics"):
        acs_via_sep(m, 8, 128)
    with pytest.raises(NonConvergentError, match="companion radius 1.5"):
        ccf(m, "Y", "X", L=32)  # the edge filter Y -> X itself


ORACLE_MODELS = [
    "graph_a",
    "graph_b",
    "graph_c",
    "instrument",
    "confounded_mediator",
    "feedback_mediator",
    "cyclic_latent",
]


def _oracle_model(name):
    if name == "cyclic_latent":
        return random_model(
            np.random.default_rng(11),
            ("A", "B", "C"),
            ("L1", "L2"),
            CYCLIC_LATENT_EDGES,
            contemporaneous=True,
        )
    return load_model(FIXTURES / f"{name}.json")


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_ccf_matches_unrolled_paths_and_cctf(name):
    m = _oracle_model(name)
    n, L = m.n_observed, 512
    omegas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    for x, y in itertools.permutations(m.observed, 2):
        for controls in [()] + [(z,) for z in m.observed if z not in (x, y)]:
            eff = ccf(m, x, y, controls, L)
            for s in range(7):
                oracle = unrolled_paths(m, x, y, controls, s)
                assert abs(eff.scalar_at(s) - oracle) <= 1e-12, (x, y, controls, s)
            # the series beyond L decays like r^s, r the certified companion radius
            phi = m.Phi[:, :n, :n].copy()
            phi[:, :, [m.observed.index(v) for v in (x, *controls)]] = 0.0
            r = float(np.abs(np.linalg.eigvals(phi_companion(phi))).max())
            tol = 1e-12 + 50.0 * L * r**L / (1.0 - r) ** 2
            exact = cctf(m, x, y, controls, omegas).scalar_values()
            deviation = np.abs(fourier(eff, omegas).scalar_values() - exact).max()
            assert deviation <= tol, (x, y, controls)


def test_acs_via_sep_is_exact_through_feedback(feedback_mediator):
    sep = acs_via_sep(feedback_mediator, 64, 128)
    ma = acs_via_ma_infinity(feedback_mediator, 64, 1024)
    assert np.abs(sep.values - ma.values).max() < 1e-13


@pytest.mark.parametrize(
    "call",
    [
        lambda m: direct_effect_filter(m, "X", "Y", -2),
        lambda m: internal_dynamics_filter(m, "X", -1),
        lambda m: lambda_matrix(m, -1),
        lambda m: lambda_infinity(m, -3),
        lambda m: ccf(m, "X", "Y", (), -1),
        lambda m: projected_noise_acs(m, -1),
        lambda m: acs_via_sep(m, -2, 16),
        lambda m: acs_via_sep(m, 4, -1),
        lambda m: acs_via_ma_infinity(m, -1, 16),
        lambda m: acs_via_ma_infinity(m, 4, -1),
        lambda m: acs_via_ma_infinity(m, 20, 8),
    ],
)
def test_bad_lag_horizons_are_semantic_errors(graph_c, call):
    with pytest.raises(SemanticError):
        call(graph_c)


# -- controlled effect filters --------------------------------------------------


def test_ccf_full_control_equals_direct(graph_b):
    for x, y in (("Z", "X"), ("X", "Y"), ("M", "Y")):
        controls = set(graph_b.observed) - {y}
        eff = ccf(graph_b, x, y, controls, L=24)
        direct = direct_effect_filter(graph_b, x, y, 24)
        assert np.allclose(eff.scalar_values(), direct.scalar_values(), atol=1e-14)


def test_ccf_blocked_mediator_is_zero(graph_a):
    eff = ccf(graph_a, "X", "Y", ("M",), L=24)
    assert np.allclose(eff.scalar_values(), 0.0)


@pytest.mark.parametrize("effect", [ccf, cctf])
@pytest.mark.parametrize(
    "x, y, controls",
    [("X", "Y", ("Y",)), ("L", "Y", ()), ("X", "Y", ("L",))],
    ids=["controlled_target", "latent_cause", "latent_control"],
)
def test_controlled_effects_reject_invalid_arguments(instrument_model, effect, x, y, controls):
    with pytest.raises(SemanticError):
        effect(instrument_model, x, y, controls)


def test_effect_total_matches_zero_frequency(graph_a):
    # sum over lags equals the transfer function at frequency zero
    eff = direct_effect_filter(graph_a, "M", "Y", 512)
    assert eff.scalar_values().sum() == pytest.approx(1.0, abs=1e-12)
    h0 = edge_transfer(graph_a, "M", "Y").evaluate(0.0)[0]
    assert eff.scalar_values().sum() == pytest.approx(h0.real, abs=1e-12)


# -- covariance sequences -----------------------------------------------------


def test_acs_ar1_closed_form():
    acs = acs_via_sep(ar1(0.7), L_acs=8, L_filter=256)
    expected = np.array([0.7**t / 0.51 for t in range(9)])
    assert np.allclose(acs.values[:, 0, 0], expected, atol=1e-10)
    assert acs.values[0, 0, 0] == pytest.approx(1.96078, abs=1e-5)


def test_acs_white_noise():
    m = SvarModel(
        observed=("A", "B"), latents=(), order=0, coeffs={}, noise_var={"A": 2.0, "B": 0.5}
    )
    acs = acs_via_sep(m, L_acs=4, L_filter=8)
    assert np.allclose(acs.values[0], np.diag([2.0, 0.5]))
    assert np.allclose(acs.values[1:], 0.0)


def test_acs_symmetry_and_psd(graph_c):
    acs = acs_via_sep(graph_c, L_acs=12, L_filter=128)
    assert np.allclose(acs.at(-3), acs.at(3).T)
    assert np.linalg.eigvalsh(acs.values[0]).min() > -1e-8


def test_acs_routes_agree(graph_a, graph_b, graph_c):
    for m in (graph_a, graph_b, graph_c):
        sep = acs_via_sep(m, L_acs=10, L_filter=192)
        ma = acs_via_ma_infinity(m, L_acs=10, L_psi=768)
        assert np.abs(sep.values - ma.values).max() < 1e-7


def test_acs_with_chained_latents():
    # a latent driving another latent goes through the recursive block route
    m = SvarModel(
        observed=("A", "B"),
        latents=("H", "K"),
        order=2,
        coeffs={
            ("A", "A", 1): 0.4,
            ("B", "B", 1): 0.3,
            ("B", "B", 2): -0.2,
            ("A", "B", 1): 0.3,
            ("H", "H", 1): 0.5,
            ("K", "K", 1): 0.4,
            ("H", "K", 1): 0.35,
            ("H", "A", 1): 0.3,
            ("K", "B", 2): 0.4,
        },
        noise_var={"A": 1.0, "B": 0.8, "H": 1.2, "K": 0.6},
    )
    sep = acs_via_sep(m, L_acs=8, L_filter=160)
    ma = acs_via_ma_infinity(m, L_acs=8, L_psi=512)
    assert np.abs(sep.values - ma.values).max() < 1e-10


def test_acs_ma_infinity_ar1():
    ma = acs_via_ma_infinity(ar1(0.7), L_acs=4, L_psi=512)
    assert ma.values[0, 0, 0] == pytest.approx(1.0 / 0.51)


def test_acs_ma_infinity_order0_sem():
    m = SvarModel(
        observed=("A", "B"),
        latents=(),
        order=0,
        coeffs={("A", "B", 0): 0.5},
        noise_var={"A": 1.0, "B": 1.0},
    )
    ma = acs_via_ma_infinity(m, L_acs=2, L_psi=4)
    ia = np.linalg.inv(np.eye(2) - np.array([[0.0, 0.5], [0.0, 0.0]]))
    assert np.allclose(ma.values[0], ia.T @ np.eye(2) @ ia)
    assert np.allclose(ma.values[1:], 0.0)


# -- trek monomials -----------------------------------------------------------


def test_trek_monomial_single_vertex(graph_a):
    proj = latent_projection(process_graph(graph_a))
    trek = next(t for t in enumerate_treks(proj, "X", "X") if t.left.is_empty and t.right.is_empty)
    mono = trek_monomial_filter(graph_a, trek, 64)
    noise = projected_noise_acs(graph_a, 64)
    i = graph_a.observed.index("X")
    for tau in range(-5, 6):
        assert mono.scalar_at(tau) == pytest.approx(noise.at(tau)[i, i])


def test_trek_sum_matches_acs(graph_a, instrument_model):
    for m in (graph_a, instrument_model):
        proj = latent_projection(process_graph(m))
        acs = acs_via_sep(m, L_acs=6, L_filter=96)
        for v in m.observed:
            for w in m.observed:
                treks = list(enumerate_treks(proj, v, w))
                for tau in range(7):
                    total = sum(trek_monomial_filter(m, t, 96).scalar_at(tau) for t in treks)
                    assert total == pytest.approx(acs.entry(v, w, tau), abs=1e-8)

"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.  Run with

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

import test_properties as props
from conftest import random_frontdoor, random_instrument, random_regression
from cycle_oracle import loop_gain_report
from svarpg.filters import acs_via_ma_infinity, acs_via_sep, ccf, direct_effect_filter, trek_monomial_filter
from svarpg.graph import enumerate_treks, latent_projection, unrolled_paths
from svarpg.identify import (
    identify_frontdoor,
    identify_instrument,
    identify_unconfounded_parents,
)
from svarpg.model import SvarModel, process_graph
from svarpg.simulate import simulate, welch_spectrum
from svarpg.spectral import (
    cctf,
    decompose_by_source,
    decompose_spectrum,
    edge_transfer,
    fourier,
    freq_path_rule_check,
    frequency_grid,
    internal_spectrum,
    spectral_density,
    trek_monomial_function,
)
from test_spectral import PRINTED_RATIONALS

OM = frequency_grid(256)


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(f"[FAIL] criterion {num}: over budget ({elapsed:.2f}s >= {budget_s}s)")
        raise AssertionError(f"criterion {num} exceeded runtime budget")
    print(f"[PASS] criterion {num} ({elapsed:.2f}s): {description}")


def test_criterion_1_edge_transfer_regression(request):
    with criterion(1, "edge transfer functions match the reference rationals", 1.0):
        for fixture, edge, num, den in PRINTED_RATIONALS:
            m = request.getfixturevalue(fixture)
            rt = edge_transfer(m, *edge)
            assert np.array_equal(rt.num, np.asarray(num, dtype=float))
            assert np.array_equal(rt.den, np.asarray(den, dtype=float))
            filt = direct_effect_filter(m, *edge, L=512)
            sampled = fourier(filt, 256).scalar_values()
            assert np.abs(sampled - rt.evaluate(OM)).max() < 1e-6


def test_criterion_2_acs_route_consistency(graph_a, graph_b, graph_c):
    with criterion(2, "filter-series and moving-average covariance routes agree", 5.0):
        for m in (graph_a, graph_b, graph_c):
            sep = acs_via_sep(m, L_acs=10, L_filter=192)
            ma = acs_via_ma_infinity(m, L_acs=10, L_psi=768)
            assert np.abs(sep.values - ma.values).max() < 1e-7


def test_criterion_3_effect_filter_oracle(graph_a, graph_b, feedback_mediator):
    with criterion(3, "controlled effect filters equal the unrolled path oracle", 10.0):
        cases = []
        for m in (graph_a, graph_b, feedback_mediator):
            for x in m.observed:
                for y in m.observed:
                    if x != y:
                        cases.append((m, x, y, ()))
        cases.append((graph_b, "Z", "Y", ("X",)))
        cases.append((feedback_mediator, "X", "Y", ("W",)))
        for m, x, y, controls in cases:
            eff = ccf(m, x, y, controls, L=32)
            for s in range(7):
                oracle = unrolled_paths(m, x, y, controls, s)
                assert abs(eff.scalar_at(s) - oracle) < 1e-12


def test_criterion_4_trek_rules(graph_a, graph_b, instrument_model):
    with criterion(4, "trek-monomial sums reproduce covariances and spectra", 10.0):
        for m in (graph_a, graph_b, instrument_model):
            proj = latent_projection(process_graph(m))
            acs = acs_via_sep(m, L_acs=6, L_filter=96)
            s = spectral_density(m, OM)
            for v in m.observed:
                for w in m.observed:
                    treks = list(enumerate_treks(proj, v, w))
                    for tau in range(7):
                        total = sum(
                            trek_monomial_filter(m, t, 96).scalar_at(tau) for t in treks
                        )
                        assert abs(total - acs.entry(v, w, tau)) < 1e-8
                    freq_total = np.zeros(len(OM), dtype=complex)
                    for t in treks:
                        freq_total += trek_monomial_function(m, t, OM)
                    assert np.abs(freq_total - s.entry(v, w)).max() < 1e-10


def test_criterion_5_closed_form_transfer_functions(graph_b, graph_c):
    with criterion(5, "closed-form transfer functions and geometric truncation decay", 30.0):
        h_xy = edge_transfer(graph_b, "X", "Y").evaluate(OM)
        h_xm = edge_transfer(graph_b, "X", "M").evaluate(OM)
        h_my = edge_transfer(graph_b, "M", "Y").evaluate(OM)
        ctf_b = cctf(graph_b, "X", "Y", (), OM).scalar_values()
        expansion = (
            np.abs(h_xy) ** 2
            + np.abs(h_xm * h_my) ** 2
            + 2.0 * np.real(np.conj(h_xy) * h_xm * h_my)
        )
        assert np.abs(np.abs(ctf_b) ** 2 - expansion).max() < 1e-10

        h_zx = edge_transfer(graph_c, "Z", "X").evaluate(OM)
        h_zy = edge_transfer(graph_c, "Z", "Y").evaluate(OM)
        h_xy_c = edge_transfer(graph_c, "X", "Y").evaluate(OM)
        h_yx_c = edge_transfer(graph_c, "Y", "X").evaluate(OM)
        ctf_c = cctf(graph_c, "Z", "Y", (), OM).scalar_values()
        closed = (h_zx * h_xy_c + h_zy) / (1.0 - h_yx_c * h_xy_c)
        assert np.abs(ctf_c - closed).max() < 1e-10

        bound = max(loop_gain_report(graph_c, OM).values()) + 0.02
        prev = freq_path_rule_check(graph_c, "Z", "Y", OM, depth=0)
        for depth in (1, 2, 3, 4):
            dev = freq_path_rule_check(graph_c, "Z", "Y", OM, depth=depth)
            assert dev / prev <= bound
            prev = dev


def test_criterion_6_spectral_decomposition(graph_c):
    with criterion(6, "spectral decomposition identities and per-source split", 2.0):
        dec = decompose_spectrum(graph_c, "X", "Y", OM)
        assert np.abs(
            dec.causal + dec.confounding + dec.residual - dec.target_spectrum
        ).max() < 1e-10

        s_z = internal_spectrum(graph_c, "Z", OM)
        s_x = internal_spectrum(graph_c, "X", OM)
        s_y = internal_spectrum(graph_c, "Y", OM)
        h_zx = edge_transfer(graph_c, "Z", "X").evaluate(OM)
        h_zy = edge_transfer(graph_c, "Z", "Y").evaluate(OM)
        h_xy = edge_transfer(graph_c, "X", "Y").evaluate(OM)
        h_yx = edge_transfer(graph_c, "Y", "X").evaluate(OM)
        loop = h_yx * h_xy
        d2 = np.abs(1.0 - loop) ** 2

        assert np.abs(dec.residual - (np.abs(h_zy) ** 2 * s_z + s_y)).max() < 1e-8

        split = decompose_by_source(graph_c, "X", "Y", OM)
        causal_z = (
            np.abs(h_zx * h_xy) ** 2
            + np.abs(h_zy * loop) ** 2
            + 2.0 * np.real(h_zx * h_xy * np.conj(h_zy) * np.conj(loop))
        ) / d2 * s_z
        checks = [
            (split.sources["X"].causal, np.abs(h_xy) ** 2 / d2 * s_x),
            (split.sources["Y"].causal, np.abs(loop) ** 2 / d2 * s_y),
            (split.sources["Z"].causal, causal_z),
            (
                split.sources["Z"].confounding,
                2.0
                * np.real(
                    (h_zx * h_xy * np.conj(h_zy) + h_zy * loop * np.conj(h_zy))
                    / (1.0 - loop)
                )
                * s_z,
            ),
            (split.sources["Y"].confounding, 2.0 * np.real(loop / (1.0 - loop)) * s_y),
            (split.sources["Z"].residual, np.abs(h_zy) ** 2 * s_z),
            (split.sources["Y"].residual, s_y),
        ]
        for got, want in checks:
            assert np.abs(got - want).max() < 1e-8
        for field in ("causal", "confounding", "residual"):
            total = sum(getattr(d, field) for d in split.sources.values())
            assert np.abs(total - getattr(split.total, field)).max() < 1e-10


def test_criterion_7_identification_round_trips(instrument_model):
    with criterion(7, "identification recovers edge functions from analytic spectra", 30.0):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            m = random_frontdoor(rng)
            res = identify_frontdoor(spectral_density(m, OM), ("X", "W", "Y"))
            for pair in (("X", "W"), ("W", "Y")):
                exact = edge_transfer(m, *pair).evaluate(OM)
                assert np.abs(res.edge(*pair) - exact).max() < 1e-8
        for _ in range(20):
            m = random_instrument(rng)
            res = identify_instrument(spectral_density(m, OM), ("X", "M", "Y"))
            good = res.condition[("M", "Y")]
            exact = edge_transfer(m, "M", "Y").evaluate(OM)
            assert np.abs(res.edge("M", "Y") - exact)[good].max() < 1e-8
            assert np.abs(
                res.edge("X", "M") - edge_transfer(m, "X", "M").evaluate(OM)
            ).max() < 1e-8
        for _ in range(20):
            m = random_regression(rng)
            proj = latent_projection(process_graph(m))
            res = identify_unconfounded_parents(spectral_density(m, OM), proj, "Y")
            for pair in res.edges:
                exact = edge_transfer(m, *pair).evaluate(OM)
                assert np.abs(res.edge(*pair) - exact).max() < 1e-8

        # degenerate instrument: matched coefficients zero the numerator at pi
        res = identify_instrument(spectral_density(instrument_model, OM), ("X", "M", "Y"))
        flagged = res.flagged("M", "Y")
        assert flagged.size > 0
        exact = edge_transfer(instrument_model, "M", "Y").evaluate(OM)
        assert np.abs(res.edge("M", "Y") - exact)[flagged].max() < 1e-4


def test_criterion_8_white_noise_embedding():
    with criterion(8, "contemporaneous-only models reduce to the static linear model", 5.0):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a_xw, a_wy, a_xy = rng.uniform(-0.6, 0.6, size=3)
            b_lx, b_ly = rng.uniform(-0.6, 0.6, size=2)
            noise = {k: float(v) for k, v in zip("XWYL", rng.uniform(0.5, 2.0, size=4))}
            m = SvarModel(
                observed=("X", "W", "Y"),
                latents=("L",),
                order=0,
                coeffs={
                    ("X", "W", 0): float(a_xw),
                    ("W", "Y", 0): float(a_wy),
                    ("X", "Y", 0): float(a_xy),
                    ("L", "X", 0): float(b_lx),
                    ("L", "Y", 0): float(b_ly),
                },
                noise_var=noise,
            )
            s = spectral_density(m, 32)
            names = ("X", "W", "Y")
            a = np.array([[m.phi(u, v, 0) for v in names] for u in names])
            c = np.array([[m.phi("L", v, 0) for v in names]])
            omega = np.diag([noise[k] for k in "XWY"]) + c.T * noise["L"] @ c
            ia = np.linalg.inv(np.eye(3) - a)
            sigma = ia.T @ omega @ ia
            assert np.abs(s.values - s.values[0]).max() < 1e-12
            assert np.abs(s.values[0] - sigma).max() < 1e-12

            res = identify_frontdoor(s, ("X", "W", "Y"))
            assert np.abs(res.edge("X", "W") - sigma[1, 0] / sigma[0, 0]).max() < 1e-12
            assert np.abs(res.edge("X", "W") - a_xw).max() < 1e-10
            assert np.abs(res.edge("W", "Y") - a_wy).max() < 1e-10


def test_criterion_9_monte_carlo_validation(graph_a, graph_b, graph_c):
    with criterion(9, "Welch estimates track the analytic spectral density", 120.0):
        for m in (graph_a, graph_b, graph_c):
            traj = simulate(m, T=2**20, seed=11)
            est = welch_spectrum(traj, segment_len=1024, overlap=0.5, grid=256)
            s = spectral_density(m, 256)
            diag = np.real(np.diagonal(s.values, axis1=1, axis2=2))
            for i, name in enumerate(m.observed):
                rel = np.abs(est.entry(name, name).real - diag[:, i]) / diag[:, i]
                assert rel.max() < 0.10
            scale = np.sqrt(np.einsum("wi,wj->wij", diag, diag))
            assert (np.abs(est.values - s.values) / scale).max() < 0.10


def test_criterion_10_property_suites():
    with criterion(10, "randomized property suites stay green", 60.0):
        props.test_convolution_associative()
        props.test_unit_filter_neutral()
        props.test_fourier_takes_convolution_to_product()
        props.test_fourier_takes_tilted_convolution_to_conjugate_product()
        props.test_spectra_hermitian_psd_random_models()
        props.test_acs_symmetry_psd_random_models()
        props.test_seed_reproducibility_random_models()

from __future__ import annotations

import numpy as np
import pytest

from conftest import ar1, random_model, unit_circle_own_dynamics, unit_root_own_dynamics
from svarpg.errors import LatentPresentError, NonConvergentError, SemanticError, SingularAtFrequencyError
from svarpg.filters import FiniteFilter, acs_via_sep, convolve, direct_effect_filter, tilted_convolve
from svarpg.graph import enumerate_treks, latent_projection
from svarpg.model import SvarModel, check_stability, process_graph
from svarpg.spectral import (
    cctf,
    decompose_by_source,
    decompose_spectrum,
    edge_transfer,
    fourier,
    freq_path_rule_check,
    frequency_grid,
    internal_spectrum,
    loop_gain_report,
    spectral_density,
    trek_monomial_function,
)

OM = frequency_grid(256)


# Frozen rational edge functions of the three bundled example models:
# (model fixture, edge, numerator by ascending power, denominator by ascending power)
PRINTED_RATIONALS = [
    ("graph_a", ("X", "M"), [0.0, 0.3, 0.0], [1.0, -0.3, 0.5]),
    ("graph_a", ("M", "Y"), [0.0, 0.3, 0.0], [1.0, -0.7, 0.0]),
    ("graph_b", ("Z", "X"), [0, 0.2, 0, 0, 0, 0, 0], [1.0, -0.3, 0, 0.2, 0.4, 0, 0]),
    ("graph_b", ("Z", "M"), [0, 0.2, 0, 0, 0, 0, 0], [1.0, -0.5, 0, 0, 0, 0, 0]),
    ("graph_b", ("X", "M"), [0, 0, 0.2, 0, 0, 0, 0], [1.0, -0.5, 0, 0, 0, 0, 0]),
    ("graph_b", ("X", "Y"), [0, 0.3, 0, 0, 0, 0, 0], [1.0, -0.3, 0, 0, 0, 0, 0.5]),
    ("graph_b", ("M", "Y"), [0, 0.2, 0, 0, 0, 0, 0], [1.0, -0.3, 0, 0, 0, 0, 0.5]),
    ("graph_c", ("Z", "X"), [0, 0.3, 0, 0], [1.0, -0.3, 0.5, 0]),
    ("graph_c", ("Z", "Y"), [0, 0, 0, 0.2], [1.0, -0.3, 0, 0.3]),
    ("graph_c", ("X", "Y"), [0, 0, 0.3, 0], [1.0, -0.3, 0, 0.3]),
    ("graph_c", ("Y", "X"), [0, 0.3, 0, 0], [1.0, -0.3, 0.5, 0]),
]


@pytest.mark.parametrize("fixture,edge,num,den", PRINTED_RATIONALS)
def test_edge_transfer_reference_coefficients(request, fixture, edge, num, den):
    m = request.getfixturevalue(fixture)
    rt = edge_transfer(m, *edge)
    assert np.array_equal(rt.num, np.asarray(num, dtype=float))
    assert np.array_equal(rt.den, np.asarray(den, dtype=float))


def test_edge_transfer_zero_frequency(graph_a):
    assert edge_transfer(graph_a, "X", "M").evaluate(0.0)[0] == pytest.approx(0.25)
    assert edge_transfer(graph_a, "M", "Y").evaluate(0.0)[0] == pytest.approx(1.0)


def test_edge_transfer_rejects_self(graph_a):
    with pytest.raises(SemanticError):
        edge_transfer(graph_a, "X", "X")


# -- Fourier transform --------------------------------------------------------


def test_fourier_unit_filter():
    grid = fourier(FiniteFilter.unit(2), 16)
    assert np.allclose(grid.values, np.eye(2)[None])


def test_fourier_matches_rational(graph_a):
    f = direct_effect_filter(graph_a, "M", "Y", 512)
    approx = fourier(f, 256).scalar_values()
    exact = edge_transfer(graph_a, "M", "Y").evaluate(OM)
    assert np.abs(approx - exact).max() < 1e-6


def test_fourier_convolution_homomorphism():
    rng = np.random.default_rng(3)
    a = FiniteFilter(start=0, values=rng.uniform(-1, 1, size=(4, 2, 3)))
    b = FiniteFilter(start=0, values=rng.uniform(-1, 1, size=(3, 3, 2)))
    lhs = fourier(convolve(a, b), 32).values
    rhs = np.einsum("wij,wjk->wik", fourier(a, 32).values, fourier(b, 32).values)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_fourier_tilted_homomorphism():
    rng = np.random.default_rng(4)
    a = FiniteFilter(start=0, values=rng.uniform(-1, 1, size=(4, 2, 3)))
    b = FiniteFilter(start=0, values=rng.uniform(-1, 1, size=(5, 3, 2)))
    lhs = fourier(tilted_convolve(a, b), 32).values
    rhs = np.einsum("wij,wjk->wik", fourier(a, 32).values, np.conj(fourier(b, 32).values))
    assert np.abs(lhs - rhs).max() < 1e-12


# -- spectral density ---------------------------------------------------------


def test_spectral_ar1():
    s = spectral_density(ar1(0.7), 8)
    assert s.values[0, 0, 0].real == pytest.approx(1.0 / 0.09)
    assert np.abs(s.values.imag).max() < 1e-14


def test_spectral_order0_matches_sem_covariance():
    m = SvarModel(
        observed=("A", "B", "C"),
        latents=("H",),
        order=0,
        coeffs={
            ("A", "B", 0): 0.5,
            ("B", "C", 0): -0.4,
            ("A", "C", 0): 0.3,
            ("H", "A", 0): 0.6,
            ("H", "C", 0): 0.7,
        },
        noise_var={"A": 1.0, "B": 0.5, "C": 2.0, "H": 1.5},
    )
    s = spectral_density(m, 16)
    names = ("A", "B", "C")
    a = np.array([[m.phi(u, v, 0) for v in names] for u in names])
    c = np.array([[m.phi("H", v, 0) for v in names]])
    omega = np.diag([1.0, 0.5, 2.0]) + c.T * 1.5 @ c
    ia = np.linalg.inv(np.eye(3) - a)
    sigma = ia.T @ omega @ ia
    assert np.abs(s.values - s.values[0]).max() < 1e-12
    assert np.abs(s.values[0] - sigma).max() < 1e-12


def test_spectral_instrument_cross_entries(instrument_model):
    s = spectral_density(instrument_model, OM)
    h_xm = edge_transfer(instrument_model, "X", "M").evaluate(OM)
    h_my = edge_transfer(instrument_model, "M", "Y").evaluate(OM)
    s_x = internal_spectrum(instrument_model, "X", OM)
    assert np.abs(s.entry("X", "Y") - np.conj(h_xm) * np.conj(h_my) * s_x).max() < 1e-12
    assert np.abs(s.entry("X", "X") - s_x).max() < 1e-12


def test_spectral_hermitian_psd(graph_c, instrument_model):
    for m in (graph_c, instrument_model):
        s = spectral_density(m, 128)
        assert s.hermitian_defect() < 1e-12
        assert s.min_eigenvalue() > -1e-8


def test_spectral_matches_acs_fourier(graph_a, graph_c):
    for m in (graph_a, graph_c):
        acs = acs_via_sep(m, L_acs=96, L_filter=160)
        approx = fourier(acs.to_filter(), 64).values
        exact = spectral_density(m, 64).values
        assert np.abs(approx - exact).max() <= acs.tail_bound + 1e-9


# -- controlled transfer functions ---------------------------------------------


def test_cctf_chain_product(graph_a):
    ctf = cctf(graph_a, "X", "Y", (), OM).scalar_values()
    prod = edge_transfer(graph_a, "X", "M").evaluate(OM) * edge_transfer(
        graph_a, "M", "Y"
    ).evaluate(OM)
    assert np.abs(ctf - prod).max() < 1e-12


def test_cctf_two_route_modulus(graph_b):
    ctf = cctf(graph_b, "X", "Y", (), OM).scalar_values()
    h_xy = edge_transfer(graph_b, "X", "Y").evaluate(OM)
    h_xm = edge_transfer(graph_b, "X", "M").evaluate(OM)
    h_my = edge_transfer(graph_b, "M", "Y").evaluate(OM)
    expansion = (
        np.abs(h_xy) ** 2
        + np.abs(h_xm * h_my) ** 2
        + 2.0 * np.real(np.conj(h_xy) * h_xm * h_my)
    )
    assert np.abs(np.abs(ctf) ** 2 - expansion).max() < 1e-10


def test_cctf_feedback_closed_form(graph_c):
    ctf = cctf(graph_c, "Z", "Y", (), OM).scalar_values()
    h_zx = edge_transfer(graph_c, "Z", "X").evaluate(OM)
    h_zy = edge_transfer(graph_c, "Z", "Y").evaluate(OM)
    h_xy = edge_transfer(graph_c, "X", "Y").evaluate(OM)
    h_yx = edge_transfer(graph_c, "Y", "X").evaluate(OM)
    closed = (h_zx * h_xy + h_zy) / (1.0 - h_yx * h_xy)
    assert np.abs(ctf - closed).max() < 1e-10


def test_cctf_polar_round_trip(graph_c):
    grid = cctf(graph_c, "Z", "Y", (), OM)
    r, theta = grid.polar()
    assert np.abs(r * np.exp(1j * theta) - grid.scalar_values()).max() < 1e-12
    assert (r >= 0).all() and (theta > -np.pi - 1e-12).all() and (theta <= np.pi + 1e-12).all()


def test_loop_gain_report(graph_c, graph_a):
    gains = loop_gain_report(graph_c, 512)
    assert set(gains) == {("X", "Y")}
    assert 0.0 < gains[("X", "Y")] < 1.0
    assert loop_gain_report(graph_a, 64) == {}


def test_freq_path_rule_acyclic_exact(graph_a, graph_b):
    assert freq_path_rule_check(graph_a, "X", "Y", OM, depth=1) < 1e-12
    assert freq_path_rule_check(graph_b, "X", "Y", OM, depth=1) < 1e-12


def test_freq_path_rule_geometric_decay(graph_c):
    gains = loop_gain_report(graph_c, 256)
    bound = max(gains.values()) + 0.02
    prev = freq_path_rule_check(graph_c, "Z", "Y", OM, depth=0)
    for depth in (1, 2, 3, 4):
        dev = freq_path_rule_check(graph_c, "Z", "Y", OM, depth=depth)
        assert dev / prev <= bound
        prev = dev


def test_singular_frequency_is_typed_error():
    # A <-> B at lag 1 with gain 1: det(I - H) = 1 - z^2 vanishes at omega = 0
    m = SvarModel(
        observed=("A", "B"),
        latents=(),
        order=1,
        coeffs={("A", "B", 1): 1.0, ("B", "A", 1): 1.0},
        noise_var={"A": 1.0, "B": 1.0},
    )
    cctf(m, "A", "B", (), 8)  # cutting the edges into A removes the loop
    with pytest.raises(NonConvergentError):  # companion radius 1: no stationary spectrum
        spectral_density(m, 8)
    with pytest.raises(SingularAtFrequencyError):
        freq_path_rule_check(m, "A", "B", 8)


def test_spectral_density_needs_a_stationary_var():
    # 1 / |1 - 1.49 z|^2 is finite and positive on the circle, but an AR(1)
    # with coefficient 1.49 has no stationary solution, so it is no spectrum
    for a in (1.49, 1.0):
        with pytest.raises(NonConvergentError):
            spectral_density(ar1(a), 8)
        m = SvarModel(("X", "Y"), (), 1, {("X", "X", 1): a, ("X", "Y", 1): 0.5}, {"X": 1.0, "Y": 1.0})
        for decompose in (decompose_spectrum, decompose_by_source):
            with pytest.raises(NonConvergentError):
                decompose(m, "X", "Y", 8)
    expected = 1.0 / np.abs(1.0 - 0.5 * np.exp(-1j * frequency_grid(4))) ** 2
    np.testing.assert_allclose(spectral_density(ar1(0.5), 4).values[:, 0, 0], expected, rtol=1e-14)


@pytest.mark.filterwarnings("error")
def test_unit_root_in_own_dynamics_gives_finite_spectrum():
    m = unit_root_own_dynamics()
    s = spectral_density(m, 4)
    assert np.isfinite(s.values).all()
    assert np.abs(s.values[0] - [[8.0, 2.0], [2.0, 1.0]]).max() < 1e-12
    dec = decompose_spectrum(m, "X", "Y", 4)
    assert np.isfinite([dec.causal, dec.confounding, dec.residual]).all()
    split = decompose_by_source(m, "X", "Y", 4)
    assert np.abs(sum(part.residual for part in split.sources.values()) - dec.residual).max() < 1e-12


@pytest.mark.filterwarnings("error")
def test_true_pole_of_a_controlled_effect_is_typed_error():
    # with the edges into Y cut, Y -> X still runs through X's own 1 - z
    m = unit_root_own_dynamics()
    assert np.isfinite(cctf(m, "X", "Y", (), 4).values).all()
    with pytest.raises(SingularAtFrequencyError):
        cctf(m, "Y", "X", (), 4)


@pytest.mark.filterwarnings("error")
def test_edge_functions_raise_at_a_pole_on_the_grid():
    # X's own dynamics 1 - z vanish at omega = 0; Y's are 1 everywhere
    m = unit_root_own_dynamics()
    om = frequency_grid(4)
    assert internal_spectrum(m, "Y", om).tolist() == [1.0, 1.0, 1.0, 1.0]
    assert internal_spectrum(m, "Y", 4).tolist() == [1.0, 1.0, 1.0, 1.0]  # an int grid
    with pytest.raises(SingularAtFrequencyError) as exc:
        edge_transfer(m, "Y", "X").evaluate(om)
    assert exc.value.omega == 0.0
    # spectra built on X's own dynamics have no certificate, before any grid point is read
    trek = next(t for t in enumerate_treks(latent_projection(process_graph(m)), "X", "X") if t.top == "Y")
    calls = [
        lambda: internal_spectrum(m, "X", om),
        lambda: internal_spectrum(m, "X", 4),
        lambda: trek_monomial_function(m, trek, om),
    ]
    for call in calls:
        with pytest.raises(NonConvergentError):
            call()


@pytest.mark.filterwarnings("error")
def test_own_dynamics_on_the_circle_between_grid_points_have_no_spectrum():
    # X's own 1 - z + z^2 vanishes at omega = +-pi/3, off the grid: every
    # divisor on the grid is finite, so only the certificate can refuse it
    m = unit_circle_own_dynamics()
    assert np.isfinite(edge_transfer(m, "Y", "X").evaluate(frequency_grid(4))).all()
    assert np.isfinite(spectral_density(m, 4).values).all()
    trek = next(t for t in enumerate_treks(latent_projection(process_graph(m)), "X", "X"))
    for call in (lambda: internal_spectrum(m, "X", 4), lambda: trek_monomial_function(m, trek, 4)):
        with pytest.raises(NonConvergentError):
            call()


@pytest.mark.filterwarnings("error")
def test_pole_check_reads_only_the_divisors_in_use():
    # X's own 1 - z vanishes at omega = 0, but no edge enters X
    m = SvarModel(
        observed=("X", "Y"),
        latents=(),
        order=1,
        coeffs={("X", "X", 1): 1.0, ("X", "Y", 1): 0.5},
        noise_var={"X": 1.0, "Y": 1.0},
    )
    om = frequency_grid(4)
    assert np.isfinite(edge_transfer(m, "X", "Y").evaluate(om)).all()
    assert internal_spectrum(m, "Y", om).tolist() == [1.0, 1.0, 1.0, 1.0]
    assert check_stability(m).loop_spectral_radius == 0.0
    # X's own dynamics still enter the trek rule's noise model, which has no certificate
    trek = next(t for t in enumerate_treks(latent_projection(process_graph(m)), "X", "X"))
    with pytest.raises(NonConvergentError):
        trek_monomial_function(m, trek, om)


# -- trek rule in frequency domain ----------------------------------------------


def test_trek_monomial_single_vertex(instrument_model):
    proj = latent_projection(process_graph(instrument_model))
    trek = next(
        t
        for t in enumerate_treks(proj, "M", "M")
        if t.top == "M" and t.left.is_empty and t.right.is_empty
    )
    mono = trek_monomial_function(instrument_model, trek, OM)
    # single-vertex trek carries the projected noise spectrum, here with the
    # latent contribution folded in
    s_m = internal_spectrum(instrument_model, "M", OM)
    j_lm = edge_transfer(instrument_model, "L", "M").evaluate(OM)
    s_l = internal_spectrum(instrument_model, "L", OM)
    assert np.abs(mono - (s_m + np.abs(j_lm) ** 2 * s_l)).max() < 1e-12


def test_trek_monomial_bidirected(instrument_model):
    proj = latent_projection(process_graph(instrument_model))
    trek = next(
        t for t in enumerate_treks(proj, "M", "Y") if t.bidirected is not None
    )
    mono = trek_monomial_function(instrument_model, trek, OM)
    j_lm = edge_transfer(instrument_model, "L", "M").evaluate(OM)
    j_ly = edge_transfer(instrument_model, "L", "Y").evaluate(OM)
    s_l = internal_spectrum(instrument_model, "L", OM)
    assert np.abs(mono - j_lm * np.conj(j_ly) * s_l).max() < 1e-12


def test_trek_sum_matches_spectrum(graph_a, graph_b, instrument_model):
    for m in (graph_a, graph_b, instrument_model):
        proj = latent_projection(process_graph(m))
        s = spectral_density(m, 64)
        for v in m.observed:
            for w in m.observed:
                total = np.zeros(64, dtype=complex)
                for trek in enumerate_treks(proj, v, w):
                    total += trek_monomial_function(m, trek, s.omegas)
                assert np.abs(total - s.entry(v, w)).max() < 1e-10


def test_trek_sum_matches_spectrum_through_a_latent_chain():
    # L2 -> L1 makes the latent block's spectrum a solve, not its internal spectra
    edges = (("L2", "L1"), ("L1", "X"), ("L1", "Y"), ("L2", "M"), ("X", "M"), ("M", "Y"))
    m = random_model(np.random.default_rng(3), ("X", "M", "Y"), ("L1", "L2"), edges)
    proj = latent_projection(process_graph(m))
    s = spectral_density(m, 64)
    for v in m.observed:
        for w in m.observed:
            total = sum(trek_monomial_function(m, trek, s.omegas) for trek in enumerate_treks(proj, v, w))
            assert np.abs(total - s.entry(v, w)).max() < 1e-10


# -- spectral decomposition -----------------------------------------------------


def test_decomposition_factor_identity(graph_c):
    dec = decompose_spectrum(graph_c, "X", "Y", OM)
    total = dec.causal + dec.confounding + dec.residual
    assert np.abs(total - dec.target_spectrum).max() < 1e-10
    assert dec.causal.min() >= -1e-12


def test_decomposition_residual_closed_form(graph_c):
    dec = decompose_spectrum(graph_c, "X", "Y", OM)
    h_zy = edge_transfer(graph_c, "Z", "Y").evaluate(OM)
    closed = np.abs(h_zy) ** 2 * internal_spectrum(graph_c, "Z", OM) + internal_spectrum(
        graph_c, "Y", OM
    )
    assert np.abs(dec.residual - closed).max() < 1e-8


def test_decomposition_confounding_equals_cross_spectrum_form(graph_c):
    dec = decompose_spectrum(graph_c, "X", "Y", OM)
    s = spectral_density(graph_c, OM)
    ctf = cctf(graph_c, "X", "Y", (), OM).scalar_values()
    # equivalent one-sided form of the confounding factor; it coincides with
    # the two-sided form because the cross entries are mutually conjugate
    other = s.entry("Y", "X") * np.conj(ctf) + ctf * s.entry("X", "Y") - 2.0 * np.abs(
        ctf
    ) ** 2 * s.entry("X", "X")
    assert np.abs(dec.confounding - other.real).max() < 1e-10
    assert np.abs(other.imag).max() < 1e-10


def test_decomposition_by_source_closed_forms(graph_c):
    split = decompose_by_source(graph_c, "X", "Y", OM)
    h_zx = edge_transfer(graph_c, "Z", "X").evaluate(OM)
    h_zy = edge_transfer(graph_c, "Z", "Y").evaluate(OM)
    h_xy = edge_transfer(graph_c, "X", "Y").evaluate(OM)
    h_yx = edge_transfer(graph_c, "Y", "X").evaluate(OM)
    loop = h_yx * h_xy
    d2 = np.abs(1.0 - loop) ** 2
    s_z = internal_spectrum(graph_c, "Z", OM)
    s_x = internal_spectrum(graph_c, "X", OM)
    s_y = internal_spectrum(graph_c, "Y", OM)

    causal_x = np.abs(h_xy) ** 2 / d2 * s_x
    causal_y = np.abs(loop) ** 2 / d2 * s_y
    causal_z = (
        np.abs(h_zx * h_xy) ** 2
        + np.abs(h_zy * loop) ** 2
        + 2.0 * np.real(h_zx * h_xy * np.conj(h_zy) * np.conj(loop))
    ) / d2 * s_z
    conf_z = 2.0 * np.real(
        (h_zx * h_xy * np.conj(h_zy) + h_zy * loop * np.conj(h_zy)) / (1.0 - loop)
    ) * s_z
    conf_y = 2.0 * np.real(loop / (1.0 - loop)) * s_y

    assert np.abs(split.sources["X"].causal - causal_x).max() < 1e-8
    assert np.abs(split.sources["Y"].causal - causal_y).max() < 1e-8
    assert np.abs(split.sources["Z"].causal - causal_z).max() < 1e-8
    assert np.abs(split.sources["Z"].confounding - conf_z).max() < 1e-8
    assert np.abs(split.sources["Y"].confounding - conf_y).max() < 1e-8
    assert np.abs(split.sources["Z"].residual - np.abs(h_zy) ** 2 * s_z).max() < 1e-8
    assert np.abs(split.sources["Y"].residual - s_y).max() < 1e-8
    assert np.abs(split.sources["X"].residual).max() < 1e-10


def test_decomposition_sources_sum_to_total(graph_c, graph_b):
    for m, anc, tgt in ((graph_c, "X", "Y"), (graph_b, "X", "Y")):
        split = decompose_by_source(m, anc, tgt, 64)
        for field in ("causal", "confounding", "residual"):
            total = sum(getattr(dec, field) for dec in split.sources.values())
            assert np.abs(total - getattr(split.total, field)).max() < 1e-10


def test_decomposition_by_source_rejects_latents(instrument_model):
    with pytest.raises(LatentPresentError):
        decompose_by_source(instrument_model, "M", "Y", 16)


def test_internal_spectrum_positive(graph_b):
    for name in graph_b.observed:
        vals = internal_spectrum(graph_b, name, OM)
        assert (vals > 0).all()

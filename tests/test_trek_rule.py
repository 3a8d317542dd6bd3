"""The trek rule as computed against the per-trek routes it replaced.

``trek_monomial_filter`` and ``trek_monomial_function`` keep the projected
noise covariance with the edge filter tensor, or ``_assemble``'s H and S_LI,
on the model for the last horizon or grid.  The oracles below rebuild all of
it for every trek, as those functions once did: ``projected_noise_acs`` plus a
``direct_effect_filter`` per edge, and ``_assemble`` plus ``path_transfer``
on every point of the grid.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import (
    CYCLIC_LATENT_EDGES,
    FIXTURE_NAMES,
    FIXTURES,
    explosive_target,
    random_model,
    unit_circle_own_dynamics,
    unit_root_own_dynamics,
)
from svarpg.errors import NonConvergentError, SemanticError
from svarpg.filters import (
    FiniteFilter,
    convolve,
    direct_effect_filter,
    projected_noise_acs,
    tilted_convolve,
    trek_monomial_filter,
)
from svarpg.graph import enumerate_treks, latent_projection
from svarpg.model import load_model, process_graph
from svarpg.spectral import _assemble, _on_grid, frequency_grid, path_transfer, trek_monomial_function

MODELS = FIXTURE_NAMES + ("cyclic_latent",)


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


def _treks(m):
    proj = latent_projection(process_graph(m))
    return [t for v in m.observed for w in m.observed for t in enumerate_treks(proj, v, w)]


def _ends(m, trek):
    return [m.observed.index(v) for v in (trek.bidirected or (trek.top, trek.top))]


def _oracle_filter(m, trek, L):
    noise = projected_noise_acs(m, L)
    i, j = _ends(m, trek)

    def path_filter(path):
        out = FiniteFilter.unit(1)
        for src, dst in path.edge_list():
            out = convolve(out, direct_effect_filter(m, src, dst, L)).truncate(0, L)
        return out

    return convolve(path_filter(trek.left), tilted_convolve(noise.entry(i, j), path_filter(trek.right)))


def _oracle_function(m, trek, omegas):
    _, s_li = _assemble(m, omegas)
    i, j = _ends(m, trek)
    return path_transfer(m, trek.left, omegas) * s_li[:, i, j] * np.conj(path_transfer(m, trek.right, omegas))


def _assert_same_filter(got, expected):
    assert got.start == expected.start
    np.testing.assert_array_equal(got.values, expected.values)


def _assert_close_function(got, expected, bound=1e-14):
    assert np.abs(got - expected).max() <= bound * np.abs(expected).max()


@pytest.mark.parametrize("name", MODELS)
def test_trek_filters_are_bit_identical_to_the_per_trek_oracle(name):
    m = _model(name)
    treks = _treks(m)
    assert treks
    for L in (0, 5, 96):
        for trek in treks:
            _assert_same_filter(trek_monomial_filter(m, trek, L), _oracle_filter(m, trek, L))


@pytest.mark.parametrize("name", MODELS)
def test_trek_functions_match_the_per_trek_oracle(name):
    # The oracle solves every point of frequency_grid(n), as an explicit array
    # does.  An int grid n is solved on its half grid and mirrored: it agrees
    # with that oracle to rounding, and with the oracle mirrored the same way
    # as closely as the array does with the direct oracle.
    m = _model(name)
    for n in (64, 257):
        omegas = frequency_grid(n)
        expected = [(trek, _oracle_function(m, trek, omegas)) for trek in _treks(m)]
        for trek, direct in expected:
            _assert_close_function(trek_monomial_function(m, trek, omegas), direct)
        for trek, direct in expected:
            got = trek_monomial_function(m, trek, n)
            _assert_close_function(got, direct, 1e-13)
            _assert_close_function(got, _on_grid(n, lambda om: (_oracle_function(m, trek, om),))[1][0])


@pytest.mark.parametrize("name", ["graph_b", "confounded_mediator", "cyclic_latent"])
def test_alternating_horizons_and_grids_equal_fresh_models(name):
    shared = _model(name)
    treks = _treks(shared)
    for L in (5, 96, 5, 96):
        fresh = _model(name)
        for trek in treks:
            _assert_same_filter(trek_monomial_filter(shared, trek, L), trek_monomial_filter(fresh, trek, L))
    for grid in (64, 256, 64, frequency_grid(256)):
        fresh = _model(name)
        for trek in treks:
            np.testing.assert_array_equal(
                trek_monomial_function(shared, trek, grid), trek_monomial_function(fresh, trek, grid)
            )


@pytest.mark.parametrize("n", (1, 2, 3, 64, 65))
@pytest.mark.parametrize("name", ["graph_b", "graph_c", "instrument"])
def test_int_grid_trek_functions_are_mirrored_and_agree_with_the_direct_path(name, n):
    m = _model(name)
    mirror = -np.arange(n) % n
    for trek in _treks(m):
        got = trek_monomial_function(m, trek, n)
        assert np.array_equal(got[mirror], np.conj(got))
        direct = trek_monomial_function(m, trek, frequency_grid(n))
        assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()


def test_a_failed_build_is_raised_again_and_stores_nothing():
    m = explosive_target()  # X's own dynamics 1 - 1.5 z are explosive
    trek = _treks(m)[0]
    for _ in range(2):
        with pytest.raises(NonConvergentError):
            trek_monomial_filter(m, trek, 5)
    m = unit_root_own_dynamics()  # X's own dynamics 1 - z vanish at omega = 0
    trek = _treks(m)[0]
    for _ in range(2):
        with pytest.raises(NonConvergentError):
            trek_monomial_function(m, trek, 4)
    # the failed build kept nothing; only the certificate's radius stays, and it fails the gate
    assert list(m._memo) == ["radius"]
    assert list(m._memo["radius"].values()) == [1.0]
    m = _model("graph_a")
    trek = _treks(m)[0]
    kept = trek_monomial_filter(m, trek, 5)
    for _ in range(2):
        with pytest.raises(SemanticError):
            trek_monomial_filter(m, trek, -1)
    _assert_same_filter(trek_monomial_filter(m, trek, 5), kept)


UNSTABLE_OWN_DYNAMICS = {
    "explosive_target": explosive_target,
    "unit_root_own_dynamics": unit_root_own_dynamics,
    "unit_circle_own_dynamics": unit_circle_own_dynamics,
}


@pytest.mark.parametrize("name", FIXTURE_NAMES + tuple(UNSTABLE_OWN_DYNAMICS))
def test_both_domains_refuse_the_same_noise_models(name):
    # the noise model exists in neither domain, or in both
    m = UNSTABLE_OWN_DYNAMICS[name]() if name in UNSTABLE_OWN_DYNAMICS else _model(name)
    for trek in _treks(m):
        refused = []
        for call in (lambda: trek_monomial_filter(m, trek, 8), lambda: trek_monomial_function(m, trek, 4)):
            try:
                call()
            except NonConvergentError:
                refused.append(True)
            else:
                refused.append(False)
        assert refused == [name in UNSTABLE_OWN_DYNAMICS] * 2


def test_replace_gets_a_fresh_memo():
    m = _model("instrument")
    treks = _treks(m)
    before = [trek_monomial_filter(m, t, 8) for t in treks]
    louder = dataclasses.replace(m, noise_var={**m.noise_var, "L": 4.0})
    assert not louder._memo
    after = [trek_monomial_filter(louder, t, 8) for t in treks]
    for trek, got in zip(treks, after):
        _assert_same_filter(got, _oracle_filter(louder, trek, 8))
    assert any(not np.array_equal(a.values, b.values) for a, b in zip(before, after))

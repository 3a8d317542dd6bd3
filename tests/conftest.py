from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from svarpg.model import SvarModel, check_stability, load_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_NAMES = (
    "graph_a",
    "graph_b",
    "graph_c",
    "instrument",
    "confounded_mediator",
    "feedback_mediator",
)


@pytest.fixture(scope="session")
def graph_a() -> SvarModel:
    return load_model(FIXTURES / "graph_a.json")


@pytest.fixture(scope="session")
def graph_b() -> SvarModel:
    return load_model(FIXTURES / "graph_b.json")


@pytest.fixture(scope="session")
def graph_c() -> SvarModel:
    return load_model(FIXTURES / "graph_c.json")


@pytest.fixture(scope="session")
def instrument_model() -> SvarModel:
    return load_model(FIXTURES / "instrument.json")


@pytest.fixture(scope="session")
def confounded_mediator() -> SvarModel:
    return load_model(FIXTURES / "confounded_mediator.json")


@pytest.fixture(scope="session")
def feedback_mediator() -> SvarModel:
    return load_model(FIXTURES / "feedback_mediator.json")


def ar1(a: float = 0.7, w: float = 1.0) -> SvarModel:
    return SvarModel(
        observed=("U",),
        latents=(),
        order=1,
        coeffs={("U", "U", 1): a},
        noise_var={"U": w},
    )


def explosive_target() -> SvarModel:
    """X -> X 1.5, X -> Y 0.75 and Y -> X -0.75, all at lag 1: the VAR is
    stable (companion eigenvalues 0.75, 0.75), but X's own dynamics 1 - 1.5 z
    are explosive, so the edge filter Y -> X grows like 1.5^s."""
    return SvarModel(
        observed=("X", "Y"),
        latents=(),
        order=1,
        coeffs={("X", "X", 1): 1.5, ("X", "Y", 1): 0.75, ("Y", "X", 1): -0.75},
        noise_var={"X": 1.0, "Y": 1.0},
    )


def _scaled_autos(rng: np.random.Generator, name: str, order: int, budget: float) -> dict:
    lags = rng.choice(np.arange(1, order + 1), size=min(2, order), replace=False)
    raw = rng.uniform(-1.0, 1.0, size=len(lags))
    raw *= budget * rng.uniform(0.3, 0.9) / max(np.abs(raw).sum(), 1e-9)
    return {(name, name, int(lag)): float(c) for lag, c in zip(lags, raw)}


def random_model(
    rng: np.random.Generator,
    observed: tuple[str, ...],
    latents: tuple[str, ...],
    cross_edges: tuple[tuple[str, str], ...],
    order: int = 2,
    contemporaneous: bool = False,
    max_tries: int = 50,
) -> SvarModel:
    """Random stable model on a fixed edge structure (rejection-sampled)."""
    for _ in range(max_tries):
        coeffs: dict = {}
        for name in observed + latents:
            coeffs.update(_scaled_autos(rng, name, order, budget=0.7))
        for src, dst in cross_edges:
            lo = 0 if contemporaneous else 1
            lag = int(rng.integers(lo, order + 1))
            coeffs[(src, dst, lag)] = float(rng.uniform(0.15, 0.45) * rng.choice([-1, 1]))
        noise = {name: float(rng.uniform(0.5, 2.0)) for name in observed + latents}
        m = SvarModel(
            observed=observed, latents=latents, order=order, coeffs=coeffs, noise_var=noise
        )
        if check_stability(m, grid_size=32).stable:
            return m
    raise AssertionError("could not draw a stable random model")


# A -> B -> C -> A cycle, latent-to-latent edge L2 -> L1, latents into observed
CYCLIC_LATENT_EDGES = (
    ("A", "B"),
    ("B", "C"),
    ("C", "A"),
    ("L2", "L1"),
    ("L1", "A"),
    ("L1", "C"),
    ("L2", "B"),
)

FRONTDOOR_EDGES = (("L", "X"), ("L", "Y"), ("X", "W"), ("W", "Y"), ("X", "Y"))
INSTRUMENT_EDGES = (("X", "M"), ("M", "Y"), ("L", "M"), ("L", "Y"))
REGRESSION_EDGES = (("Z", "X"), ("Z", "M"), ("Z", "Y"), ("X", "M"), ("X", "Y"), ("M", "Y"))


def random_frontdoor(rng) -> SvarModel:
    return random_model(rng, ("X", "W", "Y"), ("L",), FRONTDOOR_EDGES)


def random_instrument(rng) -> SvarModel:
    return random_model(rng, ("X", "M", "Y"), ("L",), INSTRUMENT_EDGES)


def random_regression(rng) -> SvarModel:
    return random_model(rng, ("Z", "X", "M", "Y"), (), REGRESSION_EDGES)

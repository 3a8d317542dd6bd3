"""Seeded generator of stable random SVAR model documents for the benchmark.

The edge structure of a generated model (which process drives which) is
drawn from ``STRUCTURE_SEED``, so every run seed gives graphs with the same
cycle and trek counts and the same amount of graph work.  The run seed draws
everything else: lags, coefficients, signs and innovation variances.  A draw
is rejected only when the companion spectral radius of the reduced VAR is
>= 1; nothing else (slow enumeration, a library error) causes a redraw.

The generator uses numpy only, never the package under test, so a model's
document does not depend on the code being measured.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from oracles import companion_radius

STRUCTURE_SEED = 20230519
MAX_DRAWS = 200

# Every knob of the generator, copied into each result.
GENERATOR = {
    "structure_seed": STRUCTURE_SEED,
    "auto_lags": 2,
    "auto_budget": [0.2, 0.55],
    "cross_coeff": [0.08, 0.3],
    "latent_children": 3,
    "noise_var": [0.5, 2.0],
    "cross_lag_min": 1,
    "reject_if_companion_radius_ge": 1.0,
    "max_draws": MAX_DRAWS,
}

FIXTURE_NAMES = (
    "graph_a",
    "graph_b",
    "graph_c",
    "instrument",
    "feedback_mediator",
    "confounded_mediator",
)

# Order-0 model whose A<->B and A<->C loops each have gain 0.6006.  Each loop
# alone is below one, but rho(H) = sqrt(2 * 0.6006) = 1.096, so the filter
# series through A diverges while ccf(B, C), which cuts the edges into B,
# converges to 0.6006 / (1 - 0.6006) = 1.50376.
_LOOP = math.sqrt(0.6006)
DEFECT_DOCUMENT = {
    "observed": ["A", "B", "C"],
    "latents": [],
    "order": 0,
    "edges": [
        {"from": "A", "to": "B", "lag": 0, "coeff": _LOOP},
        {"from": "B", "to": "A", "lag": 0, "coeff": _LOOP},
        {"from": "A", "to": "C", "lag": 0, "coeff": _LOOP},
        {"from": "C", "to": "A", "lag": 0, "coeff": _LOOP},
    ],
    "noise_var": {"A": 1.0, "B": 1.0, "C": 1.0},
}


def fixture_documents(root: Path) -> dict[str, dict]:
    """The bundled example models, keyed by file stem."""
    return {
        name: json.loads((root / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))
        for name in FIXTURE_NAMES
    }


def _structure(n: int, n_latent: int, in_degree: int) -> tuple[list[list[int]], list[list[int]]]:
    """Parents of each observed process and children of each latent, from the structure seed."""
    rng = np.random.default_rng([STRUCTURE_SEED, n, n_latent, in_degree])
    parents = [
        sorted(int(j) for j in rng.choice([j for j in range(n) if j != i], size=in_degree, replace=False))
        for i in range(n)
    ]
    children = [
        sorted(int(j) for j in rng.choice(n, size=min(GENERATOR["latent_children"], n), replace=False))
        for _ in range(n_latent)
    ]
    return parents, children


def _autos(rng: np.random.Generator, order: int) -> dict[int, float]:
    lags = rng.choice(np.arange(1, order + 1), size=min(GENERATOR["auto_lags"], order), replace=False)
    raw = rng.uniform(-1.0, 1.0, size=len(lags))
    raw *= rng.uniform(*GENERATOR["auto_budget"]) / max(np.abs(raw).sum(), 1e-9)
    return {int(lag): float(c) for lag, c in zip(lags, raw)}


def _cross(rng: np.random.Generator, order: int) -> tuple[int, float]:
    lag = int(rng.integers(GENERATOR["cross_lag_min"], order + 1))
    coeff = float(rng.uniform(*GENERATOR["cross_coeff"]) * rng.choice([-1.0, 1.0]))
    return lag, coeff


def _draw(tag: str, rng: np.random.Generator, observed: list[str], latents: list[str],
          cross: list[tuple[str, str]], order: int) -> dict:
    for _ in range(MAX_DRAWS):
        edges = []
        for name in observed + latents:
            for lag, c in sorted(_autos(rng, order).items()):
                edges.append({"from": name, "to": name, "lag": lag, "coeff": c})
        for src, dst in cross:
            lag, c = _cross(rng, order)
            edges.append({"from": src, "to": dst, "lag": lag, "coeff": c})
        noise = {name: float(rng.uniform(*GENERATOR["noise_var"])) for name in observed + latents}
        doc = {"observed": observed, "latents": latents, "order": order, "edges": edges, "noise_var": noise}
        if companion_radius(doc) < GENERATOR["reject_if_companion_radius_ge"]:
            return doc
    raise RuntimeError(f"no stable draw for {tag} in {MAX_DRAWS} attempts")


def random_document(seed: int, tag: str, n: int, n_latent: int, in_degree: int, order: int) -> dict:
    """One stable random model document.

    ``tag`` separates the coefficient streams of models drawn with the same
    seed, so adding a model to a workload leaves the others unchanged.
    """
    parents, children = _structure(n, n_latent, in_degree)
    observed = [f"P{i}" for i in range(n)]
    latents = [f"L{k}" for k in range(n_latent)]
    cross = [(observed[j], observed[i]) for i in range(n) for j in parents[i]]
    cross += [(latents[k], observed[j]) for k in range(n_latent) for j in children[k]]
    return _draw(tag, np.random.default_rng([seed, *tag.encode()]), observed, latents, cross, order)


TEMPLATES = {
    "frontdoor": (["X", "W", "Y"], ["L"], [("X", "W"), ("W", "Y"), ("L", "X"), ("L", "Y")]),
    "instrument": (["X", "M", "Y"], ["L"], [("X", "M"), ("M", "Y"), ("L", "M"), ("L", "Y")]),
    "unconfounded": (["Z", "X", "M", "Y"], [], [("Z", "X"), ("X", "M"), ("Z", "Y"), ("X", "Y"), ("M", "Y")]),
}


def template_document(seed: int, tag: str, kind: str, order: int = 2) -> dict:
    """Random model on one of the identification templates (fixed structure)."""
    observed, latents, cross = TEMPLATES[kind]
    return _draw(tag, np.random.default_rng([seed, *tag.encode()]), list(observed), list(latents), cross, order)

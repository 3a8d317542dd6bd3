"""Byte-for-byte CLI outputs on bundled fixtures.

The files under ``tests/golden/`` were written by the CLI to stdout, e.g.
``svarpg ccf fixtures/graph_c.json --from X --to Y --lags 32``.  These paths
only read model coefficients and keep the order of floating-point operations,
so no refactor may move them by one ulp; regenerate a file only for an
intended change of its numbers.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import FIXTURES
from svarpg.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("validate_graph_c.json", ["validate", "graph_c.json"]),
    ("ccf_graph_c_X_Y_32.csv", ["ccf", "graph_c.json", "--from", "X", "--to", "Y", "--lags", "32"]),
    ("acs_graph_b_8_64.csv", ["acs", "graph_b.json", "--lags", "8", "--filter-lags", "64"]),
    (
        "simulate_confounded_mediator_128_3.csv",
        ["simulate", "confounded_mediator.json", "--length", "128", "--seed", "3", "--include-latents"],
    ),
]


@pytest.mark.parametrize("golden,argv", CASES, ids=[case[0] for case in CASES])
def test_cli_bytes_match_golden(tmp_path, golden, argv):
    out = tmp_path / golden
    sub, model, *flags = argv
    assert run([sub, str(FIXTURES / model), *flags, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()

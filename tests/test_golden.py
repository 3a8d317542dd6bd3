"""Byte-for-byte CLI outputs on bundled fixtures.

The files under ``tests/golden/`` were written by the CLI, e.g.
``svarpg ccf fixtures/graph_c.json --from X --to Y --lags 32``, and do not
depend on the number of BLAS threads.  The ``validate``, ``ccf``, ``acs``,
``simulate``, ``estimate`` and ``transfer --edge`` paths only read model
coefficients or data and keep the order of floating-point operations, so no
refactor may move them by one ulp.  The ``spectral``, ``transfer``,
``decompose`` and both ``identify`` files carry the rounding of the frequency
engine's per-frequency solve; regenerate a file only for an intended change
of its numbers, and record the largest deviation that the change caused.
``identify_unconfounded_graph_b_Y_64.csv`` pins a multi-edge ``identify``
(M, X and Z -> Y).  ``fixtures/graph_b_series_512_5.csv`` is ``svarpg simulate
fixtures/graph_b.json --length 512 --seed 5`` and pins the observed-only
``simulate`` path.  Every file under ``tests/golden/`` is named by a case.
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
    ("spectral_graph_c_64.csv", ["spectral", "graph_c.json", "--grid", "64"]),
    (
        "transfer_graph_b_X_Y_M_64.csv",
        ["transfer", "graph_b.json", "--from", "X", "--to", "Y", "--controls", "M", "--grid", "64"],
    ),
    (
        "transfer_edge_graph_b_X_Y_64.csv",
        ["transfer", "graph_b.json", "--from", "X", "--to", "Y", "--controls", "M", "--edge", "--grid", "64"],
    ),
    (
        "decompose_graph_b_X_Y_by_source_64.csv",
        ["decompose", "graph_b.json", "--ancestor", "X", "--target", "Y", "--by-source", "--grid", "64"],
    ),
    (
        "estimate_graph_b_series_128_32.csv",
        ["estimate", "graph_b_series_512_5.csv", "--segment-len", "128", "--grid", "32"],
    ),
    (
        "identify_instrument_64.csv",
        ["identify", "instrument.json", "--method", "instrument", "--labels", "X,M,Y", "--grid", "64"],
    ),
    (
        "identify_unconfounded_graph_b_Y_64.csv",
        ["identify", "graph_b.json", "--method", "unconfounded", "--target", "Y", "--grid", "64"],
    ),
]


@pytest.mark.parametrize("golden,argv", CASES, ids=[case[0] for case in CASES])
def test_cli_bytes_match_golden(tmp_path, golden, argv):
    out = tmp_path / golden
    sub, model, *flags = argv
    assert run([sub, str(FIXTURES / model), *flags, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_simulate_observed_only_matches_series_fixture(tmp_path):
    out = tmp_path / "series.csv"
    assert run(["simulate", str(FIXTURES / "graph_b.json"), "--length", "512", "--seed", "5", "-o", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "graph_b_series_512_5.csv").read_bytes()


def test_every_golden_file_is_named_by_a_case():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(case[0] for case in CASES)

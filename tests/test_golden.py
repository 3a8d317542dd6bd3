"""Byte-for-byte CLI outputs on bundled fixtures.

The files under ``tests/golden/`` were written by the CLI, e.g.
``svarpg ccf fixtures/graph_c.json --from X --to Y --lags 32``, and do not
depend on the number of BLAS threads.  The ``validate``, ``ccf`` and
``simulate`` paths only read model coefficients or data and keep the order of
floating-point operations, so no refactor may move them by one ulp.  The
``spectral``, ``transfer``, ``transfer --edge``, ``decompose`` and both
``identify`` files carry the rounding of the frequency engine's half grid and
per-frequency solve, the ``acs`` file that of the lag-domain FFT
convolutions, and the ``estimate`` file that of Welch's fold and half-grid
FFT; regenerate a file only for an intended change of its numbers, and record
the largest deviation that the change caused.  The ``acs`` file was last
regenerated when the convolutions moved to 5-smooth transform lengths (135,
200 and 270 in place of 129 and the primes 193 and 257 on graph_b at
``--filter-lags 64``): 129 of its 144 values moved, by at most 8.9e-16
(3.1e-16 of the largest value).  The ``estimate`` file was last regenerated
when the mirror stopped conjugating an exact 0.0 into -0.0: its 60 diagonal rows at mirrored frequencies now print ``0.0``, not
``-0.0``, as ``im`` and ``phase``, and no value moved.  The ``transfer
--edge`` file was regenerated once when that output moved to the half grid.
It had been evaluated point by point on the whole grid, the one CLI ``--grid``
output that was not exactly conjugate-symmetric: 30 of its 31 mirrored pairs
were not exact conjugates, and ``im`` at omega = pi was 1.7e-17.  Its 30 rows
above pi and the row at pi moved, by at most 6.3e-15 (5.2e-15 of the largest
modulus); the rows from 0 to below pi kept their bytes.
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

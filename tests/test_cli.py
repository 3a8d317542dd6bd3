from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import FIXTURES, unit_root_own_dynamics
from svarpg.cli import SPECTRAL_HEADER, run
from svarpg.spectral import cctf, edge_transfer, frequency_grid, spectral_density

GRAPH_A = str(FIXTURES / "graph_a.json")
GRAPH_C = str(FIXTURES / "graph_c.json")


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_feedback_model(capsys):
    code, out, _ = _run(capsys, "validate", GRAPH_C)
    assert code == 0
    doc = json.loads(out)
    assert doc["grand_sum_below_one"] is False
    assert doc["auto_sums_below_one"] is True
    assert doc["stable"] is True
    assert doc["loop_spectral_radius"] < 1.0


def test_validate_unstable_model(tmp_path, capsys):
    bad = {
        "observed": ["U"],
        "order": 1,
        "edges": [{"from": "U", "to": "U", "lag": 1, "coeff": 1.3}],
        "noise_var": {"U": 1.0},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = _run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(out)["stable"] is False


def _write_model(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_rejects_compounding_loops(tmp_path, capsys):
    # A <-> B and A <-> C each have loop gain 0.6006 < 1, but they share A:
    # rho(Lambda_0) = sqrt(2 * 0.6006) = 1.096, so the path series diverges
    loop = math.sqrt(0.6006)
    doc = {
        "observed": ["A", "B", "C"],
        "order": 0,
        "edges": [
            {"from": src, "to": dst, "lag": 0, "coeff": loop}
            for src, dst in (("A", "B"), ("B", "A"), ("A", "C"), ("C", "A"))
        ],
        "noise_var": {"A": 1.0, "B": 1.0, "C": 1.0},
    }
    code, out, _ = _run(capsys, "validate", _write_model(tmp_path, doc))
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False
    assert report["stable"] is True
    assert abs(report["loop_spectral_radius"] - math.sqrt(2 * 0.6006)) <= 1e-12


def test_validate_many_cycle_model(tmp_path, capsys):
    # complete digraph on 10 processes: about 1.1 million cycles, rho(H) = 9 * 0.02
    names = [f"P{i}" for i in range(10)]
    doc = {
        "observed": names,
        "order": 1,
        "edges": [
            {"from": src, "to": dst, "lag": 1, "coeff": 0.02}
            for src in names
            for dst in names
            if src != dst
        ],
        "noise_var": {name: 1.0 for name in names},
    }
    code, out, _ = _run(capsys, "validate", _write_model(tmp_path, doc))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["loop_spectral_radius"] == pytest.approx(0.18, rel=1e-12)


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_validate_grid_not_positive_exits_2(capsys, grid):
    code, out, err = _run(capsys, "validate", GRAPH_C, "--grid", grid)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "SemanticError", "message": "grid size must be positive"}


def test_semantic_error_exits_2(tmp_path, capsys):
    doc = {
        "observed": ["A"],
        "order": 1,
        "edges": [{"from": "A", "to": "A", "lag": 0, "coeff": 0.5}],
        "noise_var": {"A": 1.0},
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "SemanticError"


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["transfer", GRAPH_A, "--from", "X"])  # missing --to
    assert exc.value.code == 1


def test_paths_output(capsys):
    code, out, _ = _run(
        capsys, "paths", GRAPH_C, "--from", "Z", "--to", "Y", "--max-cycle-depth", "1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "path"
    assert set(lines[1:]) == {"Z->Y", "Z->X->Y", "Z->Y->X->Y", "Z->X->Y->X->Y"}


def test_paths_negative_cycle_depth_exits_2(capsys):
    code, out, err = _run(
        capsys, "paths", GRAPH_C, "--from", "Z", "--to", "Y", "--max-cycle-depth", "-1"
    )
    assert code == 2
    assert out == ""
    assert "cycle depth -1 is negative" in err


def test_paths_bad_argument_leaves_no_output_file(tmp_path, capsys):
    out = tmp_path / "paths.csv"
    argv = ["paths", GRAPH_C, "--from", "Z", "--to", "Y", "--max-cycle-depth", "-1", "-o", str(out)]
    code, _, err = _run(capsys, *argv)
    assert code == 2 and "cycle depth -1 is negative" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,name",
    [(["--from", "Nope", "--to", "Y"], "Nope"), (["--from", "Z", "--to", "Y", "--avoid", "X,Bogus"], "Bogus")],
    ids=["from", "avoid"],
)
def test_paths_unknown_vertex_exits_2(capsys, flags, name):
    code, out, err = _run(capsys, "paths", GRAPH_C, *flags)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "SemanticError", "message": f"no vertex {name} in the graph"}


def test_non_finite_noise_variance_exits_2(tmp_path, capsys):
    for value in (math.inf, math.nan):  # JSON Infinity and NaN
        doc = {"observed": ["X"], "order": 0, "edges": [], "noise_var": {"X": value}}
        code, out, err = _run(capsys, "spectral", _write_model(tmp_path, doc), "--grid", "4")
        assert code == 2
        assert out == ""
        assert json.loads(err)["message"] == "noise variance for X must be finite and nonnegative"


@pytest.mark.parametrize(
    "argv", [["validate"], ["spectral", "--grid", "4"], ["acs", "--lags", "2"], ["simulate", "--length", "8"]]
)
def test_document_without_observed_processes_exits_2(tmp_path, capsys, argv):
    doc = {"observed": [], "order": 0, "edges": [], "noise_var": {}}
    sub, *flags = argv
    code, out, err = _run(capsys, sub, _write_model(tmp_path, doc), *flags)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "SemanticError", "message": "a model needs at least one observed process"}


def test_undecodable_model_exits_2(tmp_path, capsys):
    path = _write_model(tmp_path, {"observed": ["X"], "order": 0, "edges": [], "noise_var": {"X": 1.0}})
    with open(path, "ab") as handle:
        handle.write(b"\xff")  # not UTF-8
    code, out, err = _run(capsys, "validate", path)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "SchemaError"


def test_noise_variance_for_unknown_process_exits_2(tmp_path, capsys):
    doc = {
        "observed": ["X", "Y"],
        "order": 1,
        "edges": [{"from": "X", "to": "Y", "lag": 1, "coeff": 0.5}],
        "noise_var": {"X": 1.0, "Y": 1.0, "Z": 2.0},
    }
    code, out, err = _run(capsys, "validate", _write_model(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert "noise variance for unknown process Z" in err


def test_transfer_modulus_matches_api(graph_a, capsys):
    code, out, _ = _run(capsys, "transfer", GRAPH_A, "--from", "X", "--to", "Y", "--grid", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,quantity,row,col,re,im,modulus,phase"
    mods = np.array([float(line.split(",")[6]) for line in lines[1:]])
    expected = np.abs(cctf(graph_a, "X", "Y", (), 64).scalar_values())
    assert np.allclose(mods, expected)
    # self-consistency with the product of the two edge functions
    om = frequency_grid(64)
    prod = np.abs(
        edge_transfer(graph_a, "X", "M").evaluate(om)
        * edge_transfer(graph_a, "M", "Y").evaluate(om)
    )
    assert np.allclose(mods, prod)


def test_decompose_by_source_rows(capsys):
    code, out, _ = _run(
        capsys,
        "decompose",
        GRAPH_C,
        "--ancestor",
        "X",
        "--target",
        "Y",
        "--grid",
        "8",
        "--by-source",
    )
    assert code == 0
    lines = out.strip().splitlines()[1:]
    quantities = {line.split(",")[1] for line in lines}
    assert {"causal", "confounding", "residual", "source:Z", "source:X", "source:Y"} <= quantities
    # factor rows total 8 points x 3 factors; source rows add 8 x 3 x 3
    assert len(lines) == 8 * 3 + 8 * 3 * 3


def test_acs_csv(capsys, graph_a):
    code, out, _ = _run(capsys, "acs", GRAPH_A, "--lags", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lag,row,col,value"
    first = lines[1].split(",")
    assert first[:3] == ["0", "X", "X"]
    assert float(first[3]) == pytest.approx(1.0 / 0.51)


def test_ccf_csv(capsys):
    code, out, _ = _run(capsys, "ccf", GRAPH_A, "--from", "X", "--to", "Y", "--lags", "4")
    values = [float(line.split(",")[3]) for line in out.strip().splitlines()[1:]]
    assert values[:4] == pytest.approx([0.0, 0.0, 0.09, 0.09])


def test_acs_negative_lags_exit_2(capsys):
    code, _, err = _run(capsys, "acs", GRAPH_C, "--lags", "-2")
    assert code == 2
    assert json.loads(err)["error"] == "SemanticError"


def test_ccf_through_compounding_loops_exits_0(tmp_path, capsys):
    # A <-> B and A <-> C at gain 0.6006: the series through A diverges, but
    # ccf(B, C) cuts the edges into B and converges to 0.6006 / (1 - 0.6006)
    c = 0.6006**0.5
    doc = {
        "observed": ["A", "B", "C"],
        "order": 0,
        "edges": [
            {"from": src, "to": dst, "lag": 0, "coeff": c}
            for src, dst in (("A", "B"), ("B", "A"), ("A", "C"), ("C", "A"))
        ],
        "noise_var": {"A": 1.0, "B": 1.0, "C": 1.0},
    }
    path = tmp_path / "loops.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "ccf", str(path), "--from", "B", "--to", "C", "--lags", "64")
    assert code == 0
    values = [float(line.split(",")[3]) for line in out.strip().splitlines()[1:]]
    assert sum(values) == pytest.approx(0.6006 / (1.0 - 0.6006), rel=1e-12)


def test_acs_with_explosive_internal_dynamics_exits_2(tmp_path, capsys):
    # a stable VAR whose process X has explosive own dynamics 1 - 1.5 z: the
    # noise covariance of the process-level equation does not exist
    doc = {
        "observed": ["X", "Y"],
        "order": 1,
        "edges": [
            {"from": "X", "to": "X", "lag": 1, "coeff": 1.5},
            {"from": "X", "to": "Y", "lag": 1, "coeff": 0.75},
            {"from": "Y", "to": "X", "lag": 1, "coeff": -0.75},
        ],
        "noise_var": {"X": 1.0, "Y": 1.0},
    }
    path = tmp_path / "explosive.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "acs", str(path), "--lags", "8")
    assert code == 2
    assert json.loads(err)["error"] == "NonConvergentError"


DECOMPOSE = ["decompose", "--ancestor", "X", "--target", "Y"]


@pytest.mark.parametrize(
    "argv", [["spectral"], DECOMPOSE, DECOMPOSE + ["--by-source"]], ids=["spectral", "decompose", "by_source"]
)
def test_non_stationary_model_exits_2(tmp_path, capsys, argv):
    # X's AR(1) coefficient 1.49 leaves the VAR without a stationary spectrum
    doc = {
        "observed": ["X", "Y"],
        "order": 1,
        "edges": [
            {"from": "X", "to": "X", "lag": 1, "coeff": 1.49},
            {"from": "X", "to": "Y", "lag": 1, "coeff": 0.5},
        ],
        "noise_var": {"X": 1.0, "Y": 1.0},
    }
    path = tmp_path / "explosive.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, argv[0], str(path), *argv[1:], "--grid", "4")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "NonConvergentError"


def test_simulate_estimate_round_trip(tmp_path, capsys, graph_a):
    series = tmp_path / "series.csv"
    code, _, _ = _run(
        capsys, "simulate", GRAPH_A, "--length", "32768", "--seed", "5", "-o", str(series)
    )
    assert code == 0
    header = series.read_text().splitlines()[0]
    assert header == "t,X,M,Y"

    spectrum_csv = tmp_path / "spec.csv"
    code, _, _ = _run(
        capsys,
        "estimate",
        str(series),
        "--segment-len",
        "1024",
        "--grid",
        "64",
        "-o",
        str(spectrum_csv),
    )
    assert code == 0
    rows = spectrum_csv.read_text().strip().splitlines()
    assert rows[0] == "omega,quantity,row,col,re,im,modulus,phase"
    assert len(rows) == 1 + 64 * 9
    # diagonal at omega 0 should be in the ballpark of the analytic value
    analytic = spectral_density(graph_a, 64).entry("X", "X")[0].real
    first_xx = [r for r in rows[1:] if r.split(",")[2] == "X" and r.split(",")[3] == "X"][0]
    assert float(first_xx.split(",")[4]) == pytest.approx(analytic, rel=0.5)


def test_estimate_csv_prints_no_negative_zero(tmp_path):
    # the diagonal is exactly real on the half grid; its mirrored rows print 0.0 as well
    out = tmp_path / "estimate.csv"
    series = str(FIXTURES / "graph_b_series_512_5.csv")
    assert run(["estimate", series, "--segment-len", "128", "--grid", "32", "-o", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row for row in rows if float(row[0]) > math.pi and row[5] == "0.0"]
    assert not [row for row in rows if "-0.0" in (row[5], row[7])]


def test_identify_from_spectrum_csv(tmp_path, capsys, graph_a):
    spectrum_csv = tmp_path / "s.csv"
    code, _, _ = _run(capsys, "spectral", GRAPH_A, "--grid", "32", "-o", str(spectrum_csv))
    assert code == 0
    code, out, _ = _run(
        capsys,
        "identify",
        GRAPH_A,
        "--method",
        "unconfounded",
        "--target",
        "M",
        "--spectrum",
        str(spectrum_csv),
    )
    assert code == 0
    lines = out.strip().splitlines()[1:]
    got = np.array([complex(float(l.split(",")[4]), float(l.split(",")[5])) for l in lines])
    exact = edge_transfer(graph_a, "X", "M").evaluate(frequency_grid(32))
    assert np.abs(got - exact).max() < 1e-9


@pytest.mark.parametrize("grid", [32, 1024])
def test_identify_from_spectrum_csv_matches_model_bytes(tmp_path, capsys, grid):
    model_path = str(FIXTURES / "instrument.json")
    spectrum_csv = tmp_path / "s.csv"
    assert _run(capsys, "spectral", model_path, "--grid", str(grid), "-o", str(spectrum_csv))[0] == 0
    flags = ["--method", "instrument", "--labels", "X,M,Y", "--grid", str(grid)]
    from_model = _run(capsys, "identify", model_path, *flags)
    from_csv = _run(capsys, "identify", "--spectrum", str(spectrum_csv), *flags)
    assert from_model[0] == from_csv[0] == 0
    assert from_csv[1] == from_model[1]


MALFORMED_CSV = {
    "spectrum_missing_entry": (SPECTRAL_HEADER, "0.0,S,X,X,1.0,0.0,1.0,0.0", "0.0,S,X,Y,1.0,0.0,1.0,0.0"),
    "spectrum_non_numeric": (SPECTRAL_HEADER, "0.0,S,X,X,one,0.0,1.0,0.0"),
    "spectrum_repeated_entry": (SPECTRAL_HEADER, "0.0,S,X,X,1.0,0.0,1.0,0.0", "0.0,S,X,X,5.0,0.0,5.0,0.0"),
    "spectrum_short_row": (SPECTRAL_HEADER, "0.0,S,X,X,1.0,0.0,1.0,0.0", "0.0,S,X"),
    "series_non_numeric": ("t,X,Y", "0,1.0,2.0", "1,1.0,abc"),
    "series_ragged_row": ("t,X,Y", "0,1.0,2.0", "1,1.0"),
    # a byte that is not UTF-8 (0xff, written through surrogateescape)
    "spectrum_bad_byte": (SPECTRAL_HEADER, "0.0,S,X,X,1.0,0.0,1.0,0.0", "0.0,S,X,\udcff,1.0,0.0,1.0,0.0"),
    "series_bad_byte": ("t,X,Y", "0,1.0,2.0", "1,1.0,\udcff"),
}


@pytest.mark.parametrize("name", MALFORMED_CSV)
def test_malformed_csv_inputs_exit_2(tmp_path, capsys, name):
    path = tmp_path / "in.csv"
    path.write_bytes(("\n".join(MALFORMED_CSV[name]) + "\n").encode("utf-8", "surrogateescape"))
    if name.startswith("spectrum"):
        argv = ["identify", "--spectrum", str(path), "--method", "instrument", "--labels", "X,M,Y"]
    else:
        argv = ["estimate", str(path), "--segment-len", "1", "--grid", "1"]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "SchemaError"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv", [["spectral"], ["decompose", "--ancestor", "X", "--target", "Y"]], ids=["spectral", "decompose"]
)
def test_unit_root_in_own_dynamics_prints_finite_rows(tmp_path, capsys, argv):
    path = tmp_path / "model.json"
    path.write_text(unit_root_own_dynamics().to_json())
    code, out, err = _run(capsys, argv[0], str(path), *argv[1:], "--grid", "4")
    assert code == 0
    assert err == ""
    assert "nan" not in out and len(out.splitlines()) > 1


@pytest.mark.filterwarnings("error")
def test_transfer_edge_at_a_pole_exits_2(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(unit_root_own_dynamics().to_json())
    code, out, err = _run(capsys, "transfer", str(path), "--from", "Y", "--to", "X", "--edge", "--grid", "4")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "SingularAtFrequencyError"


def test_transfer_edge_flag(capsys, graph_a):
    code, out, _ = _run(
        capsys, "transfer", GRAPH_A, "--from", "M", "--to", "Y", "--grid", "16", "--edge"
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows[0].split(",")[1] == "H"
    got = np.array([complex(float(r.split(",")[4]), float(r.split(",")[5])) for r in rows])
    exact = edge_transfer(graph_a, "M", "Y").evaluate(frequency_grid(16))
    assert np.allclose(got, exact)


@pytest.mark.parametrize("grid", [16, 64])
def test_transfer_edge_is_exactly_conjugate_symmetric(capsys, grid):
    # solved on the half grid and mirrored, like every other int --grid
    argv = ["transfer", str(FIXTURES / "graph_b.json"), "--from", "X", "--to", "Y", "--edge", "--grid", str(grid)]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    rows = [row.split(",") for row in out.strip().splitlines()[1:]]
    values = [complex(float(row[4]), float(row[5])) for row in rows]
    assert len(values) == grid
    assert all(values[grid - j] == values[j].conjugate() for j in range(1, grid // 2))
    assert rows[0][5] == rows[grid // 2][5] == "0.0"


def test_identify_frontdoor_from_model(capsys, confounded_mediator):
    path = str(FIXTURES / "confounded_mediator.json")
    code, out, _ = _run(
        capsys, "identify", path, "--method", "frontdoor", "--labels", "X,W,Y", "--grid", "16"
    )
    assert code == 0
    rows = [r for r in out.strip().splitlines()[1:] if r.split(",")[2:4] == ["W", "Y"]]
    got = np.array([complex(float(r.split(",")[4]), float(r.split(",")[5])) for r in rows])
    exact = edge_transfer(confounded_mediator, "W", "Y").evaluate(frequency_grid(16))
    assert np.abs(got - exact).max() < 1e-10


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--method", "frontdoor"], "identify needs a MODEL or --spectrum"),
        (
            [GRAPH_A, "--method", "instrument", "--labels", "X,M"],
            "--method instrument needs --labels naming exactly three processes",
        ),
        ([GRAPH_A, "--method", "unconfounded"], "--method unconfounded needs --target and a MODEL"),
    ],
    ids=["no_model", "labels", "unconfounded"],
)
def test_identify_usage_errors_exit_1_with_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(["identify", *argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: svarpg identify")
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("method", ["frontdoor", "instrument"])
@pytest.mark.parametrize(
    "labels,message",
    [
        ("X,M,Q", "no process Q in the spectral matrix"),
        ("X,X,Y", "labels must name three distinct processes, got X,X,Y"),
    ],
    ids=["unknown", "repeated"],
)
def test_identify_unknown_or_repeated_label_exits_2(capsys, method, labels, message):
    instrument = str(FIXTURES / "instrument.json")
    code, out, err = _run(capsys, "identify", instrument, "--method", method, "--labels", labels, "--grid", "8")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "SemanticError", "message": message}


def test_reruns_are_byte_identical(capsys):
    _, out1, _ = _run(capsys, "spectral", GRAPH_A, "--grid", "16")
    _, out2, _ = _run(capsys, "spectral", GRAPH_A, "--grid", "16")
    assert out1 == out2


@pytest.mark.parametrize(
    "flags", [["--burn-in", "-2"], ["--seed", "18446744073709551616"]], ids=["burn_in", "seed"]
)
def test_simulate_bad_arguments_exit_2(capsys, flags):
    code, out, err = _run(capsys, "simulate", GRAPH_C, "--length", "4", *flags)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "SemanticError"


def test_estimate_grid_zero_exits_2(tmp_path, capsys):
    series = tmp_path / "series.csv"
    code, _, _ = _run(capsys, "simulate", GRAPH_C, "--length", "4096", "-o", str(series))
    assert code == 0
    code, out, err = _run(capsys, "estimate", str(series), "--segment-len", "1024", "--grid", "0")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "SemanticError"

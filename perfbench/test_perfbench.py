"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

It checks that a seed fixes the generated models and the work counts, that
another seed changes the models, that the tracer's self times add up, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import models  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("graph.cycles", "graph.treks", "simulate.welch_segments", "cli.bytes_out", "cli.bytes_in")
SHAPES = [("R10", 10, 1, 2), ("R40x3", 40, 2, 3), ("C14", 14, 0, 3)]


@pytest.mark.parametrize("tag,n,latents,in_degree", SHAPES)
def test_seed_fixes_models_and_another_seed_changes_them(tag, n, latents, in_degree):
    first = models.random_document(7, tag, n, latents, in_degree, 3)
    assert models.random_document(7, tag, n, latents, in_degree, 3) == first
    other = models.random_document(8, tag, n, latents, in_degree, 3)
    assert other != first
    assert models.companion_radius(first) < 1.0
    assert models.companion_radius(other) < 1.0
    for kind in models.TEMPLATES:
        assert models.template_document(7, kind, kind) == models.template_document(7, kind, kind)
        assert models.template_document(7, kind, kind) != models.template_document(8, kind, kind)


def _traced_counts(workload: str, seed: int, monkeypatch) -> dict[str, float]:
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=1)
    runner = run.Runner(args, workloads, tracing)
    try:
        runner.setup()
        plain, traced, ids = runner.measure()
    finally:
        shutil.rmtree(runner.rundir, ignore_errors=True)
    assert runner.failures == {}
    assert runner.failed == 0
    return runner.per_layer(COUNTS, plain, traced, ids, [])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_counts(workload, monkeypatch):
    first = _traced_counts(workload, 3, monkeypatch)
    assert _traced_counts(workload, 3, monkeypatch) == first
    assert any(first.values())


def test_self_time_excludes_children():
    tracer = tracing.Tracer(pass_id="p")
    with tracer.span("outer", "bench"):
        time.sleep(0.02)
        with tracer.span("inner", "graph"):
            time.sleep(0.03)
    totals = tracing.per_pass(tracer.spans, ["p"])
    assert totals["bench.outer_s"][0] >= 0.05
    assert totals["graph.inner_s"][0] >= 0.03
    assert totals["self.bench_s"][0] == pytest.approx(totals["bench.outer_s"][0] - totals["graph.inner_s"][0])


def test_tracer_restores_the_package():
    import svarpg
    import svarpg.spectral

    original = svarpg.spectral.spectral_density
    tracer = tracing.Tracer(pass_id="p")
    tracer.install()
    try:
        assert svarpg.spectral.spectral_density is not original
        svarpg.spectral_density(svarpg.load_model(ROOT / "fixtures" / "graph_a.json"), 8)
    finally:
        tracer.uninstall()
    assert svarpg.spectral.spectral_density is original
    assert [s.name for s in tracer.spans if s.layer == "spectral"][0] == "spectral_density"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "")

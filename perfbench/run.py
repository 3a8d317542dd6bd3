"""Benchmark for svarpg: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json at the repository root and
described in perfbench/README.md.  With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics; with ``--trace 1`` it has the
per-layer metrics, taken from traced passes that alternate with untraced
ones.  The run imports svarpg from ``src/`` of the checkout this file sits in
and exits with code 2, printing no result, when that or BENCHMARK.json is
missing.  Inputs and reports go under ``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread for this process and every child, fixed before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_run"
SETUP_REPS = 3
MIN_PASSES = 3
WALL_LIMIT_S = 100.0  # start no pass that would end after this much measuring


def digest(obj, h=None) -> str:
    """Stable hash of an operation's output, for the byte-identical rerun check."""
    top = h is None
    h = h or hashlib.blake2b(digest_size=16)
    np = sys.modules["numpy"]
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bytes, bytearray)):
        h.update(b"b%d:" % len(obj))
        h.update(obj)
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            digest(getattr(obj, f.name), h)
    elif hasattr(obj, "items"):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            digest(obj[key], h)
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            digest(item, h)
    elif isinstance(obj, (frozenset, set)):
        digest(sorted(obj, key=repr), h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


def environment() -> dict:
    np = sys.modules["numpy"]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the version is informative only
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Runner:
    def __init__(self, args, workloads, tracing):
        self.args = args
        self.w = workloads
        self.tracer = tracing.Tracer()
        self.per_pass = tracing.per_pass
        self.rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.rundir, ignore_errors=True)
        self.rundir.mkdir(parents=True)
        self.ctx = workloads.Context(root=ROOT, rundir=self.rundir, seed=args.seed, tracer=self.tracer)
        self.ctx.env = workloads.child_env(self.ctx)
        self.import_s: list[float] = []
        self.attempted = self.failed = self.timeouts = 0
        self.failures: dict[str, str] = {}
        self.layer_failed: dict[str, int] = {}
        self.op_s: dict[str, list[float]] = {}
        self.reference = reference.Reference(args.workload)
        self.speed: list[float] = []

    # -- set-up -------------------------------------------------------------
    def time_import(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import svarpg"], env=self.ctx.env, cwd=ROOT, check=True)
        took = time.perf_counter() - start
        self.import_s.append(took)
        return took

    def setup(self) -> float:
        """Build the workload SETUP_REPS times (fresh-process import, model
        generation, writing and parsing), then run one warm-up pass and check
        its outputs.  Returns the median build time plus the warm-up pass
        time divided by host speed, as for pass_s."""
        builds = []
        for _ in range(1 if self.args.trace else SETUP_REPS):
            imported = self.time_import()
            if self.args.trace:
                self.tracer.install()
            start = time.perf_counter()
            self.ops, self.probes = self.w.build(self.args.workload, self.ctx)
            builds.append(imported + time.perf_counter() - start)
            self.tracer.uninstall()
        while len(self.import_s) < SETUP_REPS:
            self.time_import()
        slices = [self.reference.timed()]
        warm = self.run_ops(self.ops, slices)
        warm_s = sum(t for _, _, t in warm) / self.reference.speed(slices)
        cli = [out for out, _, _ in warm if isinstance(out, self.w.CliResult)]
        self.bytes_out = sum(len(o.stdout) + sum(map(len, o.files.values())) for o in cli)
        self.bytes_in = sum(o.bytes_in for o in cli)
        self.expected = []
        for op, (out, err, _) in zip(self.ops, warm):
            err = self.checked(op, out, err)
            if err is not None:
                self.failures[op.name] = err
            self.expected.append(digest(out) if err is None else None)
        return median(builds) + warm_s

    def checked(self, op, out, err):
        """The failure message for one output, running its check if it ran."""
        if err is not None:
            return err
        try:
            op.check(out)
        except self.w.CheckFailed as exc:
            return f"check failed: {exc}"
        except Exception as exc:  # a check that crashes is a failed check, reported by name
            return f"check raised {type(exc).__name__}: {exc}"
        return None

    # -- passes -------------------------------------------------------------
    def run_ops(self, ops, slices: list[float] | None = None):
        """Run each operation once; with ``slices``, time a reference slice after each."""
        outs = []
        for op in ops:
            start = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # an operation that raises is a counted failure
                out, err = None, f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - start
            if isinstance(out, self.w.CliResult) and out.code is None:
                self.timeouts += 1
                err = err or f"timed out after {op.limit_s:g} s"
            elif err is None and took > op.limit_s:
                err = f"took {took:.1f} s, over the {op.limit_s:g} s limit"
            outs.append((out, err, took))
            if slices is not None:
                slices.append(self.reference.timed())
        return outs

    def record(self, outs, traced: bool) -> None:
        for i, (op, (out, err, took)) in enumerate(zip(self.ops, outs)):
            self.attempted += 1
            if not traced:
                self.op_s.setdefault(op.name, []).append(took)
            if err is None and self.expected[i] is None:
                err = self.failures[op.name]
            elif err is None and digest(out) != self.expected[i]:
                err = "output differs from the first run of the same operation"
            if err is not None:
                self.failed += 1
                self.failures.setdefault(op.name, err)
                self.layer_failed[op.layer] = self.layer_failed.get(op.layer, 0) + 1

    def measure(self) -> tuple[list[float], list[float], list[str]]:
        """Passes until their total reaches --seconds (at least MIN_PASSES).
        A pass time is the sum of its operations' times.  Traced runs
        alternate untraced and traced passes; traced pass times are returned
        already divided by host speed."""
        plain, traced, ids = [], [], []
        started, measured = time.perf_counter(), 0.0
        while True:
            trace_this = bool(self.args.trace) and len(plain) > len(traced)
            pass_id = f"p{len(plain) + len(traced)}"
            if trace_this:
                self.tracer.pass_id = pass_id
                self.tracer.install()
                self.ctx.traced = True
                span = self.tracer.open("pass", "bench")
            slices = [self.reference.timed()]
            outs = self.run_ops(self.ops, slices)
            took = sum(t for _, _, t in outs)
            measured += took
            speed = self.reference.speed(slices)
            if trace_this:
                self.tracer.close(span)
                self.tracer.uninstall()
                self.ctx.traced = False
                traced.append(took / speed)
                ids.append(pass_id)
            else:
                plain.append(took)
                self.speed.append(speed)
            self.record(outs, trace_this)
            del outs
            done = len(plain) + len(traced)
            enough = measured >= self.args.seconds and done >= MIN_PASSES + self.args.trace
            if enough or time.perf_counter() - started + took > WALL_LIMIT_S:
                return plain, traced, ids

    def run_probes(self) -> list[dict]:
        """Known-defect operations, traced, once; reported apart from the ordinary ones."""
        self.tracer.pass_id = "probe"
        self.tracer.install()
        self.ctx.traced = True
        results = []
        for op, (out, err, took) in zip(self.probes, self.run_ops(self.probes)):
            err = self.checked(op, out, err)
            results.append({"operation": op.name, "layer": op.layer, "seconds": took, "failure": err})
        self.tracer.uninstall()
        self.ctx.traced = False
        return results

    # -- metrics ------------------------------------------------------------
    def end_to_end(self, plain, setup_s) -> dict[str, float]:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.args.workload == "cli":
            rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "pass_s": median([p / f for p, f in zip(plain, self.speed)]),
            "setup_s": setup_s,
            "peak_rss_mb": rss / 1024.0,
        }

    def per_layer(self, names, plain, traced, ids, probes) -> dict[str, float]:
        pp = self.per_pass(self.tracer.spans, ids)

        def at(key):
            return median(pp.get(key, []))

        def summed(keys):
            return [sum(v) for v in zip(*(pp[k] for k in keys))]

        out = {name: at(name) for name in names}
        ident = [k for k in pp if k.startswith("identify.identify_")]
        out["identify.identify_s"] = median(summed(k for k in ident if k.endswith("_s")))
        flagged = summed(k for k in ident if k.endswith("#count"))
        points = summed(k for k in ident if k.endswith("#items"))
        out["identify.patched_ratio"] = median([a / b for a, b in zip(flagged, points) if b])
        steps, busy = pp.get("simulate.simulate#count", []), pp.get("simulate.simulate_s", [])
        out["simulate.steps_per_s"] = median([a / b for a, b in zip(steps, busy) if b])
        out["simulate.welch_segments"] = at("simulate.welch_spectrum#count")
        out["graph.cycles"] = at("graph.cycle_basis#count")
        out["graph.treks"] = at("graph.enumerate_treks#items")
        out["model.load_model_s"] = self.per_pass(self.tracer.spans, ["setup"]).get("model.load_model_s", [0.0])[0]
        out["cli.import_s"] = median(self.import_s)
        out["cli.bytes_out"] = float(self.bytes_out)
        out["cli.bytes_in"] = float(self.bytes_in)
        out["cli.timeouts"] = float(self.timeouts)
        failed_probes = [p for p in probes if p["failure"]]
        out["filters.failed"] = float(self.layer_failed.get("filters", 0)
                                      + sum(p["layer"] == "filters" for p in failed_probes))
        out["defects.failed"] = float(len(failed_probes))
        out["trace.overhead_s"] = median(traced) - median([p / f for p, f in zip(plain, self.speed)])
        return {name: out[name] for name in names}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "svarpg" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir() or not SPEC.is_file():
        print(f"error: {ROOT} is not a full checkout (src/svarpg, fixtures/, BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import svarpg

    if not Path(svarpg.__file__).resolve().is_relative_to(SRC):
        print(f"error: svarpg imported from {svarpg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import models
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    runner = Runner(args, workloads, tracing)
    try:
        setup_s = runner.setup()
        plain, traced, ids = runner.measure()
        probes = runner.run_probes() if args.trace else []
    finally:
        shutil.rmtree(runner.rundir, ignore_errors=True)

    env = environment()
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  environment {json.dumps(env)}")
    if args.trace:
        listed = spec["per_layer"]
        metrics = runner.per_layer([m["name"] for m in listed], plain, traced, ids, probes)
        for p in probes:
            status = f"FAIL: {p['failure']}" if p["failure"] else "ok"
            print(f"# known defect {p['operation']} ({p['seconds']:.2f} s) {status}")
    else:
        listed = spec["end_to_end"]
        metrics = runner.end_to_end(plain, setup_s)
        tail = ""
        if len(plain) > 10:
            rank = len(plain) - 10
            tail = f", pass_s_tail (wall) {sorted(plain)[rank - 1]:.4f} s at p{100.0 * rank / len(plain):.0f}"
        print(f"# {len(plain)} passes: wall median {median(plain):.4f} s, host speed median "
              f"{median(runner.speed):.3f}{tail}")
    units = {m["name"]: m["unit"] for m in listed}
    for name, value in metrics.items():
        print(f"# {name:36s} {value:.6g} {units[name]}")
    for name, err in runner.failures.items():
        print(f"# FAILED {name}: {err}")
    print(f"# error_rate {runner.failed}/{runner.attempted}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "generator": models.GENERATOR, "models": runner.ctx.params,
        "operations": [op.name for op in runner.ops], "pass_wall_s": plain,
        "reference": runner.reference.kind, "host_speed": runner.speed,
        "traced_pass_wall_s": traced, "setup_s": setup_s, "import_s": runner.import_s,
        "operation_wall_s": {name: median(v) for name, v in runner.op_s.items()},
        "metrics": metrics, "attempted": runner.attempted, "failed": runner.failed,
        "failures": runner.failures, "known_defects": probes,
    }
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if args.trace:
        runner.tracer.dump(OUT / f"spans-{stem}.json", workload=args.workload, seed=args.seed)

    result = {
        "correct": runner.failed == 0 and not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

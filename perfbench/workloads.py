"""The four workloads: their models, their operations and each operation's check.

``build(name, ctx)`` does a workload's set-up (draw and write the model
documents, parse them with ``svarpg.load_model``) and returns two lists of
``Op``: the ordinary operations that make up one pass, and the known-defect
probes that the traced run adds once at the end.

Every operation calls public functions of svarpg through module attributes
at call time, so the tracer's wrappers see the call.  Checks run outside the
timed span; they compare against ``oracles`` (numpy only) or, for CLI output,
against the library's own values, which the CLI promises to write in full
round-trip precision.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import models
import oracles

import svarpg as sv
import svarpg.cli as sv_cli

SPECTRAL_HEADER = "omega,quantity,row,col,re,im,modulus,phase"
CLI_DEADLINE_S = 10.0
OP_LIMIT_S = 60.0
WELCH_Z = 6.5  # criterion 9's 0.10 is 4.5 standard errors at 2047 segments


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    name: str
    layer: str
    run: Callable[[], object]
    check: Callable[[object], None]
    limit_s: float = OP_LIMIT_S


@dataclass
class Context:
    root: Path
    rundir: Path
    seed: int
    tracer: object
    traced: bool = False
    env: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


# -- check helpers -------------------------------------------------------------


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(actual, expected, tol: float, what: str) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    expect(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    err = float(np.abs(actual - expected).max()) if expected.size else 0.0
    scale = max(1.0, float(np.abs(expected).max()) if expected.size else 0.0)
    expect(err <= tol * scale, f"{what}: max error {err:.3g} > {tol * scale:.3g}")


def truncation_tol(r: float, horizon: int) -> float:
    """Bound on what a filter that decays like r**s leaves beyond lag ``horizon``."""
    return 50.0 * horizon * r**horizon / (1.0 - r) ** 2


def observed_cut(doc: dict, cut: tuple[str, ...]) -> dict:
    """Observed-only document with every cross edge into ``cut`` removed."""
    obs = set(doc["observed"])
    edges = [
        e for e in doc["edges"]
        if e["from"] in obs and e["to"] in obs and (e["from"] == e["to"] or e["to"] not in cut)
    ]
    return {**doc, "latents": [], "edges": edges,
            "noise_var": {k: doc["noise_var"][k] for k in doc["observed"]}}


def pick_pair(doc: dict) -> tuple[str, str, tuple[str, ...]]:
    """The observed pair farthest apart (first such cause in document order),
    and the effect's parent on a shortest path as a control when that is not
    the cause.  Depends only on the edge structure, which the seed does not
    change."""
    obs = doc["observed"]
    kids: dict[str, set[str]] = {v: set() for v in obs}
    for e in doc["edges"]:
        if e["from"] in kids and e["to"] in kids and e["from"] != e["to"]:
            kids[e["from"]].add(e["to"])
    best = None
    for x in obs:
        depth, parent, order = {x: 0}, {x: None}, [x]
        for v in order:
            for w in sorted(kids[v], key=obs.index):
                if w not in depth:
                    depth[w], parent[w] = depth[v] + 1, v
                    order.append(w)
        y = order[-1]
        if best is None or depth[y] > best[0]:
            controls = (parent[y],) if parent[y] not in (None, x) else ()
            best = (depth[y], x, y, controls)
    return best[1], best[2], best[3]


# -- workload set-up -------------------------------------------------------------


class Models:
    """Writes documents to disk and parses them back with svarpg.load_model."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.docs: dict[str, dict] = {}
        self.m: dict[str, object] = {}
        self.paths: dict[str, Path] = {}

    def fixtures(self, *names: str) -> None:
        docs = models.fixture_documents(self.ctx.root)
        for name in names:
            self.docs[name] = docs[name]
            self.paths[name] = self.ctx.root / "fixtures" / f"{name}.json"
            self.m[name] = sv.load_model(self.paths[name])

    def add(self, tag: str, doc: dict) -> None:
        path = self.ctx.rundir / f"{tag}.json"
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        self.docs[tag], self.paths[tag] = doc, path
        self.m[tag] = sv.load_model(path)

    def random(self, tag: str, n: int, n_latent: int, in_degree: int, order: int = 3) -> None:
        self.ctx.params[tag] = {"n": n, "latents": n_latent, "in_degree": in_degree, "order": order}
        self.add(tag, models.random_document(self.ctx.seed, tag, n, n_latent, in_degree, order))


def build(name: str, ctx: Context) -> tuple[list[Op], list[Op]]:
    return _BUILDERS[name](ctx)


# -- lag_domain -----------------------------------------------------------------


def _lag_domain(ctx: Context) -> tuple[list[Op], list[Op]]:
    ms = Models(ctx)
    ms.fixtures("graph_a", "graph_b", "graph_c", "feedback_mediator", "instrument")
    ms.random("R5", 5, 1, 2)
    ms.random("R10", 10, 1, 2)
    ms.random("R20", 20, 2, 2)
    ms.add("defect", models.DEFECT_DOCUMENT)
    ops: list[Op] = []

    def ccf_op(tag, x, y, controls, L):
        doc, m = ms.docs[tag], ms.m[tag]
        r = oracles.companion_radius(observed_cut(doc, (x, *controls)))

        def check(eff):
            for s in range(7):
                oracle = sv.unrolled_paths(m, x, y, controls, s)
                close(eff.scalar_at(s), oracle, 1e-12, f"ccf lag {s} vs unrolled_paths")
            om = oracles.grid(64)
            close(sv.fourier(eff, om).scalar_values(), oracles.cctf(doc, x, y, controls, om),
                  1e-9 + truncation_tol(r, L), "fourier(ccf) vs cctf")

        label = f"ccf[{tag},{x}->{y},ctrl={','.join(controls) or '-'},L={L}]"
        ops.append(Op(label, "filters", lambda: sv.ccf(m, x, y, controls, L), check))

    for tag, L, with_controls in (("R10", 64, False), ("R5", 128, True), ("R20", 32, True)):
        x, y, controls = pick_pair(ms.docs[tag])
        ccf_op(tag, x, y, controls if with_controls else (), L)
    ccf_op("graph_a", "X", "Y", (), 64)
    ccf_op("graph_b", "Z", "Y", ("X",), 128)
    ccf_op("graph_c", "Z", "Y", (), 64)
    ccf_op("graph_c", "X", "Y", (), 64)  # the cause sits on the X <-> Y feedback loop
    ccf_op("feedback_mediator", "X", "Y", ("W",), 128)

    # the two covariance routes, each checked against the Lyapunov oracle and
    # against each other (criterion 2)
    truth: dict[str, np.ndarray] = {}
    seen: dict[str, dict] = {}

    def acs_check(tag, horizon, route):
        doc = ms.docs[tag]
        n_obs = len(doc["observed"])
        r = oracles.companion_radius(doc)

        def check(acs):
            if tag not in truth:
                truth[tag] = oracles.acs(doc, 64)[:, :n_obs, :n_obs]
            expect(acs.labels == tuple(doc["observed"]), "acs labels")
            lags = acs.values.shape[0]
            tol = 1e-9 + truncation_tol(r, horizon)
            close(acs.values, truth[tag][:lags], tol, f"{route} vs Lyapunov ACS")
            seen.setdefault(tag, {})[route] = (acs.values, tol)
            if len(seen[tag]) == 2:
                (a, ta), (b, tb) = seen[tag].values()
                k = min(len(a), len(b))
                close(a[:k], b[:k], ta + tb, "acs_via_sep vs acs_via_ma_infinity")
        return check

    for tag in ("graph_a", "graph_b", "R5"):
        m = ms.m[tag]
        ops.append(Op(f"acs_via_sep[{tag},64,128]", "filters",
                      lambda m=m: sv.acs_via_sep(m, 64, 128), acs_check(tag, 128, "acs_via_sep")))
    for tag in ("graph_a", "graph_b", "R5", "R10", "R20"):
        m = ms.m[tag]
        ops.append(Op(f"acs_via_ma_infinity[{tag},64,512]", "filters",
                      lambda m=m: sv.acs_via_ma_infinity(m, 64, 512),
                      acs_check(tag, 512, "acs_via_ma_infinity")))

    for tag in ("graph_a", "instrument"):
        ops.extend(_trek_ops(ms, tag, lag_domain=True))

    m_def = ms.m["defect"]
    at_zero = complex(oracles.cctf(models.DEFECT_DOCUMENT, "B", "C", (), np.zeros(1))[0])

    def defect_check(eff):
        close(eff.scalar_values().sum(), at_zero.real, 1e-9, "ccf(B, C) summed vs cctf(B, C) at omega=0")

    probes = [Op("ccf[defect,B->C,L=64]", "filters", lambda: sv.ccf(m_def, "B", "C", (), 64), defect_check)]
    return ops, probes


def _trek_ops(ms: Models, tag: str, lag_domain: bool) -> list[Op]:
    """Enumerate every trek of a fixture, then sum its monomials (criterion 4)."""
    doc, m = ms.docs[tag], ms.m[tag]
    obs = doc["observed"]
    pairs = [(v, w) for v in obs for w in obs]
    holder: dict[str, dict] = {}

    def enumerate_all():
        proj = sv.latent_projection(sv.process_graph(m))
        holder["treks"] = {(v, w): list(sv.enumerate_treks(proj, v, w)) for v, w in pairs}
        return holder["treks"]

    def treks_check(treks):
        expect(all(len(t) > 0 for (v, w), t in treks.items() if v == w), "every process has a trek to itself")

    ops = [Op(f"enumerate_treks[{tag}]", "graph", enumerate_all, treks_check)]
    i_of = {name: i for i, name in enumerate(obs)}
    if lag_domain:
        L = 96

        def run():
            return {pair: [sv.trek_monomial_filter(m, t, L) for t in ts] for pair, ts in holder["treks"].items()}

        def check(out):
            truth = oracles.acs(doc, 6)
            for (v, w), filters in out.items():
                for tau in range(7):
                    total = sum(f.scalar_at(tau) for f in filters)
                    close(total, truth[tau, i_of[v], i_of[w]], 1e-8, f"trek filters {v},{w} lag {tau}")

        ops.append(Op(f"trek_monomial_filter[{tag},L={L}]", "filters", run, check))
    else:
        om = oracles.grid(256)

        def run():
            return {pair: [sv.trek_monomial_function(m, t, 256) for t in ts] for pair, ts in holder["treks"].items()}

        def check(out):
            truth = oracles.spectrum(doc, om)
            for (v, w), parts in out.items():
                close(sum(parts), truth[:, i_of[v], i_of[w]], 1e-10, f"trek functions {v},{w}")

        ops.append(Op(f"trek_monomial_function[{tag},N=256]", "spectral", run, check))
    return ops


# -- frequency_domain -----------------------------------------------------------


def _frequency_domain(ctx: Context) -> tuple[list[Op], list[Op]]:
    ms = Models(ctx)
    ms.fixtures("graph_a", "graph_b", "graph_c", "feedback_mediator", "instrument", "confounded_mediator")
    ms.random("R10", 10, 1, 2)
    ms.random("R40", 40, 2, 2)
    ms.random("R8", 8, 0, 2)
    ms.random("C14", 14, 0, 3)
    for kind in ("frontdoor", "instrument", "unconfounded"):
        ctx.params[f"T_{kind}"] = {"template": kind, "order": 2}
        ms.add(f"T_{kind}", models.template_document(ctx.seed, f"T_{kind}", kind))
    ms.add("defect", models.DEFECT_DOCUMENT)
    ops: list[Op] = []

    for tag in ("R10", "R40", "graph_c"):
        doc, m = ms.docs[tag], ms.m[tag]

        def check(rep, doc=doc):
            r = oracles.companion_radius(doc)
            close(rep.companion_spectral_radius, r, 1e-9, "companion spectral radius")
            expect(rep.stable == (r < 1.0), "stable flag")

        ops.append(Op(f"check_stability[{tag}]", "model", lambda m=m: sv.check_stability(m), check))

    for tag, n_grid in (("R10", 4096), ("R40", 512), ("graph_b", 4096)):
        doc, m = ms.docs[tag], ms.m[tag]

        def check(s, doc=doc, n_grid=n_grid):
            truth = oracles.spectrum(doc, oracles.grid(n_grid))
            scale = float(np.abs(truth).max())
            expect(s.hermitian_defect() <= 1e-10 * scale, "spectral density not Hermitian")
            expect(s.min_eigenvalue() >= -1e-8 * scale, "spectral density not PSD")
            close(s.values, truth, 1e-8, "spectral density vs analytic oracle")

        ops.append(Op(f"spectral_density[{tag},N={n_grid}]", "spectral",
                      lambda m=m, n_grid=n_grid: sv.spectral_density(m, n_grid), check))

    cctf_cases = []
    for tag, n_grid, with_controls in (("R10", 4096, False), ("R10", 4096, True), ("R40", 512, True)):
        x, y, controls = pick_pair(ms.docs[tag])
        cctf_cases.append((tag, x, y, controls if with_controls else (), n_grid))
    cctf_cases += [("graph_c", "Z", "Y", (), 4096), ("graph_c", "X", "Y", (), 4096),
                   ("feedback_mediator", "X", "Y", ("W",), 4096)]
    for tag, x, y, controls, n_grid in cctf_cases:
        doc, m = ms.docs[tag], ms.m[tag]

        def check(t, doc=doc, x=x, y=y, controls=controls, n_grid=n_grid):
            close(t.scalar_values(), oracles.cctf(doc, x, y, controls, oracles.grid(n_grid)), 1e-9,
                  "cctf vs oracle")

        ops.append(Op(f"cctf[{tag},{x}->{y},ctrl={','.join(controls) or '-'},N={n_grid}]", "spectral",
                      lambda m=m, x=x, y=y, c=controls, g=n_grid: sv.cctf(m, x, y, c, g), check))

    def parts_sum(dec, what):
        close(dec.causal + dec.confounding + dec.residual, dec.target_spectrum, 1e-9, f"{what}: parts sum")
        expect(float(dec.causal.min()) >= -1e-12, f"{what}: negative causal part")

    for tag, (x, y), n_grid in (("graph_b", ("X", "Y"), 4096), ("R10", pick_pair(ms.docs["R10"])[:2], 1024)):
        doc, m = ms.docs[tag], ms.m[tag]

        def check(dec, doc=doc, y=y, n_grid=n_grid):
            parts_sum(dec, "decompose_spectrum")
            j = doc["observed"].index(y)
            close(dec.target_spectrum, oracles.spectrum(doc, oracles.grid(n_grid))[:, j, j].real, 1e-8,
                  "target spectrum vs oracle")

        ops.append(Op(f"decompose_spectrum[{tag},{x}->{y},N={n_grid}]", "spectral",
                      lambda m=m, x=x, y=y, g=n_grid: sv.decompose_spectrum(m, x, y, g), check))

    for tag, (x, y), n_grid in (("graph_c", ("Z", "Y"), 4096), ("R8", pick_pair(ms.docs["R8"])[:2], 1024)):
        m = ms.m[tag]

        def check(split):
            parts_sum(split.total, "decompose_by_source total")
            for part in ("causal", "confounding", "residual"):
                close(sum(getattr(d, part) for d in split.sources.values()), getattr(split.total, part),
                      1e-9, f"per-source {part} sums to total")

        ops.append(Op(f"decompose_by_source[{tag},{x}->{y},N={n_grid}]", "spectral",
                      lambda m=m, x=x, y=y, g=n_grid: sv.decompose_by_source(m, x, y, g), check))

    for tag in ("graph_a", "graph_b", "instrument"):
        ops.extend(_trek_ops(ms, tag, lag_domain=False))

    identify_cases = [
        ("confounded_mediator", "frontdoor", ("X", "W", "Y")),
        ("instrument", "instrument", ("X", "M", "Y")),
        ("T_frontdoor", "frontdoor", ("X", "W", "Y")),
        ("T_instrument", "instrument", ("X", "M", "Y")),
        ("T_unconfounded", "unconfounded", "Y"),
    ]
    for tag, method, labels in identify_cases:
        doc, m = ms.docs[tag], ms.m[tag]

        def run(m=m, method=method, labels=labels):
            s = sv.spectral_density(m, 256)
            if method == "frontdoor":
                return sv.identify_frontdoor(s, labels)
            if method == "instrument":
                return sv.identify_instrument(s, labels)
            proj = sv.latent_projection(sv.process_graph(m))
            return sv.identify_unconfounded_parents(s, proj, labels)

        def check(res, doc=doc):
            h = oracles.edge_matrix(doc, oracles.grid(256))
            names = doc["observed"] + doc["latents"]
            for (v, w), values in res.edges.items():
                exact = h[:, names.index(v), names.index(w)]
                good = res.condition[(v, w)]
                close(values[good], exact[good], 1e-8, f"identified {v}->{w} vs edge transfer")
                close(values[~good], exact[~good], 1e-4, f"patched {v}->{w} vs edge transfer")

        ops.append(Op(f"identify_{method}[{tag}]", "identify", run, check))

    ops.append(_validate_op(ctx, ms, "C14"))
    return ops, [_validate_op(ctx, ms, "defect")]


def _validate_op(ctx: Context, ms: Models, tag: str) -> Op:
    """The validate decision, made by the CLI's own entry point in process."""
    path, doc = ms.paths[tag], ms.docs[tag]
    out = ctx.rundir / f"validate-{tag}.json"

    def run():
        code = sv_cli.run(["validate", str(path), "--grid", "256", "-o", str(out)])
        return code, out.read_bytes()

    def check(result):
        code, text = result
        ok = oracles.validate_ok(doc)
        expect(code == (0 if ok else 2), f"validate exit code {code}, certificate says ok={ok}")
        report = json.loads(text)
        expect(report["ok"] is ok, f"validate ok={report['ok']}, certificate says ok={ok}")
        close(report["companion_spectral_radius"], oracles.companion_radius(doc), 1e-9, "validate radius")

    return Op(f"validate[{tag}]", "cli", run, check)


# -- monte_carlo ----------------------------------------------------------------


def _monte_carlo(ctx: Context) -> tuple[list[Op], list[Op]]:
    ms = Models(ctx)
    ms.fixtures(*models.FIXTURE_NAMES)
    ms.random("R10", 10, 1, 2)
    ops: list[Op] = []
    trajectories: dict[str, object] = {}
    # many short simulations rather than a few long ones, so that the host
    # speed is sampled often enough to divide out (see reference.py)
    cases = tuple((name, 2**16) for name in (*models.FIXTURE_NAMES, "R10"))
    for k, (tag, length) in enumerate(cases):
        doc, m = ms.docs[tag], ms.m[tag]
        sim_seed = ctx.seed * len(cases) + k

        def sim(m=m, tag=tag, length=length, sim_seed=sim_seed):
            trajectories[tag] = sv.simulate(m, length, seed=sim_seed)
            return trajectories[tag]

        def sim_check(traj, doc=doc, length=length):
            n = len(doc["observed"]) + len(doc["latents"])
            expect(traj.values.shape == (length, n), f"trajectory shape {traj.values.shape}")
            expect(bool(np.isfinite(traj.values).all()), "trajectory not finite")
            truth = oracles.acs(doc, 2)
            scale = np.sqrt(np.outer(np.diag(truth[0]), np.diag(truth[0])))
            x = traj.values
            tol = oracles.sample_acs_tolerance(doc, length)
            for tau in range(3):
                sample = x[tau:].T @ x[: length - tau] / length
                err = float((np.abs(sample - truth[tau]) / scale).max())
                expect(err <= tol, f"sample ACS lag {tau}: normalized error {err:.3g} > {tol:.3g}")

        def welch(tag=tag):
            return sv.welch_spectrum(trajectories[tag], segment_len=1024, overlap=0.5, grid=256)

        def welch_check(est, doc=doc, tag=tag):
            traj = trajectories[tag]
            own, segments = oracles.welch(traj.observed(), 1024, 0.5, 256)
            expect(est.segment_count == segments, f"segment count {est.segment_count} != {segments}")
            close(est.values, own, 1e-10, "welch vs reference periodogram average")
            truth = oracles.spectrum(doc, oracles.grid(256))
            diag = np.real(np.diagonal(truth, axis1=1, axis2=2))
            err = float((np.abs(est.values - truth) / np.sqrt(np.einsum("wi,wj->wij", diag, diag))).max())
            tol = WELCH_Z / np.sqrt(segments)
            expect(err <= tol, f"welch vs analytic spectrum: normalized error {err:.3g} > {tol:.3g}")

        ops.append(Op(f"simulate[{tag},T={length}]", "simulate", sim, sim_check))
        ops.append(Op(f"welch_spectrum[{tag},1024,0.5,256]", "simulate", welch, welch_check))
    return ops, []


# -- cli -----------------------------------------------------------------------


@dataclass
class CliResult:
    code: int | None  # None when the deadline killed the run
    stdout: bytes
    files: dict
    bytes_in: int


def child_env(ctx: Context) -> dict:
    """Environment for svarpg subprocesses: this one plus the checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ctx.root / "src"), env.get("PYTHONPATH")]))
    return env


def run_cli(ctx: Context, sub: str, args: list[str], inputs: list[Path], outputs: list[Path],
            deadline: float = OP_LIMIT_S) -> CliResult:
    """One `svarpg` subprocess; traced passes run it under the span-recording shim."""
    for path in outputs:
        path.unlink(missing_ok=True)
    if ctx.traced:
        spans = ctx.rundir / "child-spans.json"
        spans.unlink(missing_ok=True)
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans), sub, *args]
    else:
        cmd = [sys.executable, "-m", "svarpg.cli", sub, *args]
    span = ctx.tracer.open(sub, "cli") if ctx.traced else None
    try:
        proc = subprocess.run(cmd, env=ctx.env, cwd=ctx.root, capture_output=True, timeout=deadline)
        code, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, stdout = None, b""
    finally:
        if span is not None:
            ctx.tracer.close(span)
    if span is not None and code is not None and spans.exists():
        ctx.tracer.adopt(json.loads(spans.read_text())["spans"], span)
    files = {p.name: p.read_bytes() for p in outputs if p.exists()}
    return CliResult(code, stdout, files, sum(p.stat().st_size for p in inputs))


def parse_spectral(text: bytes) -> list[list[str]]:
    lines = text.decode("utf-8").splitlines()
    expect(lines[0] == SPECTRAL_HEADER, "spectral CSV header")
    return [line.split(",") for line in lines[1:]]


def _complex_rows(rows, quantity=None) -> np.ndarray:
    return np.array([complex(float(r[4]), float(r[5])) for r in rows if quantity is None or r[1] == quantity])


def _grid_values(rows, labels) -> np.ndarray:
    """(N, n, n) array from S rows in the CLI's omega-major, row, col order."""
    vals = _complex_rows(rows)
    return vals.reshape(-1, len(labels), len(labels))


def _cli(ctx: Context) -> tuple[list[Op], list[Op]]:
    ms = Models(ctx)
    ms.fixtures("graph_b", "graph_c", "feedback_mediator", "instrument", "confounded_mediator")
    ms.random("R40x3", 40, 2, 3)
    ms.add("defect", models.DEFECT_DOCUMENT)
    d = ctx.rundir
    p = {k: str(v) for k, v in ms.paths.items()}
    series, spectrum_csv = d / "series.csv", d / "spectrum.csv"
    length, sim_seed = 2**16, ctx.seed
    ops: list[Op] = []

    def op(sub, args, inputs, check, outputs=()):
        ops.append(Op(f"cli {sub} {' '.join(a for a in args if '/' not in a)}".strip(), "cli",
                      lambda: run_cli(ctx, sub, args, list(inputs), list(outputs)), check))

    def ok(res: CliResult) -> None:
        expect(res.code == 0, f"exit code {res.code}")

    def check_validate(res):
        doc = json.loads(res.stdout)
        truth = oracles.validate_ok(ms.docs["graph_c"])
        expect(res.code == (0 if truth else 2) and doc["ok"] is truth, "validate decision")
        close(doc["companion_spectral_radius"],
              sv.check_stability(ms.m["graph_c"]).companion_spectral_radius, 1e-12, "validate radius")

    op("validate", [p["graph_c"]], [ms.paths["graph_c"]], check_validate)

    def check_paths(res):
        ok(res)
        g = sv.process_graph(ms.m["graph_c"])
        want = ["path"] + ["->".join(q.vertices) for q in sv.enumerate_paths(g, "Z", "Y", (), 1)]
        expect(res.stdout.decode().splitlines() == want, "paths CSV vs enumerate_paths")

    op("paths", [p["graph_c"], "--from", "Z", "--to", "Y", "--max-cycle-depth", "1"],
       [ms.paths["graph_c"]], check_paths)

    def check_transfer(res):
        ok(res)
        want = sv.cctf(ms.m["graph_b"], "X", "Y", ("M",), 256).scalar_values()
        close(_complex_rows(parse_spectral(res.stdout), "CCTF"), want, 1e-12, "transfer CSV vs cctf")

    op("transfer", [p["graph_b"], "--from", "X", "--to", "Y", "--controls", "M"],
       [ms.paths["graph_b"]], check_transfer)

    def spectral_check(tag, n_grid, text):
        s = sv.spectral_density(ms.m[tag], n_grid)
        close(_grid_values(parse_spectral(text), s.labels), s.values, 1e-12, "spectral CSV vs spectral_density")

    op("spectral", [p["graph_c"], "--grid", "4096"], [ms.paths["graph_c"]],
       lambda res: (ok(res), spectral_check("graph_c", 4096, res.stdout)))

    def check_decompose(res):
        ok(res)
        rows = parse_spectral(res.stdout)
        split = sv.decompose_by_source(ms.m["graph_b"], "X", "Y", 256)
        for part in ("causal", "confounding", "residual"):
            close(_complex_rows(rows, part).real, getattr(split.total, part), 1e-12, f"decompose {part}")
        for source, dec in split.sources.items():
            got = [r for r in rows if r[1] == f"source:{source}"]
            for part in ("causal", "confounding", "residual"):
                close(_complex_rows([r for r in got if r[2] == part]).real, getattr(dec, part), 1e-12,
                      f"decompose source {source} {part}")

    op("decompose", [p["graph_b"], "--ancestor", "X", "--target", "Y", "--by-source"],
       [ms.paths["graph_b"]], check_decompose)

    def check_acs(res):
        ok(res)
        acs = sv.acs_via_sep(ms.m["feedback_mediator"], 64, 128)
        got = np.array([float(line.split(",")[3]) for line in res.stdout.decode().splitlines()[1:]])
        close(got, acs.values.ravel(), 1e-12, "acs CSV vs acs_via_sep")

    op("acs", [p["feedback_mediator"]], [ms.paths["feedback_mediator"]], check_acs)

    def check_ccf(res):
        ok(res)
        eff = sv.ccf(ms.m["graph_b"], "Z", "Y", ("X",), 128)
        got = np.array([float(line.split(",")[3]) for line in res.stdout.decode().splitlines()[1:]])
        close(got, eff.scalar_values(), 1e-12, "ccf CSV vs ccf")

    op("ccf", [p["graph_b"], "--from", "Z", "--to", "Y", "--controls", "X"], [ms.paths["graph_b"]], check_ccf)

    def read_series(data: bytes) -> np.ndarray:
        lines = data.decode().splitlines()
        expect(lines[0] == "t," + ",".join(ms.docs["graph_c"]["observed"]), "series CSV header")
        return np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])

    def check_simulate(res):
        ok(res)
        traj = sv.simulate(ms.m["graph_c"], length, seed=sim_seed)
        close(read_series(res.files[series.name]), traj.observed(), 1e-12, "simulate CSV vs simulate")

    op("simulate", [p["graph_c"], "--length", str(length), "--seed", str(sim_seed), "-o", str(series)],
       [ms.paths["graph_c"]], check_simulate, [series])

    def check_estimate(res):
        ok(res)
        values = read_series(series.read_bytes())
        labels = tuple(ms.docs["graph_c"]["observed"])
        traj = sv.Trajectory(labels=labels, n_observed=len(labels), values=values, seed=0, burn_in=0)
        est = sv.welch_spectrum(traj)
        close(_grid_values(parse_spectral(res.stdout), labels), est.values, 1e-12, "estimate CSV vs welch_spectrum")

    op("estimate", [str(series)], [series], check_estimate)

    op("spectral", [p["instrument"], "-o", str(spectrum_csv)], [ms.paths["instrument"]],
       lambda res: (ok(res), spectral_check("instrument", 256, res.files[spectrum_csv.name])), [spectrum_csv])

    def identify_check(tag, method, labels):
        def check(res):
            ok(res)
            s = sv.spectral_density(ms.m[tag], 256)
            fn = sv.identify_frontdoor if method == "frontdoor" else sv.identify_instrument
            want = fn(s, labels)
            rows = parse_spectral(res.stdout)
            for (v, w), values in want.edges.items():
                got = _complex_rows([r for r in rows if r[2] == v and r[3] == w])
                close(got, values, 1e-12, f"identify CSV {v}->{w}")
        return check

    op("identify", ["--spectrum", str(spectrum_csv), "--method", "instrument", "--labels", "X,M,Y"],
       [spectrum_csv], identify_check("instrument", "instrument", ("X", "M", "Y")))
    op("identify", [p["confounded_mediator"], "--method", "frontdoor", "--labels", "X,W,Y"],
       [ms.paths["confounded_mediator"]], identify_check("confounded_mediator", "frontdoor", ("X", "W", "Y")))

    def probe(tag):
        want = 0 if oracles.validate_ok(ms.docs[tag]) else 2

        def check(res):
            expect(res.code is not None, f"validate did not finish within {CLI_DEADLINE_S:g} s")
            expect(res.code == want, f"validate exit code {res.code}, certificate says {want}")

        return Op(f"cli validate {tag}", "cli",
                  lambda: run_cli(ctx, "validate", [p[tag]], [ms.paths[tag]], [], CLI_DEADLINE_S), check,
                  limit_s=CLI_DEADLINE_S)

    return ops, [probe("defect"), probe("R40x3")]


_BUILDERS = {
    "lag_domain": _lag_domain,
    "frequency_domain": _frequency_domain,
    "monte_carlo": _monte_carlo,
    "cli": _cli,
}
WORKLOADS = tuple(_BUILDERS)

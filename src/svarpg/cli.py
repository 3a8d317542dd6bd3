"""Batch command line front end.

Subcommands read a model document (JSON) and emit machine-readable CSV or
JSON.  All output is deterministic for fixed inputs, flags and seed: reports
are JSON, grids and series are CSV with full round-trip float precision,
UTF-8, LF line endings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Sequence

import numpy as np

from . import filters, graph, identify, model, spectral
from .simulate import Trajectory, simulate as run_simulation, welch_spectrum
from .errors import SvarpgError

SPECTRAL_HEADER = "omega,quantity,row,col,re,im,modulus,phase"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, module errors exit 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return repr(float(x))


def _spectral_rows(omega: float, quantity: str, row: str, col: str, value: complex) -> str:
    mod = abs(value)
    phase = float(np.angle(value))
    return ",".join(
        [_fmt(omega), quantity, row, col, _fmt(value.real), _fmt(value.imag), _fmt(mod), _fmt(phase)]
    )


def _emit(lines: Iterable[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    report = model.check_stability(model.load_model(args.model), grid_size=args.grid)
    _emit([json.dumps(report.to_document(), indent=2)], args.output)
    return 0 if report.ok else 2


def _cmd_paths(args) -> int:
    m = model.load_model(args.model)
    g = model.process_graph(m)
    avoid = _split(args.avoid)
    found = [
        "->".join(p.vertices)
        for p in graph.enumerate_paths(g, args.source, args.target, avoid, args.max_cycle_depth)
    ]
    if args.format == "json":
        _emit([json.dumps(found, indent=2)], args.output)
    else:
        _emit(["path"] + found, args.output)
    return 0


def _cmd_transfer(args) -> int:
    m = model.load_model(args.model)
    if args.edge:
        values = spectral.edge_transfer(m, args.source, args.target).evaluate(
            spectral.frequency_grid(args.grid)
        )
        quantity = "H"
    else:
        values = spectral.cctf(
            m, args.source, args.target, _split(args.controls), args.grid
        ).scalar_values()
        quantity = "CCTF"
    omegas = spectral.frequency_grid(args.grid)
    lines = [SPECTRAL_HEADER]
    for w, v in zip(omegas, values):
        lines.append(_spectral_rows(w, quantity, args.source, args.target, complex(v)))
    _emit(lines, args.output)
    return 0


def _cmd_spectral(args) -> int:
    m = model.load_model(args.model)
    s = spectral.spectral_density(m, args.grid)
    lines = [SPECTRAL_HEADER]
    for i, w in enumerate(s.omegas):
        for a, row in enumerate(s.labels):
            for b, col in enumerate(s.labels):
                lines.append(_spectral_rows(w, "S", row, col, complex(s.values[i, a, b])))
    _emit(lines, args.output)
    return 0


def _cmd_decompose(args) -> int:
    m = model.load_model(args.model)
    lines = [SPECTRAL_HEADER]

    def factor_rows(dec, quantity_for):
        for i, w in enumerate(dec.omegas):
            for name, series in (
                ("causal", dec.causal),
                ("confounding", dec.confounding),
                ("residual", dec.residual),
            ):
                lines.append(
                    _spectral_rows(w, quantity_for(name), args.ancestor, args.target, complex(series[i]))
                )

    if args.by_source:
        split = spectral.decompose_by_source(m, args.ancestor, args.target, args.grid)
        factor_rows(split.total, lambda name: name)
        for source, dec in split.sources.items():
            for i, w in enumerate(dec.omegas):
                for name, series in (
                    ("causal", dec.causal),
                    ("confounding", dec.confounding),
                    ("residual", dec.residual),
                ):
                    lines.append(_spectral_rows(w, f"source:{source}", name, args.target, complex(series[i])))
    else:
        dec = spectral.decompose_spectrum(m, args.ancestor, args.target, args.grid)
        factor_rows(dec, lambda name: name)
    _emit(lines, args.output)
    return 0


def _cmd_acs(args) -> int:
    m = model.load_model(args.model)
    acs = filters.acs_via_sep(m, L_acs=args.lags, L_filter=args.filter_lags)
    lines = ["lag,row,col,value"]
    for tau in range(acs.max_lag + 1):
        for a, row in enumerate(acs.labels):
            for b, col in enumerate(acs.labels):
                lines.append(f"{tau},{row},{col},{_fmt(acs.values[tau, a, b])}")
    _emit(lines, args.output)
    return 0


def _cmd_ccf(args) -> int:
    m = model.load_model(args.model)
    eff = filters.ccf(m, args.source, args.target, _split(args.controls), L=args.lags)
    lines = ["lag,row,col,value"]
    for s in range(eff.start, eff.end + 1):
        lines.append(f"{s},{args.source},{args.target},{_fmt(eff.scalar_at(s))}")
    _emit(lines, args.output)
    return 0


def _cmd_simulate(args) -> int:
    m = model.load_model(args.model)
    traj = run_simulation(m, T=args.length, seed=args.seed, burn_in=args.burn_in)
    labels = traj.labels if args.include_latents else traj.labels[: traj.n_observed]
    data = traj.values if args.include_latents else traj.observed()
    lines = ["t," + ",".join(labels)]
    for t in range(traj.length):
        lines.append(str(t) + "," + ",".join(_fmt(v) for v in data[t]))
    _emit(lines, args.output)
    return 0


def _read_series_csv(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        if not header or header[0] != "t":
            raise SvarpgError("series CSV must start with a 't' column")
        labels = tuple(header[1:])
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    return labels, data[:, 1:]


def _cmd_estimate(args) -> int:
    labels, values = _read_series_csv(args.series)
    traj = Trajectory(
        labels=labels, n_observed=len(labels), values=values, seed=0, burn_in=0
    )
    est = welch_spectrum(
        traj, segment_len=args.segment_len, overlap=args.overlap, grid=args.grid
    )
    lines = [SPECTRAL_HEADER]
    for i, w in enumerate(est.omegas):
        for a, row in enumerate(est.labels):
            for b, col in enumerate(est.labels):
                lines.append(_spectral_rows(w, "S", row, col, complex(est.values[i, a, b])))
    _emit(lines, args.output)
    return 0


def _read_spectral_csv(path: str) -> spectral.SpectralMatrix:
    rows: dict[tuple[float, str, str], complex] = {}
    labels: list[str] = []
    omegas: list[float] = []
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header != SPECTRAL_HEADER:
            raise SvarpgError("unexpected spectral CSV header")
        for line in handle:
            parts = line.strip().split(",")
            if len(parts) != 8 or parts[1] != "S":
                continue
            omega = float(parts[0])
            row, col = parts[2], parts[3]
            rows[(omega, row, col)] = complex(float(parts[4]), float(parts[5]))
            if row not in labels:
                labels.append(row)
            if omega not in omegas:
                omegas.append(omega)
    values = np.zeros((len(omegas), len(labels), len(labels)), dtype=complex)
    for i, omega in enumerate(omegas):
        for a, row in enumerate(labels):
            for b, col in enumerate(labels):
                values[i, a, b] = rows[(omega, row, col)]
    return spectral.SpectralMatrix(
        labels=tuple(labels), omegas=np.asarray(omegas), values=values
    )


def _cmd_identify(args) -> int:
    labels = _split(args.labels)
    if not args.spectrum and not args.model:
        args.usage_error("identify needs a MODEL or --spectrum")
    if args.method != "unconfounded" and len(labels) != 3:
        args.usage_error(f"--method {args.method} needs --labels naming exactly three processes")
    if args.method == "unconfounded" and not (args.target and args.model):
        args.usage_error("--method unconfounded needs --target and a MODEL")

    m = model.load_model(args.model) if args.model else None
    s = _read_spectral_csv(args.spectrum) if args.spectrum else spectral.spectral_density(m, args.grid)
    if args.method == "unconfounded":
        projection = graph.latent_projection(model.process_graph(m))
        result = identify.identify_unconfounded_parents(s, projection, args.target)
    else:
        fn = identify.identify_frontdoor if args.method == "frontdoor" else identify.identify_instrument
        result = fn(s, labels)  # type: ignore[arg-type]

    lines = [SPECTRAL_HEADER]
    flagged = {}
    for (src, dst), values in result.edges.items():
        for i, w in enumerate(result.omegas):
            lines.append(_spectral_rows(w, "H", src, dst, complex(values[i])))
        bad = result.flagged(src, dst)
        if bad.size:
            flagged[f"{src}->{dst}"] = bad.tolist()
    _emit(lines, args.output)
    if flagged:
        print(json.dumps({"patched_grid_indices": flagged}), file=sys.stderr)
    return 0


def _split(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ()
    return tuple(part for part in raw.split(",") if part)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="svarpg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn, usage_error=p.error)
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        return p

    p = add("validate", _cmd_validate, help="stability report (JSON)")
    p.add_argument("model")
    p.add_argument("--grid", type=int, default=256)

    p = add("paths", _cmd_paths, help="enumerate directed paths on the process graph")
    p.add_argument("model")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--avoid", default=None, help="comma-separated vertices")
    p.add_argument("--max-cycle-depth", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("transfer", _cmd_transfer, help="causal transfer function between processes")
    p.add_argument("model")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--controls", default=None)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--edge", action="store_true", help="emit the raw edge function instead")

    p = add("spectral", _cmd_spectral, help="analytic spectral density matrix")
    p.add_argument("model")
    p.add_argument("--grid", type=int, default=256)

    p = add("decompose", _cmd_decompose, help="causal / confounding / residual split")
    p.add_argument("model")
    p.add_argument("--ancestor", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--by-source", action="store_true")

    p = add("acs", _cmd_acs, help="auto-covariance sequence (CSV)")
    p.add_argument("model")
    p.add_argument("--lags", type=int, default=64)
    p.add_argument("--filter-lags", type=int, default=128)

    p = add("ccf", _cmd_ccf, help="controlled causal effect filter (CSV)")
    p.add_argument("model")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--controls", default=None)
    p.add_argument("--lags", type=int, default=128)

    p = add("simulate", _cmd_simulate, help="sample a trajectory (CSV)")
    p.add_argument("model")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=1024)
    p.add_argument("--include-latents", action="store_true")

    p = add("estimate", _cmd_estimate, help="Welch spectral estimate from a series CSV")
    p.add_argument("series")
    p.add_argument("--segment-len", type=int, default=4096)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--grid", type=int, default=256)

    p = add("identify", _cmd_identify, help="recover edge transfer functions")
    p.add_argument("model", nargs="?", default=None)
    p.add_argument("--method", choices=("frontdoor", "instrument", "unconfounded"), required=True)
    p.add_argument("--labels", default=None, help="X,W,Y roles for frontdoor/instrument")
    p.add_argument("--target", default=None, help="regression target for unconfounded")
    p.add_argument("--spectrum", default=None, help="spectral CSV instead of a model")
    p.add_argument("--grid", type=int, default=256)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SvarpgError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()

"""Batch command line front end.

Subcommands read a model document (JSON) and emit machine-readable CSV or
JSON.  All output is deterministic for fixed inputs, flags and seed: reports
are JSON, grids and series are CSV with full round-trip float precision,
UTF-8, LF line endings.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import filters, graph, identify, model, spectral
from .simulate import Trajectory, simulate as run_simulation, welch_spectrum
from .errors import SchemaError, SvarpgError

SPECTRAL_HEADER = "omega,quantity,row,col,re,im,modulus,phase"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, module errors exit 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _spectral_lines(values, omega, quantity, row, col) -> Iterator[str]:
    """The spectral schema, one row per entry of ``values`` in C order.

    The key columns broadcast against ``values``.  Floats are ``repr`` of
    Python floats, ``modulus`` is ``abs(complex)`` (``numpy.abs`` can differ
    in the last ulp) and ``phase`` is ``numpy.angle``.
    """
    v = np.asarray(values, dtype=complex).ravel()
    keys = [np.broadcast_to(key, np.shape(values)).ravel().tolist() for key in (omega, quantity, row, col)]
    yield SPECTRAL_HEADER
    for w, q, r, c, z, phase in zip(*keys, v.tolist(), np.angle(v).tolist()):
        yield f"{w!r},{q},{r},{c},{z.real!r},{z.imag!r},{abs(z)!r},{phase!r}"


def _lag_lines(values, lag, row, col) -> Iterator[str]:
    """The ``lag,row,col,value`` schema, one row per entry of real ``values`` in C order;
    the key columns broadcast against ``values``."""
    keys = [np.broadcast_to(key, np.shape(values)).ravel().tolist() for key in (lag, row, col)]
    yield "lag,row,col,value"
    for tau, r, c, x in zip(*keys, np.ravel(values).tolist()):
        yield f"{tau},{r},{c},{x!r}"


_EMIT_BATCH = 4096  # lines per write: fills a 64 KiB pipe with rows of any CSV schema


def _emit(lines: Iterable[str], output: str | None) -> None:
    """Stream ``lines`` to ``output`` (stdout when None), each ended by LF.

    Lines go out in batches because a write per line reaches a reading pipe
    in 8 KiB pieces, and the reader then holds many small chunks, which
    raises its peak memory.
    """
    lines = iter(lines)
    sink = open(output, "w", encoding="utf-8", newline="\n") if output else contextlib.nullcontext(sys.stdout)
    with sink as handle:
        while batch := list(itertools.islice(lines, _EMIT_BATCH)):
            handle.write("\n".join(batch) + "\n")


def _cmd_validate(args) -> int:
    report = model.check_stability(model.load_model(args.model), grid_size=args.grid)
    _emit([json.dumps(report.to_document(), indent=2)], args.output)
    return 0 if report.ok else 2


def _cmd_paths(args) -> int:
    g = model.process_graph(model.load_model(args.model))
    walks = graph.enumerate_paths(g, args.source, args.target, _split(args.avoid), args.max_cycle_depth)
    found = ("->".join(p.vertices) for p in walks)  # streamed: the walks are never held at once
    if args.format == "json":
        _emit([json.dumps(list(found), indent=2)], args.output)
    else:
        _emit(itertools.chain(["path"], found), args.output)
    return 0


def _cmd_transfer(args) -> int:
    m = model.load_model(args.model)
    if args.edge:
        edge = spectral.edge_transfer(m, args.source, args.target)
        omegas, (values,) = spectral._on_grid(args.grid, lambda om: (edge.evaluate(om),))
    else:
        ctf = spectral.cctf(m, args.source, args.target, _split(args.controls), args.grid)
        omegas, values = ctf.omegas, ctf.scalar_values()
    _emit(_spectral_lines(values, omegas, "H" if args.edge else "CCTF", args.source, args.target), args.output)
    return 0


def _matrix_lines(s) -> Iterator[str]:
    """S rows of a spectral matrix or Welch estimate."""
    omega, row, col = np.ix_(s.omegas, s.labels, s.labels)
    return _spectral_lines(s.values, omega, "S", row, col)


def _cmd_spectral(args) -> int:
    _emit(_matrix_lines(spectral.spectral_density(model.load_model(args.model), args.grid)), args.output)
    return 0


def _cmd_decompose(args) -> int:
    m = model.load_model(args.model)
    if args.by_source:
        split = spectral.decompose_by_source(m, args.ancestor, args.target, args.grid)
        decs, sources = [split.total, *split.sources.values()], list(split.sources)
    else:
        decs, sources = [spectral.decompose_spectrum(m, args.ancestor, args.target, args.grid)], []
    # blocks (total, then one per source) x omega x factor
    factors = ["causal", "confounding", "residual"]
    values = np.array([[getattr(dec, name) for name in factors] for dec in decs]).transpose(0, 2, 1)
    quantity = np.array([factors] + [[f"source:{source}"] * 3 for source in sources])[:, None, :]
    row = np.array([[args.ancestor] * 3] + [factors] * len(sources))[:, None, :]
    _emit(_spectral_lines(values, decs[0].omegas[:, None], quantity, row, args.target), args.output)
    return 0


def _cmd_acs(args) -> int:
    m = model.load_model(args.model)
    acs = filters.acs_via_sep(m, L_acs=args.lags, L_filter=args.filter_lags)
    _emit(_lag_lines(acs.values, *np.ix_(range(acs.max_lag + 1), acs.labels, acs.labels)), args.output)
    return 0


def _cmd_ccf(args) -> int:
    m = model.load_model(args.model)
    eff = filters.ccf(m, args.source, args.target, _split(args.controls), L=args.lags)
    _emit(_lag_lines(eff.scalar_values(), range(eff.start, eff.end + 1), args.source, args.target), args.output)
    return 0


def _cmd_simulate(args) -> int:
    m = model.load_model(args.model)
    traj = run_simulation(m, T=args.length, seed=args.seed, burn_in=args.burn_in)
    labels = traj.labels if args.include_latents else traj.labels[: traj.n_observed]
    data = traj.values if args.include_latents else traj.observed()
    rows = zip(map(str, range(traj.length)), *(map(repr, column) for column in data.T.tolist()))
    _emit(itertools.chain(["t," + ",".join(labels)], map(",".join, rows)), args.output)
    return 0


def _read_series_csv(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    with open(path, "r", encoding="utf-8") as handle:
        try:  # a UnicodeDecodeError is a ValueError, in the header or past it
            header = handle.readline().strip().split(",")
            if not header or header[0] != "t":
                raise SchemaError("series CSV must start with a 't' column")
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise SchemaError(f"malformed series CSV: {exc}") from None
    if data.shape[1] != len(header):
        raise SchemaError(f"series CSV rows have {data.shape[1]} fields, header has {len(header)}")
    return tuple(header[1:]), data[:, 1:]


def _cmd_estimate(args) -> int:
    labels, values = _read_series_csv(args.series)
    traj = Trajectory(
        labels=labels, n_observed=len(labels), values=values, seed=0, burn_in=0
    )
    est = welch_spectrum(
        traj, segment_len=args.segment_len, overlap=args.overlap, grid=args.grid
    )
    _emit(_matrix_lines(est), args.output)
    return 0


def _read_spectral_csv(path: str) -> spectral.SpectralMatrix:
    rows: dict[tuple[float, str, str], complex] = {}
    labels: dict[str, int] = {}  # first-appearance order
    omegas: dict[float, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline().strip()
            if header != SPECTRAL_HEADER:
                raise SchemaError("unexpected spectral CSV header")
            for line in map(str.strip, handle):
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 8:
                    raise SchemaError(f"spectral CSV row {line!r} has {len(parts)} fields, not 8")
                if parts[1] != "S":
                    continue
                try:
                    omega, re, im = float(parts[0]), float(parts[4]), float(parts[5])
                except ValueError:
                    raise SchemaError(f"non-numeric field in spectral CSV row {line!r}") from None
                if (omega, parts[2], parts[3]) in rows:
                    raise SchemaError(f"spectral CSV repeats the entry {line!r}")
                rows[(omega, parts[2], parts[3])] = complex(re, im)
                labels.setdefault(parts[2], len(labels))
                omegas.setdefault(omega, len(omegas))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"spectral CSV is not UTF-8: {exc}") from None
    values = np.zeros((len(omegas), len(labels), len(labels)), dtype=complex)
    for (omega, row, col), value in rows.items():
        if col not in labels:
            raise SchemaError(f"spectral CSV column {col!r} is never a row")
        values[omegas[omega], labels[row], labels[col]] = value
    if len(rows) != values.size:
        raise SchemaError(f"spectral CSV has {len(rows)} of {values.size} (omega, row, col) entries")
    return spectral.SpectralMatrix(labels=tuple(labels), omegas=np.asarray(list(omegas)), values=values)


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

    edges = np.array(list(result.edges))
    values = np.array(list(result.edges.values()))
    _emit(_spectral_lines(values, result.omegas, "H", edges[:, :1], edges[:, 1:]), args.output)
    flagged = {f"{src}->{dst}": result.flagged(src, dst).tolist() for src, dst in result.edges}
    flagged = {edge: bad for edge, bad in flagged.items() if bad}
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

    # parent parsers: each flag shared by several subcommands is declared once
    model_doc, grid, pair, controls = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    model_doc.add_argument("model")
    grid.add_argument("--grid", type=int, default=256)
    pair.add_argument("--from", dest="source", required=True)
    pair.add_argument("--to", dest="target", required=True)
    controls.add_argument("--controls", default=None)

    def add(name, fn, *parents, **kwargs):
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(fn=fn, usage_error=p.error)
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        return p

    add("validate", _cmd_validate, model_doc, grid, help="stability report (JSON)")

    p = add("paths", _cmd_paths, model_doc, pair, help="enumerate directed paths on the process graph")
    p.add_argument("--avoid", default=None, help="comma-separated vertices")
    p.add_argument("--max-cycle-depth", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add(
        "transfer", _cmd_transfer, model_doc, pair, controls, grid, help="causal transfer function between processes"
    )
    p.add_argument("--edge", action="store_true", help="emit the raw edge function instead")

    add("spectral", _cmd_spectral, model_doc, grid, help="analytic spectral density matrix")

    p = add("decompose", _cmd_decompose, model_doc, grid, help="causal / confounding / residual split")
    p.add_argument("--ancestor", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--by-source", action="store_true")

    p = add("acs", _cmd_acs, model_doc, help="auto-covariance sequence (CSV)")
    p.add_argument("--lags", type=int, default=64)
    p.add_argument("--filter-lags", type=int, default=128)

    p = add("ccf", _cmd_ccf, model_doc, pair, controls, help="controlled causal effect filter (CSV)")
    p.add_argument("--lags", type=int, default=128)

    p = add("simulate", _cmd_simulate, model_doc, help="sample a trajectory (CSV)")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=1024)
    p.add_argument("--include-latents", action="store_true")

    p = add("estimate", _cmd_estimate, grid, help="Welch spectral estimate from a series CSV")
    p.add_argument("series")
    p.add_argument("--segment-len", type=int, default=4096)
    p.add_argument("--overlap", type=float, default=0.5)

    p = add("identify", _cmd_identify, grid, help="recover edge transfer functions")
    p.add_argument("model", nargs="?", default=None)
    p.add_argument("--method", choices=("frontdoor", "instrument", "unconfounded"), required=True)
    p.add_argument("--labels", default=None, help="X,W,Y roles for frontdoor/instrument")
    p.add_argument("--target", default=None, help="regression target for unconfounded")
    p.add_argument("--spectrum", default=None, help="spectral CSV instead of a model")

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

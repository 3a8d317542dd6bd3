"""Run one `svarpg` command with every public call traced.

Usage: python cli_child.py SPANS_JSON SUBCOMMAND [ARGS...]

Records a span for the package import and installs the benchmark's tracer
before handing the arguments to ``svarpg.cli.run``; the spans go to
SPANS_JSON when the command ends, for the parent to attach below its own
span for this subprocess.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(pass_id="child")
    with tracer.span("child_import", "cli"):
        import svarpg.cli
    tracer.install()
    try:
        code = svarpg.cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main())

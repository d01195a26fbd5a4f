"""Command-line surface.

Exit codes: 0 success (also for --help), 1 parse error (malformed input,
or a usage error such as an unknown option or `--cap 1.5`, reported
after the usage line), 2 precondition violation (e.g. an ideal that is
not quasi-equigenerated), 3 resource cap exceeded, 4 a `verify` row
failed (the report is still printed and the counterexamples still
written), 5 an internal invariant was violated (an ArithmeticError, e.g.
the forest enumeration disagreeing with the matrix-tree count, or an
h-polynomial above its degree bound).  Output is assembled fully before
printing, so fatal errors never leave partial reports behind.

Each command imports only what it runs: only the `verify` branch loads
the verify harness and its worker pool, `ideal analyze` loads neither the
graph nor the matroid module, and `graph classify` not the matroid module.
"""

import argparse
import os
import sys
from pathlib import Path

from .errors import ParseError, PreconditionError, ResourceCapError, cap_vertex_pairs
from .formats import dump_json, parse_graph, parse_ideal
from .reports import graph_report, ideal_report, matroid_report, render_table

EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3
EXIT_VERIFY_FAILED = 4
EXIT_INTERNAL = 5


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors, in every subcommand, are parse
    errors (exit 1) rather than argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def _common_flags(parser):
    parser.add_argument(
        "--format", choices=["json", "table"], default="json",
        help="output format (json is the stable machine format)",
    )
    parser.add_argument(
        "--no-timing", action="store_true", help="omit timing metadata"
    )
    parser.add_argument(
        "--cap", type=int, default=None,
        help="resource guard on enumerations (default 10^6; FREIMAN_CAP overrides)",
    )


def build_parser():
    parser = _Parser(
        prog="freiman",
        description=(
            "Decide Freiman ideals by exact sumset arithmetic and classify "
            "Freiman graphs and cycle matroids."
        ),
    )
    sub = parser.add_subparsers(dest="topic", required=True)

    ideal = sub.add_parser("ideal", help="monomial-ideal commands")
    ideal_sub = ideal.add_subparsers(dest="action", required=True)
    analyze = ideal_sub.add_parser("analyze", help="fiber-cone analysis of an ideal")
    analyze.add_argument("file", help="ideal file (monomial list or JSON vectors)")
    analyze.add_argument(
        "--max-power", type=int, default=4, metavar="K",
        help="compute the generator series up to I^K (default 4)",
    )
    _common_flags(analyze)

    graph = sub.add_parser("graph", help="edge-ideal commands")
    graph_sub = graph.add_subparsers(dest="action", required=True)
    gclassify = graph_sub.add_parser("classify", help="Freiman-graph classification")
    gclassify.add_argument("file", help="graph file (JSON or 'p n m' edge list)")
    _common_flags(gclassify)

    matroid = sub.add_parser("matroid", help="cycle-matroid commands")
    matroid_sub = matroid.add_subparsers(dest="action", required=True)
    mclassify = matroid_sub.add_parser("classify", help="Freiman-matroid classification")
    mclassify.add_argument("file", help="graph file (JSON or 'p n m' edge list)")
    mclassify.add_argument(
        "--hvector", action="store_true",
        help="also compute the base-ring h-polynomial and regularity",
    )
    _common_flags(mclassify)

    verify = sub.add_parser(
        "verify", help="cross-validate classifiers against the numeric oracle"
    )
    verify.add_argument("--max-vertices", type=int, default=6, metavar="N")
    verify.add_argument("--max-edges", type=int, default=6, metavar="M",
                        help="edge bound for the matroid rows")
    verify.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    verify.add_argument("--count", type=int, default=200, metavar="C",
                        help="number of random graphs (random mode)")
    verify.add_argument("--seed", type=int, default=0, metavar="S")
    verify.add_argument("--up-to-iso", action="store_true",
                        help="skip non-canonical labelings in exhaustive mode")
    verify.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: up to 4; at most the CPU count)")
    verify.add_argument("--dump-dir", default=".", metavar="DIR",
                        help="where counterexample files are written")
    _common_flags(verify)

    return parser


def _resolve_cap(args):
    """--cap, else FREIMAN_CAP, else None (the default cap); whichever is
    given must be an integer >= 1."""
    if args.cap is not None:
        source, raw = "--cap", str(args.cap)
    else:
        source, raw = "FREIMAN_CAP", os.environ.get("FREIMAN_CAP", "")
        if not raw:
            return None
    try:
        cap = int(raw) if raw.isdecimal() else 0
    except ValueError:  # int() refuses more than 4300 digits
        raise ParseError(f"{source}: number too long")
    if cap < 1:
        raise ParseError(f"{source} must be an integer >= 1, got {raw!r}")
    return cap


def _resolve_jobs(jobs):
    """--jobs: None keeps the default; otherwise an integer >= 1, which
    run_verify clamps to the CPU count."""
    if jobs is not None and jobs < 1:
        raise ParseError(f"--jobs must be an integer >= 1, got {jobs}")
    return jobs


def _read_file(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")


def _read_graph(path, cap):
    """The graph in the file at path, within the vertex-pair guard."""
    g = parse_graph(_read_file(path))
    cap_vertex_pairs(g.n, cap)
    return g


def _emit(report, fmt):
    text = dump_json(report) if fmt == "json" else render_table(report)
    sys.stdout.write(text)


def _dispatch(args):
    cap = _resolve_cap(args)
    if args.topic == "ideal":
        ideal = parse_ideal(_read_file(args.file), cap)
        if args.max_power < 2:
            raise PreconditionError("--max-power must be at least 2")
        report = ideal_report(
            ideal, args.max_power, cap=cap, no_timing=args.no_timing
        )
    elif args.topic == "graph":
        g = _read_graph(args.file, cap)
        report = graph_report(g, cap=cap, no_timing=args.no_timing)
    elif args.topic == "matroid":
        g = _read_graph(args.file, cap)
        report = matroid_report(
            g, with_hvector=args.hvector, cap=cap, no_timing=args.no_timing
        )
    else:
        from .verify import run_verify

        if not Path(args.dump_dir).is_dir():
            raise ParseError(f"--dump-dir {args.dump_dir} is not a directory")
        report = run_verify(
            mode=args.mode,
            max_vertices=args.max_vertices,
            max_edges=args.max_edges,
            count=args.count,
            seed=args.seed,
            cap=cap,
            up_to_iso=args.up_to_iso,
            jobs=_resolve_jobs(args.jobs),
            no_timing=args.no_timing,
        )
        _write_counterexamples(report, args.dump_dir)
    _emit(report, args.format)
    return 0 if report.get("all_passed", True) else EXIT_VERIFY_FAILED


def _write_counterexamples(report, dump_dir):
    for i, entry in enumerate(report.get("counterexamples", [])):
        path = Path(dump_dir) / f"counterexample-{entry['row']}-{i}.json"
        path.write_text(dump_json(entry["graph"]))


def main(argv=None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ArithmeticError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

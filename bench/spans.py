"""Per-layer tracing from outside the package.

A Tracer replaces the public entry points of each freiman module (and the
private helpers the per-layer table names) with wrappers that record a
span per call and exact work counters.  A function imported into several
modules is replaced in every namespace that binds it, so calls made from
verify, matroids or reports are seen too.  Nothing under src/ changes.

A span's self time is its duration minus the time covered by the spans it
caused.  The time a wrapper spends on its own counters is charged to
neither the span nor its parent.
"""

import importlib
import sys
from collections import Counter
from math import comb
from time import perf_counter_ns

# (module, attribute, span name).  Report spans also scope the
# per-report call counters.
TARGETS = [
    ("fiber", "mu_series", "fiber.mu_series"),
    ("fiber", "is_freiman", "fiber.is_freiman"),
    ("fiber", "check_growth_identities", "fiber.check_growth_identities"),
    ("lattice", "affine_dim", "lattice.affine_dim"),
    ("lattice", "sumset", "lattice.sumset"),
    ("linalg", "integer_rank", "linalg.integer_rank"),
    ("linalg", "integer_det", "linalg.integer_det"),
    ("linalg", "positive_nullspace_vector", "linalg.positive_nullspace_vector"),
    ("ideals", "with_witness", "ideals.with_witness"),
    ("ideals", "power", "ideals.power"),
    ("ideals", "minimalize", "ideals.minimalize"),
    ("graphs", "classify_freiman_graph", "graphs.classify_freiman_graph"),
    ("graphs", "edge_ideal", "graphs.edge_ideal"),
    ("graphs", "_four_cycle_union_edges", "graphs.four_cycle_union"),
    ("graphs", "_adjacency", "graphs.adjacency"),
    ("graphs", "_simple_cycles", "graphs.simple_cycles"),
    ("graphs", "is_polynomial_edge_ring", "graphs.is_polynomial_edge_ring"),
    ("matroids", "spanning_forests", "matroids.spanning_forests"),
    ("matroids", "matrix_tree_count", "matroids.matrix_tree_count"),
    ("matroids", "classify_freiman_matroid", "matroids.classify_freiman_matroid"),
    ("matroids", "base_ring_h_polynomial", "matroids.base_ring_h_polynomial"),
    ("matroids", "matroid_spread_formula", "matroids.matroid_spread_formula"),
    ("verify", "run_verify", "verify.run_verify"),
    ("reports", "ideal_report", "reports.ideal_report"),
    ("reports", "graph_report", "reports.graph_report"),
    ("reports", "matroid_report", "reports.matroid_report"),
    ("formats", "parse_graph", "formats.parse_graph"),
    ("formats", "parse_ideal", "formats.parse_ideal"),
    ("formats", "dump_json", "formats.dump_json"),
    ("cli", "main", "cli.main"),
]

REPORT_SPANS = {"reports.ideal_report", "reports.graph_report", "reports.matroid_report"}

# name -> (unit, exact).  Exact metrics are counts that must repeat
# bit-for-bit on every run of the same code and inputs.
LAYER_METRICS = {
    "fiber.mu_series.calls": ("count", True),
    "fiber.mu_series.self_s": ("s", False),
    "fiber.mu_series.pair_adds": ("count", True),
    "fiber.mu_series.points_out": ("count", True),
    "fiber.mu_series.distinct_ratio": ("ratio", True),
    "fiber.mu_series.cap_errors": ("count", True),
    "fiber.is_freiman.self_s": ("s", False),
    "fiber.check_growth_identities.self_s": ("s", False),
    "lattice.affine_dim.calls": ("count", True),
    "lattice.affine_dim.self_s": ("s", False),
    "lattice.affine_dim.points_in": ("count", True),
    "lattice.sumset.calls": ("count", True),
    "lattice.sumset.self_s": ("s", False),
    "lattice.sumset.points_out": ("count", True),
    "linalg.integer_rank.calls": ("count", True),
    "linalg.integer_rank.self_s": ("s", False),
    "linalg.integer_rank.entries": ("count", True),
    "linalg.integer_det.calls": ("count", True),
    "linalg.integer_det.self_s": ("s", False),
    "linalg.positive_nullspace_vector.self_s": ("s", False),
    "ideals.with_witness.calls": ("count", True),
    "ideals.with_witness.self_s": ("s", False),
    "ideals.power.calls": ("count", True),
    "ideals.power.self_s": ("s", False),
    "ideals.minimalize.calls": ("count", True),
    "ideals.minimalize.self_s": ("s", False),
    "graphs.classify_freiman_graph.calls": ("count", True),
    "graphs.classify_freiman_graph.self_s": ("s", False),
    "graphs.edge_ideal.self_s": ("s", False),
    "graphs.four_cycle_union.self_s": ("s", False),
    "graphs.four_cycle_union.calls_per_graph": ("ratio", True),
    "graphs.adjacency.calls_per_graph": ("ratio", True),
    "graphs.simple_cycles.self_s": ("s", False),
    "graphs.simple_cycles.cycles_out": ("count", True),
    "graphs.is_polynomial_edge_ring.self_s": ("s", False),
    "graphs.input_graphs": ("count", True),
    "matroids.spanning_forests.calls": ("count", True),
    "matroids.spanning_forests.self_s": ("s", False),
    "matroids.spanning_forests.forests_out": ("count", True),
    "matroids.spanning_forests.subsets_scanned": ("count", True),
    "matroids.spanning_forests.forests_per_subset": ("ratio", True),
    "matroids.matrix_tree_count.self_s": ("s", False),
    "matroids.classify_freiman_matroid.self_s": ("s", False),
    "matroids.base_ring_h_polynomial.self_s": ("s", False),
    "matroids.matroid_spread_formula.self_s": ("s", False),
    "verify.run_verify.self_s": ("s", False),
    "verify.masks_scanned": ("count", True),
    "verify.graphs_per_mask": ("ratio", True),
    "verify.row_skips": ("count", True),
    "reports.ideal_report.self_s": ("s", False),
    "reports.graph_report.self_s": ("s", False),
    "reports.matroid_report.self_s": ("s", False),
    "reports.mu_series_calls_per_report": ("ratio", True),
    "reports.spanning_forests_calls_per_report": ("ratio", True),
    "formats.parse_graph.self_s": ("s", False),
    "formats.parse_ideal.self_s": ("s", False),
    "formats.dump_json.self_s": ("s", False),
    "cli.import_ms": ("ms", False),
    "cli.main_ms": ("ms", False),
    "trace.overhead_ratio": ("ratio", False),
    "host.calib_s": ("s", False),
}


def _mu_series_counts(counts, args, series):
    m = series[1]
    adds = 0
    for k in range(2, len(series)):
        adds += m * (m + 1) // 2 if k == 2 else series[k - 1] * m
    counts["fiber.mu_series.pair_adds"] += adds
    counts["fiber.mu_series.points_out"] += sum(series[2:])


def _subsets_scanned(g):
    """Sum of C(m_c, n_c - 1) over the edge-bearing components of g: the
    edge subsets the seed's spanning-forest scan tests."""
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[find(u)] = find(v)
    verts = {}
    edges = {}
    for v in range(1, g.n + 1):
        r = find(v)
        verts[r] = verts.get(r, 0) + 1
    for u, _ in g.edges:
        r = find(u)
        edges[r] = edges.get(r, 0) + 1
    return sum(comb(m, verts[r] - 1) for r, m in edges.items())


def _spanning_forest_counts(counts, args, forests):
    counts["matroids.spanning_forests.forests_out"] += len(forests)
    counts["matroids.spanning_forests.subsets_scanned"] += _subsets_scanned(args[0])


def _integer_rank_counts(counts, args, _):
    rows = args[0]
    counts["linalg.integer_rank.entries"] += len(rows) * len(rows[0]) if rows else 0


def _affine_dim_counts(counts, args, _):
    counts["lattice.affine_dim.points_in"] += len(args[0])


def _sumset_counts(counts, _, result):
    counts["lattice.sumset.points_out"] += len(result)


def _simple_cycle_counts(counts, _, cycles):
    counts["graphs.simple_cycles.cycles_out"] += len(cycles)


# span name -> counts(counts, args, result), run after each successful call
COUNTERS = {
    "fiber.mu_series": _mu_series_counts,
    "lattice.affine_dim": _affine_dim_counts,
    "lattice.sumset": _sumset_counts,
    "linalg.integer_rank": _integer_rank_counts,
    "graphs.simple_cycles": _simple_cycle_counts,
    "matroids.spanning_forests": _spanning_forest_counts,
}

# calls counted only while a report span is open
PER_REPORT = {
    "fiber.mu_series": "reports.mu_series_calls",
    "matroids.spanning_forests": "reports.spanning_forests_calls",
}


class _Stat:
    __slots__ = ("calls", "self_ns", "cap_errors")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.cap_errors = 0


class Tracer:
    """Install with `with Tracer() as t:`; the package is restored on exit."""

    def __init__(self):
        self.stats = {name: _Stat() for _, _, name in TARGETS}
        self.counts = Counter()
        self._open = []  # per open span: time covered by its child spans
        self._report_depth = 0
        self._patched = []

    def _wrap(self, name, fn, cap_error):
        stat = self.stats[name]
        counts = self.counts
        count = COUNTERS.get(name)
        per_report = PER_REPORT.get(name)
        is_report = name in REPORT_SPANS
        open_spans = self._open
        clock = perf_counter_ns
        tracer = self

        def close(start, end):
            stat.calls += 1
            stat.self_ns += end - start - open_spans.pop()
            if open_spans:
                open_spans[-1] += clock() - start

        def wrapper(*args, **kwargs):
            if per_report and tracer._report_depth:
                counts[per_report] += 1
            if is_report:
                tracer._report_depth += 1
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if isinstance(exc, cap_error):
                    stat.cap_errors += 1
                close(start, clock())
                raise
            finally:
                if is_report:
                    tracer._report_depth -= 1
            end = clock()
            if count is not None:
                count(counts, args, result)
            close(start, end)
            return result

        return wrapper

    def __enter__(self):
        from freiman.errors import ResourceCapError

        for module in {module for module, _, _ in TARGETS}:
            importlib.import_module("freiman." + module)
        modules = [
            m for key, m in sys.modules.items()
            if key == "freiman" or key.startswith("freiman.")
        ]
        for module, attr, name in TARGETS:
            original = getattr(sys.modules["freiman." + module], attr)
            wrapper = self._wrap(name, original, ResourceCapError)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    setattr(m, key, wrapper)
                    self._patched.append((m, key, original))
        return self

    def __exit__(self, *exc):
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()
        return False

    def metrics(self, graphs_in, masks_scanned, row_skips, graphs_checked):
        """Every traced metric that comes from spans and counters; the
        caller adds cli.*, trace.overhead_ratio and host.calib_s."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_ns / 1e9
        c = self.counts
        out["fiber.mu_series.cap_errors"] = self.stats["fiber.mu_series"].cap_errors
        for key in (
            "fiber.mu_series.pair_adds",
            "fiber.mu_series.points_out",
            "lattice.affine_dim.points_in",
            "lattice.sumset.points_out",
            "linalg.integer_rank.entries",
            "graphs.simple_cycles.cycles_out",
            "matroids.spanning_forests.forests_out",
            "matroids.spanning_forests.subsets_scanned",
        ):
            out[key] = c[key]
        out["fiber.mu_series.distinct_ratio"] = _ratio(
            c["fiber.mu_series.points_out"], c["fiber.mu_series.pair_adds"]
        )
        out["matroids.spanning_forests.forests_per_subset"] = _ratio(
            c["matroids.spanning_forests.forests_out"],
            c["matroids.spanning_forests.subsets_scanned"],
        )
        out["graphs.input_graphs"] = graphs_in
        out["graphs.four_cycle_union.calls_per_graph"] = _ratio(
            self.stats["graphs.four_cycle_union"].calls, graphs_in
        )
        out["graphs.adjacency.calls_per_graph"] = _ratio(
            self.stats["graphs.adjacency"].calls, graphs_in
        )
        out["verify.masks_scanned"] = masks_scanned
        out["verify.graphs_per_mask"] = _ratio(graphs_checked, masks_scanned)
        out["verify.row_skips"] = row_skips
        # every report kind computes mu-series; only matroid reports
        # enumerate forests, so that ratio is per matroid report
        reports = sum(self.stats[name].calls for name in REPORT_SPANS)
        out["reports.mu_series_calls_per_report"] = _ratio(
            c["reports.mu_series_calls"], reports
        )
        out["reports.spanning_forests_calls_per_report"] = _ratio(
            c["reports.spanning_forests_calls"], self.stats["reports.matroid_report"].calls
        )
        return {k: v for k, v in out.items() if k in LAYER_METRICS}


def _ratio(num, den):
    return num / den if den else 0.0

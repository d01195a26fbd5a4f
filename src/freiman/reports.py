"""Report assembly for the command-line surface.

Reports are plain dicts with a fixed field order so that identical inputs
produce byte-identical JSON; timing is attached last and suppressed by
--no-timing.  The JSON shape is the stable machine format; the table
rendering is for humans only.
"""

import time

from .fiber import check_growth_identities, fiber_profile, is_freiman
from .formats import graph_to_dict, monomial_to_string
from .ideals import MonomialIdeal, with_witness


def profile_to_dict(profile) -> dict:
    return {
        "analytic_spread": profile.ell,
        "mu_series": list(profile.mu_series),
        "h_partial": list(profile.h_partial),
        "freiman": profile.freiman,
        "doubling_bound": profile.bound2,
        "h2": profile.h2,
    }


def _finish(report, started, no_timing):
    if not no_timing:
        report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    return report


def ideal_report(ideal: MonomialIdeal, max_power: int, cap=None, no_timing=False) -> dict:
    """Full analysis of one ideal: witness, Freiman verdict, generator
    series, h-vector prefix, and per-power bound checks."""
    started = time.perf_counter()
    ideal = with_witness(ideal)
    a, d = ideal.witness
    growth = check_growth_identities(ideal, max_power, cap=cap)
    profile = fiber_profile(growth.mu, growth.ell)
    report = {
        "command": "ideal-analyze",
        "input": {
            "ambient_dim": ideal.ambient_dim,
            "mu": ideal.mu,
            "generators": [
                monomial_to_string(v) for v in ideal.generators.sorted_points()
            ],
            "witness": {"weights": list(a), "degree": d},
        },
        "fiber": profile_to_dict(profile),
        "series": {
            "max_power": max_power,
            "mu_series": list(growth.mu),
            "h_vector": list(growth.h),
            "h_known_up_to": max_power,
        },
        "growth": [
            {"k": row.k, "mu_k": row.mu_k, "lower_bound": row.lower_bound,
             "equality": row.equality, "partial_sum": row.partial_sum,
             "nonnegative": row.nonnegative}
            for row in growth.rows
        ],
    }
    return _finish(report, started, no_timing)


def graph_report(g: "SimpleGraph", cap=None, no_timing=False) -> dict:
    """Combinatorial classification of a graph next to the numeric oracle
    on its edge ideal, with their agreement made explicit."""
    from .graphs import classify_freiman_graph, cyclomatic_number, edge_ideal, is_bipartite

    started = time.perf_counter()
    verdict = classify_freiman_graph(g, cap=cap)
    report = {
        "command": "graph-classify",
        "input": {
            **graph_to_dict(g),
            "num_components": len(g.component_colorings),
            "cyclomatic_number": cyclomatic_number(g),
            "bipartite": is_bipartite(g) is not None,
        },
        "verdict": {
            "freiman": verdict.freiman,
            "reason": verdict.reason,
            "witness": verdict.witness,
        },
    }
    if g.edges:
        profile = is_freiman(edge_ideal(g), cap=cap)
        report["fiber"] = profile_to_dict(profile)
        report["agreement"] = profile.freiman == verdict.freiman
    return _finish(report, started, no_timing)


def matroid_report(g: "SimpleGraph", with_hvector=False, cap=None, no_timing=False) -> dict:
    """Closed-form cycle-matroid verdict next to the numeric oracle, whose
    analytic spread is spread_numeric (0 without edges); optionally the
    full base-ring h-polynomial and regularity."""
    from .matroids import (
        base_ring_h_polynomial, classify_freiman_matroid, cycle_matroid, matroidal_ideal,
    )

    started = time.perf_counter()
    verdict = classify_freiman_matroid(g)
    report = {
        "command": "matroid-classify",
        "input": graph_to_dict(g),
        "verdict": {
            "freiman": verdict.freiman,
            "total_cycles_bound": verdict.total_cycles_bound,
            "spread_formula": verdict.spread_formula,
            "spread_numeric": 0,
            "regularity": None,
        },
    }
    if g.edges:
        matroid = cycle_matroid(g, cap=cap)
        report["matroid"] = {
            "ground_size": len(matroid.ground),
            "ground": [list(e) for e in matroid.ground],
            "num_bases": len(matroid.bases),
            "basis_size": len(matroid.bases[0]),
            "bases": [list(b) for b in matroid.bases],
        }
        profile = is_freiman(matroidal_ideal(g, cap=cap), cap=cap)
        report["verdict"]["spread_numeric"] = profile.ell
        report["fiber"] = profile_to_dict(profile)
        report["agreement"] = profile.freiman == verdict.freiman
        if with_hvector:
            h = base_ring_h_polynomial(g, cap=cap)
            report["h_polynomial"] = list(h)
            report["verdict"]["regularity"] = len(h)
    return _finish(report, started, no_timing)


def _format_value(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    if value is None:
        return "-"
    return str(value)


def render_table(report: dict) -> str:
    """Human-readable rendering of any report dict: nested keys become
    indented sections, lists of dicts become aligned tables."""
    lines = []

    def emit(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v and not _scalar_list(v):
                    lines.append(f"{prefix}{k}:")
                    emit(prefix + "  ", v)
                else:
                    lines.append(f"{prefix}{k}: {_format_value(v)}")
        elif isinstance(obj, list):
            if obj and all(isinstance(r, dict) for r in obj):
                headers = list(obj[0].keys())
                rows = [[_format_value(r.get(h)) for h in headers] for r in obj]
                widths = [
                    max(len(h), *(len(row[i]) for row in rows))
                    for i, h in enumerate(headers)
                ]
                for row in [headers, *rows]:
                    lines.append(prefix + "  ".join(map(str.ljust, row, widths)))
            else:
                for v in obj:
                    lines.append(f"{prefix}- {_format_value(v)}")

    def _scalar_list(v):
        return isinstance(v, list) and all(
            not isinstance(x, (dict, list)) for x in v
        )

    emit("", report)
    return "\n".join(lines) + "\n"

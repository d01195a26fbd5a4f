"""The cross-validation harness itself."""

import pytest

from freiman.errors import PreconditionError
from freiman.verify import (
    ALL_ROWS,
    _is_canonical_mask,
    random_graph,
    run_verify,
)
import random

from itertools import combinations


def test_exhaustive_small_sweep_passes():
    report = run_verify(mode="exhaustive", max_vertices=4, jobs=1, no_timing=True)
    assert report["all_passed"] is True
    by_name = {row["name"]: row for row in report["rows"]}
    assert set(by_name) == set(ALL_ROWS)
    # 1 + 4 + 38 connected labeled graphs on 2..4 vertices
    assert by_name["graph-classifier-vs-numeric"]["instances"] == 43
    assert report["graphs_checked"] == 43
    assert all(row["failures"] == 0 for row in report["rows"])


def test_exhaustive_sweep_parallel_matches_serial():
    serial = run_verify(mode="exhaustive", max_vertices=5, jobs=1, no_timing=True)
    parallel = run_verify(mode="exhaustive", max_vertices=5, jobs=2, no_timing=True)
    assert serial == parallel


def test_random_mode_is_deterministic():
    a = run_verify(mode="random", count=30, seed=11, max_vertices=7, jobs=1,
                   no_timing=True)
    b = run_verify(mode="random", count=30, seed=11, max_vertices=7, jobs=2,
                   no_timing=True)
    assert a == b
    assert a["all_passed"] is True


def test_random_graphs_cover_disconnected():
    rng = random.Random(3)
    graphs = [random_graph(rng, 8) for _ in range(60)]
    assert all(g.num_edges >= 1 for g in graphs)
    from freiman import components

    assert any(
        len([c for c in components(g) if c.num_edges > 0]) > 1 for g in graphs
    )


def test_up_to_iso_counts_isomorphism_classes():
    report = run_verify(
        mode="exhaustive", max_vertices=4, jobs=1, up_to_iso=True, no_timing=True
    )
    # connected graphs up to isomorphism: 1 (n=2), 2 (n=3), 6 (n=4)
    assert report["graphs_checked"] == 9
    assert report["all_passed"] is True


def test_canonical_mask_is_unique_per_class():
    n = 4
    pairs = list(combinations(range(1, n + 1), 2))
    canonical = [
        mask
        for mask in range(1, 1 << len(pairs))
        if _is_canonical_mask(n, mask, pairs)
    ]
    # all graphs (connected or not) with >= 1 edge on exactly 4 labeled
    # vertices: 11 isomorphism classes minus the empty one
    assert len(canonical) == 10


def test_random_mode_needs_two_vertices():
    with pytest.raises(PreconditionError):
        run_verify(mode="random", max_vertices=1, count=3, jobs=1, no_timing=True)


def test_runs_that_would_check_no_graph_are_refused():
    with pytest.raises(PreconditionError, match="max-vertices"):
        run_verify(mode="exhaustive", max_vertices=1, jobs=1, no_timing=True)
    with pytest.raises(PreconditionError, match="count"):
        run_verify(mode="random", count=0, jobs=1, no_timing=True)

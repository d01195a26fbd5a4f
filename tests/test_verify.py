"""The cross-validation harness itself."""

import json
import random
from functools import reduce
from itertools import combinations
from pathlib import Path

import pytest

from freiman import verify
from freiman.cli import main
from freiman.errors import DEFAULT_CAP, PreconditionError, ResourceCapError, lazy
from freiman.fiber import is_freiman
from freiman.graphs import SimpleGraph, classify_freiman_graph, edge_ideal
from freiman.lattice import _packed_sum
from freiman.linalg import integer_rank
from freiman.verify import (
    ALL_ROWS,
    _NO_EDGES,
    _Tally,
    _check_graph_instance,
    _check_matroid_instance,
    _edge_step,
    _grow,
    _is_canonical_mask,
    _merge_results,
    _random_chunk,
    _sweep_chunk,
    random_graph,
    run_verify,
)
from helpers import bench_module


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


def _chunk(n, lo, hi, cap=DEFAULT_CAP):
    return (n, lo, hi, cap, 6, False)


def _numbers(profile):
    return profile.mu_series[1], profile.mu_series[2], profile.ell


def _oracle_numbers(oracle):
    """(mu(I), mu(I^2), ell) held by a walk's oracle state."""
    codes, doubling, basis = oracle
    return len(codes), len(doubling), len(basis)


def test_walk_oracle_matches_is_freiman_on_small_graphs(monkeypatch):
    seen = []

    def record(g, oracle, tally, cap):
        seen.append((g, _oracle_numbers(oracle)))

    monkeypatch.setattr(verify, "_check_graph_instance", record)
    monkeypatch.setattr(verify, "_check_matroid_instance", lambda *args: None)
    for n in range(2, 6):
        start = len(seen)
        _sweep_chunk(_chunk(n, 0, 1 << n * (n - 1) // 2))
        # pre-order visits the masks in increasing order
        bit = {e: i for i, e in enumerate(combinations(range(1, n + 1), 2))}
        masks = [sum(1 << bit[e] for e in g.edges) for g, _ in seen[start:]]
        assert masks == sorted(masks)
    # 1 + 4 + 38 + 728 connected labeled graphs on 2..5 vertices
    assert len(seen) == 771
    for g, numbers in seen:
        assert numbers == _numbers(is_freiman(edge_ideal(g))), g


def test_chunk_root_oracle_matches_is_freiman_at_n6(monkeypatch):
    n = 6
    pairs = list(combinations(range(1, n + 1), 2))
    chunks = [args for args in _exhaustive_chunks(monkeypatch, n) if args[1]]
    assert len(chunks) == 7  # eight aligned blocks; the first root is edgeless
    for _, lo, _, *_ in chunks:
        bits = [i for i in range(len(pairs)) if lo >> i & 1]
        g = SimpleGraph(n, frozenset(pairs[i] for i in bits))
        oracle = reduce(_grow, [_edge_step(n, *pairs[i]) for i in bits], _NO_EDGES)
        assert _oracle_numbers(oracle) == _numbers(
            is_freiman(edge_ideal(g))
        ), lo


def _exhaustive_chunks(monkeypatch, n, jobs=1):
    """The chunk arguments run_verify builds for n vertices, read off a
    stubbed sweep."""
    chunks = []

    def stub(args):
        chunks.append(args)
        return {name: [0, 0, 0] for name in ALL_ROWS}, [], 0

    monkeypatch.setattr(verify, "_sweep_chunk", stub)
    monkeypatch.setattr(verify, "_run_chunks", lambda worker, args, jobs: list(map(worker, args)))
    run_verify(max_vertices=n, jobs=jobs, no_timing=True)
    return [args for args in chunks if args[0] == n]


def test_exhaustive_chunks_are_aligned_power_of_two_blocks(monkeypatch):
    for n, jobs in ((5, 1), (6, 1), (7, 1), (7, 2), (7, 3)):
        chunks = _exhaustive_chunks(monkeypatch, n, jobs)
        total = 1 << n * (n - 1) // 2
        assert chunks[0][1] == 0 and chunks[-1][2] == total
        for (_, lo, hi, *_), (_, nxt, _, *_) in zip(chunks, chunks[1:] + [(0, total, 0)]):
            size = hi - lo
            assert size & size - 1 == 0 and lo % size == 0 and hi == nxt


def test_split_aligned_blocks_sum_to_one_block():
    whole = _merge_results([_sweep_chunk(_chunk(5, 0, 1024))])
    for bounds in ([0, 256, 512, 768, 1024], [0, 512, 768, 896, 960, 1024]):
        parts = _merge_results(
            [_sweep_chunk(_chunk(5, lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        )
        assert parts[0].rows == whole[0].rows
        assert parts[0].counterexamples == whole[0].counterexamples
        assert parts[1] == whole[1] == 728


# recorded at the commit before the walk, where the oracle was
# is_freiman(edge_ideal(g)) on each graph
SUMSET_CAP_MESSAGE = "resource cap exceeded: sumset at power 2 exceeds {} points (cap {})"


def test_small_caps_raise_as_before():
    for cap, lo, hi in ((20, 0, 1024), (40, 512, 1024), (40, 768, 1024)):
        with pytest.raises(ResourceCapError) as exc:
            _sweep_chunk(_chunk(5, lo, hi, cap))
        assert str(exc.value) == SUMSET_CAP_MESSAGE.format(cap, cap)
        assert exc.value.cap == cap
    assert _sweep_chunk(_chunk(5, 0, 512, 40))[2] == 314
    with pytest.raises(ResourceCapError) as exc:
        run_verify(max_vertices=4, cap=15, jobs=1, no_timing=True)
    assert str(exc.value) == SUMSET_CAP_MESSAGE.format(15, 15)
    report = run_verify(max_vertices=4, cap=19, jobs=1, no_timing=True)
    assert report["graphs_checked"] == 43
    assert [row["skipped"] for row in report["rows"]] == [
        0, 0, 0, 0, 0, 0, 12, 22, 22, 22, 22, 7, 7, 7, 10, 7,
    ]


def test_graph_rows_do_not_stop_at_the_cycle_cap():
    # the dodecahedron GP(10, 2) has no 4-cycle, so its verdict is
    # witness-long-walk; its 1,168 simple cycles pass cap 500 where its
    # 2A of 465 points does not.  The rows read the verdict alone, so they
    # are recorded where classify_freiman_graph's witness search stops.
    ring = [(i, i % 10 + 1) for i in range(1, 11)]
    spokes = [(i, i + 10) for i in range(1, 11)]
    star = [(i + 10, (i + 1) % 10 + 11) for i in range(1, 11)]
    edges = sorted(tuple(sorted(e)) for e in ring + spokes + star)
    g = SimpleGraph(20, frozenset(edges))
    with pytest.raises(ResourceCapError, match="more than 500 simple cycles"):
        classify_freiman_graph(g, cap=500)
    gd = {"n": 20, "edges": [list(e) for e in edges]}
    rows, counterexamples, seen = _random_chunk(([gd], 500, 6))
    assert seen == 1 and counterexamples == []
    # not bipartite and not polynomial, with 20 vertices and 30 edges: the
    # other graph rows run, and the deep and matroid rows do not
    skipped = {"bipartite-rule-vs-general", "polynomial-growth-forward"}
    assert {name: row for name, row in rows.items() if any(row)} == {
        name: [1, 0, 0] for name in verify.GRAPH_ROWS if name not in skipped
    }


def test_mask_count_is_capped_before_the_sweep(monkeypatch):
    def no_sweep(args):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(verify, "_sweep_chunk", no_sweep)
    with pytest.raises(ResourceCapError, match="edge masks"):
        run_verify(max_vertices=12, jobs=1, no_timing=True)
    assert main(["verify", "--max-vertices", "12", "--jobs", "1"]) == 3
    # criterion 5: 2,131,012 masks on 2..7 vertices, under 8 * 10^6
    with pytest.raises(ResourceCapError) as exc:
        run_verify(max_vertices=7, cap=266_376, jobs=1, no_timing=True)
    assert exc.value.what == "scanning 2131012 edge masks"
    monkeypatch.setattr(
        verify,
        "_sweep_chunk",
        lambda args: ({name: [0, 0, 0] for name in ALL_ROWS}, [], 0),
    )
    assert run_verify(max_vertices=7, cap=266_377, jobs=1, no_timing=True)["all_passed"]
    assert run_verify(max_vertices=7, jobs=1, no_timing=True)["all_passed"]


def test_random_mode_caps_the_vertex_pairs_before_drawing(monkeypatch, capsys):
    def no_draw(rng, max_vertices):
        raise AssertionError("a graph was drawn")

    monkeypatch.setattr(verify, "random_graph", no_draw)
    with pytest.raises(ResourceCapError) as exc:
        run_verify(mode="random", max_vertices=100_000, count=1, jobs=1)
    assert exc.value.what == "4999950000 vertex pairs on 100000 vertices"
    args = ["verify", "--mode", "random", "--max-vertices", "100000", "--count", "1"]
    assert main(args) == 3
    assert capsys.readouterr().err == (
        "error: resource cap exceeded: 4999950000 vertex pairs on 100000 "
        "vertices (cap 1000000)\n"
    )
    # 8 * cap is the bound: C(13, 2) = 78 pairs pass at cap 10, C(14, 2) = 91 not
    with pytest.raises(ResourceCapError, match="91 vertex pairs on 14 vertices"):
        run_verify(mode="random", max_vertices=14, cap=10, jobs=1)
    with pytest.raises(AssertionError, match="a graph was drawn"):
        run_verify(mode="random", max_vertices=13, cap=10, jobs=1)


def test_random_oracle_stops_once_the_doubling_passes_the_cap(monkeypatch):
    drawn = []  # the (edge code, earlier codes) rows the kernel consumed

    def spy(rows, cap, what):
        def counted():
            for row in rows:
                drawn.append(row)
                yield row

        return _packed_sum(counted(), cap, what)

    def no_check(*args):
        raise AssertionError("the graph was checked")

    monkeypatch.setattr(verify, "_packed_sum", spy)
    monkeypatch.setattr(verify, "_check_graph_instance", no_check)
    k8 = {"n": 8, "edges": [list(e) for e in combinations(range(1, 9), 2)]}
    with pytest.raises(ResourceCapError) as exc:
        _random_chunk(([k8], 50, 6))
    assert str(exc.value) == SUMSET_CAP_MESSAGE.format(50, 50)
    # the first edge whose 2A passes the cap ends the build, well before
    # the 28 edges of K8
    codes = [code for code, _ in drawn]
    before, after = (
        len({a + b for a in codes[:k] for b in codes[:k]}) for k in (len(codes) - 1, len(codes))
    )
    assert after > 50 >= before and len(codes) < 28


def test_verify_counts_match_the_benchmark_record():
    # the benchmark checks the verify-exhaustive output against these
    # recorded counts; a renamed row or a changed count fails here first
    workloads = bench_module("workloads")
    path = Path(workloads.__file__).with_name("expected.json")
    expected = json.loads(path.read_text())["verify-exhaustive"]["run_verify"]
    report = run_verify(max_vertices=6, jobs=1, no_timing=True)
    assert workloads.verify_summary(report) == expected
    assert expected["rows"]["bipartite-rule-vs-general"] == [3249, 0, 0]


def test_canonical_masks_match_networkx_isomorphism_classes():
    nx = pytest.importorskip("networkx")
    for n in range(2, 6):
        pairs = list(combinations(range(1, n + 1), 2))

        def graph(mask):
            g = nx.Graph()
            g.add_nodes_from(range(1, n + 1))
            g.add_edges_from(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
            return g

        def invariant(g):
            return g.number_of_edges(), sorted(d for _, d in g.degree())

        canonical = {}
        for mask in range(1 << len(pairs)):
            if _is_canonical_mask(n, mask, pairs):
                g = graph(mask)
                canonical.setdefault(repr(invariant(g)), []).append(g)
        for mask in range(1 << len(pairs)):
            g = graph(mask)
            matches = [
                c
                for c in canonical.get(repr(invariant(g)), [])
                if nx.is_isomorphic(g, c)
            ]
            assert len(matches) == 1, (n, mask)


def _walk_graphs(monkeypatch, n, block=None):
    """The graphs the walk checks on n vertices, in aligned blocks of
    block masks (one block by default), with the names already in each
    one's __dict__ when it reaches the graph rows."""
    seen = []

    def record(g, oracle, tally, cap):
        seen.append((g, set(vars(g))))

    monkeypatch.setattr(verify, "_check_graph_instance", record)
    monkeypatch.setattr(verify, "_check_matroid_instance", lambda *args: None)
    total = 1 << n * (n - 1) // 2
    for lo in range(0, total, block or total):
        _sweep_chunk(_chunk(n, lo, lo + (block or total)))
    return seen


FACTS = sorted(name for name, v in vars(SimpleGraph).items() if isinstance(v, lazy))


def test_walk_graphs_equal_validated_graphs(monkeypatch):
    assert FACTS == [
        "_forests", "_matroidal_ideal", "adjacency", "blocks",
        "component_colorings", "forest_count", "four_cycle_adjacency",
    ]
    seen = [item for n in range(2, 7) for item in _walk_graphs(monkeypatch, n)]
    # 771 connected labeled graphs on 2..5 vertices, 26,704 on 6; then the
    # 728 on 5 again, each its own block, whose root joins every edge
    seen += _walk_graphs(monkeypatch, 5, block=1)
    assert len(seen) == 27_475 + 728
    for g, held in seen:
        ref = SimpleGraph(g.n, frozenset(g.edges))
        assert type(g) is SimpleGraph
        assert held == {"n", "edges", "adjacency", "component_colorings"}
        assert (g.n, g.edges) == (ref.n, ref.edges)
        assert type(g.edges) is frozenset
        assert g == ref and hash(g) == hash(ref) and repr(g) == repr(ref)
        # the carried facts on every graph, the others up to 5 vertices
        for name in FACTS if g.n <= 5 else held - {"n", "edges"}:
            assert getattr(g, name) == getattr(ref, name), (name, g)


def test_echelon_basis_has_the_rank_of_the_edge_rows():
    for n in range(2, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        steps = [_edge_step(n, u, v) for u, v in pairs]
        for mask in range(1 << len(pairs)):
            chosen = [steps[i] for i in range(len(pairs)) if mask >> i & 1]
            _, _, basis = reduce(_grow, chosen, _NO_EDGES)
            assert len(basis) == integer_rank([row for _, row in chosen]), (n, mask)
            for k, (p, row) in enumerate(basis):
                assert row[p] and all(row[q] == 0 for q, _ in basis[:k]), (n, mask)


def _growth_rows(check, cap):
    """The rows that check(tally, cap) touched, as [instances, failures,
    skipped]."""
    tally = _Tally()
    check(tally, cap)
    return {name: row for name, row in tally.rows.items() if any(row)}


# recorded at the commit before one shared sumset chain per ideal, where
# both growth rows recomputed their series with mu_series
def test_growth_rows_skip_when_only_the_tripling_exceeds_the_cap():
    # P5 has a polynomial edge ring: |A| = 4, |2A| = 10, |3A| = 20
    p5 = SimpleGraph(5, frozenset({(1, 2), (2, 3), (3, 4), (4, 5)}))
    oracle = reduce(_grow, [_edge_step(5, *e) for e in sorted(p5.edges)], _NO_EDGES)

    def graph_rows(tally, cap):
        _check_graph_instance(p5, oracle, tally, cap)

    for cap, growth in ((19, [0, 0, 1]), (20, [1, 0, 0])):
        rows = _growth_rows(graph_rows, cap)
        assert rows.pop("polynomial-growth-forward") == growth
        # P5 has five vertices, so it reaches the deep rows, which skip:
        # mu(I^4) = 35 exceeds both caps
        assert all(rows.pop(name) == [0, 0, 1] for name in verify.DEEP_ROWS)
        assert set(rows) == set(verify.GRAPH_ROWS) - {"polynomial-growth-forward"}
        assert all(row == [1, 0, 0] for row in rows.values())
    with pytest.raises(ResourceCapError) as exc:
        _growth_rows(graph_rows, 9)
    assert str(exc.value) == SUMSET_CAP_MESSAGE.format(9, 9)

    # the triangle's matroid is Freiman: 3 forests, |2A| = 6, |3A| = 10
    k3 = SimpleGraph(3, frozenset({(1, 2), (1, 3), (2, 3)}))

    def matroid_rows(tally, cap):
        _check_matroid_instance(k3, tally, cap)

    rows = _growth_rows(matroid_rows, 9)
    assert rows == {
        "matroid-classifier-vs-numeric": [1, 0, 0],
        "matroid-spread-formula-vs-numeric": [1, 0, 0],
        "forest-count-matrix-tree": [1, 0, 0],
        "matroid-polynomial-growth": [0, 0, 1],
    }
    assert _growth_rows(matroid_rows, 10)["matroid-polynomial-growth"] == [1, 0, 0]
    # a doubling over the cap skips every matroid row
    assert _growth_rows(matroid_rows, 5) == {
        name: [0, 0, 1] for name in verify.MATROID_ROWS
    }
    # the diamond's matroid is not Freiman: no tripling, and the regularity
    # row runs instead
    diamond = SimpleGraph(4, frozenset({(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}))
    rows = _growth_rows(
        lambda tally, cap: _check_matroid_instance(diamond, tally, cap), DEFAULT_CAP
    )
    assert rows == {
        name: [1, 0, 0] for name in verify.MATROID_ROWS if name != "matroid-polynomial-growth"
    }


def test_sweep_growth_skips_at_small_caps():
    # at cap 19, 3A exceeds the cap where 2A does not: 12 polynomial-growth
    # skips against none for the other graph rows, and 10 matroid-growth
    # skips against 7 for the other matroid rows
    report = run_verify(max_vertices=4, cap=19, jobs=1, no_timing=True)
    skipped = {row["name"]: row["skipped"] for row in report["rows"]}
    assert skipped["polynomial-growth-forward"] == 12
    assert skipped["matroid-classifier-vs-numeric"] == 7
    assert skipped["matroid-polynomial-growth"] == 10
    for cap, growth, rows in ((40, 0, [7, 7, 7, 7, 1, 1, 1, 1, 7]),
                              (60, 0, [1, 1, 1, 1, 1, 1, 1, 1, 7])):
        report = run_verify(max_vertices=4, cap=cap, jobs=1, no_timing=True)
        skips = [row["skipped"] for row in report["rows"]]
        assert skips[6] == growth and skips[7:] == rows, cap
    rows, _, seen = _sweep_chunk(_chunk(5, 0, 1024, 55))
    assert seen == 728
    assert [rows[name][2] for name in ALL_ROWS] == [0] * 7 + [543] * 4 + [10] * 4 + [205]
    assert rows["polynomial-growth-forward"] == [287, 0, 0]

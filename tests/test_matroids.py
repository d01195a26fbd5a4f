"""Spanning forests, matroidal ideals, the one-cycle rule, spread
formulas, and base-ring regularity."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freiman import (
    SimpleGraph,
    analytic_spread,
    base_ring_h_polynomial,
    base_ring_regularity,
    classify_freiman_matroid,
    cut_vertices,
    cycle_matroid,
    is_freiman,
    matrix_tree_count,
    matroid_spread_formula,
    matroidal_ideal,
    mu_series,
    spanning_forests,
)
from freiman import fiber, lattice, matroids
from freiman.errors import ResourceCapError
from freiman.graphs import _vertices
from freiman.reports import matroid_report
from helpers import (
    bowtie,
    brute_articulation_points,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph,
    path_graph,
)
from math import comb


def shared_vertex_cycles(r1, r2):
    """Two cycles of lengths r1, r2 glued at one vertex."""
    edges = [(i, i % r1 + 1) for i in range(1, r1 + 1)]
    outer = [r1] + list(range(r1 + 1, r1 + r2))
    edges += [
        (min(outer[i], outer[(i + 1) % r2]), max(outer[i], outer[(i + 1) % r2]))
        for i in range(r2)
    ]
    return graph(r1 + r2 - 1, edges)


def test_spanning_forests_triangle():
    forests = spanning_forests(cycle_graph(3))
    assert forests == [(0, 1), (0, 2), (1, 2)]


def test_spanning_forests_k4():
    forests = spanning_forests(complete_graph(4))
    assert len(forests) == 16
    assert matrix_tree_count(complete_graph(4)) == 16


def test_spanning_forests_bowtie():
    forests = spanning_forests(bowtie())
    assert len(forests) == 9  # 3 x 3 per-cycle choices
    assert all(len(f) == 4 for f in forests)


def test_spanning_forests_disconnected_product():
    g = graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert len(spanning_forests(g)) == 9
    assert matrix_tree_count(g) == 9


def test_spanning_forests_cap():
    with pytest.raises(ResourceCapError):
        spanning_forests(complete_graph(5), cap=100)  # 125 trees


def test_cap_is_checked_on_every_call_after_caching():
    k5 = complete_graph(5)  # 125 trees
    # six triangles in a chain: 3^6 = 729 trees
    chain = graph(
        13, [e for i in range(1, 13, 2) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))]
    )
    for g, cap, count in ((k5, 100, 125), (chain, 728, 729)):
        for _ in range(2):  # before and after the forests are cached
            with pytest.raises(ResourceCapError) as err:
                spanning_forests(g, cap=cap)
            assert err.value.what == f"{count} spanning forests"
            forests = spanning_forests(g, cap=1000)
            assert len(forests) == count == g.forest_count == matrix_tree_count(g)


def test_deep_forest_search_needs_no_recursion(tmp_path, capsys):
    # a perfect matching is its own only spanning forest, 1,500 edges deep
    from freiman.cli import main

    path = tmp_path / "matching.txt"
    edges = "".join(f"{2 * i + 1} {2 * i + 2}\n" for i in range(1500))
    path.write_text("p 3000 1500\n" + edges)
    assert main(["matroid", "classify", str(path), "--no-timing"]) == 0
    assert '"num_bases": 1' in capsys.readouterr().out


def test_returned_forests_do_not_alias_the_cache():
    g = bowtie()
    first = spanning_forests(g)
    first.clear()
    assert len(spanning_forests(g)) == 9
    assert spanning_forests(g) is not spanning_forests(g)


def test_matroidal_ideal_is_built_once_and_capped_on_every_call():
    k5 = complete_graph(5)  # 125 trees
    for _ in range(2):  # before and after the ideal is cached
        with pytest.raises(ResourceCapError):
            matroidal_ideal(k5, cap=100)
        ideal = matroidal_ideal(k5)
    assert ideal is matroidal_ideal(k5)
    assert ideal.mu == 125


def test_matrix_tree_known_values():
    # Cayley: n^(n-2) labeled trees on K_n
    for n in (3, 4, 5, 6):
        assert matrix_tree_count(complete_graph(n)) == n ** (n - 2)
    # K_{a,b}: a^(b-1) b^(a-1)
    assert matrix_tree_count(complete_bipartite(2, 3)) == 2 ** 2 * 3
    assert matrix_tree_count(path_graph(5)) == 1


def test_cycle_matroid_structure():
    m = cycle_matroid(cycle_graph(3))
    assert m.ground == ((1, 2), (1, 3), (2, 3))
    assert m.bases == ((0, 1), (0, 2), (1, 2))


def test_matroidal_ideal_triangle_is_veronese():
    ideal = matroidal_ideal(cycle_graph(3))
    assert ideal.generators.points == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert ideal.witness == ((1, 1, 1), 2)


def test_matroidal_ideal_path_is_principal():
    ideal = matroidal_ideal(path_graph(3))
    assert ideal.generators.sorted_points() == [(1, 1)]


def test_matroidal_ideal_bowtie():
    ideal = matroidal_ideal(bowtie())
    assert ideal.mu == 9
    assert ideal.ambient_dim == 6
    assert all(sum(p) == 4 for p in ideal.generators.points)


def test_classify_forest():
    verdict = classify_freiman_matroid(path_graph(4))
    assert verdict.freiman and verdict.total_cycles_bound == 0
    assert verdict.spread_formula == analytic_spread(matroidal_ideal(path_graph(4))) == 1


def test_classify_single_cycles():
    for r in range(3, 7):
        verdict = classify_freiman_matroid(cycle_graph(r))
        assert verdict.freiman and verdict.total_cycles_bound == 1
        ideal = matroidal_ideal(cycle_graph(r))
        assert verdict.spread_formula == analytic_spread(ideal) == r
        mu = mu_series(ideal, 3)
        assert mu == [comb(r + k - 1, k) for k in range(4)]


def test_classify_bowtie():
    verdict = classify_freiman_matroid(bowtie())
    assert not verdict.freiman
    assert verdict.total_cycles_bound == 2
    assert verdict.spread_formula == analytic_spread(matroidal_ideal(bowtie())) == 5
    profile = is_freiman(matroidal_ideal(bowtie()))
    assert profile.mu_series == (1, 9, 36) and profile.bound2 == 35
    assert not profile.freiman


def test_classify_edgeless():
    verdict = classify_freiman_matroid(SimpleGraph(3, frozenset()))
    assert verdict.freiman and verdict.total_cycles_bound == 0


def test_cut_vertices_examples():
    assert cut_vertices(complete_graph(4)) == set()
    assert cut_vertices(bowtie()) == {3}
    assert cut_vertices(path_graph(4)) == {2, 3}
    assert cut_vertices(graph(4, [(1, 2), (1, 3), (1, 4)])) == {1}


def test_long_path_takes_no_determinant():
    # 1,199 bridges, each its own block's only spanning tree
    started = time.perf_counter()
    g = path_graph(1200)
    assert g.forest_count == 1
    assert len(cut_vertices(g)) == 1198
    verdict = classify_freiman_matroid(g)
    assert verdict.freiman and verdict.spread_formula == 1
    assert analytic_spread(matroidal_ideal(g)) == 1
    assert time.perf_counter() - started < 5.0


def test_forest_search_renames_only_the_smaller_tree(monkeypatch):
    # each vertex changes tree name at most log2(n) times, so K6's merges
    # list at most 3 vertices each; the path's 3,999 edges are all forced
    # before the first, so its one forest lists no vertex
    listed = []

    def counting(mask):
        listed.append(mask.bit_count())
        return _vertices(mask)

    path, k6 = path_graph(4000), complete_graph(6)
    assert path.forest_count == 1 and k6.forest_count == 6 ** 4
    monkeypatch.setattr(matroids, "_vertices", counting)
    assert spanning_forests(path) == [tuple(range(3999))]
    assert sum(listed) == 0
    listed.clear()
    assert len(spanning_forests(k6)) == 6 ** 4
    assert max(listed) <= 3


def test_classifier_is_closed_form(monkeypatch):
    # no forest search and no rank: K9 and K12 have 4,782,969 and
    # 61,917,364,224 spanning trees, far past the default cap
    def refuse(*args):
        raise AssertionError("the closed-form verdict enumerated or ranked")

    monkeypatch.setattr(matroids, "_enumerate_forests", refuse)
    monkeypatch.setattr(lattice, "affine_dim", refuse)
    cases = [
        (path_graph(4), (True, 0, 1)),
        (cycle_graph(5), (True, 1, 5)),
        (complete_graph(4), (False, 3, 6)),
        (bowtie(), (False, 2, 5)),
        (complete_graph(9), (False, 28, 36)),
        (complete_graph(12), (False, 55, 66)),
    ]
    for g, fields in cases:
        verdict = classify_freiman_matroid(g)
        assert (verdict.freiman, verdict.total_cycles_bound, verdict.spread_formula) == fields


def test_matroid_report_refuses_2a_before_any_rank(monkeypatch):
    # K7's 16,807 forests fit the cap, its 2A does not: the oracle's
    # sumset refuses before the oracle's rank, and the verdict has none
    ranked = []
    original = lattice.affine_dim
    for module in (lattice, fiber, matroids):
        if getattr(module, "affine_dim", None) is original:
            monkeypatch.setattr(module, "affine_dim", lambda x: ranked.append(x) or original(x))
    with pytest.raises(ResourceCapError, match="sumset at power 2"):
        matroid_report(complete_graph(7), cap=100_000)
    assert ranked == []


def test_spread_formula_examples():
    assert matroid_spread_formula(complete_graph(4)) == 6
    assert matroid_spread_formula(bowtie()) == 5
    two_triangles = graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert matroid_spread_formula(two_triangles) == 5
    # a star splits at its center into three pieces: spread is 1, not 2
    star = graph(4, [(1, 2), (1, 3), (1, 4)])
    assert matroid_spread_formula(star) == 1


def test_h_polynomial_examples():
    assert base_ring_h_polynomial(cycle_graph(3)) == [1]
    assert base_ring_h_polynomial(bowtie()) == [1, 4, 1]
    k4_h = base_ring_h_polynomial(complete_graph(4))
    assert k4_h == [1, 10, 20, 10, 1]
    assert 2 <= len(k4_h) - 1 <= 4  # degree between 2 and 4


def test_regularity_examples():
    assert base_ring_regularity(cycle_graph(5)) == 1
    assert base_ring_regularity(complete_graph(4)) == 5
    assert base_ring_regularity(bowtie()) == 3
    assert 3 <= base_ring_regularity(bowtie()) <= 6 - 1 - 1


def test_shared_vertex_cycle_degree_formula():
    # two cycles glued at a vertex: deg h = r1 + r2 - 1 - max(r1, r2)
    for r1, r2 in [(3, 3), (3, 4), (4, 4)]:
        h = base_ring_h_polynomial(shared_vertex_cycles(r1, r2))
        assert len(h) - 1 == r1 + r2 - 1 - max(r1, r2), (r1, r2)
        assert not classify_freiman_matroid(shared_vertex_cycles(r1, r2)).freiman


def test_chorded_cycles_not_freiman():
    c4_chord = graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    c6_chord = graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4)])
    for g in (c4_chord, c6_chord):
        verdict = classify_freiman_matroid(g)
        assert not verdict.freiman
        assert not is_freiman(matroidal_ideal(g)).freiman


def test_restriction_of_freiman_matroid_is_freiman():
    # deleting edges cannot create cycles, so sub-matroids stay Freiman
    from itertools import combinations

    for base in (cycle_graph(5), path_graph(5), graph(4, [(1, 2), (1, 3), (1, 4)])):
        assert classify_freiman_matroid(base).freiman
        edges = base.sorted_edges()
        for k in range(1, len(edges)):
            for keep in combinations(edges, k):
                sub = SimpleGraph(base.n, frozenset(keep))
                assert classify_freiman_matroid(sub).freiman


small_graphs = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.builds(
        lambda edges: SimpleGraph(n, frozenset(edges)),
        st.sets(
            st.tuples(
                st.integers(min_value=1, max_value=n),
                st.integers(min_value=1, max_value=n),
            )
            .filter(lambda e: e[0] != e[1])
            .map(lambda e: (min(e), max(e))),
            min_size=1,
            max_size=8,
        ),
    )
)


@given(small_graphs)
def test_cut_vertices_match_brute_force(g):
    assert cut_vertices(g) == brute_articulation_points(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs)
def test_forest_count_matches_matrix_tree(g):
    assert len(spanning_forests(g)) == matrix_tree_count(g)


@settings(max_examples=40, deadline=None)
@given(small_graphs)
def test_spread_formula_matches_numeric(g):
    import freiman

    ideal = matroidal_ideal(g)
    assert matroid_spread_formula(g) == freiman.affine_dim(ideal.generators) + 1

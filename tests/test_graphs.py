"""Graph structure, cycle enumeration, and the Freiman-graph classifier."""

import random
import time
from collections import Counter
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freiman import (
    SimpleGraph,
    classify_freiman_graph,
    components,
    cyclomatic_number,
    edge_ideal,
    enumerate_simple_cycles,
    four_cycle_union_subgraph,
    graphs,
    has_long_primitive_even_walk,
    is_bipartite,
    is_freiman,
    is_polynomial_edge_ring,
)
from freiman.errors import PreconditionError, ResourceCapError
from helpers import (
    bowtie,
    brute_simple_cycles,
    cactus_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    generalized_petersen,
    graph,
    path_graph,
    pentagon_chain,
    walk_search_freiman,
)


def two_four_cycles():
    return graph(8, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5)])


def test_simple_graph_validation():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(1, 4)}))
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(2, 1)}))  # must be stored (min, max)


def test_components_ordering_and_relabeling():
    g = graph(6, [(5, 6), (1, 3)])
    comps = components(g)
    assert [c.n for c in comps] == [2, 1, 1, 2]
    assert comps[0].sorted_edges() == [(1, 2)]  # vertices 1,3 relabeled
    assert comps[3].sorted_edges() == [(1, 2)]  # vertices 5,6 relabeled


def test_cyclomatic_number():
    assert cyclomatic_number(path_graph(5)) == 0
    assert cyclomatic_number(cycle_graph(4)) == 1
    assert cyclomatic_number(complete_graph(4)) == 3
    # isolated vertices do not change the count
    assert cyclomatic_number(graph(6, [(1, 2), (2, 3), (1, 3)])) == 1


def test_is_bipartite():
    parts = is_bipartite(cycle_graph(4))
    assert parts == (frozenset({1, 3}), frozenset({2, 4}))
    assert is_bipartite(complete_graph(4)) is None
    assert is_bipartite(path_graph(5)) is not None


def test_cycles_tree_empty():
    assert enumerate_simple_cycles(path_graph(5)) == []


def test_cycles_k4():
    cycles = enumerate_simple_cycles(complete_graph(4))
    assert len(cycles) == 7  # 4 triangles + 3 squares
    assert cycles == brute_simple_cycles(complete_graph(4))


def test_cycles_bowtie():
    cycles = enumerate_simple_cycles(bowtie())
    assert cycles == [(1, 2, 3), (3, 4, 5)]


def test_cycles_canonical_form():
    for c in enumerate_simple_cycles(complete_graph(5)):
        assert c[0] == min(c)
        assert c[1] < c[-1]


def test_cycles_of_a_pentagon_chain_take_bounded_work():
    started = time.perf_counter()
    cycles = enumerate_simple_cycles(pentagon_chain(40))
    assert cycles == [tuple(range(i + 1, i + 6)) for i in range(0, 160, 4)]
    assert time.perf_counter() - started < 5.0


def test_classify_pentagon_chain_takes_bounded_work():
    g = pentagon_chain(22)
    started = time.perf_counter()
    verdict = classify_freiman_graph(g)
    assert time.perf_counter() - started < 5.0
    assert (verdict.freiman, verdict.reason) == (False, "witness-long-walk")
    assert verdict.witness == {
        "kind": "odd-cycles-sharing-one-vertex",
        "cycles": [[1, 2, 3, 4, 5], [5, 6, 7, 8, 9]],
    }
    assert not is_freiman(edge_ideal(g)).freiman


def test_cycles_cap():
    with pytest.raises(ResourceCapError):
        enumerate_simple_cycles(complete_graph(6), cap=5)


def test_polynomial_edge_ring_examples():
    assert is_polynomial_edge_ring(cycle_graph(5))
    assert not is_polynomial_edge_ring(cycle_graph(4))
    assert not is_polynomial_edge_ring(bowtie())
    assert is_polynomial_edge_ring(path_graph(4))
    # odd cycle plus disjoint tree is still polynomial
    assert is_polynomial_edge_ring(graph(5, [(1, 2), (2, 3), (1, 3), (4, 5)]))


def test_four_cycle_union_examples():
    assert four_cycle_union_subgraph(path_graph(5)).edges == frozenset()
    k23 = complete_bipartite(2, 3)
    assert four_cycle_union_subgraph(k23).edges == k23.edges
    diamond = graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert four_cycle_union_subgraph(diamond).edges == frozenset(
        {(1, 3), (1, 4), (2, 3), (2, 4)}
    )


def test_long_walk_even_cycle():
    witness = has_long_primitive_even_walk(cycle_graph(6))
    assert witness == {"kind": "even-cycle", "cycle": [1, 2, 3, 4, 5, 6]}


def test_long_walk_bowtie():
    witness = has_long_primitive_even_walk(bowtie())
    assert witness["kind"] == "odd-cycles-sharing-one-vertex"
    assert witness["cycles"] == [[1, 2, 3], [3, 4, 5]]


def test_long_walk_disjoint_odd_cycles():
    # two triangles joined by a bridge
    g = graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)])
    witness = has_long_primitive_even_walk(g)
    assert witness["kind"] == "disjoint-odd-cycles"


def test_long_walk_absent_on_diamond():
    diamond = graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert has_long_primitive_even_walk(diamond) is None


def test_long_walk_requires_connected():
    with pytest.raises(PreconditionError):
        has_long_primitive_even_walk(two_four_cycles())


def test_edge_ideal_examples():
    single = edge_ideal(graph(2, [(1, 2)]))
    assert single.generators.sorted_points() == [(1, 1)]
    c4 = edge_ideal(cycle_graph(4))
    assert c4.mu == 4 and c4.witness == ((1, 1, 1, 1), 2)
    assert edge_ideal(complete_graph(4)).mu == 6
    with pytest.raises(PreconditionError):
        edge_ideal(SimpleGraph(3, frozenset()))


def test_classify_trees():
    for g in (path_graph(2), path_graph(5), graph(4, [(1, 2), (1, 3), (1, 4)])):
        verdict = classify_freiman_graph(g)
        assert verdict.freiman and verdict.reason == "no-primitive-walks"


def test_classify_complete_bipartite_2s():
    for s in (2, 3, 4):
        g = complete_bipartite(2, s)
        verdict = classify_freiman_graph(g)
        assert verdict.freiman, s
        assert is_freiman(edge_ideal(g)).freiman, s


def test_classify_k4():
    verdict = classify_freiman_graph(complete_graph(4))
    assert not verdict.freiman
    assert verdict.witness is not None
    assert "four_cycle_union" in verdict.witness


def test_classify_two_four_cycles():
    verdict = classify_freiman_graph(two_four_cycles())
    assert not verdict.freiman
    assert verdict.reason == "component-rule"
    assert verdict.witness["non_polynomial_components"] == [[1, 2, 3, 4], [5, 6, 7, 8]]


def test_classify_c6_long_walk():
    verdict = classify_freiman_graph(cycle_graph(6))
    assert not verdict.freiman
    assert verdict.reason == "witness-long-walk"
    assert verdict.witness == {"kind": "even-cycle", "cycle": [1, 2, 3, 4, 5, 6]}


K23 = [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]


def k23_pendant_triangle():
    return graph(7, K23 + [(1, 6), (6, 7), (1, 7)])


def test_classify_k23_with_pendant_triangle():
    g = k23_pendant_triangle()
    verdict = classify_freiman_graph(g)
    assert verdict.freiman
    assert is_freiman(edge_ideal(g)).freiman


def test_classify_matches_numeric_on_named_graphs():
    cases = [
        cycle_graph(3),
        cycle_graph(4),
        cycle_graph(5),
        cycle_graph(6),
        complete_graph(4),
        complete_graph(5),
        complete_bipartite(2, 3),
        complete_bipartite(3, 3),
        bowtie(),
        two_four_cycles(),
        graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]),
    ]
    for g in cases:
        assert (
            classify_freiman_graph(g).freiman == is_freiman(edge_ideal(g)).freiman
        ), g


C4 = [(1, 2), (2, 3), (3, 4), (4, 1)]


def c4_with_long_path():
    """C4 with the path 1-5-6-7-3: the rest of the graph meets H twice."""
    return graph(7, C4 + [(1, 5), (5, 6), (6, 7), (7, 3)])


def c4_with_hung_hexagon():
    """C4 with a hexagon hung on vertex 1 by the edge 1-5: the rest of the
    graph is not a tree."""
    hexagon = [(5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 5)]
    return graph(10, C4 + [(1, 5)] + hexagon)


@pytest.mark.parametrize("g", [c4_with_long_path(), c4_with_hung_hexagon()])
def test_bipartite_excess_gives_a_walk_witness(g):
    # H = C4 = K(2,2) holds one cycle and each graph a second: an excess
    # of 1, too large for a bipartite graph
    verdict = classify_freiman_graph(g)
    assert verdict.reason == "witness-long-walk" and not verdict.freiman
    assert verdict.freiman == is_freiman(edge_ideal(g)).freiman


def test_verdicts_need_no_cycle_search(monkeypatch):
    pentagon = [(6, 7), (7, 8), (8, 9), (9, 10), (10, 6)]
    c6 = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
    bowties = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]
    cases = [
        (k23_pendant_triangle(), True, "K2s-with-short-walks"),
        (graph(10, K23 + [(1, 6)] + pentagon), True, "K2s-with-short-walks"),
        (graph(12, c6 + [(u + 6, v + 6) for u, v in c6]), False, "component-rule"),
        (graph(10, bowties + [(u + 5, v + 5) for u, v in bowties]), False,
         "component-rule"),
    ]

    def no_search(adj, cap):
        raise AssertionError("a verdict searched cycles")

    monkeypatch.setattr(graphs, "_simple_cycles", no_search)
    for g, freiman, reason in cases:
        verdict = classify_freiman_graph(g)
        assert (verdict.freiman, verdict.reason) == (freiman, reason), g
    monkeypatch.undo()
    for g, freiman, _ in cases:
        assert is_freiman(edge_ideal(g)).freiman == freiman, g
    # the cap bounds only a false verdict's witness search
    assert classify_freiman_graph(k23_pendant_triangle(), cap=1).freiman


def test_closed_form_matches_walk_search_on_small_graphs():
    # every connected labeled graph on <= 6 vertices whose edge ring is not
    # a polynomial ring, most of them not bipartite
    checked = nonbipartite = 0
    for n in range(4, 7):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            g = SimpleGraph(n, edges)
            if len(g.component_colorings) != 1 or is_polynomial_edge_ring(g):
                continue
            assert classify_freiman_graph(g).freiman == walk_search_freiman(g), g
            checked += 1
            nonbipartite += is_bipartite(g) is None
    assert (checked, nonbipartite) == (23_339, 21_531)


def _pad_to_eight(rng, n, edges):
    """The graph on n vertices with edges, padded to 8 vertices by
    pendant vertices."""
    while n < 8:
        n += 1
        edges.add((rng.randint(1, n - 1), n))
    return graph(n, edges)


def _k2s_with_attachments(rng):
    """K(2,s) with up to four attachments, each an ear of length 1-4
    between two vertices, an odd or even cycle hung at one vertex, or a
    pendant tree."""
    n = rng.randint(2, 5) + 2
    edges = {(a, x) for a in (1, 2) for x in range(3, n + 1)}

    def add_path(path):
        edges.update((min(e), max(e)) for e in zip(path, path[1:]))

    for _ in range(rng.randint(1, 4)):
        kind, u, room = rng.randrange(3), rng.randint(1, n), 16 - n
        if kind == 0:
            v = rng.choice([w for w in range(1, n + 1) if w != u])
            new = range(n + 1, n + rng.randint(1, min(4, room + 1)))
            add_path([u, *new, v])
        elif kind == 1 and room >= 2:
            new = range(n + 1, n + rng.randint(3, min(6, room + 1)))
            add_path([u, *new, u])
        else:
            new = range(n + 1, n + 1 + min(rng.randint(1, 3), room))
            for w in new:
                add_path([rng.randint(1, w - 1), w])
        n += len(new)
    return _pad_to_eight(rng, n, edges)


def _cactus_chain(rng):
    """Odd and even cycles of length 3-6 glued at cut vertices, with a
    bridge at the end if a cycle would pass 16 vertices."""
    target, n, sizes = rng.randint(8, 16), 1, []
    while n < target:
        sizes.append(min(rng.randint(3, 6), 17 - n))
        n += sizes[-1] - 1
    return cactus_graph(rng, sizes)


def _second_component(rng):
    """Two cycles glued at a vertex, beside a second non-polynomial
    component: C4, C6 or a bowtie."""
    first = cactus_graph(rng, [rng.randint(3, 5), rng.randint(3, 5)])
    second = cactus_graph(rng, rng.choice([[4], [6], [3, 3]]))
    n = first.n + second.n
    labels = rng.sample(range(1, n + 1), n)
    edges = first.sorted_edges()
    edges += [(u + first.n, v + first.n) for u, v in second.sorted_edges()]
    return graph(n, [(labels[u - 1], labels[v - 1]) for u, v in edges])


def _joined_odd_cycles(rng):
    """Odd cycles of lengths a and b joined by a path of length d; at
    d = 0 they share a vertex."""
    a, b = rng.choice((3, 5, 7)), rng.choice((3, 5, 7))
    s = a + rng.randint(0, min(5, 17 - a - b))  # the second cycle's first vertex
    edges = {(i, i % a + 1) for i in range(1, a + 1)} | {(s, s + b - 1)}
    edges |= {(v, v + 1) for v in range(a, s + b - 1)}  # the path, then the cycle
    return _pad_to_eight(rng, s + b - 1, edges)


def _girth_five(rng):
    """One in ten is GP(5,2), GP(7,2) or GP(8,3); the rest are random trees
    on 8..16 vertices plus up to six edges that close no cycle shorter
    than 5."""
    if rng.random() < 0.1:
        return generalized_petersen(*rng.choice([(5, 2), (7, 2), (8, 3)]))
    n = rng.randint(8, 16)
    adj = {v: set() for v in range(1, n + 1)}
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(rng.randint(0, 6)):
        u, v = rng.sample(range(1, n + 1), 2)
        near = {u}
        for _ in range(3):  # the vertices within distance 3 of u
            near |= {w for x in near for w in adj[x]}
        if v not in near:
            adj[u].add(v)
            adj[v].add(u)
    return graph(n, [(u, v) for u in adj for v in adj[u] if u < v])


BOUNDARY_FAMILIES = {
    "k2s-with-attachments": _k2s_with_attachments,
    "cactus-chain": _cactus_chain,
    "second-component": _second_component,
    "joined-odd-cycles": _joined_odd_cycles,
    "girth-five": _girth_five,
}


def boundary_graph(rng, family="k2s-with-attachments"):
    """A seeded graph on 8..16 vertices from one of BOUNDARY_FAMILIES."""
    return BOUNDARY_FAMILIES[family](rng)


def test_closed_form_on_the_boundary_corpus():
    # the closed form's only check past 7 vertices: each verdict against
    # the numeric oracle and against the walk search
    rng = random.Random(2018)
    outcomes = Counter()
    for _ in range(3000):
        g = boundary_graph(rng)
        assert 8 <= g.n <= 16 and len(g.component_colorings) == 1, g
        verdict = classify_freiman_graph(g)
        assert verdict.freiman == is_freiman(edge_ideal(g)).freiman, g
        assert verdict.freiman == walk_search_freiman(g), g
        outcomes[verdict.freiman, verdict.reason] += 1
    assert outcomes[True, "K2s-with-short-walks"] > 0
    assert outcomes[False, "K2s-with-short-walks"] > 0
    assert outcomes[False, "witness-long-walk"] > 0


LONG_WALK = (False, "witness-long-walk")
SHARED = (*LONG_WALK, "odd-cycles-sharing-one-vertex")
DISJOINT = (*LONG_WALK, "disjoint-odd-cycles")
EVEN = (*LONG_WALK, "even-cycle")

# family -> (seed, graphs, every (freiman, reason, witness kind) it hits)
FAMILY_OUTCOMES = {
    # a 4-cycle is H = K(2,2); beside one odd cycle it is Freiman, and two
    # 4-cycles make H no K(2,s).  Cycles share at most one vertex
    "cactus-chain": (19, 1500, {
        (True, "K2s-with-short-walks", None), (False, "K2s-with-short-walks", None),
        SHARED, DISJOINT, EVEN,
    }),
    "second-component": (20, 500, {(False, "component-rule", None)}),
    "joined-odd-cycles": (21, 500, {SHARED, DISJOINT}),
    # no 4-cycle, so H is empty: a tree or one odd cycle is a polynomial
    # ring, anything else has a long walk, mostly an even cycle
    "girth-five": (22, 1500, {(True, "no-primitive-walks", None), SHARED, EVEN}),
}


@pytest.mark.parametrize("family", sorted(FAMILY_OUTCOMES))
def test_closed_form_on_the_boundary_families(family):
    seed, count, expected = FAMILY_OUTCOMES[family]
    rng = random.Random(seed)
    outcomes = Counter()
    for _ in range(count):
        g = boundary_graph(rng, family)
        assert 8 <= g.n <= 16, g
        verdict = classify_freiman_graph(g)
        assert verdict.freiman == is_freiman(edge_ideal(g)).freiman, g
        assert verdict.freiman == walk_search_freiman(g), g
        kind = verdict.witness.get("kind") if verdict.witness else None
        outcomes[verdict.freiman, verdict.reason, kind] += 1
    assert set(outcomes) == expected, outcomes


def _bfs_four_cycle_shape(g, mask):
    """The shape of H read off a BFS 2-coloring of it, as _four_cycle_shape
    did before it read H's neighbour masks directly: the reference."""
    h = g.four_cycle_adjacency
    layers = graphs._component_layers(h, mask & reduce(int.__or__, h))
    if len(layers) != 1 or layers[0][1] is None:
        return None if layers else -2
    _, sides, edges = layers[0]
    small, big = sorted(side.bit_count() for side in sides)
    return big if small == 2 and big >= 2 and edges == 2 * big else None


def _small_and_boundary_graphs():
    """Every graph with an edge on 2..6 vertices, connected or not, then
    300 draws from each boundary family."""
    for n in range(2, 7):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1, 1 << len(pairs)):
            yield SimpleGraph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
    for family in BOUNDARY_FAMILIES:
        rng = random.Random(2018)
        for _ in range(300):
            yield boundary_graph(rng, family)


def test_four_cycle_shape_and_verdict_match_their_references():
    shapes, verdicts = Counter(), Counter()
    for g in _small_and_boundary_graphs():
        everyone = (1 << g.n + 1) - 2
        for mask in {everyone, *(mask for mask, *_ in g.component_colorings)}:
            s = graphs._four_cycle_shape(g, mask)
            assert s == _bfs_four_cycle_shape(g, mask), (g, mask)
            shapes["none" if s is None else "empty" if s == -2 else "K2s"] += 1
        verdict = classify_freiman_graph(g)
        assert graphs._graph_verdict(g)[:2] == (verdict.freiman, verdict.reason), g
        verdicts[verdict.freiman, verdict.reason] += 1
    assert set(shapes) == {"none", "empty", "K2s"}
    # both verdicts of every reason but no-primitive-walks, which is true
    assert len(verdicts) == 6, verdicts


def test_classify_isolated_vertices_ignored():
    g = graph(6, [(1, 2), (2, 3), (3, 4), (4, 1)])
    verdict = classify_freiman_graph(g)
    assert verdict.freiman


def test_witness_present_whenever_false():
    failing = [
        complete_graph(4),
        complete_graph(5),
        cycle_graph(6),
        two_four_cycles(),
        bowtie(),
    ]
    for g in failing:
        verdict = classify_freiman_graph(g)
        assert not verdict.freiman
        assert verdict.witness is not None, g


small_graphs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.builds(
        lambda edges: SimpleGraph(n, frozenset(edges)),
        st.sets(
            st.tuples(
                st.integers(min_value=1, max_value=n),
                st.integers(min_value=1, max_value=n),
            )
            .filter(lambda e: e[0] != e[1])
            .map(lambda e: (min(e), max(e))),
            max_size=12,
        ),
    )
)


@given(small_graphs)
def test_cycle_enumeration_matches_brute_force(g):
    assert enumerate_simple_cycles(g) == brute_simple_cycles(g)


@settings(max_examples=60)
@given(small_graphs, st.randoms(use_true_random=False))
def test_classifier_is_relabeling_invariant(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    relabeled = SimpleGraph.from_edges(
        g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges]
    )
    assert (
        classify_freiman_graph(relabeled).freiman == classify_freiman_graph(g).freiman
    )


@given(small_graphs)
def test_polynomial_ring_iff_cycle_structure(g):
    # cross-check the peeled-cycle implementation against brute cycles
    cycles = brute_simple_cycles(g)
    expected = True
    if any(len(c) % 2 == 0 for c in cycles):
        expected = False
    else:
        # more than one cycle in one component?
        adj = {v: set() for v in range(1, g.n + 1)}
        for u, v in g.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = set()
        for start in range(1, g.n + 1):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            in_comp = sum(1 for c in cycles if set(c) <= comp)
            if in_comp > 1:
                expected = False
    assert is_polynomial_edge_ring(g) == expected

"""Differential tests of the graph facts SimpleGraph derives (adjacency
masks, components and their 2-colorings, cut vertices and blocks, the
4-cycle union, simple cycles, the matrix-tree count, the spanning
forests) against networkx, a brute-force 4-cycle scan and a
per-component matrix-tree count, on every labeled graph with at most 5
vertices, on seeded random graphs with at most 8 vertices, and on seeded
cacti."""

import random
from itertools import accumulate, combinations, permutations

import pytest

from freiman import (
    SimpleGraph,
    enumerate_simple_cycles,
    four_cycle_union_subgraph,
    graphs,
    is_bipartite,
    matroid_spread_formula,
    matroids,
    spanning_forests,
)
from freiman.errors import DEFAULT_CAP, lazy
from freiman.graphs import _vertices
from freiman.matroids import cut_vertices, matrix_tree_count
from helpers import cactus_graph, component_matrix_tree

nx = pytest.importorskip("networkx")


def _all_graphs(max_n):
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            yield SimpleGraph(
                n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            )


def _random_graphs(count, max_n, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.random()
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
        yield SimpleGraph(n, frozenset(edges))


GRAPHS = list(_all_graphs(5)) + list(_random_graphs(200, 8, seed=20))


def _cacti(count, seed):
    """Cycles of length 3..7 and bridges, half of them bridge-heavy, with
    up to two isolated vertices."""
    rng = random.Random(seed)
    for i in range(count):
        sizes = (2, 2, 2, 3, 4) if i % 2 else (2, 3, 4, 5, 6, 7)
        blocks = [rng.choice(sizes) for _ in range(rng.randint(1, 8))]
        yield cactus_graph(rng, blocks, isolated=rng.randint(0, 2))


CACTI = list(_cacti(200, seed=19))


def _to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(1, g.n + 1))
    G.add_edges_from(g.edges)
    return G


def _brute_four_cycle_union(g):
    """Edges of every 4-cycle, found by trying all ordered vertex 4-tuples."""
    h = set()
    for quad in permutations(range(1, g.n + 1), 4):
        ring = [(min(a, b), max(a, b)) for a, b in zip(quad, quad[1:] + quad[:1])]
        if all(e in g.edges for e in ring):
            h.update(ring)
    return h


def test_graph_facts_match_networkx():
    # 1 + 2 + 8 + 64 + 1024 labeled graphs on 1..5 vertices, plus the random ones
    assert len(GRAPHS) == 1099 + 200
    for g in GRAPHS:
        G = _to_nx(g)
        where = (g.n, g.sorted_edges())
        assert [_vertices(mask) for mask, *_ in g.component_colorings] == sorted(
            tuple(sorted(c)) for c in nx.connected_components(G)
        ), where
        assert (is_bipartite(g) is not None) == nx.is_bipartite(G), where
        assert cut_vertices(g) == set(nx.articulation_points(G)), where
        blocks = sorted(map(sorted, nx.biconnected_components(G)))
        assert sorted(list(_vertices(mask)) for mask in g.blocks) == blocks, where
        if g.edges:
            assert matroid_spread_formula(g) == g.num_edges - len(blocks) + 1, where
        assert four_cycle_union_subgraph(g).edges == _brute_four_cycle_union(g), where


def test_bipartition_is_a_proper_two_coloring():
    for g in GRAPHS:
        parts = is_bipartite(g)
        if parts is None:
            continue
        part_a, part_b = parts
        assert part_a | part_b == set(range(1, g.n + 1))
        assert all((u in part_a) != (v in part_a) for u, v in g.edges)
        assert all(_vertices(mask)[0] in part_a for mask, *_ in g.component_colorings)


def _canonical_cycle(cycle):
    """Rotate the smallest vertex to the front, then read the cycle
    towards its smaller neighbour."""
    i = cycle.index(min(cycle))
    c = tuple(cycle[i:]) + tuple(cycle[:i])
    return c if c[1] < c[-1] else (c[0],) + c[:0:-1]


def test_adjacency_masks_give_back_the_edges():
    for g in GRAPHS:
        adj = g.adjacency
        assert len(adj) == g.n + 1 and adj[0] == 0
        edges = {(u, w) for u in range(1, g.n + 1) for w in _vertices(adj[u]) if u < w}
        assert edges == g.edges, (g.n, g.sorted_edges())
        assert all(adj[u] >> u & 1 == 0 for u in range(1, g.n + 1))


def test_simple_cycles_match_networkx():
    for g in GRAPHS + CACTI:
        expected = sorted(
            (_canonical_cycle(c) for c in nx.simple_cycles(_to_nx(g))),
            key=lambda c: (len(c), c),
        )
        assert enumerate_simple_cycles(g) == expected, (g.n, g.sorted_edges())


def test_simple_cycles_within_a_component_match_the_component_alone():
    # disjoint unions of two or three random graphs under shuffled labels
    rng = random.Random(21)
    found = 0
    for _ in range(300):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 3))]
        labels = rng.sample(range(1, sum(sizes) + 1), sum(sizes))
        edges = set()
        for start, size in zip(accumulate([0] + sizes), sizes):
            part = sorted(labels[start : start + size])
            edges |= {e for e in combinations(part, 2) if rng.random() < 0.6}
        g = SimpleGraph(len(labels), frozenset(edges))
        assert len(g.component_colorings) >= len(sizes)
        for comp, (mask, *_) in zip(graphs.components(g), g.component_colorings):
            verts = _vertices(mask)
            alone = [tuple(verts[v - 1] for v in c) for c in enumerate_simple_cycles(comp)]
            assert graphs._simple_cycles(g, DEFAULT_CAP, mask) == alone
            found += len(alone)
    assert found > 300


def test_matrix_tree_count_matches_networkx():
    for g in GRAPHS:
        G = _to_nx(g)
        expected = 1
        for verts in nx.connected_components(G):
            if len(verts) > 1:
                expected *= round(nx.number_of_spanning_trees(G.subgraph(verts)))
        assert matrix_tree_count(g) == expected, (g.n, g.sorted_edges())
        assert g.forest_count == expected


def test_cactus_blocks_and_cut_vertices_match_networkx():
    for g in CACTI:
        G = _to_nx(g)
        where = (g.n, g.sorted_edges())
        blocks = sorted(map(sorted, nx.biconnected_components(G)))
        assert sorted(list(_vertices(mask)) for mask in g.blocks) == blocks, where
        assert cut_vertices(g) == set(nx.articulation_points(G)), where


def test_block_matrix_tree_count_equals_the_component_count():
    for g in GRAPHS + CACTI:
        assert g.forest_count == component_matrix_tree(g), (g.n, g.sorted_edges())


def test_spanning_forests_match_networkx():
    # every (n - c)-subset of the edges that networkx finds acyclic
    for g in GRAPHS:
        if not g.edges or g.num_edges > 12:
            continue
        ground = g.sorted_edges()
        size = g.n - nx.number_connected_components(_to_nx(g))
        expected = [
            subset
            for subset in combinations(range(len(ground)), size)
            if nx.is_forest(nx.Graph([ground[i] for i in subset]))
        ]
        assert spanning_forests(g) == expected, (g.n, ground)


def test_component_colorings_match_networkx():
    for g in GRAPHS:
        G = _to_nx(g)
        where = (g.n, g.sorted_edges())
        colorings = g.component_colorings
        assert len(colorings) == nx.number_connected_components(G), where
        for mask, sides, edges in colorings:
            verts = _vertices(mask)
            assert edges == G.subgraph(verts).number_of_edges(), where
            assert (sides is not None) == nx.is_bipartite(G.subgraph(verts)), where
            if sides is None:
                continue
            even, odd = sides
            assert even | odd == mask and not even & odd, where
            assert even >> verts[0] & 1, where
            assert all(
                (even >> u & 1) != (even >> v & 1)
                for u, v in g.edges
                if mask >> u & 1
            ), where


def test_component_layers_on_sub_masks_match_networkx():
    # components of the subgraph induced on a random vertex mask
    rng = random.Random(14)
    for g in GRAPHS:
        within = rng.getrandbits(g.n) << 1
        H = _to_nx(g).subgraph(_vertices(within))
        where = (g.n, g.sorted_edges(), within)
        layers = graphs._component_layers(g.adjacency, within)
        assert [_vertices(mask) for mask, *_ in layers] == sorted(
            tuple(sorted(c)) for c in nx.connected_components(H)
        ), where
        for mask, sides, edges in layers:
            part = H.subgraph(_vertices(mask))
            assert (sides is not None) == nx.is_bipartite(part), where
            assert edges == part.number_of_edges(), where


# each lazy fact and the helper that computes it
FACT_HELPERS = {
    "adjacency": (graphs, "_adjacency"),
    "component_colorings": (graphs, "_component_layers"),
    "four_cycle_adjacency": (graphs, "_four_cycle_union_edges"),
    "blocks": (graphs, "_blocks"),
    "forest_count": (matroids, "matrix_tree_count"),
    "_forests": (matroids, "_enumerate_forests"),
    "_matroidal_ideal": (matroids, "_build_matroidal_ideal"),
}


def test_each_fact_is_computed_once_per_instance(monkeypatch):
    calls = {}
    for fact, (module, helper) in FACT_HELPERS.items():
        original = getattr(module, helper)

        def counted(*args, _fact=fact, _original=original):
            calls[_fact] = calls.get(_fact, 0) + 1
            return _original(*args)

        monkeypatch.setattr(module, helper, counted)
    facts = [name for name, v in vars(SimpleGraph).items() if isinstance(v, lazy)]
    bowtie = {(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)}
    for g in (SimpleGraph(5, frozenset(bowtie)), SimpleGraph(4, frozenset({(1, 2)}))):
        calls.clear()
        first = {name: getattr(g, name) for name in facts}
        again = {name: getattr(g, name) for name in facts}
        assert all(again[name] is first[name] for name in facts)
        assert calls == dict.fromkeys(FACT_HELPERS, 1)
        assert {name: vars(g)[name] for name in facts} == first


def test_lazy_facts_keep_the_record_immutable():
    g = SimpleGraph(3, frozenset({(1, 2), (2, 3)}))
    assert g.adjacency == (0, 0b100, 0b1010, 0b100)
    for name, value in (("n", 4), ("edges", frozenset()), ("adjacency", ())):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g.n == 3 and g.adjacency == (0, 0b100, 0b1010, 0b100)


def test_class_access_returns_the_descriptor():
    descriptor = SimpleGraph.adjacency
    assert isinstance(descriptor, lazy)
    assert descriptor.name == "adjacency"
    assert vars(SimpleGraph)["forest_count"] is SimpleGraph.forest_count

"""Shared test fixtures and independent brute-force oracles.

The oracles here deliberately use different algorithms from the package
(combinations_with_replacement instead of incremental accumulation,
Fraction Gauss-Jordan instead of fraction-free elimination, permutation
scans instead of DFS) so the two sides stay independent.
"""

import os
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd, lcm
from pathlib import Path

import freiman
from freiman import SimpleGraph


def cli_env():
    """Environment for a ``python -m freiman.cli`` subprocess that runs the
    same ``freiman`` package this test process imported.

    The absolute directory holding that package goes first on
    ``PYTHONPATH``, followed by any entries already there, so the child
    finds it whatever its working directory and whether or not the
    package is installed.
    """
    env = dict(os.environ)
    package_root = str(Path(freiman.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return env


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def brute_ksum(points, k):
    """k-fold sumset by enumerating all multisets of k summands."""
    out = set()
    for combo in combinations_with_replacement(points, k):
        total = combo[0]
        for p in combo[1:]:
            total = vadd(total, p)
        out.add(total)
    return out


def brute_rank(vectors):
    """Rank over Q by Gauss-Jordan on Fractions."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def brute_nullspace(rows, ncols):
    """Integer basis of the nullspace by Gauss-Jordan on Fractions: one
    vector per free column, 1 there and 0 at the other free columns,
    scaled to coprime integers."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []  # (row, col)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in pivots:
            v[c] = -m[i][free]
        denom = lcm(*(x.denominator for x in v))
        ints = [int(x * denom) for x in v]
        g = gcd(*ints)
        basis.append(tuple(x // g for x in ints))
    return basis


def brute_affine_dim(points):
    pts = sorted(points)
    return brute_rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])


def brute_minimalize(vectors):
    """Antichain of minimal vectors by the quadratic definition."""
    vecs = sorted(set(map(tuple, vectors)))
    keep = []
    for v in vecs:
        if not any(
            w != v and all(a <= b for a, b in zip(w, v)) for w in vecs
        ):
            keep.append(v)
    return set(keep)


def brute_simple_cycles(g: SimpleGraph):
    """Every simple cycle as a canonical tuple, by checking all vertex
    arrangements of all subsets.  Exponential; fine for tiny graphs."""
    adj = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    found = set()
    verts = list(range(1, g.n + 1))
    for size in range(3, g.n + 1):
        for subset in combinations(verts, size):
            first = subset[0]
            for rest in permutations(subset[1:]):
                cycle = (first,) + rest
                if all(
                    cycle[(i + 1) % size] in adj[cycle[i]] for i in range(size)
                ):
                    if cycle[1] < cycle[-1]:
                        found.add(cycle)
    return sorted(found, key=lambda c: (len(c), c))


def brute_articulation_points(g: SimpleGraph):
    """Vertices whose removal increases the component count of their
    component, by direct recount."""

    def count_components(vertices, edges):
        parent = {v: v for v in vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        return len({find(v) for v in vertices})

    base = count_components(range(1, g.n + 1), g.edges)
    points = set()
    for v in range(1, g.n + 1):
        rest = [u for u in range(1, g.n + 1) if u != v]
        edges = [e for e in g.edges if v not in e]
        if rest and count_components(rest, edges) > base:
            points.add(v)
    return points


def component_matrix_tree(g: SimpleGraph):
    """Number of spanning forests: the product over components of reduced
    Laplacian determinants, each by Gauss elimination on Fractions."""
    total = Fraction(1)
    for comp in freiman.components(g):
        size = comp.n - 1
        lap = [[Fraction(0)] * size for _ in range(size)]
        for u, v in comp.edges:
            for a, b in ((u, v), (v, u)):
                if a <= size:
                    lap[a - 1][a - 1] += 1
                    if b <= size:
                        lap[a - 1][b - 1] -= 1
        for c in range(size):
            piv = next(i for i in range(c, size) if lap[i][c])  # nonsingular
            lap[c], lap[piv] = lap[piv], lap[c]
            total *= lap[c][c] * (-1 if piv != c else 1)
            for i in range(c + 1, size):
                f = lap[i][c] / lap[c][c]
                lap[i] = [x - f * y for x, y in zip(lap[i], lap[c])]
    return int(total)


def walk_search_freiman(g: SimpleGraph):
    """The paper's statement, by the walk search: every component is
    Freiman and at most one has a non-polynomial edge ring.  A connected
    graph is Freiman iff its edge ring is a polynomial ring, or its
    4-cycle union H is K(2,s) and no primitive even closed walk is longer
    than 4.  An empty H goes through the search too.  H, on s + 2 >= 4
    vertices, is K(2,s) iff it has 2s edges and they join some vertex
    pair a, b to all other vertices."""
    if len(g.component_colorings) > 1:
        comps = freiman.components(g)
        nonpoly = [c for c in comps if not freiman.is_polynomial_edge_ring(c)]
        return len(nonpoly) <= 1 and all(map(walk_search_freiman, nonpoly))
    if freiman.is_polynomial_edge_ring(g):
        return True
    h = freiman.four_cycle_union_subgraph(g).edges
    verts = {v for e in h for v in e}
    k2s = len(verts) >= 4 and len(h) == 2 * (len(verts) - 2) and any(
        h == {(min(x, y), max(x, y)) for x in (a, b) for y in verts - {a, b}}
        for a, b in combinations(verts, 2)
    )
    if h and not k2s:
        return False
    return freiman.has_long_primitive_even_walk(g) is None


def bench_module(name):
    """The module bench/<name>.py, loaded from its file."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def graph(n, edges):
    return SimpleGraph.from_edges(n, edges)


def cycle_graph(r):
    return graph(r, [(i, i % r + 1) for i in range(1, r + 1)])


def path_graph(r):
    return graph(r, [(i, i + 1) for i in range(1, r)])


def complete_graph(n):
    return graph(n, list(combinations(range(1, n + 1), 2)))


def complete_bipartite(a, b):
    left = range(1, a + 1)
    right = range(a + 1, a + b + 1)
    return graph(a + b, [(u, v) for u in left for v in right])


def pentagon_chain(t):
    """t pentagons, each glued to the next at one vertex: 4t + 1 vertices,
    5t edges, t cycles and no 4-cycle."""
    edges = []
    for i in range(0, 4 * t, 4):
        ring = range(i + 1, i + 6)
        edges += zip(ring, [*ring[1:], ring[0]])
    return graph(4 * t + 1, edges)


def generalized_petersen(n, k):
    """GP(n, k): the outer cycle 1..n, spokes i - (n + i), and the inner
    edges (n + i) - (n + (i + k) mod n)."""
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(i, n + i) for i in range(1, n + 1)]
    edges += [(n + i, n + (i + k - 1) % n + 1) for i in range(1, n + 1)]
    return graph(2 * n, edges)


def cactus_graph(rng, sizes, isolated=0):
    """A seeded cactus: one block per entry of sizes, a bridge for 2 and a
    cycle of that length otherwise, each hung at a random vertex of the
    blocks before it; then isolated vertices, and all labels shuffled."""
    n, edges = 1, []
    for size in sizes:
        ring = [rng.randint(1, n), *range(n + 1, n + size)]
        edges += zip(ring, ring[1:] + ring[:1])
        n += size - 1
    labels = rng.sample(range(1, n + isolated + 1), n + isolated)
    return graph(n + isolated, [(labels[u - 1], labels[v - 1]) for u, v in edges])


def bowtie():
    """Two triangles sharing vertex 3."""
    return graph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])


def edge_vectors(g: SimpleGraph):
    return [
        tuple(1 if k in (u, v) else 0 for k in range(1, g.n + 1))
        for u, v in g.sorted_edges()
    ]

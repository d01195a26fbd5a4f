"""Cross-validation harness: combinatorial classifiers vs. the numeric
sumset oracle over exhaustive and randomized graph corpora.

Every named row below is an identity or bound that must hold on every
instance; the summary is a pass/fail matrix.  Instances that trip a
resource guard are counted as skipped for that row, never as passes.
Aggregation is order-independent, so chunks may be verified in parallel.

The graph oracle is the edge ideal's own doubling and rank, grown one
edge at a time: the exhaustive sweep walks each aligned block of edge
masks depth first and carries that state from parent to child (2A' =
2A | A' << e on bitsets), and random mode grows 2A one row per edge;
later powers add A to the last sumset.  The walk also carries the
neighbour masks, components, 2-colourings and the 4-cycle union H, so a
connected mask becomes a graph with no search.
The matroid oracle reads the spanning forests as edge masks, packs each
mask's binary digits in base 4 (3A) or base e ((e - 1)A), and sums and
ranks them directly.
"""

import os
import random
from functools import reduce
from itertools import combinations, permutations
from math import comb

from .errors import PreconditionError, ResourceCapError, effective_cap, cap_vertex_pairs
from .fiber import _growth, fiber_profile, mu_from_h
from .formats import graph_to_dict
from .graphs import (
    SimpleGraph,
    _edge_masks,
    _four_cycle_shape,
    _four_cycle_union_edges,
    _graph_verdict,
    _has_polynomial_edge_ring,
    _long_walk,
    _vertices,
)
from .lattice import _doubling, _plus, _shifts, _size
from .linalg import _extend_basis, integer_rank
from .matroids import _check_forest_cap, _rows, _trimmed_h, classify_freiman_matroid, cut_vertices

GRAPH_ROWS = [
    "graph-classifier-vs-numeric",
    "doubling-h2-nonnegative",
    "spread-upper-bound",
    "edge-ring-spread-identity",
    "bipartite-rule-vs-general",
    "four-cycle-doubling-deficit",
    "polynomial-growth-forward",
]

DEEP_ROWS = [
    "growth-lower-bound",
    "partial-sums-nonnegative",
    "growth-equality-transfer",
    "h-mu-roundtrip",
]

MATROID_ROWS = [
    "matroid-classifier-vs-numeric",
    "matroid-spread-formula-vs-numeric",
    "forest-count-matrix-tree",
    "matroid-polynomial-growth",
    "matroid-regularity-bounds",
]

ALL_ROWS = GRAPH_ROWS + DEEP_ROWS + MATROID_ROWS

MAX_COUNTEREXAMPLES = 3

# the deep rows run on graphs with at most this many vertices, and the
# regularity row on graphs with at most this many edges
DEEP_MAX_VERTICES = 5
REGULARITY_MAX_EDGES = 7


class _Tally:
    """Per-row instance/failure/skip counts plus a few counterexamples."""

    def __init__(self):
        self.rows = {name: [0, 0, 0] for name in ALL_ROWS}
        self.counterexamples = []

    def record(self, name, ok, g):
        row = self.rows[name]
        row[0] += 1
        if not ok:
            row[1] += 1
            if sum(1 for r, _ in self.counterexamples if r == name) < MAX_COUNTEREXAMPLES:
                self.counterexamples.append((name, graph_to_dict(g)))

    def skip(self, name):
        self.rows[name][2] += 1

    def merge(self, rows, counterexamples):
        for name, counts in rows.items():
            self.rows[name] = [a + b for a, b in zip(self.rows[name], counts)]
        for name, gdict in counterexamples:
            if sum(1 for r, _ in self.counterexamples if r == name) < MAX_COUNTEREXAMPLES:
                self.counterexamples.append((name, gdict))


# The oracle state of an edge ideal: its packed edge vectors A (in the
# fields of _edge_shifts), A and 2A as lattice code sets (bitsets in the
# walk), and fraction-free echelon rows (pivot column, row) of the 0/1 edge
# vectors, each zero at the pivots before it, so len(basis) is the rank.
_NO_EDGES = ((), 0, 0, ())


def _edge_shifts(n):
    """Fields on n vertices wide enough for 4A (the deep rows), else 3A."""
    return _shifts(n, 4 if n <= DEEP_MAX_VERTICES else 3)


def _edge_step(n, u, v):
    """The packed code and the 0/1 vector of the edge uv on vertices 1..n."""
    shifts = _edge_shifts(n)
    row = [0] * n
    row[u - 1] = row[v - 1] = 1
    return 1 << shifts[u - 1] | 1 << shifts[v - 1], row


def _grow(state, step):
    """The walk's oracle state with one more edge e: e joins A, e + a joins
    2A for a in A and a = e, and e's row extends the basis."""
    codes, a, doubling, basis = state
    code, row = step
    a |= 1 << code
    return codes + (code,), a, doubling | a << code, _extend_basis(basis, row)


def _check_graph_instance(g, oracle, tally, cap):
    """All graph-side rows on one graph with at least one edge, whose
    edge ideal has the oracle state oracle."""
    freiman, reason, clauses = _graph_verdict(g)
    # the oracle: the edge ideal's own sumset and rank, no classifier fact.
    # Every edge vector lies on x_1 + ... + x_n = 2, which misses the
    # origin, so the rank is the analytic spread (affine dimension + 1).
    codes, _, doubling, basis = oracle
    if (size := _size(doubling)) > cap:
        raise ResourceCapError(f"sumset at power 2 exceeds {cap} points", cap)
    profile = fiber_profile((1, len(codes), size), len(basis))
    tally.record("graph-classifier-vs-numeric", freiman == profile.freiman, g)
    tally.record("doubling-h2-nonnegative", profile.h2 >= 0, g)
    tally.record("spread-upper-bound", profile.ell <= min(profile.mu_series[1], g.n), g)
    # isolated vertices count as bipartite components
    comps = g.component_colorings
    nbip = sum(1 for _, sides, _ in comps if sides is not None)
    tally.record("edge-ring-spread-identity", profile.ell == g.n - nbip, g)

    # the verdict against the paper's statement decided by the walk search,
    # on all-bipartite graphs: the scope whose counts the row has recorded
    if nbip == len(comps):
        try:
            ok = _walk_search_freiman(g, cap) == freiman
            tally.record("bipartite-rule-vs-general", ok, g)
        except ResourceCapError:
            tally.skip("bipartite-rule-vs-general")

    m = g.num_edges
    has_c4 = any(g.four_cycle_adjacency)
    deficit = profile.mu_series[2] < comb(m + 1, 2)
    tally.record("four-cycle-doubling-deficit", has_c4 == deficit, g)

    # the edge ring is polynomial iff every clause is; a lone clause is the reason
    if reason == "no-primitive-walks" or len(clauses) > 1 and all(
        why == "no-primitive-walks" for *_, why in clauses
    ):
        try:
            ok = _mu(codes, doubling, 3, cap) == [1, m, comb(m + 1, 2), comb(m + 2, 3)]
            tally.record("polynomial-growth-forward", ok, g)
        except ResourceCapError:
            tally.skip("polynomial-growth-forward")

    if g.n <= DEEP_MAX_VERTICES:
        _check_deep_instance(g, codes, doubling, profile, tally, cap)


def _mu(codes, doubling, top, cap):
    """[1, |A|, |2A|, ..., |top A|] for the packed codes A with doubling 2A;
    each later power adds A to the one before."""
    mu, last = [1, len(codes), _size(doubling)], doubling
    for k in range(3, top + 1):
        last = _plus(codes, last, cap, f"sumset at power {k}")
        mu.append(_size(last))
    return mu


def _walk_search_freiman(g, cap):
    """The paper's statement, by the walk search and no cycle count: at most
    one component has a non-polynomial edge ring, and in it a 4-cycle union
    H that is neither empty nor K(2,s) gives False, else a long walk does."""
    nonpoly = [c for c in g.component_colorings if not _has_polynomial_edge_ring(*c)]
    if len(nonpoly) != 1:
        return not nonpoly
    mask = nonpoly[0][0]
    shaped = _four_cycle_shape(g, mask) is not None
    return shaped and _long_walk(g, cap, mask) is None


def _check_deep_instance(g, codes, doubling, profile, tally, cap):
    """Series-level rows (powers up to 4) on one graph's edge ideal."""
    try:
        mu = _mu(codes, doubling, 4, cap)
    except ResourceCapError:
        for name in DEEP_ROWS:
            tally.skip(name)
        return
    growth = _growth(mu, profile.ell)
    rows = growth.rows
    tally.record("growth-lower-bound", all(r.mu_k >= r.lower_bound for r in rows), g)
    tally.record("partial-sums-nonnegative", all(r.nonnegative for r in rows), g)
    if profile.h2 == 0:
        ok = all(r.equality for r in rows)
    else:
        ok = rows[0].mu_k > rows[0].lower_bound
    tally.record("growth-equality-transfer", ok, g)
    tally.record("h-mu-roundtrip", mu_from_h(growth.h, profile.ell, 4) == mu, g)


def _check_matroid_instance(g, tally, cap):
    """All matroid-side rows on one graph with at least one edge, against
    the closed-form verdict.  The oracle packs each spanning forest's edge
    mask as base-B digits, B = 4 (to 3A) if Freiman, else B = e (to
    (e - 1)A, for the regularity row), forms their sumsets and ranks their
    0/1 vectors: they lie on x_1 + ... + x_e = n - s, which misses the
    origin, so the rank is the analytic spread."""
    verdict = classify_freiman_matroid(g)
    e = g.num_edges
    try:
        _check_forest_cap(g, cap)
        forests = g._forests
        codes = [int(bin(f)[2:], 4) for f in forests]
        doubling = _doubling(codes, 2 * e, cap)[1]
    except ResourceCapError:
        for name in MATROID_ROWS:
            tally.skip(name)
        return
    ell = integer_rank(_rows(forests, e))
    profile = fiber_profile((1, len(codes), _size(doubling)), ell)
    tally.record("matroid-classifier-vs-numeric", verdict.freiman == profile.freiman, g)
    tally.record("matroid-spread-formula-vs-numeric", verdict.spread_formula == profile.ell, g)
    tally.record("forest-count-matrix-tree", len(codes) == g.forest_count, g)
    if verdict.freiman:
        try:
            mu = _mu(codes, doubling, 3, cap)
            ok = all(mu[k] == comb(ell + k - 1, k) for k in range(1, 4))
            tally.record("matroid-polynomial-growth", ok, g)
        except ResourceCapError:
            tally.skip("matroid-polynomial-growth")
    elif e <= REGULARITY_MAX_EDGES:
        try:
            # (e - 1)A has digits below e, so no digit carries
            codes = [int(bin(f)[2:], e) for f in forests]
            doubling = _doubling(codes, (e ** e - 1).bit_length(), cap)[1]
            reg = len(_trimmed_h(_mu(codes, doubling, e - 1, cap), ell))
            # c = 0 and s = 1 on a 2-connected graph: the bound is e - 1
            c = len(cut_vertices(g))
            s = sum(1 for *_, edges in g.component_colorings if edges)
            ok = 3 <= reg <= e - c - s
            tally.record("matroid-regularity-bounds", ok, g)
        except ResourceCapError:
            tally.skip("matroid-regularity-bounds")


def _is_canonical_mask(n, mask, pairs):
    """Smallest mask among all vertex relabelings (used by --up-to-iso)."""
    index = {e: i for i, e in enumerate(pairs)}
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    for perm in permutations(range(1, n + 1)):
        remapped = 0
        for u, v in edges:
            a, b = perm[u - 1], perm[v - 1]
            remapped |= 1 << index[(min(a, b), max(a, b))]
        if remapped < mask:
            return False
    return True


def _join(parts, u, v):
    """The walk's components (comps, colour, odd) once the edge uv is in:
    comps[x] is x's component mask, colour splits each bipartite component
    into its two sides, and odd is the union of the other components."""
    comps, colour, odd = parts
    cu, cv = comps[u], comps[v]
    same = not (colour >> u ^ colour >> v) & 1
    if cu == cv:
        return comps, colour, odd | cu if same else odd
    both = cu | cv
    comps = tuple(both if c & both else c for c in comps)
    return comps, colour ^ cv if same else colour, odd | both if odd & both else odd


def _add_four_cycles(h, adj, u, v):
    """The 4-cycle union h of the neighbour masks adj once the edge uv is
    in: the new 4-cycles are u-v-a-b with a in N(v) and b in N(u) & N(a).
    When uv closes none, h itself is returned."""
    new = None
    rest, nu = adj[v], adj[u]
    while rest:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        if common := nu & adj[a]:
            new = new or list(h)
            new[u] |= 1 << v | common
            new[v] |= 1 << u | low
            new[a] |= 1 << v | common
            for b in _vertices(common):
                new[b] |= 1 << u | low
    return h if new is None else tuple(new)


def _sweep_chunk(args):
    """Check every connected graph whose mask lies in the aligned block
    [lo, hi) of 2^b masks, by a depth-first walk that carries the oracle
    state: the root folds in the block's fixed high bits, and each child
    adds one edge bit below its parent's lowest bit, in increasing bit
    order.  Pre-order then visits the masks in increasing order.  The walk
    carries the neighbour masks, H (_add_four_cycles) and components too."""
    (n, lo, hi, cap, max_edges, up_to_iso) = args
    pairs = list(combinations(range(1, n + 1), 2))
    steps = [_edge_step(n, u, v) for u, v in pairs]
    everyone = (1 << n + 1) - 2
    tally = _Tally()
    graphs_seen = 0

    def walk(mask, below, edges, adj, h, parts, oracle):
        nonlocal graphs_seen
        comps, colour, odd = parts
        if comps[1] == everyone and (
            not up_to_iso or _is_canonical_mask(n, mask, pairs)
        ):
            side = colour ^ everyone if colour & 2 else colour  # vertex 1's side first
            coloring = (everyone, None if odd else (everyone ^ side, side), len(edges))
            g = SimpleGraph._trusted(n, frozenset(edges), adjacency=adj, four_cycle_adjacency=h,
                                     component_colorings=(coloring,))
            graphs_seen += 1
            _check_graph_instance(g, oracle, tally, cap)
            if len(edges) <= max_edges:
                _check_matroid_instance(g, tally, cap)
        for i in range(below):
            u, v = pairs[i]
            joined = _join(parts, u, v)
            if not i and joined[0][1] != everyone:
                continue  # a leaf, and not connected
            child = list(adj)
            child[u] |= 1 << v
            child[v] |= 1 << u
            walk(mask | 1 << i, i, edges + (pairs[i],), tuple(child),
                 _add_four_cycles(h, adj, u, v), joined, _grow(oracle, steps[i]))

    # lo is aligned, so its set bits are the block's fixed high bits
    fixed = tuple(pairs[i] for i in range(len(pairs)) if lo >> i & 1)
    oracle = reduce(_grow, [_edge_step(n, u, v) for u, v in fixed], _NO_EDGES)
    parts = reduce(lambda p, e: _join(p, *e), fixed, (tuple(1 << v for v in range(n + 1)), 0, 0))
    adj = _edge_masks(n + 1, fixed)
    walk(lo, (hi - lo).bit_length() - 1, fixed, adj, _four_cycle_union_edges(adj), parts, oracle)
    return tally.rows, tally.counterexamples, graphs_seen


def _random_chunk(args):
    (graph_dicts, cap, max_edges) = args
    tally = _Tally()
    for gd in graph_dicts:
        g = SimpleGraph(gd["n"], frozenset(tuple(e) for e in gd["edges"]))
        codes, rows = zip(*(_edge_step(g.n, *e) for e in g.edges))
        # row i adds edge i to edges 0..i: stop at the first 2A over the cap
        a, doubling = _doubling(codes, _edge_shifts(g.n).stop, cap)
        oracle = (codes, a, doubling, reduce(_extend_basis, rows, ()))
        _check_graph_instance(g, oracle, tally, cap)
        if g.num_edges <= max_edges:
            _check_matroid_instance(g, tally, cap)
    return tally.rows, tally.counterexamples, len(graph_dicts)


def random_graph(rng, max_vertices, min_vertices=2):
    """One seeded random graph with at least one edge; may be disconnected."""
    n = rng.randint(min_vertices, max_vertices)
    p = rng.uniform(0.15, 0.85)
    edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    if not edges:
        u = rng.randint(1, n - 1) if n > 1 else 1
        v = rng.randint(u + 1, n)
        edges = [(u, v)]
    return SimpleGraph(n, frozenset(edges))


def _merge_results(results):
    tally = _Tally()
    graphs_total = 0
    for rows, counters, seen in results:
        tally.merge(rows, counters)
        graphs_total += seen
    return tally, graphs_total


def _run_chunks(worker, chunk_args, jobs):
    if jobs <= 1:
        return [worker(a) for a in chunk_args]
    from multiprocessing import get_context

    with get_context("fork").Pool(jobs) as pool:
        return pool.map(worker, chunk_args)


def run_verify(
    mode="exhaustive",
    max_vertices=6,
    max_edges=6,
    count=200,
    seed=0,
    cap=None,
    up_to_iso=False,
    jobs=None,
    no_timing=False,
) -> dict:
    """Run the whole matrix and return the summary report dict."""
    import time

    started = time.perf_counter()
    jobs = max(1, min(4 if jobs is None else jobs, os.cpu_count() or 1))
    if mode not in ("exhaustive", "random"):
        raise ValueError("mode must be 'exhaustive' or 'random'")
    # a run that checks no graph must not report all_passed
    if max_vertices < 2:
        raise PreconditionError(f"{mode} mode needs --max-vertices of at least 2")
    if mode == "random" and count < 1:
        raise PreconditionError("random mode needs --count of at least 1")
    cap = effective_cap(cap)

    chunk_args = []
    if mode == "exhaustive":
        # every nonempty edge mask is scanned, so bound their number first
        masks = sum((1 << comb(n, 2)) - 1 for n in range(2, max_vertices + 1))
        if masks > 8 * cap:
            raise ResourceCapError(f"scanning {masks} edge masks", cap)
        for n in range(2, max_vertices + 1):
            total = 1 << comb(n, 2)
            pieces = max(1, min(jobs * 8, total // 4096)) if n >= 6 else 1
            step = total >> pieces.bit_length() - 1  # a power of two
            chunk_args += [
                (n, lo, lo + step, cap, max_edges, up_to_iso) for lo in range(0, total, step)
            ]
        worker = _sweep_chunk
    else:
        cap_vertex_pairs(max_vertices, cap)  # before drawing any graph
        rng = random.Random(seed)
        graphs = [graph_to_dict(random_graph(rng, max_vertices)) for _ in range(count)]
        step = max(1, (len(graphs) + jobs * 4 - 1) // (jobs * 4))
        chunk_args = [
            (graphs[lo : lo + step], cap, max_edges) for lo in range(0, len(graphs), step)
        ]
        worker = _random_chunk

    results = _run_chunks(worker, chunk_args, min(jobs, len(chunk_args)))
    tally, graphs_total = _merge_results(results)
    rows = []
    for name in ALL_ROWS:
        inst, fail, skipped = tally.rows[name]
        rows.append({"name": name, "instances": inst, "failures": fail,
                     "skipped": skipped, "status": "FAIL" if fail else "pass"})
    report = {
        "command": "verify",
        "mode": mode,
        "parameters": {
            "max_vertices": max_vertices,
            "max_edges": max_edges,
            "count": count if mode == "random" else None,
            "seed": seed if mode == "random" else None,
            "up_to_iso": up_to_iso,
            "deep_max_vertices": DEEP_MAX_VERTICES,
            "regularity_max_edges": REGULARITY_MAX_EDGES,
        },
        "graphs_checked": graphs_total,
        "rows": rows,
        "counterexamples": [
            {"row": name, "graph": gdict} for name, gdict in tally.counterexamples
        ],
        "all_passed": all(row["failures"] == 0 for row in rows),
    }
    if not no_timing:
        report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    return report

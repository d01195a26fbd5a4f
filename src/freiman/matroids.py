"""Cycle matroids: spanning-forest bases, matroidal ideals, the
one-cycle classification, spread formulas, and base-ring regularity.

The ground set is the edge list of the source graph in a fixed order
(sorted by endpoints), so basis indicator vectors and generator sets are
reproducible.  Generator counts of powers of the matroidal ideal equal
lattice-point counts of dilated base polytopes, so the h-polynomial of
the base ring is read off the sumset series directly; its degree is at
most e - 2, which justifies declaring trailing zeros exact.
"""

from .errors import PreconditionError, Record, ResourceCapError, effective_cap
from .fiber import h_vector, mu_series
from .graphs import SimpleGraph, _vertices, cyclomatic_number
from .ideals import MonomialIdeal, _fresh_ideal
from .linalg import integer_det


class CycleMatroid(Record):
    """Cycle matroid of a graph: ground set = indexed edges, bases =
    spanning forests as sorted tuples of edge indices."""

    source: SimpleGraph
    ground: tuple   # edges e_1..e_m in fixed (sorted) order
    bases: tuple    # sorted tuples of 0-based edge indices

    def __post_init__(self):
        if not self.bases:
            raise ValueError("a cycle matroid must have at least one basis")
        sizes = {len(b) for b in self.bases}
        if len(sizes) != 1:
            raise ValueError("bases must all have the same size")


class MatroidVerdict(Record):
    """Closed-form Freiman verdict for a cycle matroid.  The numeric spread
    that checks spread_formula is the oracle's, not the verdict's."""

    freiman: bool
    total_cycles_bound: int   # e - n + s, the number of independent cycles
    spread_formula: int       # e - b + 1, b blocks


def matrix_tree_count(g: SimpleGraph) -> int:
    """Number of spanning forests, one spanning tree per block: the product
    of reduced Laplacian determinants over the blocks with >= 3 vertices,
    as a bridge is its own only tree.  Read it as g.forest_count."""
    adj = g.adjacency
    total = 1
    for block in g.blocks:
        if block.bit_count() < 3:
            continue  # a bridge
        verts = _vertices(block)[:-1]
        reduced = [[-(adj[v] >> w & 1) for w in verts] for v in verts]
        for i, v in enumerate(verts):
            reduced[i][i] = (adj[v] & block).bit_count()
        total *= integer_det(reduced)
    return total


def spanning_forests(g: SimpleGraph, cap=None) -> list:
    """All spanning forests as sorted tuples of edge indices into
    g.sorted_edges(), in lexicographic order.

    The forests are enumerated once per graph (g._forests); every call
    first checks the cap and hands out a fresh list.
    """
    _check_forest_cap(g, cap)
    return list(g._forests)


def _check_forest_cap(g: SimpleGraph, cap):
    """Check the cap against the matrix-tree count.  Every branch of the
    forest search ends in a forest, so this one check bounds its work."""
    if not g.edges:
        raise PreconditionError("an edgeless graph has no spanning forests")
    cap = effective_cap(cap)
    expected = g.forest_count
    if expected > cap:
        raise ResourceCapError(f"{expected} spanning forests", cap)


def _enumerate_forests(g: SimpleGraph) -> tuple:
    """Spanning forests by a depth-first search over the sorted edges, in
    the manner of Read and Tarjan (1975), cross-checked against the
    matrix-tree count.  Unbounded: spanning_forests checks the cap.

    Edge i is taken when its ends lie in different trees of the forest
    so far, and left out when the kept edges without it still join its
    ends, so they keep as many components as g.  So every branch ends in
    a forest, and taking first yields them in lexicographic order.
    """
    ground = g.sorted_edges()
    rank = g.n - len(g.component_colorings)
    forests = []
    # edge index, taken edges, per-vertex tree names, per-name tree masks,
    # kept neighbour masks
    verts = range(g.n + 1)
    stack = [(0, (), tuple(verts), tuple(1 << v for v in verts), g.adjacency)]
    while stack:
        i, taken, names, trees, kept = stack.pop()
        missing = rank - len(taken)
        if missing in (0, len(ground) - i):  # done, or every unseen edge is forced
            forests.append(taken + tuple(range(i, i + missing)))
            continue
        u, w = ground[i]
        a, b = names[u], names[w]
        if a == b:  # closes a cycle, so it is left out
            stack.append((i + 1, taken, names, trees, kept))
            continue
        without = list(kept)
        without[u] ^= 1 << w
        without[w] ^= 1 << u
        if _reaches(without, u, w):
            stack.append((i + 1, taken, names, trees, without))
        big, small = (a, b) if trees[a].bit_count() >= trees[b].bit_count() else (b, a)
        renamed, joined = list(names), list(trees)
        for v in _vertices(trees[small]):  # rename the smaller tree only
            renamed[v] = big
        joined[big] |= trees[small]
        stack.append((i + 1, taken + (i,), renamed, joined, kept))
    if len(forests) != g.forest_count:
        raise ArithmeticError(
            f"forest enumeration found {len(forests)}, matrix-tree says {g.forest_count}"
        )
    return tuple(forests)


def _reaches(adj, u, w):
    """Whether a path joins u to w in the graph of the neighbour masks
    adj, by a BFS from u that stops once it sees w."""
    seen = frontier = 1 << u
    while frontier and not seen >> w & 1:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen >> w & 1


def cycle_matroid(g: SimpleGraph, cap=None) -> CycleMatroid:
    return CycleMatroid(
        source=g,
        ground=tuple(g.sorted_edges()),
        bases=tuple(spanning_forests(g, cap=cap)),
    )


def matroidal_ideal(g: SimpleGraph, cap=None) -> MonomialIdeal:
    """Squarefree ideal with one generator per spanning forest, in
    m = |E(g)| variables; equigenerated of degree n - s.  Built once per
    graph (g._matroidal_ideal); every call first checks the cap as
    spanning_forests does."""
    _check_forest_cap(g, cap)
    return g._matroidal_ideal


def _rows(forests, m):
    """The 0/1 vectors in Z^m of the forests, as lists."""
    rows = []
    for f in forests:
        rows.append(row := [0] * m)
        for i in f:
            row[i] = 1
    return rows


def _build_matroidal_ideal(g: SimpleGraph) -> MonomialIdeal:
    """The matroidal ideal of the unbounded g._forests."""
    forests, m = g._forests, g.num_edges
    pts = frozenset(map(tuple, _rows(forests, m)))
    # equal-cardinality 0/1 vectors are automatically an antichain
    return _fresh_ideal(m, pts, ((1,) * m, len(forests[0])))


def cut_vertices(g: SimpleGraph) -> frozenset:
    """Articulation points: the vertices that lie in two or more blocks."""
    seen = shared = 0
    for block in g.blocks:
        shared |= seen & block
        seen |= block
    return frozenset(_vertices(shared))


def matroid_spread_formula(g: SimpleGraph) -> int:
    """Analytic spread of the matroidal ideal, e - b + 1 with b =
    len(g.blocks): M(g) is the direct sum of the cycle matroids of its
    blocks (Whitney 1932), so its base ring is their Segre product and
    each block beyond the first lowers the dimension by one.  (For the
    star on four vertices, three blocks, the spread is 1.)  Reduces to e
    on 2-connected graphs.
    """
    if not g.edges:
        raise PreconditionError("spread formula needs at least one edge")
    return g.num_edges - len(g.blocks) + 1


def classify_freiman_matroid(g: SimpleGraph) -> MatroidVerdict:
    """The cycle matroid is Freiman iff g contains at most one independent
    cycle (e - n + s <= 1), iff its base ring is a polynomial ring.  The
    verdict is closed form: it builds no forest and no ideal, so it takes
    no cap.  An edgeless graph is trivially Freiman with spread 0."""
    bound = cyclomatic_number(g)
    spread = matroid_spread_formula(g) if g.edges else 0
    return MatroidVerdict(bound <= 1, bound, spread)


def base_ring_h_polynomial(g: SimpleGraph, cap=None) -> list:
    """h-vector of the base ring, computed from the generator-count series
    of the matroidal ideal at the formula spread (_trimmed_h)."""
    ideal = matroidal_ideal(g, cap=cap)
    mu = mu_series(ideal, max(g.num_edges - 1, 1), cap=cap)
    return _trimmed_h(mu, matroid_spread_formula(g))


def _trimmed_h(mu, ell):
    """The h-vector of a base ring's series mu to power e - 1 at spread ell,
    past the degree bound e - 2, so trailing zeros are exact and stripped."""
    h = h_vector(mu, ell)
    if h[-1]:
        raise ArithmeticError("h-polynomial exceeds its degree bound e - 2")
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return h


def base_ring_regularity(g: SimpleGraph, cap=None) -> int:
    """One more than the degree of the base-ring h-polynomial."""
    return len(base_ring_h_polynomial(g, cap=cap))

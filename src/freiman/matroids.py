"""Cycle matroids: spanning-forest bases, matroidal ideals, the
one-cycle classification, spread formulas, and base-ring regularity.

The ground set is the edge list of the source graph in a fixed order
(sorted by endpoints), so basis indicator vectors and generator sets are
reproducible.  Generator counts of powers of the matroidal ideal equal
lattice-point counts of dilated base polytopes, so the h-polynomial of
the base ring is read off the sumset series directly; its degree is at
most e - 2, which justifies declaring trailing zeros exact.
"""

from itertools import compress

from .errors import PreconditionError, Record, ResourceCapError, effective_cap
from .fiber import h_vector, mu_series
from .graphs import SimpleGraph, _vertices, cyclomatic_number
from .ideals import MonomialIdeal, _fresh_ideal
from .linalg import integer_det

_BITS = bytes.maketrans(b"01", b"\0\1")  # the digits "0" and "1" as the bytes 0 and 1


class CycleMatroid(Record):
    """Cycle matroid of a graph: ground set = indexed edges, bases =
    spanning forests as sorted tuples of edge indices."""

    source: SimpleGraph
    ground: tuple   # edges e_1..e_m in fixed (sorted) order
    bases: tuple    # sorted tuples of 0-based edge indices

    def __post_init__(self):
        if not self.bases:
            raise ValueError("a cycle matroid must have at least one basis")
        if len({len(b) for b in self.bases}) != 1:
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
    as a bridge is its own only tree, and a k-cycle, a block whose
    vertices but one have degree 2 in it, has k.  Read it as g.forest_count."""
    adj = g.adjacency
    total = 1
    for block in g.blocks:
        if block.bit_count() < 3:
            continue  # a bridge
        verts = _vertices(block)[:-1]
        degrees = [(adj[v] & block).bit_count() for v in verts]
        if sum(degrees) == 2 * len(verts):
            total *= len(verts) + 1
        else:
            total *= integer_det([[d if v == w else -(adj[v] >> w & 1) for w in verts]
                                  for v, d in zip(verts, degrees)])
    return total


def spanning_forests(g: SimpleGraph, cap=None) -> list:
    """All spanning forests as sorted tuples of edge indices into
    g.sorted_edges(), in lexicographic order.

    The forests are enumerated once per graph (g._forests, as edge-index
    masks); every call first checks the cap and lists them afresh.
    """
    _check_forest_cap(g, cap)
    edges = range(g.num_edges)
    return [tuple(compress(edges, row)) for row in _rows(g._forests, g.num_edges)]


def _check_forest_cap(g: SimpleGraph, cap):
    """Check the cap against the matrix-tree count.  Every branch of the
    forest search ends in a forest, so this one check bounds its work."""
    if not g.edges:
        raise PreconditionError("an edgeless graph has no spanning forests")
    if (expected := g.forest_count) > (cap := effective_cap(cap)):
        raise ResourceCapError(f"{expected} spanning forests", cap)


def _enumerate_forests(g: SimpleGraph) -> tuple:
    """Spanning forests as masks of indices into the sorted edges, by a DFS
    in the manner of Read and Tarjan (1975), cross-checked against the
    matrix-tree count.  Unbounded: spanning_forests checks the cap.

    Edge i is taken when its ends lie in different trees of the forest
    so far, and left out when the kept edges without it still join its
    ends, so they keep as many components as g.  So every branch ends in
    a forest, and taking first yields them in lexicographic order.
    """
    ground = g.sorted_edges()
    e, rank = len(ground), g.n - len(g.component_colorings)
    forests = []
    # edge index, taken edge mask, per-vertex tree names, per-name tree
    # masks, kept neighbour masks
    verts = range(g.n + 1)
    stack = [(0, 0, tuple(verts), tuple(1 << v for v in verts), g.adjacency)]
    while stack:
        i, taken, names, trees, kept = stack.pop()
        missing = rank - taken.bit_count()
        if missing == 0 or missing == e - i:  # done, or every unseen edge is forced
            forests.append(taken | ((1 << missing) - 1) << i)
            continue
        u, w = ground[i]
        a, b = names[u], names[w]
        if a == b:  # closes a cycle, so it is left out
            stack.append((i + 1, taken, names, trees, kept))
            continue
        if _reaches(kept, u, w):
            without = list(kept)
            without[u] ^= 1 << w
            without[w] ^= 1 << u
            stack.append((i + 1, taken, names, trees, without))
        big, small = (a, b) if trees[a].bit_count() >= trees[b].bit_count() else (b, a)
        renamed, joined = list(names), list(trees)
        for v in _vertices(trees[small]):  # rename the smaller tree only
            renamed[v] = big
        joined[big] |= trees[small]
        stack.append((i + 1, taken | 1 << i, renamed, joined, kept))
    if len(forests) != g.forest_count:
        raise ArithmeticError(
            f"forest enumeration found {len(forests)}, matrix-tree says {g.forest_count}"
        )
    return tuple(forests)


def _reaches(adj, u, w):
    """Whether a path other than the edge uw joins u to w in the graph of
    the neighbour masks adj, by a BFS from u that stops once it sees w:
    u's first step skips w, and w is never expanded."""
    frontier = adj[u] & ~(1 << w)
    seen = 1 << u | frontier
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
    return CycleMatroid(g, tuple(g.sorted_edges()), tuple(spanning_forests(g, cap=cap)))


def matroidal_ideal(g: SimpleGraph, cap=None) -> MonomialIdeal:
    """Squarefree ideal with one generator per spanning forest, in
    m = |E(g)| variables; equigenerated of degree n - s.  Built once per
    graph (g._matroidal_ideal); every call first checks the cap as
    spanning_forests does."""
    _check_forest_cap(g, cap)
    return g._matroidal_ideal


def _rows(masks, m):
    """The 0/1 vectors in Z^m of the edge-index masks, as bytes: the
    binary digits of each mask, lowest first."""
    digits = f"0{m}b"
    return [format(f, digits)[::-1].encode().translate(_BITS) for f in masks]


def _build_matroidal_ideal(g: SimpleGraph) -> MonomialIdeal:
    """The matroidal ideal of the unbounded g._forests."""
    forests, m = g._forests, g.num_edges
    pts = frozenset(map(tuple, _rows(forests, m)))
    # equal-cardinality 0/1 vectors are automatically an antichain
    return _fresh_ideal(m, pts, ((1,) * m, forests[0].bit_count()))


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

"""Simple graphs, edge ideals, and the Freiman-graph classification.

Vertices are labeled 1..n.  The classifier decides, purely combinatorially,
whether the edge ideal of a graph is Freiman: a connected graph qualifies
iff its edge ring is a polynomial ring, or else the union H of its 4-cycles
is complete bipartite with one part of size exactly 2 and the graph has no
primitive even closed walk longer than 4.  Disconnected graphs reduce to
their components, of which at most one may have a non-polynomial edge ring.

The walk clause has a closed form: with c = e - v + 1 cycles and H =
K(2,s), which holds s - 1, the component is Freiman iff the excess
c - (s - 1) <= [it is not bipartite].  By blocks (Whitney): a block with
no H edge that is not a cycle holds a theta, hence a long even cycle;
odd cycles in two blocks share at most one vertex; and one ear on the
block of H adds only odd cycles or long even ones, two ears a long even
one.  So only a false verdict's witness searches cycles, block by block.

Every graph algorithm here runs on int vertex masks: bit v of a mask is
set iff vertex v belongs to the set.
"""

from functools import reduce

from .errors import PreconditionError, Record, ResourceCapError, effective_cap, lazy
from .ideals import MonomialIdeal, _fresh_ideal


class SimpleGraph(Record):
    """A finite simple graph on vertices 1..n; edges are (u, v) with u < v.

    Derived facts are computed on first use and kept on the instance:
      adjacency              -- tuple of n + 1 int neighbour masks: bit w
                                of adjacency[v] is set iff vw is an edge
                                (adjacency[0] is 0)
      component_colorings    -- one (mask, sides, edges) triple per
                                connected component, ordered by smallest
                                member: mask holds its vertices, sides is
                                the 2-coloring (even, odd), the unions of
                                the even and the odd BFS layers from the
                                smallest member, or None if the component
                                has an odd cycle, and edges is its number
                                of edges
      four_cycle_adjacency   -- neighbour masks, as in adjacency, of the
                                union H of all 4-cycles
      blocks                 -- one vertex mask per block (maximal 2-connected
                                subgraph or bridge), from one lowpoint DFS
      forest_count           -- number of spanning forests (matrix-tree)
      _forests               -- the spanning forests themselves; read them
                                through matroids.spanning_forests, which
                                applies the cap first
      _matroidal_ideal       -- the ideal of those forests; read it
                                through matroids.matroidal_ideal, which
                                applies the same cap first
    Caching is safe because the graph is immutable and every fact is
    immutable too.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph must have at least one vertex")
        for e in self.edges:
            u, v = e
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad edge {e}: need 1 <= u < v <= {self.n}")

    @classmethod
    def from_edges(cls, n, edges):
        """Normalize an iterable of vertex pairs; rejects loops."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            norm.add((min(u, v), max(u, v)))
        return cls(n, frozenset(norm))

    @property
    def num_edges(self):
        return len(self.edges)

    def sorted_edges(self):
        return sorted(self.edges)

    @lazy
    def adjacency(self):
        return _adjacency(self)

    @lazy
    def component_colorings(self):
        return _component_layers(self.adjacency, (1 << self.n + 1) - 2)

    @lazy
    def four_cycle_adjacency(self):
        return _four_cycle_union_edges(self.adjacency)

    @lazy
    def blocks(self):
        return _blocks(self.adjacency)

    @lazy
    def forest_count(self):
        from . import matroids

        return matroids.matrix_tree_count(self)

    @lazy
    def _forests(self):
        from . import matroids

        return matroids._enumerate_forests(self)

    @lazy
    def _matroidal_ideal(self):
        from . import matroids

        return matroids._build_matroidal_ideal(self)


class GraphVerdict(Record):
    """Classification outcome with a machine-readable reason trail.

    reason is one of:
      no-primitive-walks    -- the edge ring is a polynomial ring
      K2s-with-short-walks  -- true: H = K(2,s) and the cycle excess
                               c - (s - 1) is at most [not bipartite];
                               false: H is neither empty nor K(2,s)
      witness-long-walk     -- H is empty or the excess is too large; the
                               witness is a primitive even walk of length > 4
      component-rule        -- verdict combined across components
    A witness is present whenever freiman is False.
    """

    freiman: bool
    reason: str
    witness: dict | None = None


def _adjacency(g: SimpleGraph):
    return _edge_masks(g.n + 1, g.edges)


def _edge_masks(size, edges):
    """Neighbour masks of the vertices 0..size-1 for the edge pairs edges."""
    adj = [0] * size
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def _mask_edges(adj):
    """The edges (u, w), u < w, of the neighbour masks adj, sorted."""
    n = len(adj)
    return [(u, w) for u in range(n) for w in range(u + 1, n) if adj[u] >> w & 1]


def _vertices(mask):
    """The vertices of mask in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _component_layers(adj, within):
    """(mask, sides, edges) for each connected component of the subgraph
    induced on the vertex mask within, ordered by smallest member.  A
    layered BFS from that member puts the even layers in sides[0] and the
    odd ones in sides[1]; an edge inside one layer closes an odd cycle,
    and then sides is None.  Each visited vertex adds its degree inside
    within, so edges is half their sum."""
    out = []
    while within:
        frontier = within & -within
        sides = [frontier, 0]
        seen = frontier
        odd_cycle = False
        parity = degrees = 0
        while frontier:
            reach = 0
            rest = frontier
            while rest:
                low = rest & -rest
                nbrs = adj[low.bit_length() - 1]
                reach |= nbrs
                degrees += (nbrs & within).bit_count()
                rest ^= low
            odd_cycle = odd_cycle or bool(reach & frontier)
            frontier = reach & within & ~seen
            seen |= frontier
            parity ^= 1
            sides[parity] |= frontier
        within &= ~seen
        out.append((seen, None if odd_cycle else tuple(sides), degrees // 2))
    return tuple(out)


def components(g: SimpleGraph) -> list:
    """Connected components as compact graphs (vertices relabeled 1..k in
    increasing order of their original labels), ordered by smallest
    original vertex."""
    out = []
    for mask, *_ in g.component_colorings:
        verts = _vertices(mask)
        index = {v: i + 1 for i, v in enumerate(verts)}
        edges = {(index[u], index[v]) for u, v in g.edges if u in index}
        out.append(SimpleGraph(len(verts), frozenset(edges)))
    return out


def cyclomatic_number(g: SimpleGraph) -> int:
    """e - n + s: the number of independent cycles.  Isolated vertices
    shift n and s together, so they do not affect the value."""
    return g.num_edges - g.n + len(g.component_colorings)


def _blocks(adj):
    """Vertex masks of the blocks, by iterative depth-first lowpoints: a
    tree edge (p, u) closes a block, p plus the vertices visited since u,
    when low[u] >= disc[p].  Isolated vertices lie in no block.  Blocks
    share at most one vertex, so a block's edges are those its mask induces."""
    disc = [0] * len(adj)  # 0 until visited; visit numbers start at 1
    low = [0] * len(adj)
    blocks = []
    visited = []  # visited vertices whose block is still open
    t = 0
    for start in range(1, len(adj)):
        if disc[start]:
            continue
        t += 1
        disc[start] = low[start] = t
        stack = [[start, 0, adj[start]]]  # vertex, parent, unscanned neighbours
        while stack:
            top = stack[-1]
            u, parent, rest = top
            while rest:
                low_bit = rest & -rest
                rest ^= low_bit
                w = low_bit.bit_length() - 1
                if not disc[w]:
                    top[2] = rest
                    t += 1
                    disc[w] = low[w] = t
                    stack.append([w, u, adj[w]])
                    visited.append(w)
                    break
                if w != parent:
                    low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] >= disc[p]:
                        block = 1 << p
                        while not block >> u & 1:
                            block |= 1 << visited.pop()
                        blocks.append(block)
    return tuple(blocks)


def is_bipartite(g: SimpleGraph):
    """A bipartition (part_a, part_b) with the smallest vertex of every
    component in part_a, or None if an odd cycle exists."""
    part_a = part_b = 0
    for _, sides, _ in g.component_colorings:
        if sides is None:
            return None
        part_a |= sides[0]
        part_b |= sides[1]
    return (frozenset(_vertices(part_a)), frozenset(_vertices(part_b)))


def _simple_cycles(g, cap, within):
    """All simple cycles of g inside the vertex mask within, which is
    always a union of components, each once, as canonical vertex tuples:
    smallest vertex first, then its smaller cycle-neighbor.  Every cycle
    lies in one block, so DFS path extension, rooted at the minimum vertex
    of each cycle, runs inside each block of within with >= 3 vertices."""
    adj = g.adjacency
    cycles = []
    for block in g.blocks:
        if block & ~within or block.bit_count() < 3:
            continue
        for root in _vertices(block):
            above = block & -1 << root + 1  # the path uses only vertices > root
            if (adj[root] & above).bit_count() < 2:
                continue  # no cycle has root as its smallest vertex
            stack = [(root, (root,), 1 << root)]
            while stack:
                u, path, on_path = stack.pop()
                nbrs = adj[u]
                if nbrs >> root & 1 and len(path) >= 3 and path[1] < u:
                    cycles.append(path)
                    if len(cycles) > cap:
                        raise ResourceCapError(f"more than {cap} simple cycles", cap)
                rest = nbrs & above & ~on_path
                while rest:
                    low = rest & -rest
                    rest ^= low
                    w = low.bit_length() - 1
                    stack.append((w, path + (w,), on_path | low))
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def enumerate_simple_cycles(g: SimpleGraph, cap=None) -> list:
    """Every simple cycle exactly once up to rotation and reflection,
    canonicalized and sorted by (length, vertex sequence)."""
    return _simple_cycles(g, effective_cap(cap), (1 << g.n + 1) - 2)


def _has_polynomial_edge_ring(mask, sides, edges):
    """Whether the component on the vertex mask mask, with 2-coloring
    sides and edges edges, has at most one independent cycle, and that
    cycle, if any, is odd.  A unicyclic graph is 2-colorable iff its
    cycle is even."""
    cyclo = edges - mask.bit_count() + 1
    return cyclo == 0 or (cyclo == 1 and sides is None)


def is_polynomial_edge_ring(g: SimpleGraph) -> bool:
    """True iff every component has at most one independent cycle and any
    such cycle is odd; equivalently, no primitive even walks exist."""
    return all(_has_polynomial_edge_ring(*comp) for comp in g.component_colorings)


def _four_cycle_union_edges(adj):
    """Neighbour masks of the union H of all 4-cycles: every vertex pair
    with >= 2 common neighbours adds those neighbours to both masks.  The
    result is symmetric, because a 4-cycle u-a-v-b has the two diagonals
    (u, v) and (a, b), which between them add all four edges at both
    ends."""
    h = [0] * len(adj)
    for u in range(1, len(adj)):
        mu = adj[u]
        if not mu & (mu - 1):  # fewer than two neighbours
            continue
        for v in range(u + 1, len(adj)):
            common = mu & adj[v]
            if common & (common - 1):  # at least two bits set
                h[u] |= common
                h[v] |= common
    return tuple(h)


def four_cycle_union_subgraph(g: SimpleGraph) -> SimpleGraph:
    """The subgraph whose edges are the edges of all 4-cycles of g (empty
    when g has no 4-cycle), on the same vertex label set."""
    return SimpleGraph(g.n, frozenset(_mask_edges(g.four_cycle_adjacency)))


def _four_cycle_shape(g, mask):
    """The s of the 4-cycle union H inside the component of g on the
    vertex mask mask, when H is empty there (s = -2, from its s + 2
    vertices) or complete bipartite with parts of sizes 2 and s >= 2;
    else None.  In K(2,s) the lowest vertex is a side vertex, which sees
    the two hubs, or a hub, whose lowest neighbour sees them; then both
    hubs see exactly the side, and each side vertex exactly the hubs."""
    h = g.four_cycle_adjacency
    # H is symmetric, so its vertices are its neighbours, and each 4-cycle
    # lies in one component
    verts = mask & reduce(int.__or__, h)
    if not verts:
        return -2
    hubs = h[(verts & -verts).bit_length() - 1]
    if hubs.bit_count() != 2:
        hubs = h[(hubs & -hubs).bit_length() - 1]
        if hubs.bit_count() != 2:
            return None
    a, b = _vertices(hubs)
    side = h[a]
    if h[b] != side or verts != hubs | side:
        return None
    return side.bit_count() if all(h[v] == hubs for v in _vertices(side)) else None


def has_long_primitive_even_walk(g: SimpleGraph, cap=None):
    """A witness that g (connected) has a primitive even closed walk of
    length > 4, or None.

    The primitive walks are exactly: even simple cycles; two odd cycles
    sharing one vertex; two vertex-disjoint odd cycles joined by walks.
    The last two kinds always have length >= 6, so a long walk exists iff
    there is an even simple cycle of length >= 6, or a pair of odd cycles
    sharing at most one vertex.
    """
    if len(g.component_colorings) != 1:
        raise PreconditionError("primitive-walk search requires a connected graph")
    return _long_walk(g, effective_cap(cap), g.component_colorings[0][0])


def edge_ideal(g: SimpleGraph) -> MonomialIdeal:
    """The squarefree quadratic ideal with one generator x_u x_v per edge,
    in n variables, carrying the witness a = (1,...,1), d = 2."""
    if not g.edges:
        raise PreconditionError("an edgeless graph has no edge ideal")
    zero = (0,) * g.n
    pts = frozenset(
        zero[: u - 1] + (1,) + zero[u : v - 1] + (1,) + zero[v:] for u, v in g.edges
    )
    # distinct squarefree degree-2 vectors are automatically an antichain
    return _fresh_ideal(g.n, pts, ((1,) * g.n, 2))


def _classify_connected(g, mask, sides, edges):
    """The deciding clause (freiman, reason) for the connected component
    of g on the vertex mask mask, with 2-coloring sides and edges edges,
    by the cycle excess of the module docstring.  An empty H (s = -2)
    always has an excess above 1."""
    if _has_polynomial_edge_ring(mask, sides, edges):
        return True, "no-primitive-walks"
    s = _four_cycle_shape(g, mask)
    if s is None:
        return False, "K2s-with-short-walks"
    if edges - mask.bit_count() + 1 - (s - 1) <= (sides is None):
        return True, "K2s-with-short-walks"
    return False, "witness-long-walk"


def _graph_verdict(g):
    """classify_freiman_graph's (freiman, reason) without the witness, and
    the (mask, freiman, reason) clauses of the components with edges."""
    clauses = [(c[0], *_classify_connected(g, *c)) for c in g.component_colorings if c[2]]
    if len(clauses) == 1:
        return (*clauses[0][1:], clauses)
    nonpoly = sum(why != "no-primitive-walks" for *_, why in clauses)
    freiman = all(ok for _, ok, _ in clauses) and nonpoly <= 1
    return freiman, "component-rule" if clauses else "no-primitive-walks", clauses


def _long_walk(g, cap, within):
    cycles = _simple_cycles(g, cap, within)
    odd = []
    for c in cycles:
        if len(c) % 2 == 0:
            if len(c) >= 6:
                return {"kind": "even-cycle", "cycle": list(c)}
        else:
            odd.append((c, sum(1 << v for v in c)))
    for i, (c1, m1) in enumerate(odd):
        for c2, m2 in odd[i + 1 :]:
            shared = m1 & m2
            if not shared & (shared - 1):  # at most one shared vertex
                kind = (
                    "odd-cycles-sharing-one-vertex" if shared else "disjoint-odd-cycles"
                )
                return {"kind": kind, "cycles": [list(c1), list(c2)]}
    return None


def classify_freiman_graph(g: SimpleGraph, cap=None) -> GraphVerdict:
    """Combinatorial Freiman test for any simple graph.

    Disconnected graphs are Freiman iff every component is and at most one
    component fails to have a polynomial edge ring.  Isolated vertices are
    ignored.  The verdict is a few integer tests per component; only a
    false verdict on a graph with one component with edges searches for a
    witness, and cap bounds that search alone.
    """
    freiman, reason, clauses = _graph_verdict(g)
    if freiman:
        return GraphVerdict(True, reason)
    if reason == "witness-long-walk":
        witness = _long_walk(g, effective_cap(cap), clauses[0][0])
    elif reason == "K2s-with-short-walks":  # every 4-cycle lies in that component
        witness = {"four_cycle_union": [list(e) for e in _mask_edges(g.four_cycle_adjacency)]}
    else:
        bad = [mask for mask, ok, _ in clauses if not ok]
        nonpoly = [mask for mask, _, why in clauses if why != "no-primitive-walks"]
        witness = {
            "failing_components": [list(_vertices(mask)) for mask in bad],
            "non_polynomial_components": [list(_vertices(mask)) for mask in nonpoly],
        }
    return GraphVerdict(False, reason, witness=witness)

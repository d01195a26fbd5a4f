"""Simple graphs, edge ideals, and the Freiman-graph classification.

Vertices are labeled 1..n.  The classifier decides, purely combinatorially,
whether the edge ideal of a graph is Freiman: a connected graph qualifies
iff its edge ring is a polynomial ring, or else the union H of its 4-cycles
is complete bipartite with one part of size exactly 2 and the graph has no
primitive even closed walk longer than 4.  Disconnected graphs reduce to
their components, of which at most one may have a non-polynomial edge ring.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import PreconditionError, ResourceCapError, effective_cap
from .ideals import MonomialIdeal, _fresh_ideal


@dataclass(frozen=True)
class SimpleGraph:
    """A finite simple graph on vertices 1..n; edges are (u, v) with u < v.

    Derived facts are computed on first use and kept on the instance:
      adjacency              -- vertex -> set of neighbors
      component_vertex_sets  -- sorted vertex tuples of the connected
                                components, ordered by smallest member
      four_cycle_union       -- frozenset of the edges lying on a 4-cycle
      cut_structure          -- (frozenset of cut vertices, number of
                                blocks), from one lowpoint DFS
    Caching is safe because the graph is immutable; callers must not
    mutate the adjacency sets they are handed.
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

    @cached_property
    def adjacency(self):
        return _adjacency(self)

    @cached_property
    def component_vertex_sets(self):
        return tuple(_component_vertex_sets(self.adjacency))

    @cached_property
    def four_cycle_union(self):
        return frozenset(_four_cycle_union_edges(self.adjacency))

    @cached_property
    def cut_structure(self):
        return _lowpoint_dfs(self.adjacency)


@dataclass(frozen=True)
class GraphVerdict:
    """Classification outcome with a machine-readable reason trail.

    reason is one of:
      no-primitive-walks    -- the edge ring is a polynomial ring
      K2s-with-short-walks  -- decided by the shape of the 4-cycle union H
                               (true: H complete bipartite of type (2,s) and
                               no long walk; false: H fails that shape)
      witness-long-walk     -- a primitive even walk longer than 4 exists
      component-rule        -- verdict combined across components
    A witness is present whenever freiman is False.
    """

    freiman: bool
    reason: str
    witness: dict | None = None


def _adjacency(g: SimpleGraph):
    adj = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _component_vertex_sets(adj):
    """Vertex sets of connected components, each sorted, ordered by
    smallest member."""
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def _edged_component_vertex_sets(g: SimpleGraph):
    """The components of g that carry at least one edge."""
    return [vs for vs in g.component_vertex_sets if len(vs) > 1]


def components(g: SimpleGraph) -> list:
    """Connected components as compact graphs (vertices relabeled 1..k in
    increasing order of their original labels), ordered by smallest
    original vertex."""
    out = []
    for verts in g.component_vertex_sets:
        index = {v: i + 1 for i, v in enumerate(verts)}
        edges = {
            (index[u], index[v]) for u, v in g.edges if u in index and v in index
        }
        out.append(SimpleGraph(len(verts), frozenset(edges)))
    return out


def cyclomatic_number(g: SimpleGraph) -> int:
    """e - n + s: the number of independent cycles.  Isolated vertices
    shift n and s together, so they do not affect the value."""
    return g.num_edges - g.n + len(g.component_vertex_sets)


def _lowpoint_dfs(adj):
    """(cut vertices, number of blocks), via iterative depth-first
    lowpoints: a tree edge (p, u) closes a block when low[u] >= disc[p],
    and p is then a cut vertex unless it is a root with one child.  Both
    are graph invariants, so the visiting order does not matter."""
    disc = {}
    low = {}
    points = set()
    blocks = 0
    for start in adj:
        if start in disc:
            continue
        disc[start] = low[start] = len(disc)
        root_children = 0
        stack = [(start, None, iter(adj[start]))]
        while stack:
            u, parent, it = stack[-1]
            for w in it:
                if w not in disc:
                    root_children += u == start
                    disc[w] = low[w] = len(disc)
                    stack.append((w, u, iter(adj[w])))
                    break
                if w != parent:
                    low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] >= disc[p]:
                        blocks += 1
                        if p != start:
                            points.add(p)
        if root_children >= 2:
            points.add(start)
    return frozenset(points), blocks


def _two_coloring(adj):
    """A 0/1 coloring of the vertices of adj with the smallest vertex of
    every component colored 0 and adjacent vertices colored differently,
    or None if an odd cycle exists."""
    color = {}
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return color


def is_bipartite(g: SimpleGraph):
    """A bipartition (part_a, part_b) with the smallest vertex of every
    component in part_a, or None if an odd cycle exists."""
    color = _two_coloring(g.adjacency)
    if color is None:
        return None
    part_a = frozenset(v for v, c in color.items() if c == 0)
    part_b = frozenset(v for v, c in color.items() if c == 1)
    return (part_a, part_b)


def _simple_cycles(adj, cap):
    """All simple cycles, each once, as canonical vertex tuples: smallest
    vertex first, then its smaller cycle-neighbor.  DFS path extension
    rooted at the minimum vertex of each cycle."""
    cycles = []
    vertices = sorted(adj)
    for root in vertices:
        # paths root -> ... using only vertices > root internally
        stack = [(root, [root], {root})]
        while stack:
            u, path, on_path = stack.pop()
            for w in sorted(adj[u], reverse=True):
                if w == root:
                    if len(path) >= 3 and path[1] < path[-1]:
                        cycles.append(tuple(path))
                        if len(cycles) > cap:
                            raise ResourceCapError(
                                f"more than {cap} simple cycles", cap
                            )
                elif w > root and w not in on_path:
                    stack.append((w, path + [w], on_path | {w}))
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def enumerate_simple_cycles(g: SimpleGraph, cap=None) -> list:
    """Every simple cycle exactly once up to rotation and reflection,
    canonicalized and sorted by (length, vertex sequence)."""
    return _simple_cycles(g.adjacency, effective_cap(cap))


def _has_polynomial_edge_ring(adj, verts):
    """Whether the component on verts has at most one independent cycle,
    and that cycle, if any, is odd.  A unicyclic graph is 2-colorable iff
    its cycle is even."""
    sub = _restrict(adj, verts)
    cyclo = len(_edges_of(sub)) - len(verts) + 1
    return cyclo == 0 or (cyclo == 1 and _two_coloring(sub) is None)


def is_polynomial_edge_ring(g: SimpleGraph) -> bool:
    """True iff every component has at most one independent cycle and any
    such cycle is odd; equivalently, no primitive even walks exist."""
    return all(
        _has_polynomial_edge_ring(g.adjacency, verts)
        for verts in g.component_vertex_sets
    )


def _four_cycle_union_edges(adj):
    """Edges lying on some 4-cycle: for every vertex pair with >= 2 common
    neighbors, all edges to those common neighbors.  Bitmask adjacency
    keeps the pair scan cheap."""
    verts = sorted(adj)
    index = {v: i for i, v in enumerate(verts)}
    masks = [0] * len(verts)
    for v in verts:
        m = 0
        for w in adj[v]:
            m |= 1 << index[w]
        masks[index[v]] = m
    h = set()
    nv = len(verts)
    for i in range(nv):
        mi = masks[i]
        u = verts[i]
        for j in range(i + 1, nv):
            common = mi & masks[j]
            if common and common & (common - 1):  # at least two bits set
                v = verts[j]
                c = common
                while c:
                    bit = c & -c
                    c ^= bit
                    a = verts[bit.bit_length() - 1]
                    h.add((u, a) if u < a else (a, u))
                    h.add((v, a) if v < a else (a, v))
    return h


def four_cycle_union_subgraph(g: SimpleGraph) -> SimpleGraph:
    """The subgraph whose edges are the edges of all 4-cycles of g (empty
    when g has no 4-cycle), on the same vertex label set."""
    return SimpleGraph(g.n, g.four_cycle_union)


def _complete_bipartite_2s(h_edges):
    """If the graph with edge set h_edges is complete bipartite with parts
    of sizes 2 and s >= 2, return (small_part, big_part); else None."""
    if not h_edges:
        return None
    adj = {}
    for u, v in h_edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    color = _two_coloring(adj)
    if color is None:
        return None
    part0 = sorted(v for v, c in color.items() if c == 0)
    part1 = sorted(v for v, c in color.items() if c == 1)
    if len(part0) > len(part1):
        part0, part1 = part1, part0
    if len(part0) != 2 or len(part1) < 2:
        return None
    if len(h_edges) != len(part0) * len(part1):
        return None  # not complete
    return (part0, part1)


def has_long_primitive_even_walk(g: SimpleGraph, cap=None):
    """A witness that g (connected) has a primitive even closed walk of
    length > 4, or None.

    The primitive walks are exactly: even simple cycles; two odd cycles
    sharing one vertex; two vertex-disjoint odd cycles joined by walks.
    The last two kinds always have length >= 6, so a long walk exists iff
    there is an even simple cycle of length >= 6, or a pair of odd cycles
    sharing at most one vertex.
    """
    if len(g.component_vertex_sets) != 1:
        raise PreconditionError("primitive-walk search requires a connected graph")
    return _long_walk(g.adjacency, effective_cap(cap))


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


def _restrict(adj, verts):
    vs = set(verts)
    return {v: adj[v] & vs for v in verts}


def _edges_of(adj):
    return {(u, v) for u in adj for v in adj[u] if u < v}


def _classify_connected(g, verts, cap, bipartite_rule=True):
    """Classifier for the connected component of g on the sorted vertex
    tuple verts."""
    if _has_polynomial_edge_ring(g.adjacency, verts):
        return GraphVerdict(True, "no-primitive-walks")
    # every 4-cycle lies inside one component
    members = set(verts)
    h_edges = {e for e in g.four_cycle_union if e[0] in members}
    if h_edges:
        shape = _complete_bipartite_2s(h_edges)
        if shape is None:
            return GraphVerdict(
                False,
                "K2s-with-short-walks",
                witness={"four_cycle_union": sorted(list(e) for e in h_edges)},
            )
    adj = _restrict(g.adjacency, verts)
    if bipartite_rule and _two_coloring(adj) is not None:
        handled, verdict = _classify_bipartite_connected(adj, verts, h_edges, cap)
        if handled:
            return verdict
    walk = _long_walk(adj, cap)
    if walk is not None:
        return GraphVerdict(False, "witness-long-walk", witness=walk)
    return GraphVerdict(True, "K2s-with-short-walks")


def _long_walk(adj, cap):
    cycles = _simple_cycles(adj, cap)
    odd = []
    for c in cycles:
        if len(c) % 2 == 0:
            if len(c) >= 6:
                return {"kind": "even-cycle", "cycle": list(c)}
        else:
            odd.append(c)
    for i, c1 in enumerate(odd):
        s1 = set(c1)
        for c2 in odd[i + 1 :]:
            shared = len(s1.intersection(c2))
            if shared <= 1:
                kind = (
                    "odd-cycles-sharing-one-vertex" if shared else "disjoint-odd-cycles"
                )
                return {"kind": kind, "cycles": [list(c1), list(c2)]}
    return None


def _classify_bipartite_connected(adj, verts, h_edges, cap):
    """Structural rule for connected bipartite graphs that are not trees
    (trees are decided earlier): Freiman iff the 4-cycle union H is
    complete bipartite of type (2,s) and the rest of the graph consists
    of induced trees, each meeting H in exactly one vertex.  Returns
    (handled, verdict); handled=False defers to the general walk search
    (only for witness construction on failure).
    """
    if not h_edges:
        # bipartite, not a tree, but no 4-cycle: some even cycle is long
        return False, None
    h_verts = {v for e in h_edges for v in e}
    # edges inside V(H) must be exactly the H edges
    for u, v in _edges_of(adj):
        if u in h_verts and v in h_verts and (u, v) not in h_edges:
            return False, None
    outside = [v for v in verts if v not in h_verts]
    out_adj = _restrict(adj, outside)
    for comp in _component_vertex_sets(out_adj):
        anchors = set()
        comp_set = set(comp)
        inner = 0
        for v in comp:
            for w in adj[v]:
                if w in h_verts:
                    anchors.add(w)
                elif w in comp_set:
                    inner += 1
        inner //= 2
        attach = sum(1 for v in comp for w in adj[v] if w in anchors)
        if len(anchors) != 1:
            return False, None
        # the component plus its anchor must form a tree
        if inner + attach != len(comp):
            return False, None
    return True, GraphVerdict(True, "K2s-with-short-walks")


def classify_freiman_graph(g: SimpleGraph, cap=None, _bipartite_rule=True) -> GraphVerdict:
    """Combinatorial Freiman test for any simple graph.

    Disconnected graphs are Freiman iff every component is and at most one
    component fails to have a polynomial edge ring.  Isolated vertices are
    ignored.  _bipartite_rule=False forces the general walk search even on
    bipartite components (used to cross-check the structural shortcut).
    """
    cap = effective_cap(cap)
    comps = _edged_component_vertex_sets(g)
    if len(comps) <= 1:
        if not comps:
            return GraphVerdict(True, "no-primitive-walks")
        return _classify_connected(g, comps[0], cap, _bipartite_rule)
    verdicts = []
    nonpoly = []
    for vs in comps:
        v = _classify_connected(g, vs, cap, _bipartite_rule)
        verdicts.append((vs, v))
        if v.reason != "no-primitive-walks":
            nonpoly.append(vs)
    bad = [vs for vs, v in verdicts if not v.freiman]
    if bad or len(nonpoly) > 1:
        return GraphVerdict(
            False,
            "component-rule",
            witness={
                "failing_components": [list(vs) for vs in bad],
                "non_polynomial_components": [list(vs) for vs in nonpoly],
            },
        )
    return GraphVerdict(True, "component-rule")

"""Recognition of the five supported graph classes.

Each recognizer either answers membership or produces certifying
structure (bipartition, split partition, block decomposition).
"""

from __future__ import annotations

import enum

from .graphs import (DomainError, Graph, VertexSet, add_vertex, bits, components, complement,
                     induced)


class GraphClass(enum.Enum):
    FOREST = "forest"
    CACTUS = "cactus"
    BIPARTITE = "bipartite"
    SPLIT = "split"
    COGRAPH = "cograph"
    ALL = "all"  # accepts everything; oracle utilities only

    @classmethod
    def from_string(cls, name: str) -> "GraphClass":
        try:
            return cls(name.lower())
        except ValueError:
            raise DomainError(f"unknown graph class {name!r}") from None


def blocks(g: Graph) -> list[VertexSet]:
    """Biconnected blocks (vertex masks) of the graph.

    A block is a maximal 2-connected subgraph, a bridge edge, or an
    isolated vertex.  Tarjan's DFS from the least vertex of each
    component, neighbours in index order: a block is emitted when the DFS
    returns over the tree edge from its top vertex (the one nearest the
    root), so after every block below it.  Recursion depth is at most the
    order, 64.
    """
    adj = g.adj
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    out = []

    def visit(u: int) -> None:
        disc[u] = low[u] = len(disc)
        stack.append(u)
        for v in bits(adj[u]):
            if v in disc:
                # a back edge, or the tree edge to the parent: harmless,
                # as the block test below is >=
                low[u] = min(low[u], disc[v])
                continue
            visit(v)
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:  # u is the top of v's block
                block = 1 << u
                while not block >> v & 1:
                    block |= 1 << stack.pop()
                out.append(block)

    for r in range(g.n):
        if r not in disc:
            visit(r)
            stack.pop()  # the root: no block pops its top vertex
            if not adj[r]:
                out.append(1 << r)
    return out


def is_forest(g: Graph) -> bool:
    """True iff the graph is acyclic."""
    return g.edge_count() == g.n - len(components(g))


def _edges_inside(g: Graph, sub: int) -> int:
    return sum((g.adj[v] & sub).bit_count() for v in bits(sub)) // 2


def is_cactus(g: Graph) -> bool:
    """True iff every block is a single vertex, an edge, or a chordless cycle.

    Connectivity is not required.
    """
    for block in blocks(g):
        size = block.bit_count()
        if size >= 3 and _edges_inside(g, block) != size:
            return False
    return True


def bipartition(g: Graph) -> tuple[VertexSet, VertexSet] | None:
    """A 2-colouring (A, B) if one exists, else None.

    Deterministic: BFS from the least vertex of each component, which is
    placed in A.
    """
    a = b = 0
    for comp in components(g):
        start = comp & -comp
        a |= start
        frontier = start
        side = 1  # next frontier goes to B
        seen = start
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v]
            nxt &= comp & ~seen
            if side:
                b |= nxt
            else:
                a |= nxt
            seen |= nxt
            frontier = nxt
            side ^= 1
    for v in bits(a):
        if g.adj[v] & a:
            return None
    for v in bits(b):
        if g.adj[v] & b:
            return None
    return a, b


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def _split_size(degs: list[int]) -> int | None:
    """Hammer–Simeone test on a non-increasing degree sequence: the clique
    size m = max{i : d_i >= i-1} if the graph is split, else None.  As the
    d_i do not increase, d_i >= i-1 fails for every i after the first miss."""
    m = next((idx for idx, d in enumerate(degs) if d < idx), len(degs))
    return m if sum(degs[:m]) == m * (m - 1) + sum(degs[m:]) else None


def is_split_sequence(degs: list[int]) -> bool:
    """True iff a graph with these degrees, in any order, is split."""
    return _split_size(sorted(degs, reverse=True)) is not None


def split_partition(g: Graph) -> tuple[VertexSet, VertexSet] | None:
    """A partition (K clique, I independent) if the graph is split, else None.

    Uses the degree-sequence characterization: with degrees sorted
    non-increasingly and m = max{i : d_i >= i-1}, the graph is split iff
    sum(d_1..d_m) == m(m-1) + sum(d_{m+1}..d_n), and then the m vertices
    of highest degree form a clique and the rest an independent set.
    Ties are broken toward the lowest vertex index.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    m = _split_size([g.degree(v) for v in order])
    if m is None:
        return None
    clique = 0
    for v in order[:m]:
        clique |= 1 << v
    indep = g.vertex_mask() & ~clique
    # the characterization guarantees validity; check anyway so a wrong
    # partition can never escape
    for v in bits(clique):
        if (g.adj[v] & clique).bit_count() != m - 1:
            return None
    for v in bits(indep):
        if g.adj[v] & indep:
            return None
    return clique, indep


def is_split(g: Graph) -> bool:
    return split_partition(g) is not None


def is_cograph(g: Graph) -> bool:
    """True iff the graph has no induced 4-vertex path.

    Recursion on complement-reducibility: a connected graph on >= 2
    vertices is a cograph iff its complement is disconnected and every
    complement component induces a cograph.
    """
    if g.n <= 3:
        return True
    comps = components(g)
    if len(comps) > 1:
        return all(is_cograph(induced(g, c)) for c in comps)
    gc = complement(g)
    ccomps = components(gc)
    if len(ccomps) == 1:
        return False
    return all(is_cograph(induced(gc, c)) for c in ccomps)


def has_induced_p4(g: Graph) -> bool:
    """Quadruple-scan oracle for an induced 4-vertex path."""
    from itertools import combinations

    for quad in combinations(range(g.n), 4):
        sub = (1 << quad[0]) | (1 << quad[1]) | (1 << quad[2]) | (1 << quad[3])
        degs = sorted((g.adj[v] & sub).bit_count() for v in quad)
        if degs == [1, 1, 2, 2]:
            return True
    return False


_RECOGNIZERS = {
    GraphClass.FOREST: is_forest,
    GraphClass.CACTUS: is_cactus,
    GraphClass.BIPARTITE: is_bipartite,
    GraphClass.SPLIT: is_split,
    GraphClass.COGRAPH: is_cograph,
    GraphClass.ALL: lambda g: True,
}


def member(g: Graph, cls: GraphClass) -> bool:
    return _RECOGNIZERS[cls](g)


def _forest_extension(parent: Graph):
    """A new vertex closes a cycle iff it meets a component twice."""
    comps = components(parent)
    return lambda neigh: all((neigh & c).bit_count() <= 1 for c in comps)


def _bipartite_extension(parent: Graph):
    """The new vertex takes the other colour of every component it meets."""
    a, b = bipartition(parent)
    sides = [(c & a, c & b) for c in components(parent)]
    return lambda neigh: all(not (neigh & ca and neigh & cb) for ca, cb in sides)


def _cactus_extension(parent: Graph):
    """A new vertex meeting a component in u alone adds a bridge.  Meeting
    it in u and v merges it and the blocks on the u-v paths into one block,
    a cycle iff those blocks are all bridges, i.e. iff u and v lie in one
    tree of the bridge forest (the parent minus its cycle-block edges).
    Meeting it in three vertices or more leaves a block that is no cycle."""
    rows = [0] * parent.n
    for block in blocks(parent):
        if block.bit_count() == 2:
            u, v = bits(block)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    tree = {v: t for t in components(Graph(parent.n, tuple(rows))) for v in bits(t)}
    comps = components(parent)

    def admits(neigh: int) -> bool:
        for c in comps:
            hit = neigh & c
            if hit & (hit - 1) and (hit.bit_count() > 2
                                    or hit & ~tree[hit.bit_length() - 1]):
                return False
        return True
    return admits


def _split_extension(parent: Graph):
    """Hammer–Simeone on the child's degrees: the parent's, plus 1 on N,
    and |N| for the new vertex."""
    degs = [row.bit_count() for row in parent.adj]
    return lambda neigh: is_split_sequence(
        [d + (neigh >> u & 1) for u, d in enumerate(degs)] + [neigh.bit_count()])


_EXTENSION_TESTS = {
    GraphClass.FOREST: _forest_extension,
    GraphClass.CACTUS: _cactus_extension,
    GraphClass.BIPARTITE: _bipartite_extension,
    GraphClass.SPLIT: _split_extension,
    # no shortcut from the parent: the child itself is recognized
    GraphClass.COGRAPH: lambda parent: lambda neigh: is_cograph(add_vertex(parent, neigh)),
    GraphClass.ALL: lambda parent: lambda neigh: True,
}


def extension_test(parent: Graph, cls: GraphClass):
    """For a class member ``parent`` of order m, a predicate on masks
    N < 2^m, true iff ``parent`` plus a new vertex m with neighbourhood N
    is in the class; the per-parent work is done once."""
    return _EXTENSION_TESTS[cls](parent)


def edge_test(g: Graph, cls: GraphClass):
    """For a class member ``g`` of a class closed under edge removal
    (forest, cactus, bipartite), a predicate on non-edges uv, true iff g
    plus uv is in the class; the per-graph work is done once.  None for
    the other classes.

    uv closes an odd cycle iff u and v have one colour in one component.
    For forests and cacti, g plus uv is in the class iff g plus a new
    vertex on u and v is: subdividing uv keeps every cycle a cycle and
    every block a block.
    """
    if cls is GraphClass.BIPARTITE:
        a, b = bipartition(g)
        sides = [side for comp in components(g) for side in (comp & a, comp & b)]
        return lambda u, v: not any(side >> u & side >> v & 1 for side in sides)
    if cls in (GraphClass.FOREST, GraphClass.CACTUS):
        admits = extension_test(g, cls)
        return lambda u, v: admits(1 << u | 1 << v)
    return None

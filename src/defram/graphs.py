"""Immutable simple graphs of order <= 64 with bitset adjacency.

Vertices are 0-indexed integers.  A vertex set is a plain int bitmask
(bit v set means vertex v is in the set), so all set operations are
single machine-word instructions.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_ORDER = 64

Edge = tuple[int, int]
VertexSet = int


class DomainError(ValueError):
    """A precondition of an operation does not hold."""


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Simple undirected graph; ``adj[u]`` is the neighbour bitmask of u.

    Instances are immutable by convention: every operation returns a new
    graph, so graphs can be shared freely between workers.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self.adj = adj

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __reduce__(self):
        return (Graph, (self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[Edge]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for v in bits(row):
                out.append((u, u + 1 + v))
        return out

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1


def make_graph(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a graph on n vertices from an edge list; duplicates collapse."""
    if not 0 <= n <= MAX_ORDER:
        raise DomainError(f"order must be between 0 and {MAX_ORDER}, got {n}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise DomainError(f"loop edge ({u},{v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    return make_graph(n, [])


def complete_graph(n: int) -> Graph:
    if not 0 <= n <= MAX_ORDER:
        raise DomainError(f"order must be between 0 and {MAX_ORDER}, got {n}")
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << u) for u in range(n)))


def path_graph(n: int) -> Graph:
    return make_graph(n, [(u, u + 1) for u in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError("a cycle needs at least 3 vertices")
    return make_graph(n, [(u, (u + 1) % n) for u in range(n)])


def star_graph(leaves: int) -> Graph:
    """The star with one centre (vertex 0) and ``leaves`` leaves."""
    return make_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return make_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def add_vertex(g: Graph, neigh: VertexSet) -> Graph:
    """g plus a new vertex g.n adjacent to the vertices of ``neigh``."""
    m = g.n
    return Graph(m + 1, tuple(row | (1 << m) if (neigh >> u) & 1 else row
                              for u, row in enumerate(g.adj)) + (neigh,))


def complement(g: Graph) -> Graph:
    full = g.vertex_mask()
    return Graph(g.n, tuple((full & ~row) & ~(1 << u) for u, row in enumerate(g.adj)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    n = g1.n + g2.n
    if n > MAX_ORDER:
        raise DomainError(f"combined order {n} exceeds {MAX_ORDER}")
    rows = list(g1.adj) + [row << g1.n for row in g2.adj]
    return Graph(n, tuple(rows))


def disjoint_union_all(graphs: Iterable[Graph]) -> Graph:
    out = Graph(0, ())
    for g in graphs:
        out = disjoint_union(out, g)
    return out


def join(g1: Graph, g2: Graph) -> Graph:
    n = g1.n + g2.n
    if n > MAX_ORDER:
        raise DomainError(f"combined order {n} exceeds {MAX_ORDER}")
    m1 = g1.vertex_mask()
    m2 = g2.vertex_mask() << g1.n
    rows = [row | m2 for row in g1.adj] + [(row << g1.n) | m1 for row in g2.adj]
    return Graph(n, tuple(rows))


def induced(g: Graph, sub: VertexSet) -> Graph:
    """Subgraph induced by ``sub``, relabelled in increasing vertex order."""
    verts = list(bits(sub & g.vertex_mask()))
    pos = {v: p for p, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = 0
        for w in bits(g.adj[v] & sub):
            row |= 1 << pos[w]
        rows.append(row)
    return Graph(len(verts), tuple(rows))


def degree_in(g: Graph, u: int, sub: VertexSet) -> int:
    """Number of neighbours of u inside the vertex set ``sub``."""
    if not 0 <= u < g.n:
        raise DomainError(f"vertex {u} outside 0..{g.n - 1}")
    return (g.adj[u] & sub).bit_count()


def components(g: Graph) -> list[VertexSet]:
    """Connected components as bitmasks, sorted by least vertex."""
    out = []
    todo = g.vertex_mask()
    while todo:
        start = todo & -todo
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~comp
            comp |= frontier
        out.append(comp)
        todo &= ~comp
    return out


def relabel(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Image of g under the permutation ``perm`` (vertex v becomes perm[v])."""
    rows = [0] * g.n
    for v in range(g.n):
        row = 0
        for w in bits(g.adj[v]):
            row |= 1 << perm[w]
        rows[perm[v]] = row
    return Graph(g.n, tuple(rows))

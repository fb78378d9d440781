"""Extremal witness constructions.

A witness for a cell with value R is a graph of order R - 1, inside the
class, with neither a k-dense i-set nor a k-sparse j-set.  Every witness
returned by :func:`witness_for` has been validated against all three
properties; a construction that fails validation raises instead of
passing silently.
"""

from __future__ import annotations

from .classes import GraphClass, member
from .defects import ramsey_check
from .formulas import RamseyQuery, defective_ramsey
from .graphs import (
    DomainError,
    Graph,
    MAX_ORDER,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    disjoint_union_all,
    empty_graph,
    induced,
    join,
    make_graph,
    star_graph,
)


class ValidationError(RuntimeError):
    """A constructed witness failed one of its claimed properties."""


def forest_witness(k: int, j: int) -> Graph:
    """Stars plus isolated vertices: the largest forest with no k-sparse
    j-set (and, having no cycles, no k-dense set of size >= k+3)."""
    if k < 1 or j < k + 2:
        raise DomainError("need k >= 1 and j >= k+2")
    s, t = divmod(j - 1, k + 1)
    return disjoint_union_all([star_graph(k + 1)] * s + [empty_graph(t)])


def cactus_square_chain(k: int, length: int) -> Graph:
    """A chain of ``length`` 4-cycles through shared hub vertices, with
    pendant leaves filling every hub up: k leaves on the first hub, k-2 on
    interior hubs, k-1 on the last.

    Order (k+1)(length+1) + 1; its largest k-sparse set has
    k*(length+1) + 1 vertices.  The zero-length chain is the star with
    k+1 leaves.
    """
    if k < 2 or length < 0:
        raise DomainError("need k >= 2 and length >= 0")
    if length == 0:
        return star_graph(k + 1)
    hubs = list(range(length + 1))
    edges = []
    nxt = length + 1
    for i in range(length):
        top, bottom = nxt, nxt + 1
        nxt += 2
        edges += [(hubs[i], top), (top, hubs[i + 1]),
                  (hubs[i], bottom), (bottom, hubs[i + 1])]
    for hub, count in [(hubs[0], k)] + [(h, k - 2) for h in hubs[1:-1]] + [(hubs[-1], k - 1)]:
        for _ in range(count):
            edges.append((hub, nxt))
            nxt += 1
    return make_graph(nxt, edges)


def cactus_triangle_chain(length: int) -> Graph:
    """A chain of ``length`` - 3 triangles through shared base vertices,
    one pendant edge on each end.  Order 2*length - 3; no 1-dense 4-set
    and no 1-sparse set of ``length`` vertices."""
    if length < 4:
        raise DomainError("need length >= 4")
    t = length - 3
    edges = []
    for i in range(1, t + 1):
        apex = t + i
        edges += [(i - 1, i), (i - 1, apex), (apex, i)]
    edges += [(2 * t + 1, 0), (2 * t + 2, t)]
    return make_graph(2 * t + 3, edges)


def cactus_witness(k: int, i: int, j: int) -> Graph:
    """Extremal cactus for a proven exact cell."""
    return _exact_witness(GraphClass.CACTUS, k, i, j)


def bipartite_cage(index: int) -> Graph:
    """Four C4-free near-regular bipartite graphs on 14, 16, 24 and 26
    vertices (index 1 is the Heawood graph); the building blocks for
    1-defective bipartite witnesses at large j.

    Each is an even cycle plus chords from every even vertex, except
    index 3 which is index 4 with its last two cycle-adjacent vertices
    deleted.
    """
    if index == 1:
        n, shifts = 14, (5,)
    elif index == 2:
        n, shifts = 16, (5,)
    elif index == 4:
        n, shifts = 26, (7, 11)
    elif index == 3:
        return induced(bipartite_cage(4), (1 << 24) - 1)
    else:
        raise DomainError(f"cage index must be 1..4, got {index}")
    edges = [(x, (x + 1) % n) for x in range(n)]
    edges += [(x, (x + s) % n) for x in range(0, n, 2) for s in shifts]
    return make_graph(n, edges)


def _cage_decomposition(amount: int) -> tuple[int, int, int, int] | None:
    """Lexicographically smallest (a, b, c, d) with 7a+8b+12c+13d = amount."""
    for a in range(amount // 7 + 1):
        r1 = amount - 7 * a
        for b in range(r1 // 8 + 1):
            r2 = r1 - 8 * b
            for c in range(r2 // 12 + 1):
                r3 = r2 - 12 * c
                if r3 % 13 == 0:
                    return a, b, c, r3 // 13
    return None


def bipartite_witness(k: int, i: int, j: int) -> Graph:
    """Extremal bipartite graph for a proven exact cell."""
    return _exact_witness(GraphClass.BIPARTITE, k, i, j)


def split_witness_general(k: int, i: int, j: int) -> Graph:
    """Clique a_1..a_{i-1} against independent b_1..b_{j-1}; a_s takes the
    k+1 consecutive b's starting after position (s-1)(k+1), wrapping
    modulo j-1."""
    if i < k + 3 or j < k + 3 or (i - k - 2) * (j - k - 2) < (k + 1) ** 2:
        raise DomainError("need i, j >= k+3 with (i-k-2)(j-k-2) >= (k+1)^2")
    nK, nI = i - 1, j - 1
    edges = [(u, v) for u in range(nK) for v in range(u + 1, nK)]
    for s in range(1, nK + 1):
        for t in range(1, k + 2):
            m = ((s - 1) * (k + 1) + t - 1) % nI
            edges.append((s - 1, nK + m))
    return make_graph(nK + nI, edges)


def split_witness_diagonal(k: int, i: int) -> Graph:
    """Split graph of order 3i-2k-5 with neither a k-dense nor a k-sparse
    i-set: clique A+B+C over independent D+E, A complete to D and B
    complete to E."""
    if not k + 3 <= i <= 2 * k + 2:
        raise DomainError("need k+3 <= i <= 2k+2")
    p = i - k - 2
    c = 2 * k + 3 - i
    a0, b0, c0 = 0, p, 2 * p
    d0, e0 = 2 * p + c, 3 * p + c
    n = 4 * p + c
    edges = [(u, v) for u in range(2 * p + c) for v in range(u + 1, 2 * p + c)]
    edges += [(a0 + x, d0 + y) for x in range(p) for y in range(p)]
    edges += [(b0 + x, e0 + y) for x in range(p) for y in range(p)]
    return make_graph(n, edges)


_SPLIT_SMALL_EDGES = {
    # clique vertices first, then independent side
    "s1": (6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]),
    "s2": (7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6)]),
    "s3": (10, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                (0, 4), (0, 5), (0, 6), (2, 4), (2, 5), (2, 6),
                (1, 7), (1, 8), (1, 9), (3, 7), (3, 8), (3, 9)]),
    "s4": (11, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                (2, 3), (2, 4), (3, 4),
                (0, 5), (0, 6), (0, 7), (2, 5), (2, 6), (2, 7),
                (1, 8), (1, 9), (1, 10), (3, 8), (3, 9), (3, 10)]),
    "s5": (7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
               (0, 4), (1, 5), (2, 6)]),
    "s6": (8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
               (0, 4), (1, 5), (2, 6)]),
    "s7": (10, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                (0, 4), (0, 5), (1, 6), (1, 7), (2, 8), (2, 9)]),
}


def split_small_witness(tag: str, extra_isolated: int = 0) -> Graph:
    """The seven hand-sized split witnesses s1..s7; s7 may carry extra
    isolated vertices."""
    if tag not in _SPLIT_SMALL_EDGES:
        raise DomainError(f"unknown split witness tag {tag!r}")
    if extra_isolated and tag != "s7":
        raise DomainError("extra isolated vertices only extend s7")
    if extra_isolated < 0:
        raise DomainError("extra_isolated must be >= 0")
    n, edges = _SPLIT_SMALL_EDGES[tag]
    return make_graph(n + extra_isolated, edges)


def cograph_witness(k: int, i: int, j: int) -> Graph:
    """Extremal cograph, built recursively.

    Shaving k+1 off j costs a block worth i-1 vertices (a clique joined to
    k+1 isolated vertices, disjoint from the rest); once both targets are
    small the base is a clique joined to an independent set.  Large i is
    reduced through the complement.
    """
    if i < k + 2 or j < k + 2:
        raise DomainError("need i, j >= k+2")
    if i == k + 2:
        return empty_graph(j - 1)
    if j == k + 2:
        return complete_graph(i - 1)
    if j >= 2 * k + 3:
        block = join(complete_graph(i - k - 2), empty_graph(k + 1))
        return disjoint_union(block, cograph_witness(k, i, j - k - 1))
    if i >= 2 * k + 3:
        return complement(cograph_witness(k, j, i))
    return join(complete_graph(i - k - 2), empty_graph(j - 1))


def _cactus_classical(k: int, i: int, j: int) -> Graph:
    """k = 0: 5-cycles and an edge for i = 3, triangles for i >= 4."""
    if i == 3:
        q, r = divmod(j - 1, 2)
        return disjoint_union_all([cycle_graph(5)] * q + [complete_graph(2)] * r)
    return disjoint_union_all([cycle_graph(3)] * (j - 1))


def _cactus_main(k: int, i: int, j: int) -> Graph:
    """The triangle chain for k = 1 (where i = 4), square chains for k >= 2."""
    if k == 1:
        return cycle_graph(3) if j == 3 else cactus_triangle_chain(j)
    s, t = divmod(j - 1, k)
    if t != 0:
        return disjoint_union(cactus_square_chain(k, s - 1), empty_graph(t - 1))
    return disjoint_union(cactus_square_chain(k, s - 2), empty_graph(k - 1))


def _bipartite_k1_i4(k: int, i: int, j: int) -> Graph | None:
    """A star for j <= 4, a (2j-4)-cycle for j = 5, 6, else disjoint cages;
    None when j - 1 is no sum of cage halves."""
    if j <= 6:
        return star_graph(j - 1) if j <= 4 else cycle_graph(2 * j - 4)
    parts = _cage_decomposition(j - 1)
    if parts is None:
        return None
    return disjoint_union_all([bipartite_cage(idx) for count, idx in zip(parts, (1, 2, 3, 4))
                               for _ in range(count)])


_SPLIT_NAMED_CELLS = {
    (1, 4, 5): "s1", (1, 4, 6): "s2", (2, 6, 7): "s3",
    (2, 6, 8): "s4", (2, 5, 6): "s5", (2, 5, 7): "s6",
}


def _split_small(k: int, i: int, j: int) -> Graph:
    """s1..s6 by cell, or s7 plus max(i, j) - 8 isolated vertices on the
    k = 2, min(i, j) = 5 row; complemented when i > j."""
    a, b = min(i, j), max(i, j)
    tag = _SPLIT_NAMED_CELLS.get((k, a, b))
    g = split_small_witness(tag) if tag else split_small_witness("s7", b - 8)
    return g if i <= j else complement(g)


# One construction per exact provenance tag of ``defective_ramsey``: a
# builder maps (k, i, j) to a graph, or to None where it has none.
_BUILDERS = {
    "small-min": lambda k, i, j: empty_graph(min(i, j) - 1),
    # i = k+2 in every class; the j = k+2 mirror in split graphs only
    "small-k-plus-2": lambda k, i, j: empty_graph(j - 1) if i == k + 2 else complete_graph(i - 1),
    "forest-cited-classical": lambda k, i, j: disjoint_union_all([complete_graph(2)] * (j - 1)),
    "forest-main": lambda k, i, j: forest_witness(k, j),
    "cactus-cited-classical": _cactus_classical,
    "cactus-main": _cactus_main,
    # k = 1, i >= 5: 4-cycles, and an isolated vertex for even j
    "cactus-parity": lambda k, i, j: disjoint_union_all(
        [cycle_graph(4)] * ((j - 1) // 2) + [empty_graph(1 - j % 2)]),
    # i = k+3, k >= 4: the bounds pinch onto the forest value, and the
    # forest witness is a cactus
    "cactus-bounds-tight": lambda k, i, j: forest_witness(k, j),
    "bipartite-cited-classical": lambda k, i, j: complete_bipartite(j - 1, j - 1),
    "bipartite-k1": lambda k, i, j: complete_bipartite(j - 1, j - 1),
    "bipartite-k1-i4": _bipartite_k1_i4,
    "bipartite-large-i": lambda k, i, j: complete_bipartite(
        j - 1 if j >= 2 * k + 1 else j - k - 1, j - 1),
    "split-general": split_witness_general,
    "split-diagonal": lambda k, i, j: split_witness_diagonal(k, i),
    "split-small": _split_small,
    "cograph-main": cograph_witness,
}


def _exact_witness(cls: GraphClass, k: int, i: int, j: int) -> Graph:
    """The construction for an exact cell, unvalidated; DomainError if the
    cell is not exact or has none."""
    cell = defective_ramsey(RamseyQuery(cls, k, i, j))
    if not cell.is_exact:
        raise DomainError(f"cell ({k},{i},{j}) is not exact: {cell}")
    g = _BUILDERS[cell.provenance](k, i, j)
    if g is None:
        raise DomainError(f"no witness construction for (k={k}, i={i}, j={j})")
    return g


def witness_for(query: RamseyQuery) -> Graph | None:
    """A validated extremal witness for an exact cell, built by its tag's
    construction; None for open, conjectured, or unconstructed cells
    (including exact cells whose witness would not fit in 64 vertices)."""
    cell = defective_ramsey(query)
    if not cell.is_exact or cell.value - 1 > MAX_ORDER:
        return None
    g = _BUILDERS[cell.provenance](query.k, query.i, query.j)
    if g is None:
        return None
    if g.n != cell.value - 1:
        raise ValidationError(
            f"witness for {query} has order {g.n}, expected {cell.value - 1}")
    if not member(g, query.cls):
        raise ValidationError(f"witness for {query} is not a {query.cls.value}")
    report = ramsey_check(g, query.k, query.i, query.j)
    if not report.neither:
        kind = "k-dense set" if report.has_dense else "k-sparse set"
        raise ValidationError(f"witness for {query} contains a forbidden {kind}")
    return g


def named_graph(tag: str) -> Graph:
    """Resolve a stable construction tag: g1..g4, s1..s7, gkl:K:L, hl:L."""
    if tag in ("g1", "g2", "g3", "g4"):
        return bipartite_cage(int(tag[1]))
    if tag in _SPLIT_SMALL_EDGES:
        return split_small_witness(tag)
    if tag.startswith("gkl:"):
        parts = tag.split(":")
        if len(parts) == 3:
            return cactus_square_chain(int(parts[1]), int(parts[2]))
    if tag.startswith("hl:"):
        parts = tag.split(":")
        if len(parts) == 2:
            return cactus_triangle_chain(int(parts[1]))
    raise DomainError(f"unknown graph tag {tag!r}")

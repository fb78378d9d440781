"""k-sparse and k-dense vertex sets: membership, optimization, witnesses.

A set S is k-sparse when every vertex of S has at most k neighbours
inside S; it is k-dense when it is k-sparse in the complement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import GraphClass, blocks, is_cactus
from .graphs import (
    DomainError,
    Graph,
    VertexSet,
    bits,
    complement,
    components,
)

ORACLE_MAX_ORDER = 24


def is_k_sparse(g: Graph, sub: VertexSet, k: int) -> bool:
    """True iff every vertex of ``sub`` has at most k neighbours in it."""
    for v in bits(sub):
        if (g.adj[v] & sub).bit_count() > k:
            return False
    return True


def is_k_dense(g: Graph, sub: VertexSet, k: int) -> bool:
    """True iff ``sub`` is k-sparse in the complement of g."""
    return is_k_sparse(complement(g), sub, k)


def check_cell(k: int, i: int = 1, j: int = 1) -> None:
    """Refuse set sizes i, j below 1, then a defect k below 0."""
    if i < 1 or j < 1:
        raise DomainError("set sizes i and j must be >= 1")
    if k < 0:
        raise DomainError("defect k must be >= 0")


def _greedy_sparse(adj, cand: int, k: int, chosen: int = 0) -> int:
    """Greedy k-sparse superset of the k-sparse ``chosen`` within
    ``cand | chosen`` (ascending degree in ``cand``, then index): v joins
    if it has at most k chosen neighbours and none of them already has k."""
    verts = sorted(bits(cand), key=lambda v: ((adj[v] & cand).bit_count(), v))
    for v in verts:
        nb = adj[v] & chosen
        if nb.bit_count() <= k:
            for u in bits(nb):
                if (adj[u] & chosen).bit_count() == k:
                    break
            else:
                chosen |= 1 << v
    return chosen


def _twins(adj, cand: int) -> dict[int, int]:
    """Each vertex of ``cand`` mapped to the mask of its true twins (same
    closed neighbourhood in G[cand]) or false twins (same open one),
    itself included."""
    rows = {v: adj[v] & cand for v in bits(cand)}
    closed: dict[int, int] = {}
    opened: dict[int, int] = {}
    for v, row in rows.items():
        closed[row | 1 << v] = closed.get(row | 1 << v, 0) | 1 << v
        opened[row] = opened.get(row, 0) | 1 << v
    return {v: closed[row | 1 << v] | opened[row] for v, row in rows.items()}


def _bnb_sparse(adj, cand: int, k: int, floor_size: int, floor_set: int,
                stop_at: int | None, chosen: int = 0,
                sat: int = 0) -> tuple[int, int]:
    """Branch and bound for a maximum k-sparse ``chosen | S``, S in ``cand``.

    Only improvements over ``floor_size`` are searched for.  Branches on a
    maximum-degree vertex of the candidate-induced subgraph (ties to the
    lowest index), include branch first.  When ``stop_at`` is reached the
    search aborts with the current best.

    A node is pruned once its capacity bound cannot beat the best known
    size: |chosen| plus the live (not dead) candidates, less a surplus per
    unsaturated chosen vertex c.  Walking them in ascending order, c claims
    its live neighbours that no earlier one claimed; at most k less c's
    chosen degree of them can join, and the rest is c's surplus.  The
    claims are disjoint, so the surpluses add up; with k = 0 every chosen
    vertex is saturated and the bound is the live count.  It prunes only
    subtrees with no strict improvement, and the branching order does not
    depend on the best size, so the search meets the same first maximum
    set as without it.

    Twins of an excluded vertex v turn ``dead``: swapping v with a twin w
    is an automorphism fixing ``chosen``, so a set the exclude branch finds
    through w has a same-size image through v, which the include branch
    has searched.  Improvements are strict, so a dead vertex is never
    included and does not count toward the bound.  It still counts toward
    the branching degrees, so the search meets the same improvements in
    the same order and returns the same set.  ``sat`` holds the chosen
    vertices at degree k; a candidate adjacent to one cannot be added.
    An initial ``chosen`` comes with its ``sat`` and a ``cand`` filtered
    against both; twins are taken in ``cand | chosen`` to agree on it too.
    """
    best_size = floor_size
    best_set = floor_set
    twins = _twins(adj, cand | chosen)

    def rec(chosen: int, sat: int, size: int, cand: int, dead: int) -> bool:
        nonlocal best_size, best_set
        if size > best_size:
            best_size, best_set = size, chosen
            if stop_at is not None and size >= stop_at:
                return True
        while True:
            live = cand & ~dead
            room = size + live.bit_count() - best_size
            # capacity bound: unsaturated chosen vertices claim live neighbours
            m = chosen & ~sat
            rest = live
            while m and room > 0:
                b = m & -m
                m ^= b
                row = adj[b.bit_length() - 1]
                nbl = row & rest
                rest ^= nbl
                surplus = nbl.bit_count() + (row & chosen).bit_count() - k
                if surplus > 0:
                    room -= surplus
            if room <= 0:
                return False
            bv, bd = -1, -1
            m = cand
            while m:
                b = m & -m
                v = b.bit_length() - 1
                m ^= b
                d = (adj[v] & cand).bit_count()
                if d > bd:
                    bv, bd = v, d
            vbit = 1 << bv
            if not dead & vbit:
                # bv joins chosen; bits() unrolled: in this hot loop a
                # generator costs more than the work it yields
                nb = adj[bv] & chosen
                new_chosen = chosen | vbit
                new_sat = sat | vbit if nb.bit_count() == k else sat
                while nb:
                    b = nb & -nb
                    nb ^= b
                    if (adj[b.bit_length() - 1] & new_chosen).bit_count() == k:
                        new_sat |= b
                # the candidates passed the filter against chosen and sat:
                # only bv's neighbours and those of new saturated ones can fail
                new_cand = cand ^ vbit
                m = new_sat ^ sat
                while m:
                    b = m & -m
                    m ^= b
                    new_cand &= ~adj[b.bit_length() - 1]
                m = new_cand & adj[bv]
                while m:
                    b = m & -m
                    m ^= b
                    if (adj[b.bit_length() - 1] & new_chosen).bit_count() > k:
                        new_cand ^= b
                if rec(new_chosen, new_sat, size + 1, new_cand, dead & new_cand):
                    return True
            cand ^= vbit
            dead = (dead | twins[bv]) & cand

    rec(chosen, sat, chosen.bit_count(), cand, 0)
    del rec  # rec's closure holds rec: free the cycle now, not at the next GC
    return best_size, best_set


def has_sparse_through(g: Graph, v: int, k: int, size: int) -> bool:
    """True iff some k-sparse set of ``size`` vertices of g contains v: the
    greedy set grown from {v}, else the branch and bound from {v} with
    floor ``size - 1``.  With k = 0, v is saturated from the start."""
    vbit = 1 << v
    cand = g.vertex_mask() ^ vbit
    if _greedy_sparse(g.adj, cand, k, vbit).bit_count() >= size:
        return True
    sat = vbit if k == 0 else 0
    if sat:
        cand &= ~g.adj[v]
    return _bnb_sparse(g.adj, cand, k, size - 1, 0, size, vbit, sat)[0] >= size


def alpha_k(g: Graph, k: int, *, lo: int = 0,
            hi: int | None = None) -> tuple[int, VertexSet]:
    """Maximum k-sparse set size with one optimal witness.

    Computed per connected component and summed.  Bounds ``lo <= hi`` cut
    the search short.  If ``lo <= alpha_k(g, k) <= hi``, the result is the
    unbounded one, set included; below ``lo``, the size returned is below
    ``lo``; above ``hi``, the result is a k-sparse set of at least ``hi``
    vertices and its size.  The branching order of ``_bnb_sparse`` (its
    vertex choice and its dead twins) does not depend on the best size so
    far, and a valid bound prunes only subtrees with no strict improvement,
    so the search meets the same first maximum set in DFS order.  Per
    component, the optimum is at most ``hi`` less the exact sizes before it
    and the greedy sizes after it (the stop), and at least ``need``: ``lo``
    less the sizes before it and the orders of the components after it.
    So ``need - 1`` is a floor, and missing ``need`` ends the search below
    ``lo``.
    """
    check_cell(k)
    if hi is not None and lo > hi:
        raise DomainError(f"alpha_k bounds need lo <= hi, got {lo} > {hi}")
    comps = components(g)
    # a one-vertex component is its own greedy set
    greedy = [c if c & (c - 1) == 0 else _greedy_sparse(g.adj, c, k) for c in comps]
    later = sum(s.bit_count() for s in greedy)
    rest = g.n
    total = witness = 0
    for comp, floor_set in zip(comps, greedy):
        floor = floor_set.bit_count()
        later -= floor
        rest -= comp.bit_count()
        need = lo - total - rest
        stop = None if hi is None else hi - total - later
        if stop is not None and stop <= floor:
            size, best = floor, floor_set
        else:
            if need - 1 > floor:
                floor, floor_set = need - 1, 0
            size, best = _bnb_sparse(g.adj, comp, k, floor, floor_set, stop)
        total += size
        witness |= best
        if size < need:
            break
    return total, witness


def find_sparse_set(g: Graph, k: int, target: int) -> VertexSet | None:
    """A k-sparse set of exactly ``target`` vertices, or None.

    ``alpha_k`` with ``lo = hi = target``: it stops once the target is
    reached and gives up once the components left cannot make it up.
    """
    check_cell(k)
    if target <= 0:
        return 0
    size, found = alpha_k(g, k, lo=target, hi=target)
    if size < target:
        return None
    while found.bit_count() > target:  # keep the lowest target vertices
        found ^= 1 << found.bit_length() - 1
    return found


def alpha_k_oracle(g: Graph, k: int) -> int:
    """Exhaustive alpha_k: enumerate every k-sparse set.

    Subset recursion in vertex order; a set that stops being k-sparse is
    never extended (supersets cannot recover).  Exponential, for
    cross-checking the solver on small graphs only.
    """
    check_cell(k)
    if g.n > ORACLE_MAX_ORDER:
        raise DomainError(f"oracle limited to order {ORACLE_MAX_ORDER}, got {g.n}")
    best = 0

    def rec(start: int, chosen: int, size: int):
        nonlocal best
        if size > best:
            best = size
        for v in range(start, g.n):
            grown = chosen | (1 << v)
            if is_k_sparse(g, grown, k):
                rec(v + 1, grown, size + 1)

    rec(0, 0, 0)
    return best


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of checking one graph for a k-dense i-set / k-sparse j-set."""

    dense_witness: VertexSet | None
    sparse_witness: VertexSet | None

    @property
    def has_dense(self) -> bool:
        return self.dense_witness is not None

    @property
    def has_sparse(self) -> bool:
        return self.sparse_witness is not None

    @property
    def neither(self) -> bool:
        return self.dense_witness is None and self.sparse_witness is None


def ramsey_check(g: Graph, k: int, i: int, j: int) -> WitnessReport:
    """Look for a k-sparse j-set and a k-dense i-set in g."""
    check_cell(k, i, j)
    sparse = find_sparse_set(g, k, j)
    dense = find_sparse_set(complement(g), k, i)
    return WitnessReport(dense_witness=dense, sparse_witness=sparse)


def sparsity_remainder(n: int) -> int:
    """0 when n is divisible by 4, else 1."""
    return 0 if n % 4 == 0 else 1


def class_sparse_lower_bound(cls: GraphClass, n: int, k: int) -> int:
    """Guaranteed minimum alpha_k over all order-n members of the class.

    Supported for forests (any k >= 1) and cacti (k = 1 uses the
    parity-sensitive form, k >= 2 the sharp floor form).
    """
    if k < 1:
        raise DomainError("bounds are stated for k >= 1")
    if cls is GraphClass.FOREST:
        return -((-(k + 1) * n) // (k + 2))  # ceil((k+1)n / (k+2))
    if cls is GraphClass.CACTUS:
        if n < 1:
            raise DomainError("cactus bound needs n >= 1")
        if k == 1:
            return n // 2 + sparsity_remainder(n)
        return (k * n) // (k + 1) + 1
    raise DomainError(f"no sparse lower bound for class {cls.value}")


def cactus_deforesting_matching(g: Graph) -> list[tuple[int, int]]:
    """A matching whose removal turns the cactus into a forest.

    Exactly one edge per cycle block, ties broken toward the lowest vertex
    index, returned sorted.  The blocks are read in reverse Tarjan order,
    where each block C comes before every block below it in the DFS tree.
    So the blocks already handled meet C in its top vertex at most, and
    the unmatched vertices of C include C minus its top: a path of >= 2
    vertices.  C gives the edge from the least unmatched u with an
    unmatched neighbour in C to the least such neighbour v (so u < v),
    and both become matched.
    """
    if not is_cactus(g):
        raise DomainError("input is not a cactus")
    matched = 0
    out = []
    for block in reversed(blocks(g)):
        if block.bit_count() < 3:
            continue
        free = block & ~matched
        u = next(u for u in bits(free) if g.adj[u] & free)
        v = next(bits(g.adj[u] & free))
        matched |= 1 << u | 1 << v
        out.append((u, v))
    return sorted(out)

"""Stochastic witness hunting for open cells.

Seeded local search over class members of a fixed order.  Moves are edge
additions, removals and swaps preserving class membership; the score is
how far the largest sparse/dense sets overshoot their allowed sizes, and
moves are biased toward the violating set (add an edge inside an
oversized sparse set, remove an edge from an oversized dense one).  A
returned graph is always validated; a miss proves nothing.
"""

from __future__ import annotations

import random

from .classes import GraphClass, member
from .defects import alpha_k, check_cell, ramsey_check
from .graphs import DomainError, Graph, bits, complement, empty_graph

DEFAULT_HUNT_BUDGET = 20000


def _score(g: Graph, k: int, i: int, j: int,
           parent: tuple[Graph, tuple[int, int]] | None = None):
    """(score, oversized sparse set or 0, oversized dense set or 0, sizes).

    The score is (worst excess, total excess): the primary part is zero
    exactly on witnesses, the secondary steers ties toward states with
    only one side left to repair.  ``sizes`` is (alpha_k of g, alpha_k of
    its complement).  With ``parent`` = (graph, its sizes), both solves
    are bound-seeded: adding an edge costs a k-sparse set at most one
    vertex (drop an endpoint), so with ``a`` pairs added and ``r`` removed
    the sparse size moves within [-a, +r] and the dense one within [-r, +a].
    """
    if parent is None:
        s_size, s_set = alpha_k(g, k)
        d_size, d_set = alpha_k(complement(g), k)
    else:
        old, (s0, d0) = parent
        added = sum((row & ~was).bit_count() for row, was in zip(g.adj, old.adj)) // 2
        removed = sum((was & ~row).bit_count() for row, was in zip(g.adj, old.adj)) // 2
        s_size, s_set = alpha_k(g, k, lo=s0 - added, hi=s0 + removed)
        d_size, d_set = alpha_k(complement(g), k, lo=d0 - removed, hi=d0 + added)
    s_excess = max(0, s_size - (j - 1))
    d_excess = max(0, d_size - (i - 1))
    return ((max(s_excess, d_excess), s_excess + d_excess),
            s_set if s_excess else 0,
            d_set if d_excess else 0,
            (s_size, d_size))


def _toggle(g: Graph, *pairs: tuple[int, int]) -> Graph:
    """``g`` with the adjacency of each vertex pair flipped."""
    adj = list(g.adj)
    for u, v in pairs:
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    return Graph(g.n, tuple(adj))


def _random_member(cls: GraphClass, n: int, rng: random.Random) -> Graph:
    """A random class member: greedy random edge insertions from empty."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    g = empty_graph(n)
    for pair in pairs:
        if rng.random() < 0.35:
            candidate = _toggle(g, pair)
            if member(candidate, cls):
                g = candidate
    return g


def _sparse_repair(g: Graph, rng: random.Random, sparse_set: int) -> tuple[int, int] | None:
    if sparse_set.bit_count() < 2:  # no pair to join; draw nothing from rng
        return None
    inside = list(bits(sparse_set))
    for _ in range(8):
        u, v = rng.sample(inside, 2)
        if not g.has_edge(u, v):
            return (min(u, v), max(u, v))
    return None


def _dense_repair(g: Graph, rng: random.Random, dense_set: int) -> tuple[int, int] | None:
    inside = [(u, v) for u in bits(dense_set) for v in bits(g.adj[u] & dense_set)
              if u < v]
    return rng.choice(inside) if inside else None


def _mutate(g: Graph, rng: random.Random, sparse_set: int, dense_set: int) -> Graph | None:
    targeted = rng.random() < 0.8
    if targeted and (sparse_set or dense_set):
        if sparse_set and dense_set:
            # repair both at once: drop a dense-set edge, close a sparse-set gap
            add = _sparse_repair(g, rng, sparse_set)
            drop = _dense_repair(g, rng, dense_set)
            if add and drop:
                return _toggle(g, drop, add)
        if sparse_set and (not dense_set or rng.random() < 0.5):
            add = _sparse_repair(g, rng, sparse_set)
            if add:
                return _toggle(g, add)
        else:
            drop = _dense_repair(g, rng, dense_set)
            if drop:
                return _toggle(g, drop)
    present = g.edges()
    absent = complement(g).edges()
    move = rng.randrange(3)
    if move == 0 and absent:          # add
        return _toggle(g, rng.choice(absent))
    if move == 1 and present:         # remove
        return _toggle(g, rng.choice(present))
    if move == 2 and present and absent:  # swap: draws present, then absent
        return _toggle(g, rng.choice(present), rng.choice(absent))
    return None


def hunt_witness(cls: GraphClass, k: int, i: int, j: int, n: int,
                 budget: int = DEFAULT_HUNT_BUDGET, seed: int = 0) -> Graph | None:
    """Search for an order-n class graph with neither witness set.

    A result proves the cell value exceeds n; None after ``budget`` moves
    proves nothing.  Same seed, same flags: same output.
    """
    check_cell(k, i, j)
    if budget < 1:
        raise DomainError(f"hunt budget must be >= 1, got {budget}")
    rng = random.Random(seed)
    moves = 0
    restart_after = max(300, budget // 10)
    while moves < budget:
        g = _random_member(cls, n, rng)
        score, s_set, d_set, sizes = _score(g, k, i, j)
        stale = 0
        while moves < budget and stale < restart_after:
            if score[0] == 0:
                if member(g, cls) and ramsey_check(g, k, i, j).neither:
                    return g
                break  # cannot happen; restart rather than trust a bad score
            moves += 1
            candidate = _mutate(g, rng, s_set, d_set)
            if candidate is None or not member(candidate, cls):
                stale += 1
                continue
            cand_score, cand_s, cand_d, cand_sizes = _score(candidate, k, i, j, (g, sizes))
            if cand_score <= score or rng.random() < 0.05:
                stale = 0 if cand_score < score else stale + 1
                g, score, s_set, d_set, sizes = candidate, cand_score, cand_s, cand_d, cand_sizes
            else:
                stale += 1
    return None

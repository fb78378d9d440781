"""Stochastic witness hunting for open cells.

Seeded local search over class members of a fixed order.  Moves are edge
additions, removals and swaps preserving class membership; the score is
how far the largest sparse/dense sets overshoot their allowed sizes, and
moves are biased toward the violating set (add an edge inside an
oversized sparse set, remove an edge from an oversized dense one).  A
returned graph is always validated; a miss proves nothing.

Most candidates are rejected, so most moves start from the state the
last one did, and the search pays per state rather than per move:

- *Move menus.*  The pair lists that moves draw from (edges, non-edges,
  sparse-set vertices, dense-set edges) and the state's class test are
  built on first use and dropped when a candidate is accepted.
- *Class test from the move.*  Removing an edge keeps a forest, a cactus
  or a bipartite graph in its class, and adding one is decided on the
  state (``classes.edge_test``); a split candidate is decided by
  Hammer–Simeone on its degrees.  Cographs, and a swap whose added pair
  fails on the state, fall back to ``member``.
- *Threshold scoring.*  A candidate is kept iff its score is at most the
  state's (or by a 5% draw after a rejection), so ``_score`` takes the
  state's score as a bound and stops each solve at the first size that
  rejects; a sparse side above it rejects with no dense solve.  Under
  valid bounds ``alpha_k`` returns the unbounded result, so every state,
  set and draw is the one an unbounded score gives.
"""

from __future__ import annotations

import random
from functools import cached_property

from .classes import GraphClass, edge_test, is_split_sequence, member
from .defects import alpha_k, check_cell, ramsey_check
from .graphs import DomainError, Graph, bits, complement, empty_graph

DEFAULT_HUNT_BUDGET = 20000


def _score(g: Graph, k: int, i: int, j: int,
           parent: tuple[Graph, tuple[int, int]] | None = None,
           bound: tuple[int, int] | None = None):
    """(score, oversized sparse set or 0, oversized dense set or 0, sizes),
    or None if the score is above ``bound``.

    The score is (worst excess, total excess): the primary part is zero
    exactly on witnesses, the secondary steers ties toward states with
    only one side left to repair.  ``sizes`` is (alpha_k of g, alpha_k of
    its complement).  With ``parent`` = (graph, its sizes), both solves
    are bound-seeded: adding an edge costs a k-sparse set at most one
    vertex (drop an endpoint), so with ``a`` pairs added and ``r`` removed
    the sparse size moves within [-a, +r] and the dense one within [-r, +a].
    With ``bound`` = (M, T), the sparse solve stops at j + M vertices
    (excess M + 1 rejects) and the dense one at i + room, where room is
    the largest dense excess d with (max(s, d), s + d) <= (M, T) for the
    sparse excess s.
    """
    s_lo = d_lo = 0
    s_hi = d_hi = g.n
    if parent is not None:
        old, (s0, d0) = parent
        added = sum((row & ~was).bit_count() for row, was in zip(g.adj, old.adj)) // 2
        removed = sum((was & ~row).bit_count() for row, was in zip(g.adj, old.adj)) // 2
        s_lo, s_hi, d_lo, d_hi = s0 - added, s0 + removed, d0 - removed, d0 + added
    top, total = bound or (g.n, 2 * g.n)  # no score exceeds (n, 2n)
    s_hi = min(s_hi, j + top)
    if s_lo > s_hi:  # alpha_k >= s_lo > j + M: an excess above M
        return None
    s_size, s_set = alpha_k(g, k, lo=s_lo, hi=s_hi)
    s_excess = max(0, s_size - (j - 1))
    if s_excess > top:
        return None
    # (max(s, d), s + d) grows with d: below M only the first part
    # counts, at M the second must stay within T
    room = top if s_excess + top <= total else top - 1 if s_excess < top else total - top
    d_hi = min(d_hi, i + room)
    if d_lo > d_hi:
        return None
    d_size, d_set = alpha_k(complement(g), k, lo=d_lo, hi=d_hi)
    d_excess = max(0, d_size - (i - 1))
    if d_excess > room:
        return None
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


class _Menu:
    """What a state's moves draw from, and its class test: each part is
    built on first use and lives as long as the state."""

    def __init__(self, g: Graph, cls: GraphClass, sparse_set: int = 0, dense_set: int = 0):
        self.g, self.cls, self.sparse_set, self.dense_set = g, cls, sparse_set, dense_set

    @cached_property
    def present(self) -> list[tuple[int, int]]:
        return self.g.edges()

    @cached_property
    def absent(self) -> list[tuple[int, int]]:
        return complement(self.g).edges()

    @cached_property
    def sparse(self) -> list[int]:
        return list(bits(self.sparse_set))

    @cached_property
    def dense(self) -> list[tuple[int, int]]:
        """The edges inside the dense set."""
        d, adj = self.dense_set, self.g.adj
        return [(u, v) for u in bits(d) for v in bits(adj[u] & d) if u < v]

    @cached_property
    def joins(self):
        return edge_test(self.g, self.cls)

    def admits(self, candidate: Graph, drop, add) -> bool:
        """Whether ``candidate``, the state less the edge ``drop`` plus the
        non-edge ``add`` (either may be None), is in the class."""
        if self.cls is GraphClass.SPLIT:
            return is_split_sequence([row.bit_count() for row in candidate.adj])
        if self.joins is not None:  # a class closed under edge removal
            if add is None or self.joins(*add):
                return True
            if drop is None:
                return False
        return member(candidate, self.cls)


def _random_member(cls: GraphClass, n: int, rng: random.Random) -> Graph:
    """A random class member: greedy random edge insertions from empty."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    g = empty_graph(n)
    menu = _Menu(g, cls)
    for pair in pairs:
        if rng.random() < 0.35:
            candidate = _toggle(g, pair)
            if menu.admits(candidate, None, pair):
                g, menu = candidate, _Menu(candidate, cls)
    return g


def _sparse_repair(g: Graph, rng: random.Random, inside: list[int]) -> tuple[int, int] | None:
    """A non-edge between two of the sparse-set vertices ``inside``."""
    if len(inside) < 2:  # no pair to join; draw nothing from rng
        return None
    for _ in range(8):
        u, v = rng.sample(inside, 2)
        if not g.has_edge(u, v):
            return (min(u, v), max(u, v))
    return None


def _dense_repair(rng: random.Random, inside: list[tuple[int, int]]) -> tuple[int, int] | None:
    return rng.choice(inside) if inside else None


def _mutate(g: Graph, rng: random.Random, sparse_set: int, dense_set: int,
            menu: _Menu) -> tuple | None:
    """A move (drop, add) from the state g with its sets and ``menu``: an
    edge to remove and a non-edge to add, either None; None for no move."""
    targeted = rng.random() < 0.8
    if targeted and (sparse_set or dense_set):
        if sparse_set and dense_set:
            # repair both at once: drop a dense-set edge, close a sparse-set gap
            add = _sparse_repair(g, rng, menu.sparse)
            drop = _dense_repair(rng, menu.dense)
            if add and drop:
                return drop, add
        if sparse_set and (not dense_set or rng.random() < 0.5):
            add = _sparse_repair(g, rng, menu.sparse)
            if add:
                return None, add
        else:
            drop = _dense_repair(rng, menu.dense)
            if drop:
                return drop, None
    move = rng.randrange(3)
    if move == 0 and menu.absent:         # add
        return None, rng.choice(menu.absent)
    if move == 1 and menu.present:        # remove
        return rng.choice(menu.present), None
    if move == 2 and menu.present and menu.absent:  # swap: draws present, then absent
        return rng.choice(menu.present), rng.choice(menu.absent)
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
        menu = _Menu(g, cls, s_set, d_set)
        stale = 0
        while moves < budget and stale < restart_after:
            if score[0] == 0:
                if member(g, cls) and ramsey_check(g, k, i, j).neither:
                    return g
                break  # cannot happen; restart rather than trust a bad score
            moves += 1
            move = _mutate(g, rng, s_set, d_set, menu)
            candidate = move and _toggle(g, *(pair for pair in move if pair))
            if candidate is None or not menu.admits(candidate, *move):
                stale += 1
                continue
            scored = _score(candidate, k, i, j, (g, sizes), score)
            if scored is None and rng.random() < 0.05:  # drawn after a rejection only
                scored = _score(candidate, k, i, j, (g, sizes))
            if scored is None:
                stale += 1
                continue
            stale = 0 if scored[0] < score else stale + 1
            g, (score, s_set, d_set, sizes) = candidate, scored
            menu = _Menu(g, cls, s_set, d_set)
    return None

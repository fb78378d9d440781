"""Isomorph-free exhaustive generation and from-scratch value verification.

Graphs of order m arise by attaching a new vertex to every order-(m-1)
graph of the class; an extension is kept only when the new vertex sits in
the automorphism orbit of the canonical deletion target, and attachment
neighbourhoods are deduplicated by parent-automorphism orbits, so each
isomorphism class appears exactly once.  One generator yields the levels
in turn, holding only the level it extends; only ``enumerate_levels``
keeps them all, the other callers keep at most the last two.

Most children are settled without a canonical labelling.  The search in
``canon`` splits cells in place, so the deletion target ``lab[m]`` always
lies in the last cell of the root partition ``_refine(rows, [all])``, and
every root cell is a union of automorphism orbits.  The new vertex m is
therefore accepted only if it lies in that last cell, which holds only
vertices of maximum degree, and at once if the cell is ``{m}``.  Three
arguments decide most children before a full ``_canon``:

* Degrees.  Each parent vertex gains at most one degree, so if m's degree
  exceeds every parent vertex's degree in the child, m alone has maximum
  degree and the last cell is ``{m}`` with no refinement at all.
* Early stop.  The final last cell is a fragment of every earlier last
  cell, so ``_refine(..., watch=m)`` stops as soon as the last cell is
  ``{m}`` or has lost m; either answer is final.
* Twins.  If every w in the last cell is a twin of m (adjacent to the
  same vertices outside {m, w}), swapping m and w is an automorphism, so
  the whole cell, ``lab[m]`` with it, lies in m's orbit.

Only the remaining ties run ``_canon`` and the orbit test.  The degree
pre-filter is the same on a whole parent orbit, so orbits that fail it
are not walked; the walk reads one image table per parent generator.

Class membership of a child is decided once per orbit, after the walk,
by the class's ``extension_test``: from the parent alone for forests
(components), bipartite graphs (colour classes), cacti (the bridge
forest) and split graphs (the Hammer–Simeone degree test), by the
recognizer for cographs.  Membership is invariant under isomorphism, so
it holds on a whole orbit or on none of it.

The value searches extend only *good* graphs (no k-dense i-set, no
k-sparse j-set).  Goodness passes to induced subgraphs, every class is
hereditary and a canonical-deletion parent is an induced subgraph of its
child, so the good levels are the full levels with the rest dropped.
Order 0 is good (i, j >= 1), and a child of a good parent is good iff
no such set contains the new vertex m, as every other set lies in the
parent.  ``_extend_parent`` asks for sets through m after the cheaper
last-cell test and before the ``_canon`` tie-break: a bad child is
never canonized, and the good levels keep the full levels' order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial

from .canon import _all_twins, _canon, _orbit, _refine
from .classes import GraphClass, extension_test
from .defects import check_cell, has_sparse_through
from .formulas import RamseyValue
from .graph6 import graph6_encode
from .graphs import DomainError, Graph, add_vertex, complement

ENV_BUDGET = "DEFRAM_BUDGET"
DEFAULT_BUDGETS = {GraphClass.FOREST: 12, GraphClass.SPLIT: 12}
DEFAULT_BUDGET = 10


class BudgetError(DomainError):
    """An enumeration order above the configured budget was requested."""


def order_budget(cls: GraphClass, budget: int | None = None) -> int:
    if budget is None:
        env = os.environ.get(ENV_BUDGET)
        if env is None:
            return DEFAULT_BUDGETS.get(cls, DEFAULT_BUDGET)
        try:
            budget = int(env)
        except ValueError:
            raise DomainError(f"{ENV_BUDGET} must be an integer, got {env!r}") from None
    if budget < 0:
        raise DomainError(f"budget must be >= 0, got {budget}")
    return budget


def _image_table(perm, m: int) -> list[int]:
    """Image under ``perm`` of every vertex mask of an order-m graph."""
    table = [0]
    for v in range(m):
        vbit = 1 << perm[v]
        table += [img | vbit for img in table]
    return table


def _extend_parent(parent: Graph, cls: GraphClass,
                   cell: tuple[int, int, int] | None = None) -> list[Graph]:
    """All accepted one-vertex extensions of ``parent`` inside the class;
    with a ``(k, i, j)`` cell and a good parent, only the good ones."""
    m = parent.n
    tables = [_image_table(perm, m) for perm in _canon(m, parent.adj)[2]]
    seen = bytearray(1 << m)
    degrees = [row.bit_count() for row in parent.adj]
    top = max(degrees, default=0)
    top_mask = sum(1 << u for u, d in enumerate(degrees) if d == top)
    admits = extension_test(parent, cls)
    children = []
    for neigh in range(1 << m):
        d = neigh.bit_count()
        if d < top or (d == top and neigh & top_mask):
            # m would lack maximum degree here and for every image of
            # neigh under the parent group, so the orbit is not walked
            continue
        if seen[neigh]:
            continue
        seen[neigh] = 1
        orbit = [neigh]
        for cur in orbit:
            for table in tables:
                img = table[cur]
                if not seen[img]:
                    seen[img] = 1
                    orbit.append(img)
        if not admits(neigh):
            continue
        child = add_vertex(parent, neigh)
        if d > top + 1 or (d == top + 1 and not neigh & top_mask):
            last = 1 << m  # m alone has maximum degree
        else:
            last = _refine(child.adj, [(1 << (m + 1)) - 1], watch=m)[-1]
            if not (last >> m) & 1:
                continue
        if cell is not None:
            k, i, j = cell
            if (has_sparse_through(child, m, k, j)
                    or has_sparse_through(complement(child), m, k, i)):
                continue
        if last != 1 << m and not _all_twins(child.adj, last, m):
            _, lab, cgens = _canon(m + 1, child.adj)
            if lab[m] != m and lab[m] not in _orbit(cgens, m):
                continue
        children.append(child)
    return children


def _levels(cls: GraphClass, n: int, budget: int | None = None, workers: int = 1,
            cell: tuple[int, int, int] | None = None) -> Iterator[list[Graph]]:
    """Yield the class members of each order 0..n in turn, one per
    isomorphism class, in a deterministic order, holding only the level
    being extended; with a ``(k, i, j)`` cell, only its good graphs."""
    cap = order_budget(cls, budget)
    if n > cap:
        raise BudgetError(
            f"order {n} exceeds the enumeration budget {cap}; pass a larger "
            f"budget or set {ENV_BUDGET}")
    if n < 0:
        raise DomainError("order must be >= 0")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    if cell is not None:
        check_cell(*cell)
    workers = min(workers, os.cpu_count() or 1)
    level = [Graph(0, ())]
    pool = None
    try:
        if workers > 1:
            pool = multiprocessing.get_context("fork").Pool(workers)
        yield level
        for _ in range(n):
            if pool is not None and len(level) > 4 * workers:
                chunks = pool.map(partial(_extend_parent, cls=cls, cell=cell), level,
                                  chunksize=max(1, len(level) // (4 * workers)))
            else:
                chunks = [_extend_parent(p, cls, cell) for p in level]
            level = [g for chunk in chunks for g in chunk]
            yield level
    finally:
        if pool is not None:
            pool.close()
            pool.join()


def enumerate_levels(cls: GraphClass, n: int, budget: int | None = None,
                     workers: int = 1) -> list[list[Graph]]:
    """Lists of all class members of each order 0..n, one per isomorphism
    class, in a deterministic order."""
    return list(_levels(cls, n, budget, workers))


def enumerate_class(cls: GraphClass, n: int, budget: int | None = None,
                    workers: int = 1) -> list[Graph]:
    """All class members of order n, one per isomorphism class."""
    return deque(_levels(cls, n, budget, workers), maxlen=1).pop()


@dataclass
class EnumerationReport:
    """Result of exhaustively checking one cell at one order; ``examined``
    counts the good graphs (neither set) visited over orders 0..order."""

    cls: GraphClass
    order: int
    k: int
    i: int
    j: int
    examined: int
    all_pass: bool
    counterexamples: list[str] = field(default_factory=list)
    lower_witness: str | None = None
    elapsed: float = 0.0

    @property
    def confirmed(self) -> bool:
        return self.all_pass and self.lower_witness is not None

    def to_json(self) -> dict:
        return {
            "class": self.cls.value, "order": self.order,
            "k": self.k, "i": self.i, "j": self.j,
            "examined": self.examined, "all_pass": self.all_pass,
            "counterexamples": self.counterexamples,
            "lower_witness": self.lower_witness,
            "confirmed": self.confirmed, "elapsed": self.elapsed,
        }


def verify_value(cls: GraphClass, k: int, i: int, j: int, claimed: int,
                 budget: int | None = None, workers: int = 1) -> EnumerationReport:
    """Check a claimed value from scratch: no class graph of order
    ``claimed`` may be good, and some graph one order below must be."""
    if claimed < 1:
        raise DomainError("claimed value must be >= 1")
    start = time.perf_counter()
    examined, below, top = 0, [], []
    for level in _levels(cls, claimed, budget, workers, (k, i, j)):
        examined += len(level)
        below, top = top, level
    return EnumerationReport(
        cls=cls, order=claimed, k=k, i=i, j=j, examined=examined,
        all_pass=not top,
        counterexamples=[graph6_encode(g) for g in top],
        lower_witness=graph6_encode(below[0]) if below else None,
        elapsed=time.perf_counter() - start,
    )


def compute_ramsey_exhaustive(cls: GraphClass, k: int, i: int, j: int,
                              n_max: int, budget: int | None = None,
                              workers: int = 1) -> RamseyValue | None:
    """Smallest order up to ``n_max`` with no good class graph, else None."""
    with closing(_levels(cls, n_max, budget, workers, (k, i, j))) as levels:
        for n, level in enumerate(levels):  # closing ends a pool early
            if not level:
                return RamseyValue.exact(n, "exhaustive")
    return None

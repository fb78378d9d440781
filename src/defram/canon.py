"""Canonical forms, automorphism generators, and an isomorphism oracle.

The canonical form is the lexicographically least adjacency encoding over
all leaves of an individualization-refinement search tree.  Leaves that
tie with the current best yield automorphisms, whose orbits prune
symmetric branches; the generators found this way generate the full
automorphism group, which the enumeration module relies on.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from .graphs import Graph, bits


def _refine(adj, cells: list[int], stable: Iterable[int] = (), *,
            watch: int | None = None) -> list[int]:
    """Coarsest stable ordered partition refining ``cells``.

    Cells split by neighbour counts against every cell; fragments are
    ordered by count, so the evolution depends only on structure.  Each
    round applies the first cell that splits anything, then starts over.

    Refining never undoes uniformity against a fixed vertex set: once
    every cell has constant neighbour counts into a mask, so do all of
    their fragments.  A splitter that was tried and split nothing, or
    that was just applied, therefore splits nothing for as long as its
    mask is still a cell, and ``stable`` lets later rounds skip it.  The
    rounds apply the same splitters in the same order as without it.  A
    caller may seed ``stable`` with cells known to split nothing, such as
    the untouched cells of an equitable partition it has just cut.

    With ``watch=v`` the rounds stop early, as soon as the last cell is
    ``{v}`` or no longer holds v.  Cells split in place, so the final last
    cell is a fragment of every earlier last cell: a singleton last cell
    stays, and a vertex that left the last cell never returns to it.  Only
    those two answers are promised, not the partition itself.
    """
    cells = list(cells)
    stable = set(stable)
    wbit = 0 if watch is None else 1 << watch
    while True:
        if wbit and (cells[-1] == wbit or not cells[-1] & wbit):
            return cells
        for splitter in cells:
            if splitter in stable:
                continue
            stable.add(splitter)
            new_cells = []
            split = False
            for cell in cells:
                if not cell & (cell - 1):
                    new_cells.append(cell)
                    continue
                # most cells do not split: compare with the first count
                # and build the groups only from the first mismatch on
                b = cell & -cell
                first = (adj[b.bit_length() - 1] & splitter).bit_count()
                m = cell ^ b
                while m:
                    b = m & -m
                    if (adj[b.bit_length() - 1] & splitter).bit_count() != first:
                        break
                    m ^= b
                if not m:
                    new_cells.append(cell)
                    continue
                split = True
                groups = {first: cell ^ m}
                while m:
                    b = m & -m
                    m ^= b
                    cnt = (adj[b.bit_length() - 1] & splitter).bit_count()
                    groups[cnt] = groups.get(cnt, 0) | b
                for cnt in sorted(groups):
                    new_cells.append(groups[cnt])
            if split:
                cells = new_cells
                break
        else:
            return cells


def _encode(adj, lab: tuple[int, ...]) -> int:
    """Adjacency bits of the relabelled graph, rows of the lower triangle
    packed MSB-first so integer order is lexicographic order."""
    enc = 0
    for p in range(1, len(lab)):
        row = adj[lab[p]]
        for q in range(p):
            enc = (enc << 1) | ((row >> lab[q]) & 1)
    return enc


def _orbit(gens, start: int) -> set[int]:
    orb = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in orb:
                orb.add(y)
                frontier.append(y)
    return orb


def _search(adj, n: int):
    best_enc: int | None = None
    best_lab: tuple[int, ...] | None = None
    gens: list[tuple[int, ...]] = []

    def rec(cells: list[int], path: tuple[int, ...]):
        nonlocal best_enc, best_lab
        target = next((idx for idx, c in enumerate(cells) if c.bit_count() > 1), None)
        if target is None:
            lab = tuple(c.bit_length() - 1 for c in cells)
            enc = _encode(adj, lab)
            if best_enc is None or enc < best_enc:
                best_enc, best_lab = enc, lab
            elif enc == best_enc and lab != best_lab:
                auto = [0] * n
                for p in range(n):
                    auto[best_lab[p]] = lab[p]
                auto = tuple(auto)
                if auto not in gens:
                    gens.append(auto)
            return
        cell = cells[target]
        done: list[int] = []
        for v in bits(cell):
            if done:
                fixing = [g for g in gens if all(g[x] == x for x in path)]
                if fixing and not _orbit(fixing, v).isdisjoint(done):
                    done.append(v)
                    continue
            vbit = 1 << v
            # ``cells`` is equitable, so its other cells split nothing
            refined = _refine(adj, cells[:target] + [vbit, cell ^ vbit] + cells[target + 1:],
                              cells)
            rec(refined, path + (v,))
            done.append(v)

    rec(_refine(adj, [(1 << n) - 1]), ())
    return best_enc, best_lab, tuple(gens)


def _all_twins(adj, cell: int, v: int) -> bool:
    """Whether every vertex w of ``cell`` is a twin of v: adjacent to the
    same vertices outside {v, w}.  Swapping v with such a w preserves
    every adjacency, so the whole cell then lies in v's orbit."""
    row = adj[v]
    return all(not (adj[w] ^ row) & ~(1 << w | 1 << v) for w in bits(cell))


@lru_cache(maxsize=1 << 16)
def _canon(n: int, adj: tuple[int, ...]):
    if n == 0:
        return b"\x00", (), ()
    enc, lab, gens = _search(adj, n)
    nbytes = (n * (n - 1) // 2 + 7) // 8
    form = bytes([n]) + enc.to_bytes(nbytes, "big")
    return form, lab, gens


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic."""
    return _canon(g.n, g.adj)[0]


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """The labelling realising the canonical form: position p holds
    vertex labeling[p]."""
    return _canon(g.n, g.adj)[1]


def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Permutations generating the full automorphism group."""
    return _canon(g.n, g.adj)[2]


def automorphism_orbit(g: Graph, v: int) -> set[int]:
    return _orbit(automorphism_generators(g), v)


def isomorphic_bruteforce(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test, independent of the canonical form.

    Maps vertices of g in decreasing-degree order onto degree-compatible
    vertices of h, checking adjacency against everything already mapped.
    """
    n = g.n
    if n != h.n or g.edge_count() != h.edge_count():
        return False
    gdeg = [g.degree(v) for v in range(n)]
    hdeg = [h.degree(v) for v in range(n)]
    if sorted(gdeg) != sorted(hdeg):
        return False
    order = sorted(range(n), key=lambda v: (-gdeg[v], v))
    image = [-1] * n
    used = [False] * n

    def place(pos: int) -> bool:
        if pos == n:
            return True
        u = order[pos]
        for w in range(n):
            if used[w] or hdeg[w] != gdeg[u]:
                continue
            ok = True
            for prev in order[:pos]:
                if g.has_edge(u, prev) != h.has_edge(w, image[prev]):
                    ok = False
                    break
            if ok:
                image[u] = w
                used[w] = True
                if place(pos + 1):
                    return True
                used[w] = False
                image[u] = -1
        return False

    return place(0)

import random
from itertools import combinations, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from defram import (
    Graph,
    canonical_form,
    canonical_labeling,
    automorphism_generators,
    automorphism_orbit,
    complete_graph,
    cycle_graph,
    empty_graph,
    isomorphic_bruteforce,
    make_graph,
    path_graph,
    star_graph,
)
from defram.canon import _all_twins, _canon, _orbit, _refine
from defram.graphs import bits, relabel


def test_canonical_form_examples():
    c4 = cycle_graph(4)
    for perm in permutations(range(4)):
        assert canonical_form(relabel(c4, perm)) == canonical_form(c4)
    assert canonical_form(path_graph(4)) != canonical_form(star_graph(3))


def test_labeled_census_order_4():
    forms = set()
    for bits_ in range(1 << 6):
        edges = [e for idx, e in enumerate(combinations(range(4), 2))
                 if (bits_ >> idx) & 1]
        forms.add(canonical_form(make_graph(4, edges)))
    assert len(forms) == 11


def test_labeled_census_order_5():
    forms = set()
    for bits_ in range(1 << 10):
        edges = [e for idx, e in enumerate(combinations(range(5), 2))
                 if (bits_ >> idx) & 1]
        forms.add(canonical_form(make_graph(5, edges)))
    assert len(forms) == 34


def test_canonical_labeling_realises_form():
    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (4, 5)])
    lab = canonical_labeling(g)
    inverse = [0] * 6
    for pos, v in enumerate(lab):
        inverse[v] = pos
    assert canonical_form(relabel(g, tuple(inverse))) == canonical_form(g)


def test_canonical_soundness_all_pairs_order_6(all_levels_6):
    graphs = all_levels_6[6]
    forms = [canonical_form(g) for g in graphs]
    assert len(set(forms)) == len(graphs)
    rng = random.Random(3)
    # enumerated representatives are pairwise non-isomorphic
    for a in range(len(graphs)):
        for b in range(a + 1, len(graphs)):
            assert not isomorphic_bruteforce(graphs[a], graphs[b])
    # and relabelings always land on the same form
    for g in graphs:
        perm = list(range(6))
        rng.shuffle(perm)
        h = relabel(g, tuple(perm))
        assert canonical_form(h) == canonical_form(g)
        assert isomorphic_bruteforce(g, h)


def test_automorphism_generators_generate_symmetries():
    assert automorphism_orbit(cycle_graph(5), 0) == set(range(5))
    assert automorphism_orbit(empty_graph(7), 3) == set(range(7))
    assert automorphism_orbit(complete_graph(6), 0) == set(range(6))
    star = star_graph(4)
    assert automorphism_orbit(star, 1) == {1, 2, 3, 4}
    assert automorphism_orbit(star, 0) == {0}
    for gen in automorphism_generators(cycle_graph(8)):
        assert relabel(cycle_graph(8), gen) == cycle_graph(8)


def test_highly_symmetric_graphs_do_not_blow_up():
    # factorial-shaped searches would hang on these
    for g in (empty_graph(16), complete_graph(16), complete_graph(8),
              cycle_graph(12), star_graph(15)):
        canonical_form(g)


def _refine_restart(adj, cells):
    """Slow oracle for ``_refine``: retry every splitter from the first
    one after each split, remembering nothing."""
    cells = list(cells)
    while True:
        for splitter in cells:
            new_cells = []
            split = False
            for cell in cells:
                if cell.bit_count() <= 1:
                    new_cells.append(cell)
                    continue
                groups: dict[int, int] = {}
                for v in bits(cell):
                    cnt = (adj[v] & splitter).bit_count()
                    groups[cnt] = groups.get(cnt, 0) | (1 << v)
                if len(groups) == 1:
                    new_cells.append(cell)
                else:
                    split = True
                    new_cells.extend(groups[cnt] for cnt in sorted(groups))
            if split:
                cells = new_cells
                break
        else:
            return cells


def _cuts(cells):
    """Each partition made by individualising one vertex of a
    non-singleton cell of ``cells``."""
    for t, cell in enumerate(cells):
        if cell.bit_count() > 1:
            for v in bits(cell):
                yield cells[:t] + [1 << v, cell ^ (1 << v)] + cells[t + 1:]


def test_refine_matches_restart_oracle_order_6(all_levels_6):
    # the search passes the equitable partition it cuts as stable
    # splitters; two levels of that tree are checked with and without
    for level in all_levels_6:
        for g in level:
            unit = [(1 << g.n) - 1]
            root = _refine_restart(g.adj, unit)
            assert _refine(g.adj, unit) == root
            for cells in _cuts(root):
                first = _refine_restart(g.adj, cells)
                assert _refine(g.adj, cells) == first
                assert _refine(g.adj, cells, root) == first
                for deeper in _cuts(first):
                    assert _refine(g.adj, deeper, first) == _refine_restart(g.adj, deeper)


@st.composite
def graphs_with_partitions(draw):
    """A graph of order <= 12 and an ordered partition of its vertices."""
    n = draw(st.integers(0, 12))
    pairs = list(combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = make_graph(n, [e for e, on in zip(pairs, present) if on])
    order = draw(st.permutations(range(n)))
    cuts = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cells, cell = [], 0
    for v, cut in zip(order, cuts):
        cell |= 1 << v
        if cut or v == order[-1]:
            cells.append(cell)
            cell = 0
    return g, cells


@settings(max_examples=300, deadline=None)
@given(graphs_with_partitions(), st.data())
def test_refine_matches_restart_oracle_random(case, data):
    g, cells = case
    equitable = _refine(g.adj, cells)
    assert equitable == _refine_restart(g.adj, cells)
    cuts = list(_cuts(equitable))
    if cuts:
        cut = data.draw(st.sampled_from(cuts))
        assert _refine(g.adj, cut, equitable) == _refine_restart(g.adj, cut)



def test_refine_watch_settles_the_last_cell_answers(all_levels_6):
    # an early stop may leave the partition coarse, but never changes
    # whether v is in the root last cell or is all of it
    for level in all_levels_6:
        for g in level:
            unit = [(1 << g.n) - 1]
            full = _refine(g.adj, unit)
            for v in range(g.n):
                vbit = 1 << v
                early = _refine(g.adj, unit, watch=v)
                assert bool(early[-1] & vbit) == bool(full[-1] & vbit)
                assert (early[-1] == vbit) == (full[-1] == vbit)
                if early[-1] & vbit and early[-1] != vbit:
                    assert early == full


def _swap_is_automorphism(g, v, w):
    perm = list(range(g.n))
    perm[v], perm[w] = w, v
    return relabel(g, tuple(perm)) == g


def test_all_twins_agrees_with_swaps_and_the_canonical_orbit(all_levels_6):
    twin_cells = 0
    for level in all_levels_6[1:]:
        for g in level:
            root = _refine(g.adj, [(1 << g.n) - 1])
            _, lab, gens = _canon(g.n, g.adj)
            assert (root[-1] >> lab[-1]) & 1
            for cell in root:
                for v in bits(cell):
                    twins = _all_twins(g.adj, cell, v)
                    assert twins == all(_swap_is_automorphism(g, v, w) for w in bits(cell))
                    if twins and cell == root[-1] and cell != 1 << v:
                        # the deletion target lies in v's orbit
                        twin_cells += 1
                        assert lab[-1] in _orbit(gens, v)
    assert twin_cells > 0


def graphs_of_order(n):
    pairs = list(combinations(range(n), 2))
    return st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)).map(
        lambda present: make_graph(n, [e for e, on in zip(pairs, present) if on]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9).flatmap(graphs_of_order), st.data())
def test_canonical_form_differential(g, data):
    perm = tuple(data.draw(st.permutations(range(g.n))))
    assert canonical_form(relabel(g, perm)) == canonical_form(g)
    for gen in automorphism_generators(g):
        assert relabel(g, gen) == g
    # a relabelled copy with at most one pair toggled (often isomorphic,
    # often not, now and then with the same degree sequence) and a fresh
    # graph of the same order
    rows = list(relabel(g, perm).adj)
    if g.n >= 2 and data.draw(st.booleans()):
        u, w = data.draw(st.sampled_from(list(combinations(range(g.n), 2))))
        rows[u] ^= 1 << w
        rows[w] ^= 1 << u
    for h in (Graph(g.n, tuple(rows)), data.draw(graphs_of_order(g.n))):
        assert (canonical_form(h) == canonical_form(g)) == isomorphic_bruteforce(g, h)

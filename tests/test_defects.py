import random
from itertools import combinations, product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defram import (
    DomainError,
    GraphClass,
    RamseyQuery,
    alpha_k,
    alpha_k_oracle,
    bits,
    blocks,
    cactus_deforesting_matching,
    class_sparse_lower_bound,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_class,
    find_sparse_set,
    graph6_decode,
    is_forest,
    is_k_dense,
    is_k_sparse,
    make_graph,
    mask_of,
    ramsey_check,
    sparsity_remainder,
    star_graph,
    witness_for,
)
from defram import defects
from defram.witnesses import cactus_square_chain


def test_is_k_sparse_examples():
    assert is_k_sparse(cycle_graph(4), 0, 3)
    for triple in (0b0111, 0b1011, 0b1101, 0b1110):
        assert not is_k_sparse(cycle_graph(4), triple, 1)
    chain = cactus_square_chain(2, 2)
    leaves = mask_of(v for v in range(chain.n) if chain.degree(v) == 1)
    assert is_k_sparse(chain, leaves, 2)


def test_is_k_dense_examples():
    c4 = cycle_graph(4)
    assert is_k_dense(c4, c4.vertex_mask(), 1)
    k5 = complete_graph(5)
    assert is_k_dense(k5, 0b10111, 0)
    star = star_graph(3)
    assert not is_k_dense(star, star.vertex_mask(), 1)


def test_duality_on_random_sets(all_levels_6):
    rng = random.Random(7)
    for g in all_levels_6[6]:
        sub = rng.randrange(1 << 6)
        k = rng.randrange(3)
        assert is_k_dense(g, sub, k) == is_k_sparse(complement(g), sub, k)


def test_alpha_examples():
    assert alpha_k(empty_graph(9), 2) == (9, (1 << 9) - 1)
    size, witness = alpha_k(cycle_graph(4), 1)
    assert size == 2 and is_k_sparse(cycle_graph(4), witness, 1)
    assert alpha_k(cactus_square_chain(2, 3), 2)[0] == 9


def test_alpha_witness_is_k_sparse(all_levels_6):
    for g in all_levels_6[5]:
        for k in range(3):
            size, witness = alpha_k(g, k)
            assert witness.bit_count() == size
            assert is_k_sparse(g, witness, k)


def test_oracle_examples():
    assert alpha_k_oracle(cycle_graph(5), 0) == 2
    assert alpha_k_oracle(complete_graph(4), 3) == 4
    for g in enumerate_class(GraphClass.ALL, 4):
        for k in range(3):
            assert alpha_k(g, k)[0] == alpha_k_oracle(g, k)


def test_oracle_refuses_large_orders():
    with pytest.raises(DomainError):
        alpha_k_oracle(empty_graph(25), 1)


def test_component_additivity(all_levels_6):
    from defram import components, induced

    for g in all_levels_6[6]:
        comps = components(g)
        if len(comps) < 2:
            continue
        for k in range(3):
            assert alpha_k(g, k)[0] == sum(alpha_k(induced(g, c), k)[0] for c in comps)


def test_defect_monotonicity(all_levels_6):
    for g in all_levels_6[6]:
        sizes = [alpha_k(g, k)[0] for k in range(4)]
        assert sizes == sorted(sizes)


def test_find_sparse_set():
    c6 = cycle_graph(6)
    found = find_sparse_set(c6, 1, 4)
    assert found is not None and found.bit_count() == 4
    assert is_k_sparse(c6, found, 1)
    assert find_sparse_set(c6, 1, 5) is None


def test_ramsey_check_examples():
    rep = ramsey_check(star_graph(3), 1, 4, 4)
    assert rep.neither
    rep = ramsey_check(empty_graph(5), 2, 4, 5)
    assert rep.has_sparse and rep.sparse_witness.bit_count() == 5
    rep = ramsey_check(cycle_graph(4), 1, 4, 4)
    assert rep.has_dense and rep.dense_witness.bit_count() == 4


def test_ramsey_check_empty_graph_fails_everything():
    assert ramsey_check(empty_graph(0), 1, 4, 4).neither


def test_find_sparse_set_fuzz_against_oracle():
    rng = random.Random(123)
    for _ in range(800):
        n = rng.randrange(1, 10)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = make_graph(n, edges)
        k = rng.randrange(0, 4)
        target = rng.randrange(1, n + 2)
        found = find_sparse_set(g, k, target)
        assert (found is not None) == (alpha_k_oracle(g, k) >= target)
        if found is not None:
            assert found.bit_count() == target and is_k_sparse(g, found, k)


def test_class_sparse_lower_bound_values():
    assert class_sparse_lower_bound(GraphClass.FOREST, 7, 1) == 5
    assert class_sparse_lower_bound(GraphClass.CACTUS, 8, 1) == 4
    assert class_sparse_lower_bound(GraphClass.CACTUS, 9, 2) == 7
    assert sparsity_remainder(8) == 0 and sparsity_remainder(9) == 1
    with pytest.raises(DomainError):
        class_sparse_lower_bound(GraphClass.BIPARTITE, 5, 1)
    with pytest.raises(DomainError):
        class_sparse_lower_bound(GraphClass.FOREST, 5, 0)


def test_forest_bound_sound_small():
    for n in range(1, 9):
        for g in enumerate_class(GraphClass.FOREST, n):
            for k in (1, 2, 3):
                assert alpha_k(g, k)[0] >= class_sparse_lower_bound(GraphClass.FOREST, n, k)


def test_cactus_bound_sound_small():
    for n in range(1, 8):
        for g in enumerate_class(GraphClass.CACTUS, n):
            for k in (1, 2, 3):
                assert alpha_k(g, k)[0] >= class_sparse_lower_bound(GraphClass.CACTUS, n, k)


def test_matching_examples():
    assert cactus_deforesting_matching(star_graph(4)) == []
    m = cactus_deforesting_matching(cycle_graph(4))
    assert len(m) == 1
    two_triangles = make_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    m = cactus_deforesting_matching(two_triangles)
    assert len(m) == 2
    touched = [v for e in m for v in e]
    assert len(set(touched)) == 4
    left = make_graph(5, [e for e in two_triangles.edges() if e not in set(m)])
    assert is_forest(left)


def test_matching_refuses_non_cactus():
    with pytest.raises(DomainError):
        cactus_deforesting_matching(complete_graph(4))


def _assert_deforesting(g, m):
    """m is sorted, its pairs are edges, no vertex repeats, there is one
    pair per cycle block, and removing the pairs leaves a forest."""
    edges = set(g.edges())
    assert m == sorted(m) and set(m) <= edges
    touched = [v for e in m for v in e]
    assert len(touched) == len(set(touched))
    assert len(m) == sum(b.bit_count() >= 3 for b in blocks(g))
    assert is_forest(make_graph(g.n, edges - set(m)))


def test_matching_property_small():
    for n in range(8):
        for g in enumerate_class(GraphClass.CACTUS, n):
            _assert_deforesting(g, cactus_deforesting_matching(g))


@st.composite
def random_cacti(draw):
    """A cactus of order 1..64 grown from one vertex by attaching bridges
    and cycles of length 3..6 at random existing vertices, then relabelled
    at random."""
    order = draw(st.integers(1, 64))
    n, edges = 1, []
    while n < order:
        size = draw(st.integers(2, min(6, order - n + 1)))
        ring = [draw(st.integers(0, n - 1)), *range(n, n + size - 1)]
        n += size - 1
        edges += zip(ring, ring[1:])
        if size > 2:
            edges.append((ring[-1], ring[0]))
    label = draw(st.permutations(range(n)))
    return make_graph(n, [(label[u], label[v]) for u, v in edges])


@settings(max_examples=200, deadline=None)
@given(random_cacti())
def test_matching_property_random_cacti(g):
    _assert_deforesting(g, cactus_deforesting_matching(g))


def _can_add_oracle(adj, v: int, chosen: int, k: int) -> bool:
    # chosen + v stays k-sparse: v gains <= k neighbours and no chosen
    # neighbour of v is already at degree k
    nb = adj[v] & chosen
    if nb.bit_count() > k:
        return False
    for u in bits(nb):
        if (adj[u] & chosen).bit_count() >= k:
            return False
    return True


def _greedy_sparse_oracle(adj, cand: int, k: int) -> int:
    """Greedy k-sparse subset of ``cand`` (ascending degree, then index)."""
    verts = sorted(bits(cand), key=lambda v: ((adj[v] & cand).bit_count(), v))
    chosen = 0
    for v in verts:
        if _can_add_oracle(adj, v, chosen, k):
            chosen |= 1 << v
    return chosen


def _bnb_sparse_oracle(adj, cand: int, k: int, floor_size: int, floor_set: int,
                       stop_at: int | None, chosen: int = 0) -> tuple[int, int]:
    """Slow oracle for ``_bnb_sparse``: the same branching rule with no
    twin pruning and no capacity bound, each candidate re-checked against
    its chosen neighbours.  Only improvements over ``floor_size`` are
    searched for; reaching ``stop_at`` aborts with the current best.  The
    search starts from the k-sparse ``chosen``, with the candidates that
    fail against it dropped."""
    best_size = floor_size
    best_set = floor_set

    def rec(chosen: int, size: int, cand: int) -> bool:
        nonlocal best_size, best_set
        if size > best_size:
            best_size, best_set = size, chosen
            if stop_at is not None and size >= stop_at:
                return True
        if size + cand.bit_count() <= best_size or not cand:
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
        new_chosen = chosen | vbit
        new_cand = 0
        m = cand ^ vbit
        while m:
            b = m & -m
            m ^= b
            if _can_add_oracle(adj, b.bit_length() - 1, new_chosen, k):
                new_cand |= b
        if rec(new_chosen, size + 1, new_cand):
            return True
        return rec(chosen, size, cand ^ vbit)

    cand = mask_of(v for v in bits(cand) if _can_add_oracle(adj, v, chosen, k))
    rec(chosen, chosen.bit_count(), cand)
    return best_size, best_set


def _fast_and_slow(fn, *args):
    """``fn(*args)`` with the solver, then with its slow oracle swapped in."""
    fast = fn(*args)
    with patch.object(defects, "_bnb_sparse", _bnb_sparse_oracle), \
            patch.object(defects, "_greedy_sparse", _greedy_sparse_oracle):
        slow = fn(*args)
    return fast, slow


@st.composite
def twin_rich_graphs(draw):
    """A random base graph with each vertex blown up into a clique or an
    independent set, cut to order 14, then relabelled at random."""
    base = draw(st.integers(1, 7))
    pairs = list(combinations(range(base), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    base_edges = {e for e, on in zip(pairs, present) if on}
    sizes = draw(st.lists(st.integers(1, 4), min_size=base, max_size=base))
    cliques = draw(st.lists(st.booleans(), min_size=base, max_size=base))
    owner = [b for b in range(base) for _ in range(sizes[b])][:14]
    label = draw(st.permutations(range(len(owner))))
    edges = [(label[x], label[y]) for x, y in combinations(range(len(owner)), 2)
             if (owner[x] == owner[y] and cliques[owner[x]])
             or (owner[x], owner[y]) in base_edges]
    return make_graph(len(owner), edges)


@st.composite
def random_graphs(draw, max_order):
    n = draw(st.integers(0, max_order))
    pairs = list(combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [e for e, on in zip(pairs, present) if on])


# Graphs on which twin pruning that also drops the excluded twins from
# the branching degrees returns a different optimal set (k = 0 and k = 3).
@example(graph6_decode("L|~|vv}myVtV~t"))
@example(graph6_decode("M@@{?iQ_jQQULXYO?"))
@settings(max_examples=300, deadline=None)
@given(st.one_of(random_graphs(14), twin_rich_graphs()))
def test_solver_matches_slow_oracle(g):
    for k in range(4):
        fast, slow = _fast_and_slow(alpha_k, g, k)
        assert fast == slow, (g, k)
        for target in range(g.n + 2):
            fast, slow = _fast_and_slow(find_sparse_set, g, k, target)
            assert fast == slow, (g, k, target)


def test_solver_matches_slow_oracle_on_witnesses():
    checked = 0
    for cls in GraphClass:
        if cls is GraphClass.ALL:
            continue
        for k in range(4):
            for i in range(1, 13):
                for j in range(1, 13):
                    try:
                        g = witness_for(RamseyQuery(cls, k, i, j))
                    except DomainError:
                        continue
                    if g is None:
                        continue
                    for fn, args in ((ramsey_check, (g, k, i, j)), (alpha_k, (g, k))):
                        fast, slow = _fast_and_slow(fn, *args)
                        assert fast == slow, (cls, k, i, j, fn.__name__)
                    checked += 1
    assert checked == 2787


def _through_oracle(g, v: int, k: int) -> int:
    """Largest k-sparse set containing v: subset recursion over the sets
    through v, never extending a set that stops being k-sparse."""
    best = 0

    def rec(start: int, chosen: int, size: int):
        nonlocal best
        best = max(best, size)
        for u in range(start, g.n):
            grown = chosen | (1 << u)
            if u != v and is_k_sparse(g, grown, k):
                rec(u + 1, grown, size + 1)

    rec(0, 1 << v, 1)
    return best


def test_seeded_search_matches_exhaustive_count(all_levels_6):
    for g in (g for level in all_levels_6 for g in level):
        for v, k in product(range(g.n), range(3)):
            vbit, top = 1 << v, _through_oracle(g, v, k)
            cand = g.vertex_mask() ^ vbit
            greedy = defects._greedy_sparse(g.adj, cand, k, vbit)
            assert greedy & vbit and is_k_sparse(g, greedy, k)
            sat = vbit if k == 0 else 0
            size, found = defects._bnb_sparse(g.adj, cand & ~g.adj[v] if sat else cand,
                                              k, 0, 0, None, vbit, sat)
            assert size == top == found.bit_count(), (g, v, k)
            assert found & vbit and is_k_sparse(g, found, k)
            for s in range(1, g.n + 2):
                assert defects.has_sparse_through(g, v, k, s) == (s <= top), (g, v, k, s)


@st.composite
def seeded_searches(draw):
    """A graph of order 1..14, a defect k and a k-sparse seed set of one
    or more vertices, grown in a random vertex order."""
    g = draw(st.one_of(random_graphs(14), twin_rich_graphs()).filter(lambda g: g.n >= 1))
    k = draw(st.integers(0, 3))
    order = draw(st.permutations(range(g.n)))
    chosen = 0
    for v in order[:draw(st.integers(1, g.n))]:
        if _can_add_oracle(g.adj, v, chosen, k):
            chosen |= 1 << v
    return g, k, chosen


# Two non-adjacent chosen vertices a, b with room for two more neighbours
# each, and three candidates adjacent to both: a caps them at two, and b
# claims none of them, so the bound is 2 + 3 - 1 = 4.  Counting the three
# toward b's cap as well gives 3, and a floor of 3 then hides {a, b, x, y}.
@example((make_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]), 2, 0b11))
@settings(max_examples=200, deadline=None)
@given(seeded_searches())
def test_seeded_solver_matches_slow_oracle(case):
    g, k, chosen = case
    sat = mask_of(v for v in bits(chosen) if (g.adj[v] & chosen).bit_count() == k)
    rest = g.vertex_mask() & ~chosen  # the oracle filters these itself
    cand = mask_of(v for v in bits(rest) if _can_add_oracle(g.adj, v, chosen, k))
    for floor in range(g.n + 1):
        for stop in (None, *range(g.n + 1)):
            fast = defects._bnb_sparse(g.adj, cand, k, floor, 0, stop, chosen, sat)
            slow = _bnb_sparse_oracle(g.adj, rest, k, floor, 0, stop, chosen)
            assert fast == slow, (g, k, chosen, floor, stop)


@settings(max_examples=150, deadline=None)
@given(random_graphs(16), st.integers(0, 3))
def test_alpha_matches_exhaustive_oracle(g, k):
    assert alpha_k(g, k)[0] == alpha_k_oracle(g, k)


def disconnected_graphs():
    """Two random graphs side by side, so the bounds meet several components."""
    return st.builds(disjoint_union, random_graphs(8), random_graphs(8))


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_graphs(16), twin_rich_graphs(), disconnected_graphs()),
       st.integers(0, 3))
def test_alpha_bounds_change_nothing(g, k):
    # bounds that hold change nothing; for bounds that fail, the contract
    # of alpha_k, checked against the exhaustive oracle
    alpha = alpha_k_oracle(g, k)
    exact = alpha_k(g, k)
    for lo in range(g.n + 2):
        for hi in (*range(lo, g.n + 2), None):
            size, found = alpha_k(g, k, lo=lo, hi=hi)
            if alpha < lo:
                assert size < lo, (g, k, lo, hi)
            elif hi is not None and alpha > hi:
                assert found.bit_count() == size >= hi, (g, k, lo, hi)
                assert is_k_sparse(g, found, k), (g, k, lo, hi)
            else:
                assert (size, found) == exact, (g, k, lo, hi)


def test_alpha_refuses_crossed_bounds():
    with pytest.raises(DomainError, match="lo <= hi"):
        alpha_k(cycle_graph(5), 1, lo=3, hi=2)


def _toggled(g, pairs):
    """g with each pair's adjacency flipped, built from edge lists alone."""
    return make_graph(g.n, set(g.edges()) ^ set(pairs))


@st.composite
def toggles(draw):
    """A random graph of order 2..12 and one or two distinct vertex pairs."""
    g = draw(random_graphs(12).filter(lambda g: g.n >= 2))
    pairs = list(combinations(range(g.n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2, unique=True))
    return g, chosen


@settings(max_examples=150, deadline=None)
@given(toggles(), st.integers(0, 3))
def test_toggle_moves_alpha_by_at_most_the_pair_counts(case, k):
    # the lemma behind hunt's bounds, checked on the oracle alone: adding
    # an edge costs a k-sparse set at most one vertex
    g, pairs = case
    h = _toggled(g, pairs)
    added = sum(not g.has_edge(u, v) for u, v in pairs)
    removed = len(pairs) - added
    s0, s = alpha_k_oracle(g, k), alpha_k_oracle(h, k)
    d0, d = alpha_k_oracle(complement(g), k), alpha_k_oracle(complement(h), k)
    assert s0 - added <= s <= s0 + removed
    assert d0 - removed <= d <= d0 + added


@pytest.mark.parametrize("k", [-1, -5])
def test_negative_defect_is_refused(k):
    g = cycle_graph(5)
    for call in (lambda: alpha_k(g, k), lambda: find_sparse_set(g, k, 2),
                 lambda: find_sparse_set(g, k, 0), lambda: ramsey_check(g, k, 1, 2),
                 lambda: alpha_k_oracle(g, k)):
        with pytest.raises(DomainError, match="defect k must be >= 0"):
            call()

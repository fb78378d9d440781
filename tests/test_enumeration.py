import hashlib
import os
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defram.enumeration
from defram import (
    BudgetError,
    DomainError,
    Graph,
    GraphClass,
    RamseyQuery,
    alpha_k_oracle,
    canonical_form,
    complement,
    compute_ramsey_exhaustive,
    defective_ramsey,
    enumerate_class,
    enumerate_levels,
    graph6_encode,
    is_cactus,
    make_graph,
    member,
    ramsey_check,
    verify_value,
)
from defram.canon import _canon, _orbit
from defram.defects import has_sparse_through
from defram.graphs import add_vertex

ALL = GraphClass.ALL


def _bruteforce_census(n: int) -> set[bytes]:
    pairs = list(combinations(range(n), 2))
    forms = set()
    for bits_ in range(1 << len(pairs)):
        edges = [e for idx, e in enumerate(pairs) if (bits_ >> idx) & 1]
        forms.add(canonical_form(make_graph(n, edges)))
    return forms


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
def test_enumeration_completeness_vs_bruteforce(n, count, all_levels_6):
    level = all_levels_6[n]
    assert len(level) == count
    if n <= 5:
        assert {canonical_form(g) for g in level} == _bruteforce_census(n)


def test_order_seven_count(all_levels_7):
    assert len(all_levels_7[7]) == 1044


def test_class_filtering_consistency(all_levels_6):
    for cls in (GraphClass.FOREST, GraphClass.CACTUS, GraphClass.BIPARTITE,
                GraphClass.SPLIT, GraphClass.COGRAPH):
        for n in range(7):
            own = enumerate_class(cls, n)
            filtered = [g for g in all_levels_6[n] if member(g, cls)]
            assert len(own) == len(filtered)
            assert ({canonical_form(g) for g in own}
                    == {canonical_form(g) for g in filtered})


# Unlabelled counts per order from 0, from the OEIS.  A048194 and A000084
# start at order 1, so the order-0 term (the empty graph) is prepended.
# Cacti have no OEIS pin: their counts are checked against the filtered
# all-graph levels instead (test_cactus_counts_match_filtered_all_graphs).
OEIS_COUNTS = {
    GraphClass.FOREST:  # A005195
        [1, 1, 2, 3, 6, 10, 20, 37, 76, 153, 329, 710, 1601],
    GraphClass.BIPARTITE:  # A033995
        [1, 1, 2, 3, 7, 13, 35, 88, 303, 1119, 5479],
    GraphClass.SPLIT:  # A048194
        [1, 1, 2, 4, 9, 21, 56, 164, 557, 2223],
    GraphClass.COGRAPH:  # A000084
        [1, 1, 2, 4, 10, 24, 66, 180, 522, 1532],
}


@pytest.mark.parametrize("cls", list(OEIS_COUNTS), ids=lambda c: c.value)
def test_class_counts_match_oeis(cls):
    counts = OEIS_COUNTS[cls]
    assert [len(level) for level in enumerate_levels(cls, len(counts) - 1)] == counts


def test_cactus_counts_match_filtered_all_graphs(all_levels_7, all_graphs_8):
    filtered = [sum(map(is_cactus, level)) for level in all_levels_7 + [all_graphs_8]]
    assert filtered == [1, 1, 2, 4, 9, 20, 51, 133, 380]
    assert [len(level) for level in enumerate_levels(GraphClass.CACTUS, 8)] == filtered


def _image(perm, mask):
    return sum(1 << perm[v] for v in range(len(perm)) if (mask >> v) & 1)


def _extend_parent_oracle(parent, cls):
    """Slow oracle for ``_extend_parent``: every least mask of a parent
    automorphism orbit, kept by membership and then the canonical
    deletion rule alone."""
    m = parent.n
    pgens = _canon(m, parent.adj)[2]
    seen, children = set(), []
    for neigh in range(1 << m):
        if neigh in seen:
            continue
        orbit, frontier = {neigh}, [neigh]
        while frontier:
            cur = frontier.pop()
            for perm in pgens:
                img = _image(perm, cur)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        seen |= orbit
        rows = tuple(row | (1 << m) if (neigh >> u) & 1 else row
                     for u, row in enumerate(parent.adj)) + (neigh,)
        child = Graph(m + 1, rows)
        if not member(child, cls):
            continue
        _, lab, cgens = _canon(m + 1, rows)
        if lab[m] == m or lab[m] in _orbit(cgens, m):
            children.append(child)
    return children


@pytest.mark.parametrize("cls", list(GraphClass), ids=lambda c: c.value)
def test_extend_parent_matches_oracle(cls, all_levels_6):
    levels = all_levels_6 if cls is ALL else enumerate_levels(cls, 6)
    for level in levels:
        for parent in level:
            assert (defram.enumeration._extend_parent(parent, cls)
                    == _extend_parent_oracle(parent, cls)), graph6_encode(parent)


@cache
def _class_level_7(cls):
    return enumerate_levels(cls, 7)[7]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extend_parent_matches_oracle_at_order_7(all_levels_7, data):
    # order-7 parents give order-8 children, where degree ties, twins and
    # full canonical tie-breaks are all common
    cls = data.draw(st.sampled_from(list(GraphClass)))
    parent = data.draw(st.sampled_from(all_levels_7[7] if cls is ALL
                                       else _class_level_7(cls)))
    assert (defram.enumeration._extend_parent(parent, cls)
            == _extend_parent_oracle(parent, cls)), graph6_encode(parent)


def test_small_class_examples():
    assert len(enumerate_class(GraphClass.FOREST, 5)) == 10
    assert len(enumerate_class(GraphClass.COGRAPH, 4)) == 10
    assert len(enumerate_class(ALL, 4)) == 11


def test_determinism_and_parallel_merge():
    serial_a = enumerate_levels(GraphClass.BIPARTITE, 6)
    serial_b = enumerate_levels(GraphClass.BIPARTITE, 6)
    assert serial_a == serial_b
    parallel = enumerate_levels(GraphClass.BIPARTITE, 6, workers=2)
    assert parallel == serial_a


def test_budget_refusal(all_graphs_8):
    with pytest.raises(BudgetError):
        enumerate_class(ALL, 11)
    with pytest.raises(BudgetError):
        enumerate_class(GraphClass.FOREST, 13)
    assert len(all_graphs_8) == 12346


def test_worker_count_is_clamped_to_cpu_count(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(defram.enumeration.multiprocessing, "get_context", no_pool)
    assert (enumerate_levels(GraphClass.BIPARTITE, 6, workers=100000)
            == enumerate_levels(GraphClass.BIPARTITE, 6))


STREAM_SHA256 = {
    ALL: "8b5f47b60a05ca8d512b1a5db8abe295859ff09949de380e77769942fd432b7c",
    GraphClass.FOREST: "7bef7785defb8008961c68961980e1b531beeb216ff76e7abddf6cfde1b40f51",
    GraphClass.CACTUS: "7cfee25992dfe786a8806abb5df2602114c4f64722b3d39c6451b98937f63b9c",
    GraphClass.BIPARTITE: "0d11273860ddc0ece0f6e7235235e9259cd31aea1d482ead33e85ce6e313532c",
    GraphClass.SPLIT: "b9e157616059c0cc8027684c08f2fccc39333d94bc1d626886419e9ad0eb767f",
    GraphClass.COGRAPH: "fe2fa5ea2e103c7c77f501949f033d259d7df16bfa4400f889e1a8dbc400d9ee",
}


@pytest.mark.parametrize("cls", list(STREAM_SHA256), ids=lambda c: c.value)
def test_stream_is_pinned(cls, all_levels_7):
    levels = all_levels_7 if cls is ALL else enumerate_levels(cls, 7)
    stream = "".join(graph6_encode(g) + "\n" for level in levels for g in level)
    assert hashlib.sha256(stream.encode()).hexdigest() == STREAM_SHA256[cls]


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("DEFRAM_BUDGET", "3")
    with pytest.raises(BudgetError):
        enumerate_class(ALL, 4)
    assert len(enumerate_class(ALL, 3)) == 4


def test_negative_budget_is_refused(monkeypatch):
    with pytest.raises(DomainError, match="budget must be >= 0, got -1"):
        enumerate_class(ALL, 3, budget=-1)
    monkeypatch.setenv("DEFRAM_BUDGET", "-2")
    with pytest.raises(DomainError, match="budget must be >= 0, got -2"):
        enumerate_class(ALL, 3)
    assert len(enumerate_class(ALL, 0, budget=0)) == 1


def test_verify_value_examples():
    rep = verify_value(GraphClass.FOREST, 1, 4, 4, 5)
    assert rep.confirmed and rep.all_pass and not rep.counterexamples
    assert verify_value(GraphClass.SPLIT, 1, 4, 5, 7).confirmed
    assert verify_value(GraphClass.COGRAPH, 1, 4, 4, 5).confirmed


def test_verify_value_rejects_wrong_claims():
    rep = verify_value(GraphClass.FOREST, 1, 4, 4, 4)
    assert not rep.confirmed and not rep.all_pass
    assert rep.counterexamples
    rep = verify_value(GraphClass.FOREST, 1, 4, 4, 6)
    assert not rep.confirmed and rep.all_pass  # no order-5 counterexample
    assert rep.lower_witness is None


def _good(g, k, i, j):
    """Neither a k-dense i-set nor a k-sparse j-set, by the exhaustive oracle."""
    return alpha_k_oracle(complement(g), k) < i and alpha_k_oracle(g, k) < j


@pytest.mark.parametrize("cls", list(STREAM_SHA256), ids=lambda c: c.value)
def test_good_stream_is_the_filtered_full_stream(cls, all_levels_7):
    levels = all_levels_7 if cls is ALL else enumerate_levels(cls, 7)
    for cell in ((1, 4, 4), (1, 4, 5), (2, 5, 5), (0, 3, 3)):
        expected = [[g for g in level if _good(g, *cell)] for level in levels]
        for workers in (1, 2):
            good = list(defram.enumeration._levels(cls, 7, workers=workers, cell=cell))
            assert good == expected, (cell, workers)


def test_verify_value_report_is_pinned(all_levels_6):
    rep = verify_value(GraphClass.BIPARTITE, 1, 4, 5, 6)
    assert rep.counterexamples == ["E?oo", "E?qo", "E?ow", "ECp_", "EEh_"]
    assert rep.lower_witness == "D?o" and rep.examined == 25
    assert rep.examined == sum(_good(g, 1, 4, 5) for level in all_levels_6
                               for g in level if member(g, GraphClass.BIPARTITE))


def test_compute_ramsey_exhaustive_stops_at_first_passing_order(monkeypatch):
    extend = defram.enumeration._extend_parent
    parent_orders = set()

    def spy(parent, cls, cell):
        parent_orders.add(parent.n)
        return extend(parent, cls, cell)

    monkeypatch.setattr(defram.enumeration, "_extend_parent", spy)
    v = compute_ramsey_exhaustive(GraphClass.FOREST, 1, 4, 4, 12)
    assert v is not None and v.value == 5
    assert max(parent_orders) == 4  # nothing of order 6 or above was built


def test_searches_refuse_a_bad_cell_before_building_a_level(monkeypatch):
    def spy(parent, cls, cell):
        raise AssertionError("a level was built")

    monkeypatch.setattr(defram.enumeration, "_extend_parent", spy)
    with pytest.raises(DomainError, match="defect k"):
        verify_value(GraphClass.FOREST, -1, 4, 4, 5)
    with pytest.raises(DomainError, match="defect k"):
        compute_ramsey_exhaustive(GraphClass.FOREST, -1, 4, 4, 6)
    with pytest.raises(DomainError, match="set sizes"):
        verify_value(GraphClass.FOREST, 1, 0, 4, 5)


@pytest.mark.parametrize("cls", list(GraphClass), ids=lambda c: c.value)
def test_goodness_through_the_new_vertex_matches_ramsey_check(cls, all_levels_6):
    """A child of a good parent is good iff no k-sparse j-set and no
    k-dense i-set contains the new vertex m, on every neighbourhood of m."""
    levels = all_levels_6 if cls is ALL else enumerate_levels(cls, 6)
    for k in range(4):
        for i, j in ((1, k + 3), (k + 3, 1), (k + 2, k + 3), (k + 3, k + 2),
                     (k + 3, k + 3), (k + 2, 8), (8, k + 2)):
            for parent in (g for level in levels for g in level
                           if ramsey_check(g, k, i, j).neither):
                m = parent.n
                for neigh in range(1 << m):
                    child = add_vertex(parent, neigh)
                    through = (has_sparse_through(child, m, k, j)
                               or has_sparse_through(complement(child), m, k, i))
                    assert through != ramsey_check(child, k, i, j).neither, \
                        (k, i, j, graph6_encode(child))


def test_compute_ramsey_exhaustive_examples():
    v = compute_ramsey_exhaustive(GraphClass.BIPARTITE, 1, 4, 4, 6)
    assert v is not None and v.value == 5 and v.provenance == "exhaustive"
    v = compute_ramsey_exhaustive(GraphClass.FOREST, 2, 5, 4, 6)
    assert v is not None and v.value == 5
    v = compute_ramsey_exhaustive(GraphClass.CACTUS, 1, 5, 4, 8)
    assert v is not None and v.value == 6
    assert compute_ramsey_exhaustive(GraphClass.COGRAPH, 1, 4, 5, 6) is None


def test_report_json_shape():
    rep = verify_value(GraphClass.COGRAPH, 1, 4, 4, 5)
    payload = rep.to_json()
    assert payload["class"] == "cograph" and payload["confirmed"] is True
    assert set(payload) >= {"order", "k", "i", "j", "examined", "all_pass",
                            "counterexamples", "lower_witness", "elapsed"}


def test_exhaustive_values_agree_with_the_formulas():
    cells = 0
    for cls in GraphClass:
        if cls is ALL:
            continue
        for k in range(3):
            for i in range(1, 9):
                for j in range(1, 9):
                    formula = defective_ramsey(RamseyQuery(cls, k, i, j))
                    if formula.hi > 8:
                        continue
                    cells += 1
                    found = compute_ramsey_exhaustive(cls, k, i, j, n_max=formula.hi)
                    assert found is not None, (cls, k, i, j)
                    if formula.is_exact:
                        assert found.value == formula.value, (cls, k, i, j)
                    else:
                        assert formula.lo <= found.value <= formula.hi, (cls, k, i, j)
    assert cells == 679

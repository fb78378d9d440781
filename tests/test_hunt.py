import random

import pytest

from defram import (
    DomainError,
    GraphClass,
    cycle_graph,
    graph6_encode,
    hunt_witness,
    make_graph,
    member,
    ramsey_check,
)
from defram.hunt import _score, _sparse_repair, _toggle


def test_hunt_finds_split_witness():
    g = hunt_witness(GraphClass.SPLIT, 2, 5, 9, 11, budget=8000, seed=0)
    assert g is not None and g.n == 11
    assert member(g, GraphClass.SPLIT)
    assert ramsey_check(g, 2, 5, 9).neither


def test_hunt_miss_on_impossible_cell():
    # the forest value at (1, 4, 4) is 5: no order-5 witness exists
    assert hunt_witness(GraphClass.FOREST, 1, 4, 4, 5, budget=1500, seed=0) is None


def test_hunt_is_deterministic_per_seed():
    a = hunt_witness(GraphClass.SPLIT, 2, 5, 9, 11, budget=5000, seed=42)
    b = hunt_witness(GraphClass.SPLIT, 2, 5, 9, 11, budget=5000, seed=42)
    assert a is not None and graph6_encode(a) == graph6_encode(b)


@pytest.mark.parametrize("budget", [0, -3])
def test_hunt_refuses_budget_below_one(budget):
    with pytest.raises(DomainError, match="hunt budget must be >= 1"):
        hunt_witness(GraphClass.FOREST, 1, 4, 4, 5, budget=budget, seed=0)


@pytest.mark.parametrize("i, j", [(0, 4), (4, 0), (-2, 4)])
def test_hunt_refuses_set_sizes_below_one(i, j):
    with pytest.raises(DomainError, match="set sizes i and j must be >= 1"):
        hunt_witness(GraphClass.FOREST, 1, i, j, 3, budget=5, seed=0)


@pytest.mark.parametrize("cls, k, i, j, n", [
    (GraphClass.FOREST, 0, 1, 1, 1),
    (GraphClass.ALL, 0, 5, 1, 3),
])
def test_hunt_one_vertex_sparse_set_is_a_miss(cls, k, i, j, n):
    # j = 1: every vertex is an oversized sparse set, so none is a witness
    assert hunt_witness(cls, k, i, j, n, seed=0) is None


def test_sparse_repair_of_one_vertex_draws_nothing():
    rng = random.Random(5)
    state = rng.getstate()
    for sparse_set in (0, 0b100):
        assert _sparse_repair(cycle_graph(5), rng, sparse_set) is None
    assert rng.getstate() == state


# graph6 of hunt results, recorded before scoring reused the current
# state's sizes; a change to move order, scoring or the solver's returned
# sets moves them (None: a miss after the whole budget)
HUNT_PINS = [
    (GraphClass.SPLIT, 2, 5, 9, 11, 8000, 0, "JPafK?_?_??"),
    (GraphClass.SPLIT, 2, 5, 9, 11, 8000, 1, "JccLs?A_?O?"),
    (GraphClass.SPLIT, 2, 5, 9, 11, 8000, 2, "J@W@@W@A@Q?"),
    (GraphClass.SPLIT, 2, 5, 9, 11, 8000, 3, "J?C?chp?W_?"),
    (GraphClass.BIPARTITE, 1, 4, 8, 14, 3000, 0, "MA?dC?KPOQQCKAQ_?"),
    (GraphClass.BIPARTITE, 2, 5, 7, 9, 3000, 0, None),
    (GraphClass.BIPARTITE, 2, 5, 7, 9, 3000, 1, "HH?eSw_"),
]


@pytest.mark.parametrize("cls, k, i, j, n, budget, seed, expected", HUNT_PINS)
def test_hunt_output_is_pinned(cls, k, i, j, n, budget, seed, expected):
    g = hunt_witness(cls, k, i, j, n, budget=budget, seed=seed)
    assert (g and graph6_encode(g)) == expected


def test_parent_seeded_score_equals_the_fresh_one():
    # _score seeded with the sizes of a graph one or two toggles away must
    # return exactly what it returns from scratch, sets included
    rng = random.Random(3)
    for _ in range(400):
        n = rng.randint(2, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = make_graph(n, [e for e in pairs if rng.random() < rng.random()])
        k, i, j = rng.randint(0, 3), rng.randint(1, 6), rng.randint(1, 6)
        h = _toggle(g, *rng.sample(pairs, min(len(pairs), rng.randint(1, 2))))
        sizes = _score(g, k, i, j)[3]
        assert _score(h, k, i, j, (g, sizes)) == _score(h, k, i, j), (g, h, k)

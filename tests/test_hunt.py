import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defram import (
    DomainError,
    GraphClass,
    bits,
    cycle_graph,
    graph6_encode,
    hunt_witness,
    make_graph,
    member,
    ramsey_check,
)
from defram import hunt
from defram.hunt import _Menu, _random_member, _score, _sparse_repair, _toggle


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
        assert _sparse_repair(cycle_graph(5), rng, list(bits(sparse_set))) is None
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
    (GraphClass.FOREST, 2, 6, 7, 8, 3000, 0, "GO?BcW"),
    (GraphClass.CACTUS, 1, 4, 7, 11, 3000, 0, "JE?co?DJ_H?"),
    (GraphClass.COGRAPH, 2, 6, 7, 10, 3000, 0, "I`opmOQQ?"),
]


@pytest.mark.parametrize("cls, k, i, j, n, budget, seed, expected", HUNT_PINS)
def test_hunt_output_is_pinned(cls, k, i, j, n, budget, seed, expected):
    g = hunt_witness(cls, k, i, j, n, budget=budget, seed=seed)
    assert (g and graph6_encode(g)) == expected


# sha256 over every (adjacency, sparse set, dense set) that _mutate is
# handed, recorded before hunt paid per state: a miss spends its whole
# budget, so these see a changed trajectory that an output pin cannot
TRAJECTORY_PINS = [
    (GraphClass.BIPARTITE, 1, 4, 8, 15, 300,
     "405e172223a660b95345225b24f6456149ea7ba1e5e6873f1b8643a98bfce51f"),
    (GraphClass.SPLIT, 2, 5, 9, 12, 1000,
     "e1cb31e511b4147a90f8d167d48d1d2b8988babe4694a549b3f487f50dc3f06f"),
]


@pytest.mark.parametrize("cls, k, i, j, n, budget, expected", TRAJECTORY_PINS)
def test_hunt_trajectory_is_pinned(monkeypatch, cls, k, i, j, n, budget, expected):
    digest = hashlib.sha256()
    mutate = hunt._mutate

    def spy(g, rng, sparse_set, dense_set, *rest):
        digest.update(repr((g.adj, sparse_set, dense_set)).encode())
        return mutate(g, rng, sparse_set, dense_set, *rest)

    monkeypatch.setattr(hunt, "_mutate", spy)
    assert hunt_witness(cls, k, i, j, n, budget=budget, seed=0) is None
    assert digest.hexdigest() == expected


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
        state = _score(g, k, i, j)
        full = _score(h, k, i, j)
        assert _score(h, k, i, j, (g, state[3])) == full, (g, h, k)
        # bounded by the state's score, as hunt does, or by any (M, T): None
        # iff the score is above the bound, else the very same result
        for bound in (state[0], (rng.randint(0, 4), rng.randint(0, 8))):
            expected = None if full[0] > bound else full
            assert _score(h, k, i, j, (g, state[3]), bound) == expected, (g, h, k, bound)
            assert _score(h, k, i, j, bound=bound) == expected, (g, h, k, bound)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(GraphClass)), st.integers(1, 8), st.randoms(use_true_random=False))
def test_move_class_test_matches_member(cls, n, rnd):
    # a random member grown by member alone, then every add, remove and
    # two-pair move (a swap, or a dense-set drop plus a sparse-set add)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rnd.shuffle(pairs)
    g, density = make_graph(n, []), rnd.random()
    for pair in pairs:
        if rnd.random() < density and member(h := _toggle(g, pair), cls):
            g = h
    menu = _Menu(g, cls)
    moves = ([(None, add) for add in menu.absent] + [(drop, None) for drop in menu.present]
             + [(drop, add) for drop in menu.present for add in menu.absent])
    for move in moves:
        candidate = _toggle(g, *(pair for pair in move if pair))
        assert menu.admits(candidate, *move) == member(candidate, cls), (g, move)
    assert member(_random_member(cls, n, rnd), cls)

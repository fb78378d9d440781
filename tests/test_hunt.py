import pytest

from defram import DomainError, GraphClass, graph6_encode, hunt_witness, member, ramsey_check


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

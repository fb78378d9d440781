import hashlib
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defram import (
    Graph,
    GraphClass,
    bipartition,
    bits,
    blocks,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_class,
    enumerate_levels,
    has_induced_p4,
    induced,
    is_cactus,
    is_cograph,
    is_forest,
    is_split,
    make_graph,
    member,
    path_graph,
    split_partition,
    star_graph,
)
from defram.classes import edge_test, extension_test, is_split_sequence
from defram.graphs import relabel
from defram.witnesses import split_small_witness

TWO_TRIANGLES = make_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])

CONCRETE = [GraphClass.FOREST, GraphClass.CACTUS, GraphClass.BIPARTITE,
            GraphClass.SPLIT, GraphClass.COGRAPH]


def test_is_forest_examples():
    assert is_forest(star_graph(3))
    assert not is_forest(cycle_graph(4))
    assert is_forest(empty_graph(5))


def test_is_cactus_examples():
    for n in range(8):
        for g in enumerate_class(GraphClass.FOREST, n):
            assert is_cactus(g)
    assert is_cactus(TWO_TRIANGLES)
    assert not is_cactus(complete_graph(4))


def test_blocks_shapes():
    bl = blocks(TWO_TRIANGLES)
    assert sorted(b.bit_count() for b in bl) == [3, 3]
    assert sorted(b.bit_count() for b in blocks(path_graph(4))) == [2, 2, 2]
    assert blocks(empty_graph(2)) == [1, 2]


# sha256 of the block lists, in Tarjan order, of every graph of order <= 7:
# the deforesting matching reads this order
BLOCKS_SHA256 = "ad72e2ac968bda68bb3c04f0cd58ea7265317a634ce5b5319f142c6e7fb415e3"


def test_blocks_are_pinned(all_levels_7):
    text = "".join(" ".join(map(str, blocks(g))) + "\n"
                   for level in all_levels_7 for g in level)
    assert hashlib.sha256(text.encode()).hexdigest() == BLOCKS_SHA256


def test_bipartition_examples():
    a, b = bipartition(cycle_graph(4))
    assert (a, b) == (0b0101, 0b1010)
    assert bipartition(cycle_graph(5)) is None
    a, b = bipartition(complete_bipartite(2, 3))
    assert sorted([a.bit_count(), b.bit_count()]) == [2, 3]


def test_split_partition_examples():
    part = split_partition(star_graph(3))
    assert part is not None
    k, i = part
    assert k.bit_count() + i.bit_count() == 4
    assert split_partition(cycle_graph(4)) is None
    k, i = split_partition(split_small_witness("s3"))
    assert k.bit_count() == 4 and i.bit_count() == 6


def _split_bruteforce(g):
    n = g.n
    for kmask in range(1 << n):
        imask = g.vertex_mask() & ~kmask
        ok = all((g.adj[v] & kmask).bit_count() == kmask.bit_count() - 1
                 for v in bits(kmask))
        ok = ok and all(not (g.adj[v] & imask) for v in bits(imask))
        if ok:
            return True
    return False


def test_split_recognition_matches_bruteforce(all_levels_6):
    for n in range(7):
        for g in all_levels_6[n]:
            assert is_split(g) == _split_bruteforce(g), g


def test_split_partition_always_valid(all_levels_7):
    for g in all_levels_7[7]:
        part = split_partition(g)
        if part is None:
            continue
        k, i = part
        assert k | i == g.vertex_mask() and k & i == 0
        for v in bits(k):
            assert (g.adj[v] & k).bit_count() == k.bit_count() - 1
        for v in bits(i):
            assert not (g.adj[v] & i)


def test_is_cograph_examples():
    assert not is_cograph(path_graph(4))
    assert is_cograph(complete_bipartite(3, 3))
    assert not is_cograph(cycle_graph(5))
    assert has_induced_p4(cycle_graph(5))


def test_is_cograph_matches_p4_scan(all_levels_7):
    for g in all_levels_7[7]:
        assert is_cograph(g) == (not has_induced_p4(g))


def test_member_dispatch():
    c4 = cycle_graph(4)
    assert member(c4, GraphClass.BIPARTITE)
    assert not member(c4, GraphClass.FOREST)
    assert member(c4, GraphClass.ALL)
    for cls in CONCRETE:
        assert member(empty_graph(3), cls)


def test_hereditary_closure(all_levels_6):
    for g in all_levels_6[6]:
        memberships = {cls: member(g, cls) for cls in CONCRETE}
        for drop in range(g.n):
            sub = induced(g, g.vertex_mask() & ~(1 << drop))
            for cls, inside in memberships.items():
                if inside:
                    assert member(sub, cls), (g, cls, drop)


def test_forest_implies_cactus_and_bipartite():
    for n in range(9):
        for g in enumerate_class(GraphClass.FOREST, n):
            assert is_cactus(g)
            assert bipartition(g) is not None


def test_self_complementary_classes(all_levels_6):
    for g in all_levels_6[6]:
        gc = complement(g)
        assert is_cograph(g) == is_cograph(gc)
        assert is_split(g) == is_split(gc)


def test_class_from_string():
    assert GraphClass.from_string("forest") is GraphClass.FOREST
    assert GraphClass.from_string("COGRAPH") is GraphClass.COGRAPH
    from defram import DomainError

    with pytest.raises(DomainError):
        GraphClass.from_string("chordal")


EXTENDABLE = list(GraphClass)


@cache
def _class_levels(cls):
    return enumerate_levels(cls, 8)


def _child(parent, neigh):
    """``parent`` plus a new vertex with neighbourhood ``neigh``."""
    m = parent.n
    return Graph(m + 1, tuple(row | (1 << m) if (neigh >> u) & 1 else row
                              for u, row in enumerate(parent.adj)) + (neigh,))


@pytest.mark.parametrize("cls", EXTENDABLE, ids=lambda c: c.value)
def test_extension_test_matches_member_up_to_order_6(cls):
    for level in _class_levels(cls)[:7]:
        for parent in level:
            admits = extension_test(parent, cls)
            for neigh in range(1 << parent.n):
                assert admits(neigh) == member(_child(parent, neigh), cls), (parent, neigh)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(EXTENDABLE), st.data())
def test_extension_test_matches_member(cls, data):
    n = data.draw(st.integers(0, 8), label="order")
    parent = data.draw(st.sampled_from(_class_levels(cls)[n]), label="parent")
    parent = relabel(parent, tuple(data.draw(st.permutations(range(n)), label="perm")))
    neigh = data.draw(st.integers(0, (1 << n) - 1), label="mask")
    assert extension_test(parent, cls)(neigh) == member(_child(parent, neigh), cls)


@pytest.mark.parametrize("cls", EXTENDABLE, ids=lambda c: c.value)
def test_edge_test_matches_member_up_to_order_7(cls):
    # every member of order <= 7 and every non-edge, in every class closed
    # under edge removal; None for the others
    for level in _class_levels(cls)[:8]:
        for g in level:
            admits = edge_test(g, cls)
            if cls not in (GraphClass.FOREST, GraphClass.CACTUS, GraphClass.BIPARTITE):
                assert admits is None
                break
            for u, v in complement(g).edges():
                grown = make_graph(g.n, g.edges() + [(u, v)])
                assert bool(admits(u, v)) == member(grown, cls), (g, u, v)


def test_split_sequence_matches_is_split(all_levels_7):
    for level in all_levels_7:
        for g in level:
            degs = [g.degree(v) for v in range(g.n)]
            assert is_split_sequence(degs) == is_split(g), g


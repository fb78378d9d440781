import hashlib

import pytest

from defram import (
    DomainError,
    GraphClass,
    RamseyQuery,
    alpha_k,
    bipartite_cage,
    bipartite_witness,
    bipartition,
    bits,
    cactus_square_chain,
    cactus_triangle_chain,
    cactus_witness,
    cograph_witness,
    complement,
    complete_graph,
    cycle_graph,
    defective_ramsey,
    disjoint_union,
    empty_graph,
    forest_witness,
    graph6_encode,
    induced,
    is_cactus,
    is_cograph,
    is_split,
    join,
    member,
    named_graph,
    ramsey_check,
    ramsey_value,
    split_small_witness,
    split_witness_diagonal,
    split_witness_general,
    star_graph,
    witness_for,
)
from defram.witnesses import _BUILDERS

FO, CA, BIP, SP, CO = (GraphClass.FOREST, GraphClass.CACTUS, GraphClass.BIPARTITE,
                       GraphClass.SPLIT, GraphClass.COGRAPH)


def test_forest_witness_examples():
    g = forest_witness(1, 4)
    assert g.n == 4 and alpha_k(g, 1)[0] == 3
    g = forest_witness(2, 7)
    assert g.n == 8 and alpha_k(g, 2)[0] == 6
    g = forest_witness(1, 3)
    assert g.n == 3 and alpha_k(g, 1)[0] == 2
    with pytest.raises(DomainError):
        forest_witness(1, 2)


def test_cactus_square_chain_claims():
    assert cactus_square_chain(2, 0) == star_graph(3)
    for k in (2, 3):
        for length in range(4):
            g = cactus_square_chain(k, length)
            assert g.n == (k + 1) * (length + 1) + 1
            assert is_cactus(g)
            assert alpha_k(g, k)[0] == k * (length + 1) + 1


def test_cactus_triangle_chain_claims():
    assert cactus_triangle_chain(4).n == 5
    g = cactus_triangle_chain(5)
    assert g.n == 7 and alpha_k(g, 1)[0] == 4
    g = cactus_triangle_chain(6)
    assert is_cactus(g) and ramsey_check(g, 1, 4, 6).neither
    with pytest.raises(DomainError):
        cactus_triangle_chain(3)


def test_cactus_witness_dispatch():
    g = cactus_witness(1, 5, 5)
    assert g.n == 8 and alpha_k(g, 1)[0] == 4
    g = cactus_witness(2, 6, 7)  # 6 = 2*3, t = 0 branch
    assert g.n == 8 and alpha_k(g, 2)[0] == 6
    g = cactus_witness(1, 4, 6)
    assert g.n == 9
    with pytest.raises(DomainError):
        cactus_witness(5, 8, 12)  # open cell
    assert cactus_witness(0, 3, 5) == witness_for(RamseyQuery(CA, 0, 3, 5))


def test_bipartite_witness_dispatch():
    g = bipartite_witness(1, 4, 8)
    assert g.n == 14 and g == witness_for(RamseyQuery(BIP, 1, 4, 8))
    assert bipartite_witness(1, 5, 2) == empty_graph(1)  # value 2: one vertex
    for cell in [(1, 4, 7), (1, 4, 10), (2, 5, 6)]:  # no construction, conjectured, open
        with pytest.raises(DomainError):
            bipartite_witness(*cell)


def test_builders_cover_exactly_the_exact_tags():
    tags = {cell.provenance
            for cls in (FO, CA, BIP, SP, CO) for k in range(6)
            for i in range(1, 31) for j in range(1, 31)
            if (cell := defective_ramsey(RamseyQuery(cls, k, i, j))).is_exact}
    assert tags == set(_BUILDERS)


def test_witness_for_grid_is_pinned():
    lines = []
    for cls in (FO, CA, BIP, SP, CO):
        for k in range(4):
            for i in range(1, 13):
                for j in range(1, 13):
                    g = witness_for(RamseyQuery(cls, k, i, j))
                    code = graph6_encode(g) if g is not None else "-"
                    lines.append(f"{cls.value} {k} {i} {j} {code}")
    assert len(lines) == 2880
    assert sum(not line.endswith(" -") for line in lines) == 2787
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "f49c9c3f42bf2bf3d48b734b0e6cf3ab1152192c3b401d8551678c9b37c68809")


def test_cages_match_their_published_parameters():
    expected = {1: (14, 21, {3}), 2: (16, 24, {3}), 4: (26, 52, {4})}
    for idx, (n, edges, degs) in expected.items():
        g = bipartite_cage(idx)
        assert g.n == n and g.edge_count() == edges
        assert {g.degree(v) for v in range(g.n)} == degs
        assert bipartition(g) is not None
        assert ramsey_check(g, 1, 4, g.n // 2 + 1).neither
    g3 = bipartite_cage(3)
    assert g3.n == 24
    assert sorted(g3.degree(v) for v in range(24)).count(3) == 6
    with pytest.raises(DomainError):
        bipartite_cage(5)


def test_heawood_parameters():
    g = bipartite_cage(1)
    assert g.n == 14 and g.edge_count() == 21
    assert bipartition(g) is not None
    # girth 6: no cycle of length 3, 4 or 5 through any vertex
    import itertools

    for trip in itertools.combinations(range(14), 3):
        sub = induced(g, sum(1 << v for v in trip))
        assert sub.edge_count() < 3
    assert alpha_k(complement(g), 1)[0] == 3  # C4-free bipartite
    from defram import is_forest

    assert not is_forest(g)  # a cycle exists, so the girth is exactly six
    assert alpha_k(g, 1)[0] == 7


def test_cage_alphas():
    for idx, alpha in [(1, 7), (2, 8), (3, 12), (4, 13)]:
        assert alpha_k(bipartite_cage(idx), 1)[0] == alpha


def test_split_general_degree_facts():
    for k, i, j in [(1, 5, 6), (2, 7, 7), (0, 3, 3)]:
        g = split_witness_general(k, i, j)
        assert g.n == i + j - 2
        assert is_split(g)
        clique = range(i - 1)
        indep = range(i - 1, g.n)
        for s in clique:
            assert sum(g.has_edge(s, b) for b in indep) == k + 1
        bdegs = [g.degree(b) for b in indep]
        assert max(bdegs) - min(bdegs) <= 1
        assert ramsey_check(g, k, i, j).neither
    with pytest.raises(DomainError):
        split_witness_general(2, 5, 6)


def test_split_diagonal():
    g = split_witness_diagonal(1, 4)
    assert g.n == 5 and ramsey_check(g, 1, 4, 4).neither
    g = split_witness_diagonal(2, 6)
    assert g.n == 9 and ramsey_check(g, 2, 6, 6).neither
    g = split_witness_diagonal(3, 8)
    assert g.n == 13 and is_split(g)
    with pytest.raises(DomainError):
        split_witness_diagonal(2, 8)


def test_split_small_figures():
    claims = {
        "s1": (6, 1, 4, 5), "s2": (7, 1, 4, 6),
        "s3": (10, 2, 6, 7), "s4": (11, 2, 6, 8),
        "s5": (7, 2, 5, 6), "s6": (8, 2, 5, 7), "s7": (10, 2, 5, 8),
    }
    for tag, (n, k, i, j) in claims.items():
        g = split_small_witness(tag)
        assert g.n == n and is_split(g)
        assert ramsey_check(g, k, i, j).neither, tag
    g = split_small_witness("s7", 2)
    assert g.n == 12 and ramsey_check(g, 2, 5, 10).neither
    with pytest.raises(DomainError):
        split_small_witness("s1", 1)
    with pytest.raises(DomainError):
        split_small_witness("s9")


def test_cograph_witness_recursion():
    g = cograph_witness(1, 4, 4)
    assert g == join(complete_graph(1), empty_graph(3))
    g = cograph_witness(1, 4, 6)
    assert g.n == ramsey_value(CO, 1, 4, 6).value - 1 == 7
    assert ramsey_check(g, 1, 4, 6).neither
    g = cograph_witness(2, 9, 5)
    assert is_cograph(g)
    assert ramsey_check(g, 2, 9, 5).neither


def test_witness_for_examples():
    g = witness_for(RamseyQuery(FO, 1, 4, 4))
    assert g is not None and g.n == 4
    assert witness_for(RamseyQuery(BIP, 1, 4, 10)) is None  # conjectured
    assert witness_for(RamseyQuery(BIP, 1, 4, 7)) is None  # no construction
    assert witness_for(RamseyQuery(CA, 5, 8, 12)) is None  # open bounds
    g = witness_for(RamseyQuery(SP, 2, 5, 9))
    assert g is not None and g.n == 11
    g = witness_for(RamseyQuery(SP, 2, 9, 5))  # mirrored cell, complemented witness
    assert g is not None and g.n == 11
    assert witness_for(RamseyQuery(CO, 0, 12, 12)) is None  # would need order 121


def test_witness_for_small_cells():
    g = witness_for(RamseyQuery(CA, 2, 2, 9))
    assert g is not None and g.n == 1
    g = witness_for(RamseyQuery(FO, 1, 3, 8))
    assert g is not None and g == empty_graph(7)
    g = witness_for(RamseyQuery(SP, 1, 8, 3))
    assert g is not None and g == complete_graph(7)


def test_named_graph_tags():
    assert named_graph("g1").n == 14
    assert named_graph("s7").n == 10
    assert named_graph("gkl:2:3").n == 13
    assert named_graph("hl:5").n == 7
    with pytest.raises(DomainError):
        named_graph("g9")
    with pytest.raises(DomainError):
        named_graph("gkl:2")

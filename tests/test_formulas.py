import numpy as np
import pytest

from defram import (
    DomainError,
    GraphClass,
    RamseyQuery,
    RamseyValue,
    cg_inequality,
    defective_ramsey,
    ramsey_value,
    split_conjecture_value,
)
from defram.formulas import _small_value

FO, CA, BIP, SP, CO = (GraphClass.FOREST, GraphClass.CACTUS, GraphClass.BIPARTITE,
                       GraphClass.SPLIT, GraphClass.COGRAPH)


def test_small_cases():
    assert _small_value(3, 2, 10).value == 2
    assert _small_value(1, 3, 5).value == 5
    assert _small_value(1, 5, 5) is None
    assert _small_value(0, 1, 9).value == 1


def test_query_validation():
    with pytest.raises(DomainError):
        RamseyQuery(GraphClass.ALL, 1, 4, 4)
    with pytest.raises(DomainError):
        RamseyQuery(FO, -1, 4, 4)
    with pytest.raises(DomainError):
        RamseyQuery(FO, 1, 0, 4)


def test_value_normalization():
    assert RamseyValue.bounds(5, 5, "x").is_exact
    with pytest.raises(DomainError):
        RamseyValue.bounds(6, 5, "x")
    with pytest.raises(DomainError):
        RamseyValue.conjectured(9, 5, 8, "x")


def test_forest_values():
    assert ramsey_value(FO, 1, 4, 4).value == 5
    assert ramsey_value(FO, 2, 5, 7).value == 9
    assert ramsey_value(FO, 0, 3, 5).value == 9
    assert ramsey_value(FO, 1, 3, 7).value == 7
    for k in range(6):
        for i in range(1, 20):
            for j in range(1, 20):
                assert ramsey_value(FO, k, i, j).is_exact


def test_cactus_values():
    assert ramsey_value(CA, 1, 5, 5).value == 9
    assert ramsey_value(CA, 2, 6, 7).value == 9
    v = ramsey_value(CA, 5, 8, 12)
    assert (v.status, v.lo, v.hi) == ("bounds", 13, 14)
    assert ramsey_value(CA, 5, 8, 9).value == 10
    assert ramsey_value(CA, 0, 3, 5).value == 11
    assert ramsey_value(CA, 0, 4, 5).value == 13
    assert ramsey_value(CA, 1, 4, 6).value == 10
    assert ramsey_value(CA, 1, 6, 6).value == 10


def test_bipartite_values():
    assert ramsey_value(BIP, 1, 4, 8).value == 15
    assert ramsey_value(BIP, 2, 7, 4).value == 5
    v = ramsey_value(BIP, 1, 4, 10)
    assert (v.status, v.value, v.lo, v.hi) == ("conjectured", 19, 17, 19)
    v = ramsey_value(BIP, 1, 4, 18)
    assert (v.value, v.lo) == (35, 33)
    assert ramsey_value(BIP, 1, 4, 7).value == 12
    assert ramsey_value(BIP, 1, 4, 3).value == 4
    assert ramsey_value(BIP, 1, 5, 3).value == 5
    assert ramsey_value(BIP, 0, 7, 9).value == 17
    assert ramsey_value(BIP, 2, 7, 5).value == 9  # j = 2k+1 boundary
    assert ramsey_value(BIP, 2, 7, 6).value == 11
    v = ramsey_value(BIP, 2, 5, 6)
    assert (v.status, v.lo, v.hi) == ("bounds", 6, 11)
    v = ramsey_value(BIP, 2, 5, 4)
    assert (v.status, v.lo, v.hi) == ("bounds", 4, 5)


def test_split_values():
    assert ramsey_value(SP, 3, 10, 10).value == 19
    assert ramsey_value(SP, 2, 6, 6).value == 10
    assert ramsey_value(SP, 2, 5, 9).value == 12
    assert ramsey_value(SP, 1, 4, 5).value == 7
    assert ramsey_value(SP, 1, 4, 6).value == 8
    assert ramsey_value(SP, 2, 6, 7).value == 11
    assert ramsey_value(SP, 2, 6, 8).value == 12
    assert ramsey_value(SP, 2, 5, 6).value == 8
    assert ramsey_value(SP, 2, 5, 7).value == 9
    assert ramsey_value(SP, 0, 5, 5).value == 9
    assert ramsey_value(SP, 1, 3, 9).value == 9
    assert ramsey_value(SP, 1, 9, 3).value == 9
    v = ramsey_value(SP, 3, 6, 7)
    assert (v.status, v.value, v.hi) == ("conjectured", 9, 12)
    assert v.lo == 3 * 6 - 2 * 3 - 4


def test_cograph_values():
    assert ramsey_value(CO, 1, 4, 4).value == 5
    assert ramsey_value(CO, 2, 5, 6).value == 7
    assert ramsey_value(CO, 1, 3, 9).value == 9
    assert ramsey_value(CO, 0, 4, 4).value == 10
    for k in range(6):
        for i in range(1, 20):
            for j in range(1, 20):
                assert ramsey_value(CO, k, i, j).is_exact


def test_every_cell_resolves():
    for cls in (FO, CA, BIP, SP, CO):
        for k in range(6):
            for i in range(1, 31):
                for j in range(1, 31):
                    v = defective_ramsey(RamseyQuery(cls, k, i, j))
                    assert v.lo <= v.hi
                    if v.value is not None:
                        assert v.lo <= v.value <= v.hi


def test_defect_monotonicity_in_k():
    for cls in (FO, CA, BIP, SP, CO):
        for k in range(5):
            for i in range(1, 25):
                for j in range(1, 25):
                    a = ramsey_value(cls, k, i, j)
                    b = ramsey_value(cls, k + 1, i, j)
                    if a.is_exact and b.is_exact:
                        assert b.value <= a.value, (cls, k, i, j)


def test_argument_monotonicity():
    for cls in (FO, CA, BIP, SP, CO):
        for k in range(4):
            for i in range(1, 20):
                for j in range(1, 20):
                    a = ramsey_value(cls, k, i, j)
                    if not a.is_exact:
                        continue
                    for di, dj in ((1, 0), (0, 1)):
                        b = ramsey_value(cls, k, i + di, j + dj)
                        if b.is_exact:
                            assert a.value <= b.value, (cls, k, i, j, di, dj)


def test_class_monotonicity():
    for k in range(5):
        for i in range(1, 25):
            for j in range(1, 25):
                fo = ramsey_value(FO, k, i, j)
                for other in (CA, BIP):
                    ov = ramsey_value(other, k, i, j)
                    if fo.is_exact and ov.is_exact:
                        assert fo.value <= ov.value, (other, k, i, j)


def test_symmetry_of_self_complementary_classes():
    for cls in (SP, CO):
        for k in range(5):
            for i in range(1, 25):
                for j in range(1, 25):
                    assert ramsey_value(cls, k, i, j) == ramsey_value(cls, k, j, i)


def test_mod_arithmetic_inequality():
    x = np.arange(1001)
    for m in range(2, 11):
        rx = x % m
        diff = rx[:, None] - rx[None, :]
        wrap = (x[:, None] - x[None, :]) % m
        assert (diff <= wrap).all()


def test_split_conjecture_matches_every_proven_cell():
    for k in (0, 1, 2):
        for i in range(k + 2, 31):
            for j in range(k + 2, 31):
                v = ramsey_value(SP, k, i, j)
                assert v.is_exact
                assert split_conjecture_value(k, i, j) == v.value, (k, i, j)


def test_cograph_small_case_consistency():
    for k in range(1, 6):
        for i in range(k + 2, 2 * k + 3):
            for j in range(k + 2, 2 * k + 3):
                assert ramsey_value(CO, k, i, j).value == i + j - k - 2


def test_bounds_nest_in_monotone_envelope():
    for cls in (CA, BIP, SP):
        for k in range(6):
            for i in range(1, 31):
                for j in range(1, 31):
                    v = ramsey_value(cls, k, i, j)
                    if v.is_exact:
                        continue
                    below = ramsey_value(cls, k, i, j - 1)
                    above = ramsey_value(cls, k, i, j + 1)
                    if below.is_exact:
                        assert below.value <= v.hi
                    if above.is_exact:
                        assert v.lo <= above.value


def test_cg_inequality_examples():
    assert cg_inequality(FO, 1, 4, 5) == "holds"
    assert cg_inequality(SP, 1, 5, 5) == "fails"
    assert cg_inequality(BIP, 1, 4, 20) == "fails"
    assert cg_inequality(CA, 4, 3, 20) == "undecidable"


def test_cg_inequality_refuses_outside_the_cell_domain():
    with pytest.raises(DomainError, match="defect k must be >= 0"):
        cg_inequality(FO, -1, 4, 4)
    with pytest.raises(DomainError, match="set sizes i and j must be >= 1"):
        cg_inequality(FO, 1, 0, 4)


def test_provenance_tags_are_stable():
    assert ramsey_value(FO, 1, 4, 4).provenance == "forest-main"
    assert ramsey_value(CA, 5, 8, 12).provenance == "cactus-open-bounds"
    assert ramsey_value(SP, 3, 6, 7).provenance == "split-conjecture"
    assert ramsey_value(CO, 2, 5, 6).provenance == "cograph-main"
    assert ramsey_value(BIP, 1, 4, 10).provenance == "bipartite-conjecture"

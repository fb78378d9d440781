"""Closed-form defective Ramsey values for the five graph classes.

Every reachable (class, k, i, j) query resolves to an exact value, a
sound bounds interval for the open cells, or a conjectured value carrying
sound bounds.  All arithmetic is integer-only; divisions are explicit
floor/ceil.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import GraphClass
from .defects import check_cell
from .graphs import DomainError


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


@dataclass(frozen=True)
class RamseyQuery:
    cls: GraphClass
    k: int
    i: int
    j: int

    def __post_init__(self):
        if self.cls is GraphClass.ALL:
            raise DomainError("queries need a concrete graph class")
        check_cell(self.k, self.i, self.j)


@dataclass(frozen=True)
class RamseyValue:
    """An exact value, a bounds interval, or a conjectured exact value.

    ``value`` is set for exact and conjectured cells; ``lo`` and ``hi``
    are always sound bounds.  ``provenance`` names the rule that produced
    the cell.
    """

    status: str  # "exact" | "bounds" | "conjectured"
    lo: int
    hi: int
    value: int | None
    provenance: str

    @staticmethod
    def exact(value: int, provenance: str) -> "RamseyValue":
        return RamseyValue("exact", value, value, value, provenance)

    @staticmethod
    def bounds(lo: int, hi: int, provenance: str) -> "RamseyValue":
        if lo > hi:
            raise DomainError(f"bounds out of order: {lo} > {hi}")
        if lo == hi:
            return RamseyValue.exact(lo, provenance)
        return RamseyValue("bounds", lo, hi, None, provenance)

    @staticmethod
    def conjectured(value: int, lo: int, hi: int, provenance: str) -> "RamseyValue":
        if not lo <= value <= hi:
            raise DomainError(f"conjectured value {value} outside [{lo}, {hi}]")
        return RamseyValue("conjectured", lo, hi, value, provenance)

    @property
    def is_exact(self) -> bool:
        return self.status == "exact"

    def to_json(self) -> dict:
        out = {"status": self.status, "lo": self.lo, "hi": self.hi,
               "provenance": self.provenance}
        if self.value is not None:
            out["value"] = self.value
        return out

    def __str__(self) -> str:
        if self.status == "exact":
            return f"Exact {self.value} ({self.provenance})"
        if self.status == "bounds":
            return f"Bounds {self.lo}..{self.hi} ({self.provenance})"
        return f"Conjectured {self.value} [{self.lo}..{self.hi}] ({self.provenance})"


def _small_value(k: int, i: int, j: int) -> RamseyValue | None:
    """Values forced for every class: tiny targets and i = k + 2.

    min(i, j) <= k+1 makes every set of that size both sparse and dense;
    i = k+2 pins the value to j.  The j = k+2 mirror applies only to
    self-complementary classes and lives in their dispatchers.
    """
    if min(i, j) <= k + 1:
        return RamseyValue.exact(min(i, j), "small-min")
    if i == k + 2:
        return RamseyValue.exact(j, "small-k-plus-2")
    return None


def forest_formula(k: int, i: int, j: int) -> RamseyValue:
    """Forests: always exact."""
    small = _small_value(k, i, j)
    if small is not None:
        return small
    if k == 0:
        return RamseyValue.exact(2 * j - 1, "forest-cited-classical")
    return RamseyValue.exact(j + (j - 1) // (k + 1), "forest-main")


def cactus_formula(k: int, i: int, j: int) -> RamseyValue:
    """Cacti: exact except i = k+3 with k >= 4 and large j, which is open."""
    small = _small_value(k, i, j)
    if small is not None:
        return small
    if k == 0:
        if i == 3:
            return RamseyValue.exact(5 * (j - 1) // 2 + 1, "cactus-cited-classical")
        return RamseyValue.exact(3 * (j - 1) + 1, "cactus-cited-classical")
    if k == 1:
        if i == 4:
            return RamseyValue.exact(2 * j - 2, "cactus-main")
        return RamseyValue.exact(2 * j - 2 + (j % 2), "cactus-parity")
    main = j - 1 + _ceil_div(j - 1, k)
    if i >= k + 4 or k <= 3:
        return RamseyValue.exact(main, "cactus-main")
    # i == k+3, k >= 4: squeezed between the forest value and the i = k+4
    # row; exact wherever the two coincide (all of j <= 2k+1, and more)
    lo = j + (j - 1) // (k + 1)
    tag = "cactus-bounds-tight" if lo == main else "cactus-open-bounds"
    return RamseyValue.bounds(lo, main, tag)


def _bipartite_k1_i4(j: int) -> RamseyValue:
    if j == 3:
        return RamseyValue.exact(4, "bipartite-k1-i4")
    if j in (4, 5, 6):
        return RamseyValue.exact(2 * j - 3, "bipartite-k1-i4")
    if j == 7:
        return RamseyValue.exact(12, "bipartite-k1-i4")
    if j in (10, 11, 12, 18, 19):
        lower = j - 1
        while not _bipartite_k1_i4(lower).is_exact:
            lower -= 1
        lo = _bipartite_k1_i4(lower).value
        return RamseyValue.conjectured(2 * j - 1, lo, 2 * j - 1, "bipartite-conjecture")
    return RamseyValue.exact(2 * j - 1, "bipartite-k1-i4")


def bipartite_formula(k: int, i: int, j: int) -> RamseyValue:
    """Bipartite graphs: exact except five conjectured k=1 cells and the
    open band k+3 <= i <= 2k+2 for k >= 2."""
    small = _small_value(k, i, j)
    if small is not None:
        return small
    if k == 0:
        return RamseyValue.exact(2 * j - 1, "bipartite-cited-classical")
    if k == 1:
        if i == 4:
            return _bipartite_k1_i4(j)
        return RamseyValue.exact(2 * j - 1, "bipartite-k1")
    if i >= 2 * k + 3:
        if j <= 2 * k:
            return RamseyValue.exact(2 * j - 1 - k, "bipartite-large-i")
        return RamseyValue.exact(2 * j - 1, "bipartite-large-i")
    # open band: squeeze between the i = k+2 row and the i = 2k+3 row
    hi = 2 * j - 1 - k if j <= 2 * k else 2 * j - 1
    return RamseyValue.bounds(j, hi, "bipartite-open-bounds")


def split_conjecture_value(k: int, i: int, j: int) -> int:
    """Conjectured closed form for split graphs, consistent with every
    proven split cell."""
    gap = (k + 1) ** 2 - (i - k - 2) * (j - k - 2)
    return i + j - 1 - max(0, _ceil_div(gap, min(i, j)))


_SPLIT_SMALL = {
    (1, 4, 5): 7, (1, 4, 6): 8,
    (2, 5, 6): 8, (2, 5, 7): 9,
    (2, 6, 7): 11, (2, 6, 8): 12,
}


def split_formula(k: int, i: int, j: int) -> RamseyValue:
    """Split graphs: exact for k <= 2 and for every cell satisfying
    (i-k-2)(j-k-2) >= (k+1)^2; conjectured elsewhere.  Symmetric in i, j."""
    small = _small_value(k, i, j)
    if small is not None:
        return small
    if j == k + 2:  # self-complementary mirror
        return RamseyValue.exact(i, "small-k-plus-2")
    if (i - k - 2) * (j - k - 2) >= (k + 1) ** 2:
        return RamseyValue.exact(i + j - 1, "split-general")
    if i == j:
        return RamseyValue.exact(3 * i - 2 * k - 4, "split-diagonal")
    a, b = min(i, j), max(i, j)
    if (k, a, b) in _SPLIT_SMALL:
        return RamseyValue.exact(_SPLIT_SMALL[(k, a, b)], "split-small")
    if k == 2 and a == 5 and 8 <= b <= 12:
        return RamseyValue.exact(b + 3, "split-small")
    # the listed cells exhaust k <= 2; both sides above k+2 with the
    # product condition failing forces min(i, j) <= 2k+2
    assert k >= 3 and a <= 2 * k + 2
    lo = 3 * a - 2 * k - 4
    return RamseyValue.conjectured(split_conjecture_value(k, i, j), lo,
                                   i + j - 1, "split-conjecture")


def cograph_formula(k: int, i: int, j: int) -> RamseyValue:
    """Cographs: always exact.  Symmetric in i, j."""
    if min(i, j) <= k + 1:
        return RamseyValue.exact(min(i, j), "small-min")
    m = k + 1
    num = (i - 1) * (j - 1) - ((i - 1) % m) * ((j - 1) % m)
    assert num % m == 0
    return RamseyValue.exact(1 + num // m, "cograph-main")


_FORMULAS = {
    GraphClass.FOREST: forest_formula,
    GraphClass.CACTUS: cactus_formula,
    GraphClass.BIPARTITE: bipartite_formula,
    GraphClass.SPLIT: split_formula,
    GraphClass.COGRAPH: cograph_formula,
}


def defective_ramsey(query: RamseyQuery) -> RamseyValue:
    """Dispatch a query to its class formula."""
    return _FORMULAS[query.cls](query.k, query.i, query.j)


def ramsey_value(cls: GraphClass, k: int, i: int, j: int) -> RamseyValue:
    return defective_ramsey(RamseyQuery(cls, k, i, j))


def cg_inequality(cls: GraphClass, k: int, i: int, j: int) -> str:
    """Compare the k-defective value at (k+i, k+j) shifted down by k with
    the classical (k = 0) value at (i, j).

    Returns "holds", "fails", or "undecidable" when either cell is not
    exact.
    """
    check_cell(k, i, j)
    lhs = ramsey_value(cls, k, k + i, k + j)
    rhs = ramsey_value(cls, 0, i, j)
    if not (lhs.is_exact and rhs.is_exact):
        return "undecidable"
    return "holds" if lhs.value - k <= rhs.value else "fails"

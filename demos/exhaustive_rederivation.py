#!/usr/bin/env python3
"""Re-derive small values from scratch and compare with the closed forms.

For each cell the search grows the good class members order by order
(one representative per isomorphism class, holding neither witness set;
only good graphs are extended, since every induced subgraph of a good
graph is good) until an order has none, then checks that the order
below has one.
"""

from defram import (
    GraphClass,
    RamseyQuery,
    compute_ramsey_exhaustive,
    defective_ramsey,
    verify_value,
)

CELLS = [
    (GraphClass.FOREST, 1, 4, 4),
    (GraphClass.FOREST, 2, 5, 4),
    (GraphClass.CACTUS, 1, 5, 4),
    (GraphClass.BIPARTITE, 1, 4, 4),
    (GraphClass.SPLIT, 1, 4, 5),
    (GraphClass.COGRAPH, 1, 4, 5),
]


def main() -> None:
    for cls, k, i, j in CELLS:
        formula = defective_ramsey(RamseyQuery(cls, k, i, j))
        found = compute_ramsey_exhaustive(cls, k, i, j, n_max=8)
        report = verify_value(cls, k, i, j, formula.value)
        status = "agrees" if found is not None and found.value == formula.value else "DISAGREES"
        print(f"{cls.value:>9} k={k} ({i},{j}): formula {formula.value} "
              f"[{formula.provenance}], exhaustive {found.value if found else '?'} "
              f"-> {status}; confirmed={report.confirmed} "
              f"({report.examined} good graphs, {report.elapsed:.2f}s)")


if __name__ == "__main__":
    main()

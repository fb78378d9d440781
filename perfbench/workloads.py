"""The four workloads: their inputs, made from a seed, and their output checks.

One operation is one CLI call (``defram.cli.run_cli``, always with
``--workers 1``) or one library query (``defective_ramsey`` /
``witness_for``).  The seed fixes the order of the operations; the same
seed gives the same inputs.  Checks run after the timed region and
return one message per failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

from defram.classes import GraphClass, member
from defram.defects import ramsey_check
from defram.formulas import RamseyQuery, defective_ramsey
from defram.graph6 import graph6_decode

CLASSES = (GraphClass.FOREST, GraphClass.CACTUS, GraphClass.BIPARTITE,
           GraphClass.SPLIT, GraphClass.COGRAPH)

# enumerate: (class, order, expected line count, where the count comes from)
ENUMERATE = [
    ("all", 8, 12346, "OEIS A000088"),
    ("cactus", 9, 1144, "pinned from the seed commit; no independent derivation"),
    ("forest", 10, 329, "OEIS A005195"),
]

# verify: (class, k, i, j, claimed, expected outcome).  The first eleven
# are the acceptance suite's criterion-3 cells.
CONFIRMED = "confirmed"
NO_LOWER_WITNESS = "no-lower-witness"
VERIFY = [
    ("forest", 1, 4, 3, 4, CONFIRMED), ("forest", 1, 4, 4, 5, CONFIRMED),
    ("forest", 1, 4, 5, 7, CONFIRMED), ("cactus", 1, 5, 4, 6, CONFIRMED),
    ("cactus", 1, 4, 4, 6, CONFIRMED), ("bipartite", 1, 4, 4, 5, CONFIRMED),
    ("bipartite", 1, 4, 5, 7, CONFIRMED), ("split", 1, 4, 4, 6, CONFIRMED),
    ("split", 1, 4, 5, 7, CONFIRMED), ("cograph", 1, 4, 4, 5, CONFIRMED),
    ("cograph", 1, 4, 5, 7, CONFIRMED),
    ("bipartite", 1, 4, 6, 9, CONFIRMED), ("forest", 1, 4, 7, 10, CONFIRMED),
    ("cactus", 1, 4, 5, 8, CONFIRMED), ("split", 2, 5, 6, 8, CONFIRMED),
    ("split", 1, 4, 6, 8, CONFIRMED), ("cograph", 1, 4, 6, 8, CONFIRMED),
    ("bipartite", 1, 4, 5, 6, 5),                   # refuted: 5 counterexamples
    ("forest", 1, 4, 5, 8, NO_LOWER_WITNESS),       # refuted: value is smaller
]

# sweep: the criterion-1 formula grid, then the criterion-4 witness sweep
GRID_K, GRID_IJ = 6, 30
GRID_EXACT = 26394          # exact cells in the grid, pinned from the seed commit
SWEEP_K, SWEEP_IJ = 4, 12
SWEEP_WITNESSES = 2787      # validated witnesses built, pinned from the seed commit

# hunt: (class, k, i, j, order, moves per call, hunt seeds).  Each order
# equals the proven value, so no witness exists and every call makes
# exactly its budget of moves.  The hunt seeds are fixed, not drawn from
# the benchmark seed: a move's cost depends on the trajectory, and drawn
# seeds spread the medians of ten runs by 10% (IQR over median).
HUNT = [
    ("bipartite", 1, 4, 8, 15, 1000, range(4)),
    ("split", 2, 5, 9, 12, 4000, range(4)),
]


@dataclass
class Op:
    """One timed call: ``entry`` names the function, ``args`` its arguments."""

    label: str
    entry: str              # "run_cli", "defective_ramsey" or "witness_for"
    args: tuple
    cold: bool = False      # clear the program's caches first, as a new process would
    expect: object = None   # what the check needs to know


def make_ops(workload: str, rng: random.Random, tmp: str) -> list[Op]:
    if workload == "enumerate":
        ops = [Op(f"enumerate {cls}/{n}", "run_cli",
                  (["--workers", "1", "enumerate", cls, "-n", str(n),
                    "--out", os.path.join(tmp, f"{cls}-{n}.g6")],),
                  cold=True, expect=(cls, n, count))
               for cls, n, count, _ in ENUMERATE]
    elif workload == "verify":
        ops = [Op(f"verify {cls} ({k},{i},{j}) claimed {claimed}", "run_cli",
                  (["--workers", "1", "--json", "verify", cls,
                    "-k", str(k), "-i", str(i), "-j", str(j),
                    "--claimed", str(claimed)],),
                  cold=True, expect=(cls, k, i, j, claimed, outcome))
               for cls, k, i, j, claimed, outcome in VERIFY]
    elif workload == "sweep":
        grid = [Op(f"grid {c.value} ({k},{i},{j})", "defective_ramsey",
                   (RamseyQuery(c, k, i, j),))
                for c in CLASSES for k in range(GRID_K)
                for i in range(1, GRID_IJ + 1) for j in range(1, GRID_IJ + 1)]
        witnesses = [Op(f"witness {c.value} ({k},{i},{j})", "witness_for",
                        (RamseyQuery(c, k, i, j),))
                     for c in CLASSES for k in range(SWEEP_K)
                     for i in range(1, SWEEP_IJ + 1) for j in range(1, SWEEP_IJ + 1)]
        rng.shuffle(grid)
        rng.shuffle(witnesses)
        grid[0].cold = True   # library queries share one process, as a script's do
        return grid + witnesses
    elif workload == "hunt":
        ops = [Op(f"hunt {cls} ({k},{i},{j}) n={n} seed={seed}", "run_cli",
                  (["--workers", "1", "hunt", cls, "-k", str(k), "-i", str(i),
                    "-j", str(j), "-n", str(n), "--hunt-budget", str(moves),
                    "--seed", str(seed)],),
                  cold=True)
               for cls, k, i, j, n, moves, seeds in HUNT for seed in seeds]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def check(workload: str, ops: list[Op], outputs: list) -> tuple[list[str], dict]:
    """(one message per failed operation, information that is not a gate).

    ``outputs[n]`` is ``(exit code, stdout)`` for a CLI call, the return
    value for a library query, or an exception raised by the call.
    """
    failures: list[str] = []
    info: dict = {}
    checker = {"enumerate": _check_enumerate, "verify": _check_verify,
               "sweep": _check_sweep, "hunt": _check_hunt}[workload]
    for op, out in zip(ops, outputs):
        if isinstance(out, BaseException):
            failures.append(f"{op.label}: raised {out!r}")
            continue
        try:
            problem = checker(op, out, info)
        except Exception as exc:  # malformed output is a failed operation
            problem = f"check raised {exc!r}"
        if problem:
            failures.append(f"{op.label}: {problem}")
    if workload == "sweep":
        failures += _sweep_totals(info)
    return failures, info


def _check_enumerate(op: Op, out, info: dict) -> str | None:
    code, _ = out
    cls, n, count = op.expect
    if code != 0:
        return f"exit code {code}"
    path = op.args[0][-1]
    with open(path, "rb") as fh:
        data = fh.read()
    info[f"sha256 {cls}/{n}"] = hashlib.sha256(data).hexdigest()
    lines = data.decode("ascii").splitlines()
    if len(lines) != count:
        return f"{len(lines)} lines, expected {count}"
    if len(set(lines)) != len(lines):
        return "repeated lines"
    gcls = GraphClass.from_string(cls)
    for line in lines:
        g = graph6_decode(line)
        if g.n != n or not member(g, gcls):
            return f"line {line!r} is not an order-{n} {cls} graph"
    return None


def _is_witness(line, order: int, cls: GraphClass, k: int, i: int, j: int) -> bool:
    g = graph6_decode(line)
    return g.n == order and member(g, cls) and ramsey_check(g, k, i, j).neither


def _check_verify(op: Op, out, info: dict) -> str | None:
    code, text = out
    cls_name, k, i, j, claimed, outcome = op.expect
    cls = GraphClass.from_string(cls_name)
    report = json.loads(text.strip().splitlines()[-1])
    if code != (0 if outcome == CONFIRMED else 1):
        return f"exit code {code} for outcome {outcome}"
    if report["confirmed"] != (outcome == CONFIRMED) or report["order"] != claimed:
        return f"report {report} for outcome {outcome}"
    if outcome == CONFIRMED or outcome == NO_LOWER_WITNESS:
        if not report["all_pass"] or report["counterexamples"]:
            return "unexpected counterexamples"
    if outcome == CONFIRMED:
        if not _is_witness(report["lower_witness"], claimed - 1, cls, k, i, j):
            return f"lower witness {report['lower_witness']!r} does not validate"
    elif outcome == NO_LOWER_WITNESS:
        if report["lower_witness"] is not None:
            return "unexpected lower witness"
    else:
        found = report["counterexamples"]
        if report["all_pass"] or len(found) != outcome or len(set(found)) != len(found):
            return f"{len(found)} counterexamples, expected {outcome}"
        if not all(_is_witness(line, claimed, cls, k, i, j) for line in found):
            return "a counterexample does not validate"
    return None


def _check_sweep(op: Op, out, info: dict) -> str | None:
    query = op.args[0]
    if op.entry == "defective_ramsey":
        if out.status not in ("exact", "bounds", "conjectured") or not out.lo <= out.hi:
            return f"malformed value {out}"
        if out.value is not None and not out.lo <= out.value <= out.hi:
            return f"value outside its bounds: {out}"
        info["grid exact cells"] = info.get("grid exact cells", 0) + out.is_exact
        return None
    if out is None:
        return None
    info["witnesses"] = info.get("witnesses", 0) + 1
    value = defective_ramsey(query)
    if not value.is_exact or out.n != value.value - 1:
        return f"witness of order {out.n} for value {value}"
    if not member(out, query.cls):
        return f"witness is not a {query.cls.value} graph"
    return None


def _sweep_totals(info: dict) -> list[str]:
    failures = []
    if info.get("grid exact cells", 0) != GRID_EXACT:
        failures.append(f"grid: {info.get('grid exact cells', 0)} exact cells, "
                        f"expected {GRID_EXACT}")
    if info.get("witnesses", 0) != SWEEP_WITNESSES:
        failures.append(f"sweep: {info.get('witnesses', 0)} witnesses, "
                        f"expected {SWEEP_WITNESSES}")
    return failures


def _check_hunt(op: Op, out, info: dict) -> str | None:
    code, text = out
    if code != 1:
        return f"exit code {code}, output {text.strip()!r}: no witness exists at this order"
    return None

"""Command-line surface.

Exit codes: 0 success/confirmed, 1 refuted or counterexample found,
2 usage error, 3 budget or domain refusal, 141 standard output closed
before everything was written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from functools import partial

from .classes import GraphClass, member
from .defects import alpha_k, ramsey_check
from .enumeration import BudgetError, enumerate_class, verify_value
from .formulas import RamseyQuery, cg_inequality, defective_ramsey
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .graphs import DomainError, Graph, bits, complement
from .hunt import DEFAULT_HUNT_BUDGET, hunt_witness
from .witnesses import witness_for

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_PIPE = 141  # stdout closed early; what a shell reports for SIGPIPE


def _load_graphs(arg: str) -> list[Graph]:
    """Interpret the argument as a file of graph6 lines if it names a
    file, else as a single graph6 line; an error says which it was."""
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="ascii") as fh:
                lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
        except (OSError, UnicodeDecodeError) as exc:
            raise Graph6Error(f"cannot read file {arg!r}: {exc}") from None
        source = f"file {arg!r}"
    else:
        lines = [arg]
        source = f"no file {arg!r} exists, so it was read as a graph6 line"
    try:
        return [graph6_decode(ln) for ln in lines]
    except Graph6Error as exc:
        raise Graph6Error(f"{source}: {exc}") from None


def _set_str(mask: int) -> str:
    return "{" + ",".join(str(v) for v in bits(mask)) + "}"


def _cmd_formula(args, emit) -> int:
    value = defective_ramsey(RamseyQuery(args.cls, args.k, args.i, args.j))
    emit(json.dumps(value.to_json()) if args.json else str(value))
    return EXIT_OK


def _cmd_alpha(args, emit) -> int:
    results = []
    for g in _load_graphs(args.graph):
        target = complement(g) if args.dense else g
        size, witness = alpha_k(target, args.k)
        results.append({"order": g.n, "alpha": size, "witness": _set_str(witness)})
    if args.json:
        emit(json.dumps(results))
    else:
        kind = "dense" if args.dense else "sparse"
        for r in results:
            emit(f"max {kind} set, k={args.k}: {r['alpha']} {r['witness']}")
    return EXIT_OK


def _cmd_check(args, emit) -> int:
    found_counterexample = False
    results = []
    for g in _load_graphs(args.graph):
        rep = ramsey_check(g, args.k, args.i, args.j)
        if rep.neither:
            found_counterexample = True
        results.append(rep)
    if args.json:
        emit(json.dumps([{
            "has_dense": r.has_dense, "has_sparse": r.has_sparse,
            "dense_witness": _set_str(r.dense_witness) if r.has_dense else None,
            "sparse_witness": _set_str(r.sparse_witness) if r.has_sparse else None,
        } for r in results]))
    else:
        for r in results:
            parts = []
            if r.has_dense:
                parts.append(f"dense witness {_set_str(r.dense_witness)}")
            if r.has_sparse:
                parts.append(f"sparse witness {_set_str(r.sparse_witness)}")
            emit("; ".join(parts) if parts else "neither (counterexample)")
    return EXIT_REFUTED if found_counterexample else EXIT_OK


def _cmd_witness(args, emit) -> int:
    g = witness_for(RamseyQuery(args.cls, args.k, args.i, args.j))
    if g is None:
        print("no construction for this cell (open, conjectured, or unconstructed)",
              file=sys.stderr)
        return EXIT_REFUSED
    emit(graph6_encode(g))
    return EXIT_OK


def _cmd_enumerate(args, emit) -> int:
    for g in enumerate_class(args.cls, args.n, args.budget, args.workers):
        emit(graph6_encode(g))
    return EXIT_OK


def _cmd_verify(args, emit) -> int:
    report = verify_value(args.cls, args.k, args.i, args.j, args.claimed,
                          args.budget, args.workers)
    if args.json:
        emit(json.dumps(report.to_json()))
    else:
        emit(f"examined {report.examined} good graphs in {report.elapsed:.2f}s")
        if report.confirmed:
            emit(f"confirmed: value {args.claimed} for "
                 f"{args.cls.value} k={args.k} i={args.i} j={args.j}")
        elif not report.all_pass:
            emit(f"refuted: counterexamples at order {args.claimed}: "
                 + " ".join(report.counterexamples))
        else:
            emit(f"refuted: no witness graph at order {args.claimed - 1}, "
                 f"the true value is smaller")
    return EXIT_OK if report.confirmed else EXIT_REFUTED


def _cmd_hunt(args, emit) -> int:
    g = hunt_witness(args.cls, args.k, args.i, args.j, args.n,
                     budget=args.hunt_budget, seed=args.seed)
    if g is None:
        emit("no witness found (proves nothing)")
        return EXIT_REFUTED
    emit(graph6_encode(g))
    return EXIT_OK


def _cmd_classify(args, emit) -> int:
    for g in _load_graphs(args.graph):
        names = [c.value for c in GraphClass if c is not GraphClass.ALL and member(g, c)]
        emit(json.dumps(names) if args.json else
              (",".join(names) if names else "(none)"))
    return EXIT_OK


def _cmd_cg_check(args, emit) -> int:
    verdict = cg_inequality(args.cls, args.k, args.i, args.j)
    emit(json.dumps({"verdict": verdict}) if args.json else verdict)
    if verdict == "holds":
        return EXIT_OK
    if verdict == "fails":
        return EXIT_REFUTED
    return EXIT_REFUSED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defram",
        description="defective Ramsey numbers in forests, cacti, bipartite, "
                    "split and cograph classes")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--budget", type=int, default=None,
                        help=f"enumeration order budget (default per class, "
                             f"env DEFRAM_BUDGET)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers for enumeration")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, with_class=True, kij=True):
        p = sub.add_parser(name, help=help_text)
        if with_class:
            p.add_argument("cls", metavar="class", type=GraphClass.from_string)
        if kij:
            p.add_argument("-k", type=int, required=True)
            p.add_argument("-i", type=int, required=True)
            p.add_argument("-j", type=int, required=True)
        p.set_defaults(func=fn)
        return p

    add("formula", _cmd_formula, "evaluate the closed-form value of a cell")

    p = add("alpha", _cmd_alpha, "largest k-sparse set of a graph",
            with_class=False, kij=False)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--dense", action="store_true",
                   help="measure the complement instead")
    p.add_argument("graph", help="graph6 line or file of graph6 lines")

    p = add("check", _cmd_check, "look for k-dense i / k-sparse j sets",
            with_class=False)
    p.add_argument("graph", help="graph6 line or file of graph6 lines")

    p = add("witness", _cmd_witness, "construct a validated extremal witness")
    p.add_argument("--out", dest="out", default=None)

    p = add("enumerate", _cmd_enumerate, "all class members of one order, "
            "one per isomorphism class", kij=False)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--out", dest="out", default=None)

    p = add("verify", _cmd_verify, "re-derive a value by exhaustive search")
    p.add_argument("--claimed", type=int, required=True)

    p = add("hunt", _cmd_hunt, "stochastic witness search at a fixed order")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--hunt-budget", type=int, default=DEFAULT_HUNT_BUDGET)
    p.add_argument("--seed", type=int, default=0)

    p = add("classify", _cmd_classify, "which classes a graph belongs to",
            with_class=False, kij=False)
    p.add_argument("graph", help="graph6 line or file of graph6 lines")

    add("cg-check", _cmd_cg_check,
        "compare the shifted defective value with the classical one")
    return parser


# One parser per process: each holds reference cycles that only the GC frees
_PARSER = build_parser()


def run_cli(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    out_path = getattr(args, "out", None)
    sink = io.StringIO() if out_path else None  # None: the current sys.stdout
    try:
        if args.workers < 1:
            raise DomainError(f"workers must be >= 1, got {args.workers}")
        code = args.func(args, partial(print, file=sink))
    except Graph6Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    if out_path and sink.getvalue():
        try:
            with open(out_path, "w", encoding="ascii") as fh:
                fh.write(sink.getvalue())
        except OSError as exc:
            print(f"error: cannot write file {out_path!r}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    return code


def main() -> None:
    try:
        code = run_cli()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()

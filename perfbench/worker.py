"""One pass of one workload in a fresh process, so caches start cold.

Started by run.py; prints one JSON object on its last stdout line with
the set-up time, the timed wall time (plain, and on the reference clock
of speed.py), peak RSS, the operation and failure counts and, when
traced, the per-layer spans.  ``--probe`` stops right before the first
timed call and reports the set-up time only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from speed import ReferenceClock
from tracer import Tracer, package_modules

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Primitives of the graphs layer run per step of inner loops; only the
# constructor that hunt calls per move is traced there.
TRACE_ONLY = {"graphs": {"make_graph"}}


def clear_caches(modules) -> None:
    """Empty every lru_cache of the program, as a new process has them."""
    for mod in modules:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                obj.cache_clear()


def run_pass(ops, clock: ReferenceClock, tracer=None) -> tuple[float, float, list]:
    """Run the operations; return (plain wall seconds, reference seconds,
    outputs).  Only the calls themselves are timed."""
    import defram.cli

    entries = {"run_cli": defram.cli.run_cli,
               "defective_ramsey": defram.formulas.defective_ramsey,
               "witness_for": defram.witnesses.witness_for}
    if tracer is not None:
        entries = {name: tracer.wrap(fn) for name, fn in entries.items()}
    modules = package_modules("defram")
    outputs, wall_s, ref_s = [], 0.0, 0.0
    for op in ops:
        if op.cold:
            clear_caches(modules)
            if tracer is not None:
                tracer.forget_arguments()
        fn = entries[op.entry]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            wall0, ref0 = clock.now()
            try:
                result = fn(*op.args)
            except Exception as exc:  # a failed operation, reported by the check
                result = exc
            wall1, ref1 = clock.now()
        wall_s += wall1 - wall0
        ref_s += ref1 - ref0
        if op.entry == "run_cli" and not isinstance(result, Exception):
            result = (result, out.getvalue())
        outputs.append(result)
    return wall_s, ref_s, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    clock = ReferenceClock()
    # interpreter start-up ran before the clock: count it at the first probe's speed
    before_clock = (time.monotonic() - args.t0) * clock.scale
    with clock:
        sys.path.insert(0, SRC)
        import defram
        import workloads
        if os.path.dirname(os.path.abspath(defram.__file__)) != os.path.join(SRC, "defram"):
            raise SystemExit(f"defram imported from {defram.__file__}, not from {SRC}")

        rng = random.Random(f"{args.workload}:{args.seed}:{args.pass_index}")
        ops = workloads.make_ops(args.workload, rng, args.tmp)
        tracer = Tracer("defram", TRACE_ONLY, clock.reference) if args.trace else None
        setup_s = before_clock + clock.now()[1]
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:
            with tracer:
                wall_s, ref_s, outputs = run_pass(ops, clock, tracer)
        else:
            wall_s, ref_s, outputs = run_pass(ops, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, info = workloads.check(args.workload, ops, outputs)
    result = {
        "setup_s": setup_s, "wall_s": wall_s, "ref_wall_s": ref_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops), "failed": len(failures), "failures": failures[:20],
        "info": info,
    }
    if tracer is not None:
        result["root_s"] = tracer.root_s
        result["layers"] = {name: {slot: getattr(st, slot) for slot in st.__slots__}
                            for name, st in tracer.layers.items()}
        result["patched"] = tracer.patched
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""defram benchmark: drives the program from outside, through the entry
points users call, and checks every output (see README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Closed loop, one client: each pass over the workload's operations runs in
a fresh worker process, serially; passes repeat while the next one is
expected to end within ``--seconds`` (at least one).  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` also
runs one traced pass and reports its per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("enumerate", "verify", "sweep", "hunt")
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, seed: int, pass_index: int, tmp: str,
          trace: int = 0, probe: bool = False) -> dict:
    """Run one worker process to completion and return its JSON result."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--pass-index", str(pass_index), "--tmp", tmp, "--trace", str(trace)]
    if probe:
        argv.append("--probe")
    t0 = time.monotonic()  # system-wide clock, read again by the worker
    try:
        proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S}s: {argv}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {argv}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest() -> str:
    """sha256 over the program's source files, names and contents."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fresh_process_per_pass": True,
        "caches_cleared_before_each_cli_call": True,
    }


def layer_metrics(traced: dict, untraced_wall: float, layer_map: dict, workload: str):
    """Per-layer metric values of one traced pass, and the layers that
    recorded no calls."""
    values = {"trace.wall_s": traced["root_s"],
              "trace.overhead_s": traced["root_s"] - untraced_wall}
    zero = []
    for layer, st in traced["layers"].items():
        values[f"{layer}.calls"] = st["calls"]
        values[f"{layer}.busy_s"] = st["busy_s"]
        values[f"{layer}.self_s"] = st["self_s"]
        if not st["calls"]:
            zero.append(layer)
    for layer, ratio, hits, base in (("canon", "repeat_frac", "repeats", "cached_calls"),
                                     ("classes", "accept_frac", "accepted", "bool_results"),
                                     ("defects", "neither_frac", "neither", "reports")):
        st = traced["layers"].get(layer, {})
        values[f"{layer}.{ratio}"] = st[hits] / st[base] if st.get(base) else 0.0
    unexpected = [layer for layer in zero
                  if workload not in layer_map.get(layer, {}).get("predicted_zero_on", [])]
    values["trace.zero_call_layers"] = len(zero)
    return values, zero, unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "defram", "__init__.py")):
        print(f"error: no defram sources under {ROOT}/src", file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)["layers"]

    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        passes, measured = [], 0.0
        while not passes or measured + measured / len(passes) <= args.seconds:
            passes.append(spawn(args.workload, args.seed, len(passes), tmp))
            measured += passes[-1]["wall_s"]
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, 0, tmp, probe=True)["setup_s"])
        traced = spawn(args.workload, args.seed, 0, tmp, trace=1) if args.trace else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run is using it

    runs = passes + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    wall = statistics.median(p["ref_wall_s"] for p in passes)
    values = {"ref_wall_s": wall, "setup_s": statistics.median(setups),
              "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    print(f"env: {json.dumps(environment(args), sort_keys=True)}")
    print(f"passes: {len(passes)}; per pass, plain wall_s: "
          + ", ".join(f"{p['wall_s']:.4f}" for p in passes)
          + "; ref_wall_s: " + ", ".join(f"{p['ref_wall_s']:.4f}" for p in passes)
          + "; setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    print(f"operations: {attempted} attempted, {failed} failed, "
          f"fail_frac {failed / attempted:.6f}")
    for r in runs:
        for message in r["failures"]:
            print(f"FAILED: {message}")
    for key, value in sorted(passes[0]["info"].items()):
        print(f"info: {key}: {value}")

    if traced:
        layer_values, zero, unexpected = layer_metrics(traced, wall, layer_map, args.workload)
        values.update(layer_values)
        self_sum = sum(st["self_s"] for st in traced["layers"].values())
        print(f"trace: ref_wall_s {traced['ref_wall_s']:.4f}, root spans {traced['root_s']:.4f}, "
              f"layer self_s sum {self_sum:.4f}, {len(traced['patched'])} wrapped imports")
        print("trace: layers with zero calls: " + (", ".join(zero) or "none"))
        for layer in unexpected:
            print(f"WARNING: layer {layer} recorded no calls on {args.workload}, "
                  f"where layers.json predicts calls: was an entry point renamed?")
        for layer in sorted(set(traced["layers"]) - set(layer_map)):
            print(f"WARNING: layer {layer} is not in layers.json")
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:  # its layer is gone from the program
            print(f"WARNING: no layer reports {m['name']}; reported as 0")
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: the traced counts repeat exactly, the
layer self times add up, and the metric lists agree with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q     (about two minutes)
"""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import defram.canon  # noqa: E402
import defram.cli  # noqa: E402
import defram.enumeration  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402
from worker import TRACE_ONLY  # noqa: E402

RATIOS = ("canon.repeat_frac", "classes.accept_frac", "defects.neither_frac")


def traced_pass(workload: str, seed: int, tmp) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--pass-index", "0", "--tmp", str(tmp), "--trace", "1",
            "--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["enumerate", "verify", "sweep", "hunt"])
def test_traced_counts_repeat_exactly(workload, tmp_path):
    from run import layer_metrics

    runs = [traced_pass(workload, 7, tmp_path) for _ in range(2)]
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)["layers"]
    values = [layer_metrics(r, r["ref_wall_s"], layer_map, workload)[0] for r in runs]
    counted = [name for name in values[0] if name.endswith(".calls")]
    assert counted and any(values[0][name] for name in counted)
    for name in counted + list(RATIOS):
        assert values[0][name] == values[1][name], name
    for r in runs:
        assert r["failed"] == 0, r["failures"]
        self_sum = sum(st["self_s"] for st in r["layers"].values())
        assert self_sum == pytest.approx(r["root_s"], rel=1e-6)
        # the root spans are the timed calls, timed by the same clock
        assert r["root_s"] == pytest.approx(r["ref_wall_s"], rel=0.02)
    wanted = {m["name"] for m in spec()["per_layer"]}
    assert wanted <= set(values[0]), wanted - set(values[0])


def test_layer_map_covers_every_module():
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)["layers"]
    layers = {m.__name__.split(".", 1)[1] for m in package_modules("defram")}
    assert set(layer_map) == layers
    per_layer = {m["name"] for m in spec()["per_layer"]}
    for layer, entry in layer_map.items():
        assert set(entry["metrics"]) <= per_layer, layer
        assert {f"{layer}.calls", f"{layer}.busy_s", f"{layer}.self_s"} <= per_layer


def test_tracer_wraps_cross_module_imports_and_restores_them():
    original = defram.enumeration._canon
    tracer = Tracer("defram", TRACE_ONLY)
    with tracer:
        assert defram.enumeration._canon is not original          # lru_cache wrapper
        assert "defram.enumeration -> defram.canon._canon" in tracer.patched
        assert not any(p.endswith("graphs.bits") for p in tracer.patched)
        defram.canon._canon.cache_clear()
        tracer.forget_arguments()
        with redirect_stdout(io.StringIO()):
            assert tracer.wrap(defram.cli.run_cli)(["enumerate", "forest", "-n", "6"]) == 0
    assert defram.enumeration._canon is original
    layers = tracer.layers
    assert layers["cli"].calls == 1 and layers["enumeration"].calls == 1
    assert layers["canon"].calls > 0 and layers["graph6"].calls == 20   # A005195(6)
    assert layers["canon"].busy_s <= layers["enumeration"].busy_s <= layers["cli"].busy_s
    assert sum(st.self_s for st in layers.values()) == pytest.approx(tracer.root_s)
    assert layers["cli"].busy_s == pytest.approx(tracer.root_s)

import os
import subprocess
import sys
from pathlib import Path

import pytest

import defram

DEMOS = Path(__file__).resolve().parent.parent / "demos"
ARGS = {"value_table.py": ["2"], "witness_hunt.py": ["0", "200"]}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(defram.__file__)))
    proc = subprocess.run([sys.executable, str(DEMOS / name), *ARGS.get(name, [])],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

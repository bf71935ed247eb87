"""The demos run end to end.  Demo 05 (about a minute) is left out; its load
path is covered by the C7 acceptance test and test_loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("name", [
    "01_quorums_and_witness_sets.py",
    "02_faultless_runs.py",
    "03_equivocation_and_alerts.py",
    "04_probabilistic_agreement.py",
])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

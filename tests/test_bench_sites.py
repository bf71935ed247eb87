"""The benchmark tracer (bench/tracer.py) wraps functions at fixed module
bindings and aborts a traced benchmark run if one is missing; installing it
here turns a refactor that drops a binding into a test failure."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_every_patch_site():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import tracer; tracer.Tracer().install()")
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "bench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

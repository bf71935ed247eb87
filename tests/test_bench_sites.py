"""The benchmark tracer (bench/tracer.py) wraps functions at fixed module
bindings and aborts a traced benchmark run if one is missing; installing it
here turns a refactor that drops a binding into a test failure.  The
benchmark's self-test runs every workload at a tiny size, traced and
untraced, so a change to a call shape the tracer's hooks read (such as the
stability oracle's event) fails here too, not only in the benchmark."""

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


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]

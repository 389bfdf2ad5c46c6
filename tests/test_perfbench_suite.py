"""The benchmark's own tests (references and checkers under `perfbench/`)
pass against the source tree, so a library change that breaks a
checker's use of it fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tests_pass():
    run = subprocess.run([sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]

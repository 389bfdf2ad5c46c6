"""The benchmark's own tests (references and checkers under `perfbench/`)
pass against the source tree, so a library change that breaks a
checker's use of it fails here too; and every workload's tracer patches
apply and come off, so a library change that moves a wrapped function or
method off the module or class that names it fails here, not only in a
traced benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in a fresh interpreter: the workloads import `harness` from
# perfbench/ and patch the library while the tracer is active
INSTRUMENT = """
import importlib, sys
from pathlib import Path
sys.path[:0] = ["perfbench", "src"]
import harness
for path in sorted(Path("perfbench").glob("wl_*.py")):
    tracer = harness.Tracer()
    importlib.import_module(path.stem).Workload().instrument(tracer)
    with tracer.active():  # looks every wrapped name up in its owner's __dict__
        pass
    print(path.name)
"""


def test_perfbench_tests_pass():
    run = subprocess.run([sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]


def test_every_workload_instruments_the_library():
    run = subprocess.run([sys.executable, "-c", INSTRUMENT], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    assert run.stdout.split() == sorted(p.name for p in (ROOT / "perfbench").glob("wl_*.py"))

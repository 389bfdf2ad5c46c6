"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload mc-cultures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run from any directory of a source checkout; pollsim is imported from its
``src`` directory.  Each workload prints its metrics by name and unit, then
as the last line of standard output one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in its own process and ends with
one JSON object holding each workload's result.  A traced run also
writes its spans and timers to ``perfbench/out/<workload>-seed<seed>.trace.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = {
    "mc-cultures": "wl_mc",
    "worked-examples": "wl_worked",
    "perturbed-dynamics": "wl_perturbed",
    "chaotic-words": "wl_chaotic",
}


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser


def _run_all(args) -> int:
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if not (SRC / "pollsim" / "__init__.py").is_file() or not (ROOT / "tests" / "data").is_dir():
        print(f"error: no pollsim source checkout around {BENCH}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import harness

    workload = importlib.import_module(WORKLOADS[args.workload]).Workload()
    trace_path = BENCH / "out" / f"{args.workload}-seed{args.seed}.trace.json"
    result = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace), SRC, trace_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Round loop, timers and result assembly shared by the workloads.

A workload is a closed loop with a single caller: it repeats one round of
the same operations until the run's time is used up.  Each round times its
program calls in named parts; the checks run outside the parts.  A
workload's ``check`` returns the round's problems and the number of its
operations that they touch, which the run reports as ``failed``.

Tracing wraps public functions and methods of the program with
accumulating timers that record self time (a call's duration minus the
part covered by wrapped calls it made) and call counts.  In a traced run
the rounds alternate untraced and traced, so the same process also gives
the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4  # two traced and two untraced
SETUP_REPEATS = 5

# per-layer metrics: name -> unit; the order is the order in BENCHMARK.json
PER_LAYER = {
    "cultures.sample_us.impartial": "us",
    "cultures.sample_us.spatial_low_d": "us",
    "cultures.sample_us.spatial_d400": "us",
    "cultures.resamples": "count",
    "majority.duel_us": "us",
    "majority.condorcet_us": "us",
    "dynamics.graph_us": "us",
    "dynamics.classify_us": "us",
    "dynamics.graphs_built": "count",
    "experiments.table_csv_us": "us",
    "experiments.pool_speedup": "ratio",
    "electorate_io.parse_us": "us",
    "electorate_io.format_us": "us",
    "electorate_io.dot_us": "us",
    "continuous.step_us": "us",
    "continuous.outcome_us": "us",
    "continuous.embedded_step_us": "us",
    "continuous.view_us": "us",
    "continuous.periodic_search_s": "s",
    "continuous.gate_closed_steps": "count",
    "continuous.stale_gate_segments": "count",
    "cli.grid_s": "s",
    "behaviors.planar_step_us": "us",
    "behaviors.planar_winner_us": "us",
    "behaviors.tent_letter_ns": "ns",
    "wordstats.winners_word_self_s": "s",
    "wordstats.ks_profile_s": "s",
    "wordstats.fit_us": "us",
    "wordstats.period_s": "s",
    "trace_overhead_s": "s",
}


class Tracer:
    """Accumulating self-time timers around wrapped callables."""

    def __init__(self):
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.phase = None
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, key, adapt=None, inclusive=False):
        """Replace ``owner.attr`` by a timed wrapper while active.  ``key``
        is the metric name, or a callable of the current phase and the
        call's arguments that returns one (None leaves the call's time to
        its caller's self time).  ``adapt`` maps the original callable to
        the one that is timed in its place.  ``inclusive`` records the whole
        duration instead of the self time."""
        self._patches.append((owner, attr, key, adapt, inclusive))

    @contextmanager
    def active(self):
        originals = []
        try:
            for owner, attr, key, adapt, inclusive in self._patches:
                orig = owner.__dict__[attr]
                originals.append((owner, attr, orig))
                setattr(owner, attr, self._timed(adapt(orig) if adapt else orig, key, inclusive))
            yield self
        finally:
            for owner, attr, orig in reversed(originals):
                setattr(owner, attr, orig)

    def _timed(self, fn, key, inclusive):
        stack, clock = self._stack, time.perf_counter
        tracer = self

        def timed(*args, **kwargs):
            name = key(tracer.phase, args) if callable(key) else key
            if name is None:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                tracer.time[name] += dt if inclusive else dt - child
                tracer.calls[name] += 1

        return timed

    @contextmanager
    def in_phase(self, phase):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def per_call(self, name, scale=1e6):
        """Mean self time per call, scaled (1e6 gives microseconds)."""
        calls = self.calls.get(name, 0)
        return self.time[name] / calls * scale if calls else 0.0


class Parts:
    """Wall time of the named program parts of one round, in total and
    per entry into the part."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.samples = defaultdict(list)
        self.spans = []  # (name, start, end) on the perf_counter clock

    @contextmanager
    def part(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.seconds[name] += t1 - t0
            self.samples[name].append(t1 - t0)
            self.spans.append((name, t0, t1))

    @property
    def total(self):
        return sum(self.seconds.values())


def import_seconds(src_dir) -> float:
    """Median wall time of ``import pollsim`` in fresh interpreters."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import pollsim; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code, str(src_dir)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def write_trace(path, workload, seed, tracer, rounds, t_start) -> None:
    """The traced run's spans and timers, kept in memory until the end."""
    doc = {
        "workload": workload.name,
        "seed": seed,
        "rounds": [
            {"round": r, "traced": r % 2 == 1,
             "spans": [{"name": n, "start_s": a - t_start, "end_s": b - t_start} for n, a, b in p.spans]}
            for r, p in enumerate(rounds)
        ],
        "timers": {name: {"self_s": tracer.time[name], "calls": tracer.calls[name]} for name in tracer.time},
    }
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc) + "\n")


def run_workload(workload, seed: int, seconds: float, trace: bool, src_dir, trace_path) -> dict:
    """Set up, run rounds for ``seconds``, check, and return the result.
    A traced run also writes its spans and timers to ``trace_path``."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_seconds(src_dir) + statistics.median(setup_times)

    tracer = Tracer()
    if trace:
        workload.instrument(tracer)
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    rounds, traced_rounds, all_rounds, problems = [], [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    walls = []  # whole rounds, checks included
    r = 0
    # stop when another typical round would end past the run length
    while r < min_rounds or time.perf_counter() - t_start + statistics.median(walls) <= seconds:
        t_round = time.perf_counter()
        gc.collect()
        parts = Parts()
        traced = trace and r % 2 == 1
        if traced:
            with tracer.active():
                out = workload.run_round(r, parts, tracer)
            traced_rounds.append(parts)
        else:
            out = workload.run_round(r, parts, None)
            rounds.append(parts)
        all_rounds.append(parts)
        attempted += workload.ops_per_round
        round_problems, round_failed = workload.check(r, out)
        problems += round_problems
        failed += round_failed
        walls.append(time.perf_counter() - t_round)
        r += 1
    problems += workload.finish()

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if trace:
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(workload.layer_metrics(tracer, traced_rounds))
        metrics["trace_overhead_s"] = (
            statistics.median(p.total for p in traced_rounds) - statistics.median(p.total for p in rounds)
        )
        units = PER_LAYER
        write_trace(trace_path, workload, seed, tracer, all_rounds, t_start)
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "round_s": statistics.median(p.total for p in rounds),
        }
        units = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s"}
        for name, value, unit in workload.part_metrics(rounds):
            print(f"{workload.name}: {name} = {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{workload.name}: {name} = {value:.6g} {units[name]}")
    print(f"{workload.name}: {len(all_rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def median_rate(rounds, part, work):
    """Median over rounds of ``work`` units per second of one part."""
    return statistics.median(work / p.seconds[part] for p in rounds)


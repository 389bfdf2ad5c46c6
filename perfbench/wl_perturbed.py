"""perturbed-dynamics: the continuous-state poll dynamics.

A round runs four parts, all of them ``ContinuousDynamics.step``:

* ``continuous``: 192 orbit segments of 125 steps of the perturbed two-bloc
  dynamics (p = 0.85, margin 0.04) from random starts in the unit square,
  cycling through the three fallbacks, each on a dynamics object of its
  own built before the part's timer starts;
* ``embedded``: orbits of the discrete lift (``embed_discrete``) of the
  ``lr_cycle`` and ``consensual_loser`` electorates from every extreme
  state;
* ``region``: the verification of acceptance criterion 07 (A1 <-> A2 on
  50 x 50 grids under every fallback, second-iterate contraction on 200
  sampled pairs, ``find_periodic_orbit`` of period 2);
* ``grid``: ``pollsim grid --model twobloc`` run in-process.

The parts are sized to take comparable shares of the round.  The margin
gate of ``perturbed_dynamics`` keeps a memo that can carry a stale answer
from one step to the next (see ``checks.two_bloc_orbit``); a segment on a
fresh dynamics object starts with an empty memo, so the check can tell a
stale answer from a wrong gate.  The region check uses its own dynamics
objects, as criterion 07 does.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import statistics

import numpy as np

from pollsim import cli, continuous, presets
from pollsim.continuous import ContinuousDynamics, Fallback, TwoShareView, sup_distance

import checks
import reference
from harness import median_rate

SEGMENTS = 192
SEGMENT_STEPS = 125
EMBEDDED_STEPS = 8
REGION_GRID = 50  # points a side of the A1 and A2 grids
CONTRACTION_PAIRS = 200
GRID_ARGS = ["grid", "--model", "twobloc", "--res", "30", "--iters", "8"]
GRID_ROWS = 30 * 30 * 9


def _step_key(phase, args):
    return "continuous.embedded_step_us" if phase == "embedded" else "continuous.step_us"


def _outcome_key(phase, args):
    return None if phase == "embedded" else "continuous.outcome_us"


class Workload:
    name = "perturbed-dynamics"

    def setup(self, seed):
        self.seed = seed
        rng = np.random.default_rng(seed)
        fallbacks = list(Fallback)
        keep = presets.two_bloc_dynamics()
        self.view = presets.two_bloc_view(keep)
        # where x and z sit in a state's shares: the {a, b} ballot of X and of Z
        names = [t.name for t in keep.electorate.types]
        self.xz_slots = [(names.index(n), keep.admissible[names.index(n)].index(frozenset("ab"))) for n in "XZ"]
        self.starts = [(fallbacks[k % 3], rng.random(), rng.random()) for k in range(SEGMENTS)]
        self.region_maps = {fb: presets.two_bloc_dynamics(fallback=fb) for fb in fallbacks}
        self.pairs = [(presets.sample_region_a1(rng), presets.sample_region_a1(rng))
                      for _ in range(CONTRACTION_PAIRS)]
        self.lifts = []
        for electorate in (presets.lr_cycle_electorate(), presets.consensual_loser_electorate()):
            dyn = continuous.embed_discrete(electorate)
            names = [t.name for t in electorate.types]
            starts = [dyn.extreme_state(dict(zip(names, combo))) for combo in itertools.product(*dyn.admissible)]
            self.lifts.append((dyn, starts, reference.successor_table(*checks.electorate_input(electorate))))
        self.ops_per_round = SEGMENTS + sum(len(s) for _, s, _ in self.lifts) + 2
        self.first_lift = None
        self.closed, self.stale = [], []

    def run_round(self, r, parts, tracer):
        phase = tracer.in_phase if tracer else (lambda name: contextlib.nullcontext())
        # a dynamics object per segment: its gate memo is empty at the first
        # step, which checks.two_bloc_orbit relies on
        maps = [presets.two_bloc_dynamics(fallback=fb) for fb, _, _ in self.starts]
        with parts.part("continuous"):
            # keep each state's shares, not the state: the caller holds only
            # the current state, as an orbit loop does
            segments = []
            for dyn, (_, x, z) in zip(maps, self.starts):
                s = self.view.state(x, z)
                orbit = [tuple(p.shares for p in s)]
                for _ in range(SEGMENT_STEPS):
                    s = dyn.step(s)
                    orbit.append(tuple(p.shares for p in s))
                segments.append(orbit)
        with parts.part("embedded"), phase("embedded"):
            lifted = []
            for dyn, starts, _ in self.lifts:
                ends = []
                for s in starts:
                    for _ in range(EMBEDDED_STEPS):
                        s = dyn.step(s)
                    ends.append(s)
                lifted.append(ends)
        with parts.part("region"):
            region = self._region_check()
        with parts.part("grid"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(GRID_ARGS)
        return segments, lifted, region, (code, buf.getvalue())

    def _region_check(self):
        """Criterion 07: images of the A1 and A2 grids, contraction ratios
        and the period-2 orbit."""
        view = presets.two_bloc_view(self.region_maps[Fallback.KEEP])
        a1 = [view.state(x, z) for x, z in presets.region_a1_grid(REGION_GRID)]
        a2 = [view.state(x, z) for x, z in presets.region_a2_grid(REGION_GRID)]
        images = {}
        for fb, dyn in self.region_maps.items():
            v = presets.two_bloc_view(dyn)
            images[fb] = ([v.coords(dyn.step(s)) for s in a1], [v.coords(dyn.step(s)) for s in a2])
        dyn = self.region_maps[Fallback.KEEP]
        ratios = []
        for p, q in self.pairs:
            s, t = view.state(*p), view.state(*q)
            ratios.append(sup_distance(dyn.step(dyn.step(s)), dyn.step(dyn.step(t))) / sup_distance(s, t))
        found = continuous.find_periodic_orbit(
            dyn, lambda rng: view.state(*presets.sample_region_a1(rng)), period=2, seed=self.seed)
        return images, ratios, found

    def check(self, r, out):
        """A segment, a lift orbit, the region check and the grid fail when
        any check of theirs fails.  Stale gate steps are counted apart:
        how many segments they hit changes from run to run."""
        segments, lifted, region, grid = out
        problems, failed, closed, stale = [], 0, 0, 0
        (ix, jx), (iz, jz) = self.xz_slots
        for (fb, _, _), orbit in zip(self.starts, segments):
            seg_problems = checks.simplex([shares for state in orbit for shares in state])
            more, seg_closed, seg_stale = checks.two_bloc_orbit(
                [(state[ix][jx], state[iz][jz]) for state in orbit], fb.value)
            seg_problems += more
            problems += seg_problems
            failed += bool(seg_problems)
            closed += seg_closed
            stale += seg_stale > 0
        self.closed.append(closed)
        self.stale.append(stale)
        for found in (*self._check_lifts(lifted), self._check_region(*region), self._check_grid(*grid)):
            problems += found
            failed += bool(found)
        return problems, failed

    def _check_lifts(self, lifted):
        """The problems of each lift orbit: in the first round its outcomes
        must follow the discrete successors, later it must repeat."""
        ends = [end for orbits in lifted for end in orbits]
        if self.first_lift is not None:
            return [[] if end == first else ["embedded orbit differs from round 0"]
                    for end, first in zip(ends, self.first_lift)]
        self.first_lift = ends
        found, ends = [], iter(ends)
        for dyn, starts, table in self.lifts:
            for s in starts:
                pairs, problems = [], []
                for _ in range(EMBEDDED_STEPS):
                    out = dyn.outcome(s)
                    pairs.append((out.winner, out.runner_up))
                    s = dyn.step(s)
                for a, b in zip(pairs, pairs[1:]):
                    if table[a] != b:
                        problems.append(f"lift goes {a} -> {b}, discrete successor {table[a]}")
                if s != next(ends):
                    problems.append("embedded orbit ends elsewhere when run again")
                found.append(problems)
        return found

    def _check_region(self, images, ratios, found):
        problems = []
        for fb, (from_a1, from_a2) in images.items():
            if not all(presets.in_region_a2(*xz) for xz in from_a1):
                problems.append(f"{fb.value}: image of A1 leaves A2")
            if not all(presets.in_region_a1(*xz) for xz in from_a2):
                problems.append(f"{fb.value}: image of A2 leaves A1")
        if max(ratios) > 0.15 ** 2 + 1e-9:
            problems.append(f"second-iterate contraction {max(ratios)} > 0.15^2")
        if found is None or sorted(found.winners) != ["a", "c"]:
            problems.append(f"2-cycle winners {found and found.winners}, expected a and c")
        return problems

    @staticmethod
    def _check_grid(code, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        problems = [] if code == 0 and len(rows) == GRID_ROWS else [f"grid: exit {code}, {len(rows)} rows"]
        for row in rows:
            x, z = float(row["x"]), float(row["z"])
            scores = dict(zip("abc", reference.two_bloc_scores(x, z)))
            best = max(scores.values())
            if not (0 <= x <= 1 and 0 <= z <= 1) or best - scores[row["winner"]] > checks.TIE:
                problems.append(f"grid row {row}: winner inconsistent with scores {scores}")
        return problems

    def finish(self):
        return []

    def part_metrics(self, rounds):
        steps_emb = sum(len(s) for _, s, _ in self.lifts) * EMBEDDED_STEPS
        return [
            ("continuous_steps_per_s", median_rate(rounds, "continuous", SEGMENTS * SEGMENT_STEPS), "steps/s"),
            ("embedded_steps_per_s", median_rate(rounds, "embedded", steps_emb), "steps/s"),
            ("region_check_s", statistics.median(p.seconds["region"] for p in rounds), "s"),
            ("grid_points_per_s", median_rate(rounds, "grid", GRID_ROWS), "points/s"),
        ]

    def instrument(self, tracer):
        tracer.wrap(ContinuousDynamics, "step", _step_key)
        tracer.wrap(ContinuousDynamics, "outcome", _outcome_key)
        tracer.wrap(TwoShareView, "state", "continuous.view_us")
        tracer.wrap(TwoShareView, "coords", "continuous.view_us")
        tracer.wrap(continuous, "find_periodic_orbit", "continuous.periodic_search_s", inclusive=True)
        tracer.wrap(cli, "main", "cli.grid_s")

    def layer_metrics(self, tracer, rounds):
        n = len(rounds)
        out = {name: tracer.per_call(name) for name in (
            "continuous.step_us", "continuous.outcome_us", "continuous.embedded_step_us", "continuous.view_us",
        )}
        out["continuous.periodic_search_s"] = tracer.time["continuous.periodic_search_s"] / n
        out["cli.grid_s"] = tracer.time["cli.grid_s"] / n
        out["continuous.gate_closed_steps"] = statistics.mean(self.closed)
        out["continuous.stale_gate_segments"] = statistics.mean(self.stale)
        return out

"""mc-cultures: the paper's Monte Carlo culture table, serially and with
two worker processes.

A round runs ``run_table`` over the 10 conditions of the culture table
(6 candidates, 20 types; impartial and spatial d = 1, 2, 3, 400; LR and
MLR) and over the three robustness cells (3c/10t and 8c/20t LR impartial,
8c/20t MLR spatial d = 1), once with ``n_jobs=1`` and once with
``n_jobs=2``.  Every round draws fresh trials: its culture seed is derived
from the run seed and the round index.
"""

from __future__ import annotations

import random
import statistics

from pollsim import experiments
from pollsim.cultures import CultureKind, CultureSpec, sample_spatial_electorate
from pollsim.majority import median_candidate
from pollsim.strategies import Strategy

import checks
import reference
from harness import median_rate

IMP, SPA = CultureKind.IMPARTIAL, CultureKind.SPATIAL
LR, MLR = Strategy.LEADER_RULE, Strategy.MODIFIED_LEADER_RULE

# The paper's table as bounds on the true rates, in percent:
# (kind, strategy, d, candidates, types) -> (Condorcet-winner rate, bad rate).
# None where the paper gives no figure to compare with.
PAPER = {
    (IMP, LR, 0, 6, 20): ((68, 72), (0.8, 1.8)),
    (SPA, LR, 1, 6, 20): ((100, 100), (0, 0)),
    (SPA, LR, 2, 6, 20): ((88, 92), (0, 0.6)),
    (SPA, LR, 3, 6, 20): ((85, 89), (0, 0.6)),
    (SPA, LR, 400, 6, 20): ((83, 87), (0, 0.6)),
    (IMP, MLR, 0, 6, 20): ((73, 77), (5.1, 7.5)),
    (SPA, MLR, 1, 6, 20): ((90, 94), (13.5, 16.5)),
    (SPA, MLR, 2, 6, 20): ((87, 91), None),
    (SPA, MLR, 3, 6, 20): ((86, 90), None),
    (SPA, MLR, 400, 6, 20): ((85, 89), (2.2, 3.8)),
    (IMP, LR, 0, 3, 10): (None, (0, 0)),
    (IMP, LR, 0, 8, 20): (None, (1.2, 2.8)),
    (SPA, MLR, 1, 8, 20): (None, (17.5, 22.5)),
}
TRIALS = 128  # per condition; two chunks of 64, one per worker
SUBSAMPLE = 2  # trials per condition and round checked against the reference
Z_CHECK = 5.0  # Wilson z for the comparison with the paper


def _key(spec):
    return spec.kind, spec.strategy, spec.dimension, spec.n_candidates, spec.n_types


def _culture_label(spec):
    if spec.kind is IMP:
        return "cultures.sample_us.impartial"
    return "cultures.sample_us.spatial_d400" if spec.dimension > 3 else "cultures.sample_us.spatial_low_d"


class Workload:
    name = "mc-cultures"
    ops_per_round = 2 * TRIALS * len(PAPER)

    def setup(self, seed):
        self.seed = seed
        self.totals = {key: [0, 0, 0] for key in PAPER}  # trials, with CW, bad
        self.resamples = 0

    def specs(self, r):
        culture_seed = self.seed * 7919 + r
        return [
            CultureSpec(kind, nc, nt, strategy, seed=culture_seed, dimension=d)
            for (kind, strategy, d, nc, nt) in PAPER
        ]

    def run_round(self, r, parts, tracer):
        specs = self.specs(r)
        with parts.part("serial"):
            serial = experiments.run_table(specs, TRIALS, n_jobs=1)
            serial_csv = experiments.table_csv(serial)
        with parts.part("pool"):
            pool = experiments.run_table(specs, TRIALS, n_jobs=2)
            pool_csv = experiments.table_csv(pool)
        return specs, serial, serial_csv, pool_csv

    def check(self, r, out):
        """A condition's trials fail, in its serial run or in its two-worker
        run, when any check of that run fails."""
        specs, serial, serial_csv, pool_csv = out
        counts = [(res.n_trials, res.n_condorcet, res.n_bad) for res in serial]
        rows = checks.mc_csv(serial_csv, pool_csv, counts)
        rng = random.Random(f"{self.seed}/{r}")
        problems, failed = [], 0
        for spec, result, (serial_problems, pool_problems) in zip(specs, serial, rows):
            key = _key(spec)
            tot = self.totals[key]
            tot[0] += result.n_trials
            tot[1] += result.n_condorcet
            tot[2] += result.n_bad
            if key[:3] == (SPA, LR, 1) and (result.n_condorcet != result.n_trials or result.n_bad):
                serial_problems.append(f"spatial d=1 LR: {result.n_condorcet} CW and {result.n_bad} bad "
                                       f"of {result.n_trials} trials")
            if key == (IMP, LR, 0, 3, 10) and result.n_bad:
                serial_problems.append(f"impartial 3-candidate LR: {result.n_bad} bad trials")
            for i in rng.sample(range(TRIALS), SUBSAMPLE):
                serial_problems += self._check_trial(spec, i)
            problems += serial_problems + pool_problems
            failed += TRIALS * (bool(serial_problems) + bool(pool_problems))
        return problems, failed

    def _check_trial(self, spec, i):
        problems = []
        electorate = experiments.sample_electorate(spec, i)
        names, types = checks.electorate_input(electorate)
        want = reference.trial_outcome(names, types)
        got = experiments.trial_outcome(spec, i)
        if got != want:
            problems.append(f"{_key(spec)} trial {i}: trial_outcome {got}, reference {want}")
        if spec.kind is SPA:
            sampled, model = sample_spatial_electorate(spec, i)
            if sampled != electorate:
                problems.append(f"{_key(spec)} trial {i}: the two samplers disagree")
            problems += checks.l1_ordered(sampled, model)
            if spec.dimension == 1 and spec.strategy is LR:
                cw = reference.condorcet_winner(names, types)
                near = reference.median_nearest(
                    {c: p[0] for c, p in model.candidate_positions.items()},
                    {t: p[0] for t, p in model.type_positions.items()},
                    {t.name: t.weight for t in sampled.types},
                )
                _, mu = median_candidate(model, sampled)
                if not cw == near == mu:
                    problems.append(f"d=1 trial {i}: CW {cw}, median nearest {near}, median_candidate {mu}")
        return problems

    def finish(self):
        problems = []
        for key, (cw_band, bad_band) in PAPER.items():
            n, n_cw, n_bad = self.totals[key]
            if cw_band is not None:
                problems += checks.rate_agrees(f"{key} CW rate", n_cw, n, cw_band, Z_CHECK)
            if bad_band is not None and n_cw:
                problems += checks.rate_agrees(f"{key} bad rate", n_bad, n_cw, bad_band, Z_CHECK)
        return problems

    def part_metrics(self, rounds):
        trials = TRIALS * len(PAPER)
        return [
            ("mc_trials_per_s", median_rate(rounds, "serial", trials), "trials/s"),
            ("mc_pool_trials_per_s", median_rate(rounds, "pool", trials), "trials/s"),
        ]

    def instrument(self, tracer):
        def counting(sample):
            def sample_electorate(spec, trial_index):
                stats = {}
                electorate = sample(spec, trial_index, stats=stats)
                self.resamples += stats.get("resamples", 0)
                return electorate
            return sample_electorate

        tracer.wrap(experiments, "sample_electorate", lambda phase, args: _culture_label(args[0]), counting)
        tracer.wrap(experiments, "duel_matrix", "majority.duel_us")
        tracer.wrap(experiments, "condorcet_analysis", "majority.condorcet_us")
        tracer.wrap(experiments, "build_polling_graph", "dynamics.graph_us")
        tracer.wrap(experiments, "classify", "dynamics.classify_us")
        tracer.wrap(experiments, "table_csv", "experiments.table_csv_us")

    def layer_metrics(self, tracer, rounds):
        n = len(rounds)
        out = {name: tracer.per_call(name) for name in (
            "cultures.sample_us.impartial", "cultures.sample_us.spatial_low_d",
            "cultures.sample_us.spatial_d400", "majority.duel_us", "majority.condorcet_us",
            "dynamics.graph_us", "dynamics.classify_us", "experiments.table_csv_us",
        )}
        out["cultures.resamples"] = self.resamples / n
        out["dynamics.graphs_built"] = tracer.calls["dynamics.graph_us"] / n
        out["experiments.pool_speedup"] = statistics.median(
            p.seconds["serial"] / p.seconds["pool"] for p in rounds
        )
        return out

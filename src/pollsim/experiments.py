"""Monte Carlo experiment harness: frequency of Condorcet winners and of
bad cycles/equilibria per culture condition.

Each trial is seeded independently from (seed, trial_index), and results
merge by commutative addition, so counts are identical for any worker
count or scheduling order.
"""

from __future__ import annotations

import io
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .cultures import CultureKind, CultureSpec, sample_electorate, sample_slice
from .dynamics import _successors, build_polling_graph, classify
from .majority import condorcet_analysis, duel_matrix, duel_tensor

Z95 = 1.959964


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one observation")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    phat = successes / n
    z2 = Z95 * Z95
    denom = 1 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = (Z95 / denom) * sqrt(phat * (1 - phat) / n + z2 / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class ConditionResult:
    spec: CultureSpec
    n_trials: int
    n_condorcet: int
    n_bad: int
    runtime_s: float = field(compare=False)

    @property
    def cw_rate(self) -> float:
        return self.n_condorcet / self.n_trials

    @property
    def bad_rate(self) -> float | None:
        if self.n_condorcet == 0:
            return None
        return self.n_bad / self.n_condorcet

    def cw_interval(self) -> tuple[float, float]:
        return wilson_interval(self.n_condorcet, self.n_trials)

    def bad_interval(self) -> tuple[float, float] | None:
        if self.n_condorcet == 0:
            return None
        return wilson_interval(self.n_bad, self.n_condorcet)


def trial_outcome(spec: CultureSpec, trial_index: int) -> tuple[bool, bool]:
    """(condorcet winner exists, dynamics is bad) for one sampled electorate."""
    electorate = sample_electorate(spec, trial_index)
    duel = duel_matrix(electorate)
    report = condorcet_analysis(electorate, duel=duel)
    if report.condorcet_winner is None:
        return False, False
    graph = build_polling_graph(electorate, report=report)
    dyn = classify(graph, report)
    return True, bool(dyn.is_bad)


_SLICE = 64  # trials per stacked evaluation in `_count_range`; bounds its arrays, and larger was no faster


def _count_range(args: tuple[CultureSpec, int, int]) -> tuple[int, int]:
    """(Condorcet winners, bad trials) over trials ``start .. stop - 1``.

    The batched kernel behind `run_table`; `trial_outcome` is its per-trial
    reference.  Each slice of at most ``_SLICE`` trials is drawn by
    `sample_slice` (the same streams and draws as `sample_electorate`,
    seeded together and sorted as one array) and then evaluated as
    stacked arrays: the duel tensor, the weak Condorcet winner (a row of
    ``D > D.T`` with n - 1 wins) and the successor table of every trial
    that has one.  Squaring the flat successor map ceil(log2 n^2) times
    maps every state past its tail, so the image of the n(n - 1) states is
    the union of the cycles, and the trial is bad when some image state
    elects another candidate.
    """
    spec, start, stop = args
    n = spec.n_candidates
    states = np.flatnonzero(np.arange(n * n) % (n + 1))  # w * n + r with w != r
    n_cw = n_bad = 0
    for lo in range(start, stop, _SLICE):
        d = duel_tensor(*sample_slice(spec, lo, min(lo + _SLICE, stop)))
        top = (d > d.transpose(0, 2, 1)).sum(axis=2) == n - 1
        has_cw = top.any(axis=1)
        cw = top[has_cw].argmax(axis=1)
        w1, w2 = _successors(d[has_cw])
        f = (w1 * n + w2).reshape(len(cw), n * n)
        for _ in range((n * n - 1).bit_length()):
            f = np.take_along_axis(f, f, axis=1)
        n_cw += len(cw)
        n_bad += int((f[:, states] // n != cw[:, None]).any(axis=1).sum())
    return n_cw, n_bad


def _timed_range(args: tuple[CultureSpec, int, int]) -> tuple[int, int, float]:
    """`_count_range` and the seconds it took in the worker."""
    t0 = time.perf_counter()
    n_cw, n_bad = _count_range(args)
    return n_cw, n_bad, time.perf_counter() - t0


def run_table(specs: list[CultureSpec], n_trials: int, n_jobs: int = 1) -> list[ConditionResult]:
    """One result per condition.  With ``n_jobs > 1`` the trials of all
    conditions run in chunks through one map on one worker pool; a
    condition's runtime is the sum of its chunks' worker seconds."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if n_jobs < 1:
        raise ValueError(f"need at least one job, got {n_jobs}")
    chunk = n_trials if n_jobs == 1 else max(64, n_trials // (4 * n_jobs))
    starts = range(0, n_trials, chunk)
    tasks = [(spec, lo, min(lo + chunk, n_trials)) for spec in specs for lo in starts]
    with ProcessPoolExecutor(max_workers=n_jobs) if n_jobs > 1 else nullcontext() as pool:
        counts = list((map if pool is None else pool.map)(_timed_range, tasks))
    results = []
    for k, spec in enumerate(specs):
        rows = counts[k * len(starts):(k + 1) * len(starts)]
        n_cw, n_bad, seconds = map(sum, zip(*rows))
        results.append(ConditionResult(spec, n_trials, n_cw, n_bad, seconds))
    return results


def run_condition(spec: CultureSpec, n_trials: int, n_jobs: int = 1) -> ConditionResult:
    return run_table([spec], n_trials, n_jobs)[0]


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def table_csv(results: list[ConditionResult]) -> str:
    """Deterministic CSV: byte-identical for identical counts regardless
    of worker count or run (runtimes are deliberately not included)."""
    buf = io.StringIO()
    buf.write(
        "culture,d,strategy,n_candidates,n_types,n_trials,"
        "cw_rate,cw_low,cw_high,bad_rate,bad_low,bad_high,seed\n"
    )
    for r in results:
        spec = r.spec
        d = "" if spec.kind is CultureKind.IMPARTIAL else str(spec.dimension)
        cw_low, cw_high = r.cw_interval()
        if r.n_condorcet > 0:
            bad_low, bad_high = r.bad_interval()
            bad_cells = [_fmt(r.bad_rate), _fmt(bad_low), _fmt(bad_high)]
        else:
            bad_cells = ["", "", ""]
        row = [
            spec.kind.value,
            d,
            spec.strategy.value,
            str(spec.n_candidates),
            str(spec.n_types),
            str(r.n_trials),
            _fmt(r.cw_rate),
            _fmt(cw_low),
            _fmt(cw_high),
            *bad_cells,
            str(spec.seed),
        ]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()

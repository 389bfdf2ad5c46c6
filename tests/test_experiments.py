import pytest

from pollsim import CultureKind, CultureSpec, run_condition, run_table, table_csv, wilson_interval
from pollsim import experiments
from pollsim.experiments import trial_outcome
from pollsim.strategies import Strategy


def test_wilson_interval_reference_widths():
    low, high = wilson_interval(15000, 100000)
    assert (high - low) / 2 <= 0.0023
    assert low < 0.15 < high
    low, high = wilson_interval(300, 100000)
    assert (high - low) / 2 <= 0.0004
    low, high = wilson_interval(7, 7)
    assert high == 1.0
    low, high = wilson_interval(0, 10)
    assert low == 0.0


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def _spec(seed=0, strategy=Strategy.LEADER_RULE):
    return CultureSpec(CultureKind.IMPARTIAL, 4, 8, strategy, seed=seed)


def test_run_condition_counts():
    r = run_condition(_spec(seed=2), 300)
    assert 0 <= r.n_bad <= r.n_condorcet <= r.n_trials == 300
    assert r.cw_rate == r.n_condorcet / 300
    assert r.runtime_s > 0


def test_parallel_matches_serial():
    spec = _spec(seed=5)
    r1 = run_condition(spec, 400, n_jobs=1)
    # worker seconds differ from run to run and stay out of equality
    assert run_condition(spec, 400, n_jobs=1) == r1
    assert run_condition(spec, 400, n_jobs=2) == r1
    assert run_condition(spec, 400, n_jobs=4) == r1


def test_trial_prefix_stability():
    # widening the trial count never changes earlier per-trial outcomes
    spec = _spec(seed=9)
    outcomes_small = [trial_outcome(spec, i) for i in range(100)]
    outcomes_large = [trial_outcome(spec, i) for i in range(200)]
    assert outcomes_large[:100] == outcomes_small


def test_table_csv_shape_and_determinism():
    specs = [
        _spec(seed=1),
        CultureSpec(CultureKind.SPATIAL, 4, 8, Strategy.MODIFIED_LEADER_RULE, seed=1, dimension=2),
    ]
    rows1 = run_table(specs, 150, n_jobs=1)
    rows2 = run_table(specs, 150, n_jobs=3)
    csv1, csv2 = table_csv(rows1), table_csv(rows2)
    assert csv1 == csv2
    lines = csv1.strip().split("\n")
    assert lines[0].startswith("culture,d,strategy,")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "impartial"
    assert lines[2].split(",")[1] == "2"
    assert lines[1].split(",")[1] == ""  # impartial has no dimension
    assert csv1.endswith("\n") and "\r" not in csv1


def test_run_table_opens_one_pool(monkeypatch):
    class CountingPool:
        opened = 0

        def __init__(self, max_workers):
            CountingPool.opened += 1

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    specs = [_spec(seed=s) for s in range(3)]
    serial = run_table(specs, 200, n_jobs=1)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    pooled = run_table(specs, 200, n_jobs=2)
    assert CountingPool.opened == 1
    assert pooled == serial
    assert all(r.runtime_s > 0 for r in pooled)
    run_condition(specs[0], 200, n_jobs=2)
    assert CountingPool.opened == 2

"""The continuous-state access that perfbench's perturbed-dynamics
workload relies on: per-type `.shares` aligned with `dynamics.admissible`,
`extreme_state` over every combination of admissible ballots, the
`TwoShareView` state/coords round trip and its unit-square check, and
equal states when a lift is run again."""

import itertools
import math

import numpy as np
import pytest

from pollsim import embed_discrete
from pollsim.presets import consensual_loser_electorate, lr_cycle_electorate, two_bloc_dynamics, two_bloc_view

LIFTS = [embed_discrete(consensual_loser_electorate()), embed_discrete(lr_cycle_electorate())]


def test_shares_align_with_admissible_ballots():
    dyn = two_bloc_dynamics()
    names = [t.name for t in dyn.electorate.types]
    s = two_bloc_view(dyn).state(0.25, 0.625)
    assert [len(point.shares) for point in s] == [len(ballots) for ballots in dyn.admissible]
    for name, v in (("X", 0.25), ("Z", 0.625)):
        i = names.index(name)
        j = dyn.admissible[i].index(frozenset("ab"))
        assert s[i].shares[j] == v and s[i].shares[1 - j] == 1.0 - v
    for name in "YW":
        assert s[names.index(name)].shares == (1.0,)


def test_extreme_states_over_every_ballot_combination():
    for dyn in LIFTS:
        names = [t.name for t in dyn.electorate.types]
        combos = list(itertools.product(*dyn.admissible))
        states = [dyn.extreme_state(dict(zip(names, combo))) for combo in combos]
        for combo, state in zip(combos, states):
            assert [point.shares for point in state] == [
                tuple(float(b == ballot) for b in ballots) for ballot, ballots in zip(combo, dyn.admissible)
            ]
        assert len(set(states)) == len(combos)


def test_view_state_coords_round_trip():
    dyn = two_bloc_dynamics()
    view = two_bloc_view(dyn)
    names = [t.name for t in dyn.electorate.types]
    assert [view.x, view.z] == [(names.index(n), dyn.admissible[names.index(n)].index(frozenset("ab"))) for n in "XZ"]
    rng = np.random.default_rng(0)
    for _ in range(2000):
        x, z = rng.random(), rng.random()
        assert view.coords(view.state(x, z)) == (x, z)


@pytest.mark.parametrize("x, z", [(0.5, 1.5), (-0.1, 0.5), (0.5, -1e-12), (1.0 + 1e-12, 0.5),
                                  (math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5)])
def test_view_state_rejects_coords_outside_the_unit_square(x, z):
    view = two_bloc_view(two_bloc_dynamics())
    with pytest.raises(ValueError, match="not in the unit square"):
        view.state(x, z)


def test_view_state_accepts_the_unit_square_corners():
    view = two_bloc_view(two_bloc_dynamics())
    for x, z in itertools.product((0.0, 1.0), repeat=2):
        assert view.coords(view.state(x, z)) == (x, z)


def test_lift_states_equal_when_run_again():
    for dyn in LIFTS:
        names = [t.name for t in dyn.electorate.types]
        starts = [dyn.extreme_state(dict(zip(names, combo))) for combo in itertools.product(*dyn.admissible)]
        ends = []
        for _ in range(2):
            run = []
            for s in starts:
                for _ in range(8):
                    s = dyn.step(s)
                run.append(s)
            ends.append(run)
        assert ends[0] == ends[1]
        assert any(dyn.step(s) != s for s in starts)

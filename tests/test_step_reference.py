"""`ContinuousDynamics.step` against a plain reference blend: every type
moves the fraction p = rate(outcome) of its voters to the unit point of
its strategy ballot, p * unit + q * shares slot by slot, and a type
already at its target keeps its shares (at p < 1; at p = 1 every type
lands on the unit point).  The reference reads the target ballot from the
strategies, not from the dynamics' target table, and the shares must be
equal bit for bit."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pollsim import Fallback, PollState, ballot_for, embed_discrete
from pollsim.presets import consensual_loser_electorate, lr_cycle_electorate, two_bloc_dynamics, two_bloc_view

LIFTS = [embed_discrete(consensual_loser_electorate()), embed_discrete(lr_cycle_electorate())]

unit = st.floats(0.0, 1.0)


def reference_step(dyn, state):
    out = dyn.outcome(state)
    p = dyn.rate(out)
    q = 1.0 - p
    poll = PollState(out.winner, out.runner_up)
    shares = []
    for t, ballots, point in zip(dyn.electorate.types, dyn.admissible, state):
        j = ballots.index(ballot_for(t.preference, poll))
        if p < 1.0 and point.shares[j] == 1.0:
            shares.append(point.shares)
            continue
        target = [0.0] * len(ballots)
        target[j] = 1.0
        shares.append(tuple(p * u + q * s for u, s in zip(target, point.shares)))
    return shares


def assert_steps_match_reference(dyn, state, n):
    for _ in range(n):
        want = reference_step(dyn, state)
        state = dyn.step(state)
        assert [point.shares for point in state] == want


@settings(deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from(list(Fallback)), unit, unit, st.integers(1, 8))
def test_two_bloc_step_matches_reference_blend(p, fallback, x, z, n):
    dyn = two_bloc_dynamics(p=p, fallback=fallback)
    assert_steps_match_reference(dyn, two_bloc_view(dyn).state(x, z), n)


@st.composite
def lift_state(draw):
    """A lift and a state of it: per type, integer weights on the
    admissible ballots, normalized."""
    dyn = draw(st.sampled_from(LIFTS))
    vectors = []
    for ballots in dyn.admissible:
        weights = draw(st.lists(st.integers(0, 4), min_size=len(ballots), max_size=len(ballots)))
        weights[draw(st.integers(0, len(ballots) - 1))] += 1
        vectors.append([w / sum(weights) for w in weights])
    return dyn, dyn.state_from_vectors(vectors)


@settings(deadline=None)
@given(lift_state(), st.integers(1, 6))
def test_lift_step_matches_reference_blend(case, n):
    dyn, state = case
    assert_steps_match_reference(dyn, state, n)

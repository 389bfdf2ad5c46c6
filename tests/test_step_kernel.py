"""The step kernel behind `ContinuousDynamics.step`, `advance` and `winner`
against the reference path (`outcome`, then `rate`, then `_move`): the
same winner and the same shares bit for bit.  Random electorates with
integer weights and dyadic shares make exact score ties, so the
tie-break order is exercised; a gate whose threshold is a pairwise margin
of the start's scores sits exactly on it, where ``>=`` opens; every
fallback is drawn; and a gate of threshold 0, whose closed rate equals its
open one, stands for a constant rate."""

from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pollsim import (
    CandidateSet,
    ContinuousDynamics,
    Electorate,
    Fallback,
    MarginGate,
    Preference,
    VoterType,
    embed_discrete,
    perturbed_dynamics,
)
from pollsim.presets import two_bloc_dynamics, two_bloc_view
from pollsim.strategies import Strategy

rates = st.sampled_from([1.0, 0.85, 0.5, 0.3, 0.1]) | st.floats(0.0, 1.0, exclude_min=True)


def _dense(raw):
    levels = sorted(set(raw))
    return tuple(levels.index(r) for r in raw)


@st.composite
def electorates(draw):
    n = draw(st.integers(2, 4))
    cs = CandidateSet(tuple("abcd"[:n]))
    types = []
    for i in range(draw(st.integers(1, 5))):
        pref = Preference(cs, _dense(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))
        strategies = [Strategy.MODIFIED_LEADER_RULE] + [Strategy.LEADER_RULE] * pref.tie_free
        weight = float(draw(st.integers(0, 4)))
        types.append(VoterType(f"T{i}", pref, weight, draw(st.sampled_from(strategies))))
    assume(sum(t.weight for t in types) > 0)
    return Electorate(cs, tuple(types))


@st.composite
def dyadic_state(draw, dyn):
    """Per type, shares k / 2^m that sum to exactly 1."""
    vectors = []
    for ballots in dyn.admissible:
        den = 2 ** draw(st.integers(0, 3))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=len(ballots) - 1, max_size=len(ballots) - 1)))
        vectors.append([(b - a) / den for a, b in zip([0, *cuts], [*cuts, den])])
    return dyn.state_from_vectors(vectors)


def with_rate(dyn, rate):
    return ContinuousDynamics(dyn.electorate, dyn.admissible, dyn.targets, rate)


def bits(state):
    return [tuple(x.hex() for x in point.shares) for point in state]


def assert_kernel_matches_reference(dyn, state, n):
    for _ in range(n):
        out = dyn.outcome(state)
        want = dyn._move(state, out)
        w, nxt = dyn.advance(state)
        assert w == out.winner == dyn.winner(state)
        assert bits(nxt) == bits(want) == bits(dyn.step(state))
        state = nxt


@settings(deadline=None, max_examples=300)
@given(electorates(), st.sampled_from(list(Fallback)), rates, st.data())
def test_gate_on_a_margin_of_the_start(electorate, fallback, p, data):
    dyn = perturbed_dynamics(electorate, p, 0.0, fallback)
    state = data.draw(dyadic_state(dyn))
    margins = sorted(abs(a - b) for a, b in combinations(dyn.scores(state).scores, 2))
    threshold = data.draw(st.sampled_from(margins))
    gated = with_rate(dyn, replace(dyn.rate, threshold=threshold))
    # at the smallest margin the gate sits exactly on its threshold
    assert gated.rate(gated.outcome(state)) == (p if threshold == margins[0] else gated.rate.closed)
    assert_kernel_matches_reference(gated, state, data.draw(st.integers(1, 4)))


@settings(deadline=None, max_examples=200)
@given(electorates(), st.sampled_from(list(Fallback)), rates, st.sampled_from([0.0, 0.04, 0.1, 0.25]), st.data())
def test_perturbed_dynamics_on_dyadic_states(electorate, fallback, p, margin, data):
    dyn = perturbed_dynamics(electorate, p, margin, fallback)
    assert_kernel_matches_reference(dyn, data.draw(dyadic_state(dyn)), data.draw(st.integers(1, 6)))


@settings(deadline=None, max_examples=200)
@given(electorates(), rates, st.data())
def test_constant_rates_on_dyadic_states(electorate, p, data):
    lift = embed_discrete(electorate)
    assert lift.rate == MarginGate(1.0, 0.0, 1.0)
    dyn = data.draw(st.sampled_from([lift, with_rate(lift, MarginGate(p, 0.0, p))]))
    assert_kernel_matches_reference(dyn, data.draw(dyadic_state(dyn)), data.draw(st.integers(1, 6)))


@settings(deadline=None)
@given(st.sampled_from(list(Fallback)), rates, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 8))
def test_two_bloc_kernel_matches_reference(fallback, p, x, z, n):
    dyn = two_bloc_dynamics(p=p, fallback=fallback)
    assert_kernel_matches_reference(dyn, two_bloc_view(dyn).state(x, z), n)


def test_named_rates_are_the_reference_rate():
    dyn = two_bloc_dynamics(p=0.85, margin=0.04, fallback=Fallback.HALF)
    assert dyn.rate == MarginGate(0.85, 0.04 * 12, 0.425)
    view = two_bloc_view(dyn)
    seen = set()
    for x in (0.0, 0.1, 0.5, 0.9, 1.0):
        for z in (0.0, 0.3, 0.9, 1.0):
            out = dyn.outcome(view.state(x, z))
            seen.add(dyn.rate(out))
            assert MarginGate(0.3, 0.0, 0.3)(out) == 0.3
    assert seen == {0.85, 0.425}


def test_a_rate_other_than_a_gate_is_refused():
    lift = embed_discrete(two_bloc_dynamics().electorate)
    with pytest.raises(TypeError, match="MarginGate"):
        with_rate(lift, lambda out: 0.5)

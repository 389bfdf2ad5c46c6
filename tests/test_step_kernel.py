"""The step kernel behind `ContinuousDynamics.step`, `advance` and `winner`
against the reference path (`outcome`, then `rate`, then `_move`): the
same winner and the same shares bit for bit.  Random electorates of 2 to
6 candidates and 1 to 8 types, with integer or real weights, sometimes a
candidate that no ballot approves (whose score is the bare ``0.0``), and
dyadic shares, some of them -0.0, make exact score ties, so the
tie-break order is exercised; a gate whose threshold is a pairwise margin
of the start's scores sits exactly on it, where ``>=`` opens; every
fallback is drawn; and a gate of threshold 0, whose closed rate equals its
open one, stands for a constant rate.  Dynamics of one shape share one
compiled kernel, which must keep each one's own values, and no name of
the electorate enters the kernel's source."""

from dataclasses import replace
from functools import lru_cache
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
from pollsim import continuous
from pollsim.presets import two_bloc_dynamics, two_bloc_view
from pollsim.strategies import Strategy

rates = st.sampled_from([1.0, 0.85, 0.5, 0.3, 0.1]) | st.floats(0.0, 1.0, exclude_min=True)
type_weights = st.integers(0, 4).map(float) | st.floats(0.0, 4.0)


def _dense(raw):
    levels = sorted(set(raw))
    return tuple(levels.index(r) for r in raw)


@st.composite
def electorates(draw):
    """2 to 6 candidates and 1 to 8 types.  With ``shunned``, the last
    candidate sits in every type's last tie-group, which no ballot
    approves."""
    n = draw(st.integers(2, 6))
    shunned = draw(st.booleans())
    cs = CandidateSet(tuple("abcdef"[:n]))
    types = []
    for i in range(draw(st.integers(1, 8))):
        raw = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        if shunned:
            raw[-1] = n - 1
        pref = Preference(cs, _dense(raw))
        strategies = [Strategy.MODIFIED_LEADER_RULE] + [Strategy.LEADER_RULE] * pref.tie_free
        types.append(VoterType(f"T{i}", pref, draw(type_weights), draw(st.sampled_from(strategies))))
    assume(sum(t.weight for t in types) > 0)
    return Electorate(cs, tuple(types))


@st.composite
def dyadic_state(draw, dyn):
    """Per type, shares k / 2^m that sum to exactly 1; with ``signed``,
    every zero share is -0.0."""
    signed = draw(st.booleans())
    vectors = []
    for ballots in dyn.admissible:
        den = 2 ** draw(st.integers(0, 3))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=len(ballots) - 1, max_size=len(ballots) - 1)))
        shares = [(b - a) / den for a, b in zip([0, *cuts], [*cuts, den])]
        vectors.append([-0.0 if signed and v == 0 else v for v in shares])
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


@settings(deadline=None, max_examples=100)
@given(electorates(), st.data())
def test_dynamics_of_one_shape_share_a_kernel_and_keep_their_own_values(electorate, data):
    base = perturbed_dynamics(electorate, 0.5, 0.0)
    weights = [data.draw(type_weights) for _ in electorate.types]
    assume(sum(weights) > 0)
    reweighted = replace(electorate, types=tuple(replace(t, weight=w) for t, w in zip(electorate.types, weights)))
    moved = data.draw(st.permutations(list(base.targets.values())))
    variants = [
        perturbed_dynamics(reweighted, data.draw(rates), data.draw(st.sampled_from([0.0, 0.1])),
                           data.draw(st.sampled_from(list(Fallback)))),
        perturbed_dynamics(electorate, data.draw(rates), 0.04, Fallback.HALF),
        ContinuousDynamics(electorate, base.admissible, dict(zip(base.targets, moved)), base.rate),
        embed_discrete(reweighted),
    ]
    state = data.draw(dyadic_state(base))
    for dyn in [base, *variants]:
        assert dyn.admissible == base.admissible
        assert dyn._winner.__code__ is base._winner.__code__
        assert_kernel_matches_reference(dyn, state, 4)


def test_two_bloc_builds_compile_once():
    before = continuous._compiled.cache_info()
    for k in range(192):
        two_bloc_dynamics(fallback=list(Fallback)[k % 3])
    after = continuous._compiled.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits - before.hits >= 191


ODD_CANDIDATES = ('a"', "b\\", "c)", "d#", "e\nf")
ODD_TYPES = ('Z"(', "Y\\n", "X)#", "W\n", 'V"""')


def test_names_never_enter_the_kernel_source(monkeypatch):
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(continuous, "compile", spy, raising=False)
    monkeypatch.setattr(continuous, "_compiled", lru_cache(maxsize=4)(continuous._compiled.__wrapped__))
    cs = CandidateSet(ODD_CANDIDATES)
    ranks = [(0, 1, 2, 3, 4), (4, 3, 0, 1, 2), (1, 0, 1, 2, 2), (2, 2, 2, 0, 1), (0, 0, 1, 1, 1)]
    strategies = [Strategy.LEADER_RULE] * 2 + [Strategy.MODIFIED_LEADER_RULE] * 3
    types = tuple(VoterType(name, Preference(cs, r), w, s)
                  for name, r, w, s in zip(ODD_TYPES, ranks, (3.0, 1.0, 2.5, 0.75, 4.0), strategies))
    electorate = Electorate(cs, types)
    for dyn in (perturbed_dynamics(electorate, 0.85, 0.04, Fallback.HALF), embed_discrete(electorate)):
        uniform = dyn.state_from_vectors([[1 / len(b)] * len(b) for b in dyn.admissible])
        extreme = dyn.extreme_state({t.name: b[-1] for t, b in zip(types, dyn.admissible)})
        for state in (uniform, extreme):
            assert_kernel_matches_reference(dyn, state, 6)
    assert len(sources) == 1  # both dynamics have one shape
    for source in sources:
        assert not any(name in source for name in ODD_CANDIDATES + ODD_TYPES)
        assert not set('"\\#') & set(source)


def test_a_one_type_electorate_and_a_candidate_no_ballot_approves():
    cs = CandidateSet(("a", "b", "c"))
    electorate = Electorate(cs, (VoterType("T", Preference(cs, (1, 0, 2)), 2.5, Strategy.LEADER_RULE),))
    for dyn in (perturbed_dynamics(electorate, 0.3, 0.0, Fallback.APPLY), embed_discrete(electorate)):
        assert dyn._terms[2] == ()  # c is last, so its score is the bare 0.0
        s = dyn.state_from_vectors([[-0.0] * (len(dyn.admissible[0]) - 1) + [1.0]])
        assert_kernel_matches_reference(dyn, s, 4)

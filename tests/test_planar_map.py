"""The planar map's configuration-specialized n-step run, and the
`winner`, `step`, `advance` and winners words that run it, against
`reference_winner` and `reference_step`, built on `scores` and `safety`,
bit for bit, on random configurations and states, including states where
two or three scores tie exactly."""

import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pollsim import (
    BScoreRule,
    LinearClamped,
    Normalization,
    RationalDecay,
    ReluctanceConfig,
    SafetyFunction,
    SafetyKind,
    build_planar_map,
    winners_word,
)
from pollsim.behaviors import PlanarReluctanceMap, _resolved_map

weights = st.floats(0.01, 20.0)
unit = st.floats(0.0, 1.0)
dyadic_unit = st.integers(0, 16).map(lambda k: k / 16)
dyadic_weight = st.integers(1, 64).map(lambda k: k / 4)


@st.composite
def collaborations(draw):
    if draw(st.booleans()):
        return LinearClamped(draw(st.floats(-5.0, 50.0)))  # kappa < 0 leaves [0, 1] above
    return RationalDecay(draw(st.floats(0.0, 100.0)))


@st.composite
def configs(draw, n_z, n_y, n_x, n_w, rule=None):
    return ReluctanceConfig(
        n_z, n_y, n_x, n_w,
        safety_fn=SafetyFunction(draw(st.sampled_from(list(SafetyKind))), draw(st.sampled_from(list(Normalization)))),
        collaboration=draw(collaborations()),
        b_score_rule=rule or draw(st.sampled_from(list(BScoreRule))),
    )


@st.composite
def random_cases(draw):
    config = draw(configs(draw(weights), draw(weights), draw(weights), draw(weights)))
    return config, (draw(unit), draw(unit))


@st.composite
def tied_cases(draw):
    """Dyadic weights and states, so every score is exact, with n_y or n_w
    chosen to tie a with b, a or b with c, or all three."""
    tie = draw(st.sampled_from(["ab", "ac", "bc", "abc"]))
    rule = draw(st.sampled_from(list(BScoreRule)))
    n_z, n_x, x, z = draw(dyadic_weight), draw(dyadic_weight), draw(dyadic_unit), draw(dyadic_unit)
    vb = n_z * z + (x if rule is BScoreRule.LITERAL else n_x)
    n_y = vb - n_z - n_x * x if tie in ("ab", "abc") else draw(dyadic_weight)
    assume(n_y > 0)
    va = n_z + n_y + n_x * x
    n_w = draw(dyadic_weight) if tie == "ab" else vb if tie == "bc" else va
    assume(n_w > 0)
    config = draw(configs(n_z, n_y, n_x, n_w, rule))
    scores = PlanarReluctanceMap(config).scores((x, z))
    assert all(scores["abc".index(p)] == scores["abc".index(q)] for p, q in zip(tie, tie[1:]))
    return config, (x, z)


def bits(state):
    return tuple(v.hex() for v in state)  # tells -0.0 from 0.0


def check(config, state):
    m = build_planar_map(config)
    want_w = m.reference_winner(state)
    want = bits(m.reference_step(state))
    w, nxt = _resolved_map(config)(state, 1)
    assert (w, bits(nxt)) == (want_w, want)
    assert m.winner(state) == want_w
    assert bits(m.step(state)) == want
    w, nxt = m.advance(state)
    assert (w, bits(nxt)) == (want_w, want)


@settings(deadline=None, max_examples=300)
@given(random_cases())
def test_resolved_map_equals_reference(case):
    check(*case)


@settings(deadline=None, max_examples=300)
@given(tied_cases())
def test_resolved_map_equals_reference_at_exact_ties(case):
    check(*case)


@settings(deadline=None)
@given(st.one_of(random_cases(), tied_cases()), st.integers(1, 200))
def test_resolved_orbit_equals_reference_orbit(case, n):
    config, start = case
    m = build_planar_map(config)
    state, ref, letters = start, start, []
    for _ in range(n):
        letters.append(m.reference_winner(ref))
        state, ref = m.step(state), m.reference_step(ref)
        assert bits(state) == bits(ref)
    word, end = _resolved_map(config)(start, n)
    assert (word, bits(end)) == ("".join(letters), bits(ref))
    assert m.winners_word(start, n) == winners_word(m, start, n).letters == word


@pytest.mark.parametrize("start", [(float("nan"), 0.5), (1.5, -3.0), (0.5, float("inf"))])
def test_a_start_outside_the_unit_square_is_refused(start):
    m = build_planar_map()
    with pytest.raises(ValueError, match="outside the unit square"):
        m.advance(start)
    with pytest.raises(ValueError, match="outside the unit square"):
        winners_word(m, start, 10)


def test_map_pickles_by_its_configuration():
    m = build_planar_map(ReluctanceConfig(b_score_rule=BScoreRule.LITERAL, collaboration=RationalDecay(3.0)))
    copy = pickle.loads(pickle.dumps(m))
    assert copy.config == m.config
    assert copy.advance((0.25, 0.75)) == m.advance((0.25, 0.75))


def test_a_collaboration_other_than_the_two_is_refused():
    with pytest.raises(TypeError, match="LinearClamped or RationalDecay"):
        ReluctanceConfig(collaboration=lambda t: 1.0 - 5.0 * t)


@pytest.mark.parametrize("kwargs", [
    {"n_z": float("nan")},
    {"n_x": float("inf")},
    {"n_w": 0.0},
    {"n_y": -1.0},
    {"collaboration": LinearClamped(float("nan"))},
    {"collaboration": LinearClamped(float("-inf"))},
    {"collaboration": RationalDecay(float("inf"))},
])
def test_a_non_finite_or_non_positive_parameter_is_refused(kwargs):
    with pytest.raises(ValueError, match="finite"):
        ReluctanceConfig(**kwargs)

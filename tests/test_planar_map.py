"""The planar map's configuration-specialized n-step run, and the
`winner`, `step`, `advance` and winners words that run it, against
`reference_winner` and `reference_step`, built on `scores` and `safety`,
bit for bit, on random configurations and states, including states where
two or three scores tie exactly and configurations near the chaotic
default one, whose orbits do not repeat an exact state.  The n-step run,
which writes the rest of an eventually periodic orbit's word by
repetition, is checked against n one-step `advance` calls on every
length around the point where it finds the cycle."""

import pickle
import random
import tracemalloc

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


def _two_case(weights, rule, norm):
    return ReluctanceConfig(*weights, safety_fn=SafetyFunction(SafetyKind.TWO_CASE, norm), b_score_rule=rule)


DEFAULT_WEIGHTS = (3.0, 1.0, 3.0, 5.0)
SCALED_WEIGHTS = (0.56, 0.08, 0.6, 0.81)
D, L = BScoreRule.DERIVED, BScoreRule.LITERAL
RAW, TOTAL = Normalization.RAW, Normalization.TOTAL_WEIGHT


@st.composite
def chaotic_cases(draw):
    """The default weights, each times a factor in [0.99, 1.01], under
    two-case safety and total normalization, from a start inside the
    square: near the chaotic default configuration, where an orbit does
    not repeat an exact state within `LONG` steps."""
    factor = st.floats(0.99, 1.01)
    config = _two_case([w * draw(factor) for w in DEFAULT_WEIGHTS], draw(st.sampled_from(list(BScoreRule))), TOTAL)
    inside = st.floats(0.05, 0.95)
    return config, (draw(inside), draw(inside))


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
@given(st.one_of(random_cases(), tied_cases(), chaotic_cases()), st.integers(1, 200))
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


# the chaotic-words benchmark's configurations whose orbits close on an
# exact float cycle; from (0.3, 0.7) the scaled derived/total one reaches
# its 22-cycle at state 472
PERIODIC = {
    "default-derived-raw": _two_case(DEFAULT_WEIGHTS, D, RAW),
    "default-literal-raw": _two_case(DEFAULT_WEIGHTS, L, RAW),
    "scaled-derived-raw": _two_case(SCALED_WEIGHTS, D, RAW),
    "scaled-derived-total": _two_case(SCALED_WEIGHTS, D, TOTAL),
    "scaled-literal-raw": _two_case(SCALED_WEIGHTS, L, RAW),
    "scaled-literal-total": _two_case(SCALED_WEIGHTS, L, TOTAL),
    # 1 - kappa * t >= 1 clamps to 1.0, so state 1 is the fixed point (1, 1),
    # found at state 2, the earliest the schedule allows
    "negative-kappa": ReluctanceConfig(collaboration=LinearClamped(-2.0)),
}


def _advance_orbit(config, start, n):
    """The letters of n one-step `advance` calls from ``start``, and the
    bits of the state after each of 0..n of them."""
    m = build_planar_map(config)
    letters, ends, state = [], [bits(start)], start
    for _ in range(n):
        w, state = m.advance(state)
        letters.append(w)
        ends.append(bits(state))
    return "".join(letters), ends


def _detection(ends):
    """The state at which a checkpoint at states 1, 2, 4, 8, ... first
    meets itself again, and the period, or None when no state from 1 on
    repeats among ``ends``.  With mu the first state that recurs and lam
    the period, that is the first checkpoint P >= max(mu, lam), met again
    at state P + lam."""
    seen = {}
    for t, b in enumerate(ends[1:], 1):
        if b in seen:
            mu, lam = seen[b], t - seen[b]
            return 1 << (max(mu, lam) - 1).bit_length(), lam
        seen[b] = t
    return None


LONG = 4096


def _check_around_detection(config, start, full_up_to=LONG):
    """Check ``run(start, n)`` against `advance` calls for n = 0..63, for
    n = LONG, and from the detection point on up to detection + 2 lam + 3;
    every n from 0 when that bound is at most ``full_up_to`` (the range
    from 0 costs the square of the detection point).  Returns what
    `_detection` found."""
    word, ends = _advance_orbit(config, start, LONG)
    found = _detection(ends)
    lengths = {LONG, *range(64)}
    if found is not None:
        checkpoint, lam = found
        detected = checkpoint + lam
        last = detected + 2 * lam + 3
        assert last <= LONG
        lengths |= set(range(0 if last <= full_up_to else detected - 3, last + 1))
    run = _resolved_map(config)
    for n in sorted(lengths):
        got, end = run(start, n)
        assert (got, bits(end)) == (word[:n], ends[n]), n
    return found


@settings(deadline=None, max_examples=60)
@given(st.one_of(random_cases(), tied_cases()))
def test_run_equals_one_step_advances_around_the_cycle_it_finds(case):
    _check_around_detection(*case, full_up_to=200)


@pytest.mark.parametrize("start", [(-0.0, 0.7), (0.0, 0.0), (1.0, 1.0), (0.3, 0.7)])
@pytest.mark.parametrize("name", PERIODIC)
def test_run_equals_one_step_advances_on_the_periodic_configurations(name, start):
    assert _check_around_detection(PERIODIC[name], start) is not None


@pytest.mark.parametrize("rule", list(BScoreRule))
def test_run_equals_one_step_advances_on_a_chaotic_orbit(rule):
    # the default weights under total normalization: no state repeats in
    # 4,096 steps, so the run steps every letter
    assert _check_around_detection(_two_case(DEFAULT_WEIGHTS, rule, TOTAL), (0.3, 0.7)) is None


def test_run_equals_one_step_advances_on_fixed_draws_near_the_chaotic_configuration():
    # ten fixed draws from the ranges of chaotic_cases: none repeats an
    # exact state in 4,096 steps, so the run steps every letter
    rng = random.Random(2801)
    for k in range(10):
        weights = [w * rng.uniform(0.99, 1.01) for w in DEFAULT_WEIGHTS]
        start = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        assert _check_around_detection(_two_case(weights, (D, L)[k % 2], TOTAL), start) is None


def test_a_fixed_point_word_is_written_without_a_list_slot_per_letter():
    # a letter-by-letter loop would hold 2^22 list slots (32 MiB); the
    # shortcut holds a few copies of the 4 MiB word
    run = _resolved_map(PERIODIC["default-derived-raw"])
    tracemalloc.start()
    try:
        word, end = run((0.3, 0.7), 2**22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (word[:3], len(word), set(word[2:]), end) == ("bac", 2**22, {"c"}, (0.0, 0.0))
    assert peak < 16 * 2**20


@pytest.mark.parametrize("start", [(float("nan"), 0.5), (1.5, -3.0), (0.5, float("inf"))])
def test_a_start_outside_the_unit_square_is_refused(start):
    m = build_planar_map()
    with pytest.raises(ValueError, match="outside the unit square"):
        m.advance(start)
    with pytest.raises(ValueError, match="outside the unit square"):
        winners_word(m, start, 10)


def test_a_negative_word_length_is_refused():
    m = build_planar_map()
    with pytest.raises(ValueError, match="n >= 0"):
        m.winners_word((0.5, 0.5), -3)
    assert m.winners_word((0.5, 0.5), 0) == ""


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


def test_a_negative_rational_steepness_is_refused():
    # 1 / (1 + lam t) has a pole at t = -1 / lam when lam < 0
    with pytest.raises(ValueError, match="lam must be non-negative"):
        ReluctanceConfig(collaboration=RationalDecay(-1.0))
    ReluctanceConfig(collaboration=RationalDecay(0.0))
    ReluctanceConfig(collaboration=LinearClamped(-2.0))  # a negative kappa clamps and stays legal

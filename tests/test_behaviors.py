"""Safety/collaboration models: the planar reluctance map and the exact
tent-map model."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    build_tent_model,
    safety,
)

from pollsim.behaviors import PlanarReluctanceMap, _tent_word_by_steps

RAW2 = SafetyFunction(SafetyKind.TWO_CASE, Normalization.RAW)


def test_safety_two_case_formula():
    assert safety(RAW2, 1.0, 2.0, 0.5) == 1.5        # second leads: margin over last
    assert safety(RAW2, 2.0, 1.0, 1.0) == 0.5        # otherwise: mean of both margins
    assert safety(RAW2, 0.0, 0.0, 0.0) == 0.0


def test_safety_continuous_at_branch_boundary():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v, v3 = rng.random() * 5, rng.random() * 5
        eps = 1e-9
        above = safety(RAW2, v, v + eps, v3)
        below = safety(RAW2, v, v - eps, v3)
        at = safety(RAW2, v, v, v3)
        assert abs(above - at) < 1e-6 and abs(below - at) < 1e-6


def test_safety_normalized_needs_total():
    f = SafetyFunction(SafetyKind.TWO_CASE, Normalization.TOTAL_WEIGHT)
    with pytest.raises(ValueError):
        safety(f, 1.0, 2.0, 0.5)
    assert safety(f, 1.0, 2.0, 0.5, total_weight=10.0) == pytest.approx(0.15)


def test_collaboration_functions():
    c5 = LinearClamped(5.0)
    assert c5(0.0) == 1.0
    assert c5(0.2) == 0.0
    assert c5(0.5) == 0.0
    r45 = RationalDecay(45.0)
    assert r45(0.0) == 1.0
    assert r45(0.2) == pytest.approx(0.1)
    for c in (c5, r45):
        ts = np.linspace(0, 1, 50)
        vals = [c(t) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


def test_planar_map_literal_raw_at_center():
    cfg = ReluctanceConfig(
        safety_fn=SafetyFunction(SafetyKind.TWO_CASE, Normalization.RAW),
        b_score_rule=BScoreRule.LITERAL,
    )
    m = build_planar_map(cfg)
    x1, z1 = m.step((0.5, 0.5))
    # safety for X is |V_a - V_c| = |3x - 1| = 0.5, so 1 - 5*0.5 clamps to 0
    assert x1 == 0.0
    assert m.winner((0.5, 0.5)) == "a"     # V_a = 5.5 edges out V_c = 5


def test_planar_map_stays_in_unit_square():
    for rule in BScoreRule:
        for norm in Normalization:
            cfg = ReluctanceConfig(
                safety_fn=SafetyFunction(SafetyKind.TWO_CASE, norm), b_score_rule=rule
            )
            m = build_planar_map(cfg)
            rng = np.random.default_rng(2)
            s = (rng.random(), rng.random())
            for _ in range(500):
                s = m.step(s)
                assert 0.0 <= s[0] <= 1.0 and 0.0 <= s[1] <= 1.0


def test_planar_map_continuity_across_case_boundary():
    # states near the V_a = V_b line map to nearby images
    cfg = ReluctanceConfig()  # derived + total weight
    m = build_planar_map(cfg)
    rng = np.random.default_rng(3)
    for _ in range(300):
        x = rng.random()
        z = x + 1 / 3  # V_a == V_b along z = x + 1/3
        if not 0 <= z <= 1:
            continue
        eps = 1e-6
        lo = m.step((x, min(1.0, z - eps)))
        hi = m.step((x, max(0.0, z + eps)))
        assert abs(lo[0] - hi[0]) <= 1e-4 and abs(lo[1] - hi[1]) <= 1e-4


def test_planar_map_winner_tie_break():
    # V_a == V_c exactly at x = 1/3 (scores 5 and 5): a wins the tie
    m = build_planar_map(ReluctanceConfig())
    assert m.winner((1 / 3, 0.0)) == "a"


@pytest.mark.parametrize("rule", list(BScoreRule))
def test_raw_normalization_reaches_a_fixed_point_within_two_steps(rule):
    # at the default weights, from every point of the 17 x 17 grid on the square
    m = build_planar_map(ReluctanceConfig(safety_fn=RAW2, b_score_rule=rule))
    for i, j in product(range(17), repeat=2):
        state = m.step(m.step((i / 16, j / 16)))
        assert [v.hex() for v in m.step(state)] == [v.hex() for v in state], (i, j)


def test_literal_total_never_lets_b_win():
    """va - vb = 4 + 2x - 3z at the default weights under the literal rule.
    It is affine in (x, z), so its least value on the closed square is at
    a vertex, and exact scores there prove va - vb >= 1 everywhere."""
    exact = PlanarReluctanceMap(ReluctanceConfig(*map(Fraction, (3, 1, 3, 5)), b_score_rule=BScoreRule.LITERAL))
    for x, z in product((Fraction(0), Fraction(1)), repeat=2):
        va, vb, _ = exact.scores((x, z))
        assert va - vb == 4 + 2 * x - 3 * z >= 1
    m = build_planar_map(ReluctanceConfig(b_score_rule=BScoreRule.LITERAL))
    assert "b" not in m.winners_word((0.3, 0.7), 2**16)


def test_tent_endpoints_and_period_two():
    tent = build_tent_model()
    assert tent.step(Fraction(1, 2)) == Fraction(1)
    assert tent.step(Fraction(1)) == Fraction(0)
    assert tent.step(Fraction(0)) == Fraction(0)
    z = Fraction(2, 5)
    assert tent.step(z) == Fraction(4, 5)
    assert tent.step(Fraction(4, 5)) == Fraction(2, 5)
    word = tent.winners_word_exact(Fraction(2, 5), 12)
    assert word == "cb" * 6


@pytest.mark.parametrize("z", [Fraction(3, 2), Fraction(-1, 3), 1.5, -0.25, float("nan"), float("inf")])
def test_tent_refuses_a_state_outside_the_unit_interval(z):
    tent = build_tent_model()
    for method in (tent.advance, tent.step):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            method(z)


def test_tent_float_and_exact_agree_short_run():
    tent = build_tent_model()
    z_f, z_q = 0.375, Fraction(3, 8)
    for _ in range(3):
        assert z_f == float(z_q)
        z_f, z_q = tent.step(z_f), tent.step(z_q)


def test_tent_matches_collaboration_pipeline():
    tent = build_tent_model()
    rng = np.random.default_rng(5)
    for _ in range(300):
        z = float(rng.random())
        assert tent.collaboration_step(z) == pytest.approx(tent.step(z), abs=1e-12)


def test_tent_scores_and_winner():
    tent = build_tent_model()
    va, vb, vc = tent.scores(0.25)
    assert (va, vb, vc) == (2.0, 4.0, 4.5)
    assert tent.advance(0.25)[0] == "c"
    assert tent.advance(0.75)[0] == "b"
    assert tent.advance(Fraction(1, 2))[0] == "b"  # exact tie goes to b


def test_tent_default_start_is_generic():
    tent = build_tent_model()
    z = tent.default_start(seed=0)
    assert 0 < z < 1
    assert z.denominator == 5**30
    assert tent.default_start(seed=0) == z
    assert tent.default_start(seed=1) != z


def test_tent_exact_word_letter_balance():
    tent = build_tent_model()
    word = tent.winners_word_exact(tent.default_start(seed=0), 100_000)
    freq = word.count("b") / len(word)
    assert abs(freq - 0.5) < 0.01


@settings(deadline=None, max_examples=300)
@given(st.fractions(0, 1, max_denominator=10**40), st.integers(0, 2000))
@example(Fraction(0), 50)
@example(Fraction(1), 50)
@example(Fraction(1, 2), 50)
@example(Fraction(3, 4), 50)
@example(Fraction(1, 3), 0)
def test_tent_word_equals_letter_loop(start, n):
    want = _tent_word_by_steps(start.numerator, start.denominator, n)
    assert build_tent_model().winners_word_exact(start, n) == want


def test_tent_word_from_default_starts():
    tent = build_tent_model()
    for seed in range(5):
        start = tent.default_start(seed)
        want = _tent_word_by_steps(start.numerator, start.denominator, 20_000)
        assert tent.winners_word_exact(start, 20_000) == want


@pytest.mark.parametrize("start", [Fraction(2, 5), Fraction(1, 4)])  # by the expansion, by steps
def test_tent_negative_word_length_is_refused(start):
    tent = build_tent_model()
    with pytest.raises(ValueError, match="n >= 0"):
        tent.winners_word_exact(start, -5)
    assert tent.winners_word_exact(start, 0) == ""

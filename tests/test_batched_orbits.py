"""The batch and table paths of continuous stepping against their scalar
references: `run_many` against `orbit_rows` (every winner, and every share
by `float.hex`), the rate-1 kernel's unit-state table against the
reference `_move(outcome)` and against an equal copy of a unit state, and
`TwoShareView.state` against `state_from_vectors`.  Electorates with
integer weights and dyadic shares make exact score ties; the rates 0 and
1, every fallback's closed rate, a closed rate of 1 and a threshold set
exactly on a margin of the start are drawn."""

import math
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pollsim import (
    BScoreRule,
    Fallback,
    MarginGate,
    Normalization,
    RationalDecay,
    ReluctanceConfig,
    SafetyFunction,
    TwoShareView,
    build_planar_map,
    embed_discrete,
    orbit_rows,
)
from pollsim.presets import consensual_loser_electorate, lr_cycle_electorate, two_bloc_dynamics, two_bloc_view
from test_step_kernel import bits, dyadic_state, electorates, with_rate

rates = st.sampled_from([0.0, 1.0, 0.85, 0.5]) | st.floats(0.0, 1.0)
unit = st.floats(0.0, 1.0)
EDGES = [0.0, -0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0]
coordinate = st.sampled_from(EDGES) | unit


def assert_batch_matches_orbits(source, starts, n):
    winners, states = source.run_many(starts, n)
    assert winners.shape == states.shape[:2] == (len(starts), n + 1)
    for b, start in enumerate(starts):
        for k, state, w in orbit_rows(source, start, n):
            assert winners[b, k] == w
            flat = state if isinstance(state[0], float) else [y for point in state for y in point.shares]
            assert [y.hex() for y in states[b, k].tolist()] == [float(y).hex() for y in flat]


def negative_zeros(dyn, state):
    """The state with every zero share made -0.0, which the kernel keeps
    wherever it leaves a share alone."""
    return dyn.state_from_vectors([[-0.0 if s == 0 else s for s in point.shares] for point in state])


@settings(deadline=None, max_examples=300)
@given(electorates(), rates, st.data())
def test_run_many_equals_orbit_rows(electorate, p, data):
    lift = embed_discrete(electorate)
    starts = data.draw(st.lists(dyadic_state(lift), min_size=1, max_size=4))
    starts = [negative_zeros(lift, s) if data.draw(st.booleans()) else s for s in starts]
    margins = sorted(abs(a - b) for a, b in combinations(lift.scores(starts[0]).scores, 2))
    # every fallback's closed rate (keep, apply, half) and a closed rate of 1
    closed = data.draw(st.sampled_from([0.0, p, p / 2, 1.0]))
    threshold = data.draw(st.sampled_from(margins) | st.sampled_from([0.0, 0.5, 1.0]))
    assert_batch_matches_orbits(with_rate(lift, MarginGate(p, threshold, closed)), starts, data.draw(st.integers(0, 6)))


@settings(deadline=None)
@given(st.sampled_from(list(Fallback)), rates, st.lists(st.tuples(coordinate, coordinate), max_size=6),
       st.integers(0, 10))
def test_two_bloc_run_many_equals_orbit_rows(fallback, p, points, n):
    dyn = two_bloc_dynamics(p=p or 1.0, fallback=fallback)
    if not p:
        dyn = with_rate(dyn, MarginGate(0.0, dyn.rate.threshold, 0.0))
    view = two_bloc_view(dyn)
    assert_batch_matches_orbits(dyn, [view.state(x, z) for x, z in points], n)


PLANAR = [
    build_planar_map(),
    build_planar_map(ReluctanceConfig(safety_fn=SafetyFunction(normalization=Normalization.RAW),
                                      collaboration=RationalDecay(), b_score_rule=BScoreRule.LITERAL)),
]


@settings(deadline=None)
@given(st.sampled_from(PLANAR), st.lists(st.tuples(unit, unit), max_size=6), st.integers(0, 10))
def test_planar_run_many_equals_orbit_rows(source, starts, n):
    assert_batch_matches_orbits(source, starts, n)


@pytest.mark.parametrize("source", [two_bloc_dynamics(), PLANAR[0]], ids=["twobloc", "planar"])
def test_run_many_refuses_a_negative_step_count(source):
    with pytest.raises(ValueError, match="n >= 0"):
        source.run_many([], -1)


def extreme_states(dyn, limit=64):
    """The first ``limit`` states where every type casts one ballot."""
    combos = islice(product(*(range(len(b)) for b in dyn.admissible)), limit)
    return [dyn.state_from_vectors([[float(k == j) for k in range(len(b))] for b, j in zip(dyn.admissible, js)])
            for js in combos]


def assert_lift_matches_reference(dyn, n):
    for start in extreme_states(dyn):
        state = ref = start
        for _ in range(n):
            out = dyn.outcome(ref)
            w, state = dyn.advance(state)
            ref = dyn._move(ref, out)
            assert w == out.winner
            assert bits(state) == bits(ref)
            # the table answers for the kernel's own unit states only by
            # identity: an equal copy steps through the kernel to the same bits
            copy = dyn.state_from_vectors([point.shares for point in state])
            assert copy is not state
            assert dyn.advance(copy)[0] == dyn.advance(state)[0]
            assert bits(dyn.step(copy)) == bits(dyn.step(state))


@pytest.mark.parametrize("electorate", [lr_cycle_electorate(), consensual_loser_electorate()],
                         ids=["lr_cycle", "consensual_loser"])
def test_preset_lift_orbits_match_the_reference(electorate):
    assert_lift_matches_reference(embed_discrete(electorate), 8)


@settings(deadline=None, max_examples=100)
@given(electorates(), st.integers(1, 6))
def test_lift_orbits_match_the_reference(electorate, n):
    assert_lift_matches_reference(embed_discrete(electorate), n)


def _views():
    dyn = two_bloc_dynamics()
    view = two_bloc_view(dyn)
    flipped = TwoShareView(dyn, (view.x[0], 1 - view.x[1]), (view.z[0], 1 - view.z[1]))
    return [view, flipped]


VIEWS = _views()


def reference_vectors(view, x, z):
    vectors = [(1.0,)] * len(view.dynamics.admissible)
    for (i, j), v in ((view.x, x), (view.z, z)):
        vectors[i] = (v, 1.0 - v) if j == 0 else (1.0 - v, v)
    return vectors


@pytest.mark.parametrize("view", VIEWS, ids=["twobloc", "flipped"])
@pytest.mark.parametrize("x", EDGES, ids=repr)
@pytest.mark.parametrize("z", EDGES, ids=repr)
def test_view_state_at_the_edges_is_state_from_vectors(view, x, z):
    assert bits(view.state(x, z)) == bits(view.dynamics.state_from_vectors(reference_vectors(view, x, z)))


@given(st.sampled_from(VIEWS), unit, unit)
def test_view_state_is_state_from_vectors(view, x, z):
    assert bits(view.state(x, z)) == bits(view.dynamics.state_from_vectors(reference_vectors(view, x, z)))


def test_a_share_and_its_complement_sum_to_exactly_one():
    # why `TwoShareView.state` needs no renormalization of its own
    rng = np.random.default_rng(0)
    v = np.concatenate([rng.random(1 << 20), rng.random(1 << 20) * 2.0 ** -30, EDGES])
    assert (v + (1.0 - v) == 1.0).all()


@pytest.mark.parametrize("view", VIEWS, ids=["twobloc", "flipped"])
@pytest.mark.parametrize("x, z", [(math.nan, 0.5), (0.5, math.nan), (-5e-324, 0.5), (0.5, math.nextafter(1.0, 2.0)),
                                  (math.inf, 0.0), (0.0, -math.inf)])
def test_view_state_refuses_what_state_from_vectors_refuses(view, x, z):
    with pytest.raises(ValueError, match="not in the unit square"):
        view.state(x, z)
    with pytest.raises(ValueError, match=r"is not in \[0, 1\]"):
        view.dynamics.state_from_vectors(reference_vectors(view, x, z))

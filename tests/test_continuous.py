"""Continuous-state dynamics: aggregation, the discrete embedding, the
perturbed two-bloc example, orbit iteration and cycle search."""

import math
import pickle

import numpy as np
import pytest

from pollsim import (
    CandidateSet,
    Fallback,
    MarginGate,
    PollState,
    SimplexPoint,
    TwoShareView,
    build_polling_graph,
    embed_discrete,
    find_periodic_orbit,
    orbit_rows,
    perturbed_dynamics,
    polling_step,
    sup_distance,
    tally,
)
from pollsim.presets import (
    consensual_loser_electorate,
    in_region_a1,
    in_region_a2,
    lr_cycle_electorate,
    region_a1_grid,
    region_a2_grid,
    sample_region_a1,
    two_bloc_dynamics,
    two_bloc_view,
)

P = 0.85
THETA = 0.04


def closed_form_step(x, z, p=P):
    """Piecewise-affine form of the perturbed dynamics on the certified
    regions (strategy targets: abc -> both blocs drop {a,b}; cab -> both
    blocs adopt it)."""
    if in_region_a1(x, z):
        return ((1 - p) * x, (1 - p) * z)
    if in_region_a2(x, z):
        return (p + (1 - p) * x, p + (1 - p) * z)
    raise AssertionError("outside the certified regions")


def test_simplex_point_validation():
    dyn = two_bloc_dynamics()
    s = dyn.state_from_shares({"Z": {"a": 0.25, "ab": 0.75}, "X": {"b": 1.0}})
    i, j = dyn.slot("Z", "ab")
    assert s[i].shares[j] == 0.75
    with pytest.raises(ValueError):
        dyn.state_from_vectors([(0.5, 0.6), (1.0,), (0.0, 1.0), (1.0,)])
    # tiny drift is renormalized, and -0.0 is in [0, 1]
    q = dyn.state_from_vectors([(0.5, 0.5 + 1e-13), (1.0,), (-0.0, 1.0), (1.0,)])
    assert sum(q[0].shares) == 1.0
    with pytest.raises(ValueError):
        dyn.extreme_state({"Z": "c", "Y": "a", "X": "b", "W": "c"})


@pytest.mark.parametrize("vector", [(1.5, -0.5), (-1e-300, 1.0), (math.nan, 1.0), (1.0, math.nan)],
                         ids=["above-one", "below-zero", "nan-first", "nan-last"])
def test_state_from_vectors_rejects_shares_outside_the_unit_interval(vector):
    dyn = two_bloc_dynamics()
    with pytest.raises(ValueError, match=r"'Z': share .* is not in \[0, 1\]"):
        dyn.state_from_vectors([vector, (1.0,), (0.0, 1.0), (1.0,)])


def test_state_builders_reject_unknown_types_and_ballots():
    dyn = two_bloc_dynamics()
    with pytest.raises(ValueError, match="'Q'"):
        dyn.state_from_shares({"X": {"b": 1.0}, "Z": {"a": 1.0}, "Q": {"a": 1.0}})
    with pytest.raises(ValueError, match="'Z'"):
        dyn.state_from_shares({"X": {"b": 1.0}, "Z": {"ab": 1.0, "c": 0.3}})
    with pytest.raises(ValueError, match="'Q'"):
        dyn.extreme_state({"Z": "a", "Y": "a", "X": "b", "W": "c", "Q": "a"})
    with pytest.raises(ValueError):
        dyn.state_from_vectors([(0.5, 0.5), (1.0,), (1.0,)])
    with pytest.raises(ValueError):
        dyn.state_from_vectors([(0.5, 0.5), (1.0,), (1.0,), (1.0,)])


def test_two_share_view_checks_its_layout():
    dyn = two_bloc_dynamics()
    x, z = dyn.slot("X", "ab"), dyn.slot("Z", "ab")
    assert TwoShareView(dyn, x, z).coords(TwoShareView(dyn, x, z).state(0.25, 0.5)) == (0.25, 0.5)
    with pytest.raises(ValueError):
        TwoShareView(dyn, x, x)
    with pytest.raises(ValueError):
        TwoShareView(dyn, x, (7, 0))
    with pytest.raises(ValueError):
        TwoShareView(dyn, x, (1, 0))  # Y has a single ballot
    with pytest.raises(ValueError):
        TwoShareView(embed_discrete(lr_cycle_electorate()), (0, 0), (1, 0))


def test_aggregate_closed_form_two_bloc():
    dyn = two_bloc_dynamics()
    view = two_bloc_view(dyn)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, z = rng.random(), rng.random()
        t = dyn.scores(view.state(x, z)).as_dict()
        assert t["a"] == pytest.approx(3 * x + 4, abs=1e-12)
        assert t["b"] == pytest.approx(3 * z + 3, abs=1e-12)
        assert t["c"] == 5.0


def test_aggregate_extreme_state_matches_discrete_tally():
    e = consensual_loser_electorate()
    dyn = embed_discrete(e)
    assignment = {"Z": frozenset("ab"), "Y": frozenset("a"), "X": frozenset("ab"), "W": frozenset("c")}
    s = dyn.extreme_state(assignment)
    assert dyn.scores(s).as_dict() == tally(e, assignment).as_dict()


def test_embedding_maps_ab_region_to_strategy_ballots():
    e = consensual_loser_electorate()
    dyn = embed_discrete(e)
    target = dyn.extreme_state(
        {"Z": frozenset("a"), "Y": frozenset("a"), "X": frozenset("b"), "W": frozenset("c")}
    )
    for shares in [(1.0, 1.0), (0.95, 0.9), (0.99, 0.85)]:
        x, z = shares
        s = dyn.state_from_shares({
            "Z": {frozenset("ab"): z, frozenset("a"): 1 - z},
            "X": {frozenset("ab"): x, frozenset("b"): 1 - x},
        })
        assert dyn.outcome(s).ranking[:2] == ("a", "b")
        assert sup_distance(dyn.step(s), target) == 0.0


def test_embedding_reproduces_discrete_dynamics():
    # from the extreme state casting the strategy ballots of any expected
    # outcome, the embedded map's outcome chain follows the discrete orbit
    from pollsim import ballot_for

    for electorate in (consensual_loser_electorate(), lr_cycle_electorate()):
        dyn = embed_discrete(electorate)
        graph = build_polling_graph(electorate)
        for s0 in graph.states:
            ballots = {
                t.name: ballot_for(t.preference, s0) for t in electorate.types
            }
            s = dyn.extreme_state(ballots)
            expected = polling_step(electorate, s0)
            for _ in range(6):
                out = dyn.outcome(s)
                assert (out.winner, out.runner_up) == (expected.winner, expected.runner_up)
                s = dyn.step(s)
                expected = polling_step(electorate, expected)


def test_cycle_electorate_embedded_orbit_has_period_3():
    e = lr_cycle_electorate()
    dyn = embed_discrete(e)
    from pollsim import ballot_for

    ballots = {t.name: ballot_for(t.preference, PollState("b", "a")) for t in e.types}
    s0 = dyn.extreme_state(ballots)
    out = dyn.outcome(s0)
    assert (out.winner, out.runner_up) == ("d", "a")
    s = s0
    for _ in range(3):
        s = dyn.step(s)
    assert sup_distance(s, s0) == 0.0
    assert sup_distance(dyn.step(s0), s0) > 0.5


def test_perturbed_step_is_affine_on_certified_regions():
    dyn = two_bloc_dynamics()
    view = two_bloc_view(dyn)
    rng = np.random.default_rng(1)
    for _ in range(200):
        x, z = sample_region_a1(rng)
        assert in_region_a1(x, z)
        got = view.coords(dyn.step(view.state(x, z)))
        assert got == pytest.approx(closed_form_step(x, z), abs=1e-12)
        assert in_region_a2(*got)
    for _ in range(200):
        x = rng.random() * (1 / 6)  # uniform in x, then z in [0, x + 1/6]: region A2
        z = rng.random() * (x + 1 / 6)
        got = view.coords(dyn.step(view.state(x, z)))
        assert got == pytest.approx(closed_form_step(x, z), abs=1e-12)
        assert in_region_a1(*got)


@pytest.mark.parametrize("fallback", list(Fallback))
def test_region_inclusions_on_grids(fallback):
    dyn = two_bloc_dynamics(fallback=fallback)
    view = two_bloc_view(dyn)
    for x, z in region_a1_grid(25):
        assert in_region_a2(*view.coords(dyn.step(view.state(x, z))))
    for x, z in region_a2_grid(25):
        assert in_region_a1(*view.coords(dyn.step(view.state(x, z))))


def test_p_one_theta_zero_coincides_with_embedding():
    e = consensual_loser_electorate()
    full = perturbed_dynamics(e, p=1.0, margin=0.0)
    embedded = embed_discrete(e)
    rng = np.random.default_rng(3)
    for _ in range(50):
        z, x = rng.random(), rng.random()
        s = full.state_from_shares({
            "Z": {frozenset("ab"): z, frozenset("a"): 1 - z},
            "X": {frozenset("ab"): x, frozenset("b"): 1 - x},
        })
        assert sup_distance(full.step(s), embedded.step(s)) == 0.0


def test_second_iterate_contracts_on_a1():
    dyn = two_bloc_dynamics()
    view = two_bloc_view(dyn)
    rng = np.random.default_rng(4)
    for _ in range(100):
        s = view.state(*sample_region_a1(rng))
        t = view.state(*sample_region_a1(rng))
        s2 = dyn.step(dyn.step(s))
        t2 = dyn.step(dyn.step(t))
        assert sup_distance(s2, t2) <= (1 - P) ** 2 * sup_distance(s, t) + 1e-9


def test_fallback_keep_freezes_low_margin_states():
    dyn = two_bloc_dynamics(fallback=Fallback.KEEP)
    view = two_bloc_view(dyn)
    # the all-tied point x=1/3, z=2/3 has zero margins
    s = view.state(1 / 3, 2 / 3)
    assert sup_distance(dyn.step(s), s) == 0.0
    applied = two_bloc_dynamics(fallback=Fallback.APPLY)
    assert sup_distance(applied.step(s), s) > 0.1


def test_orbit_rows_from_fixed_point():
    e = consensual_loser_electorate()
    dyn = embed_discrete(e)
    from pollsim import ballot_for

    ballots = {t.name: ballot_for(t.preference, PollState("a", "c")) for t in e.types}
    s = dyn.extreme_state(ballots)
    rows = list(orbit_rows(dyn, s, 10))
    assert "".join(w for _, _, w in rows) == "a" * 11
    assert all(sup_distance(st, s) == 0.0 for _, st, _ in rows)


def test_orbit_rows_two_bloc_alternates_winners():
    dyn = two_bloc_dynamics()
    view = two_bloc_view(dyn)
    rows = orbit_rows(dyn, view.state(0.99, 0.99), 12)
    assert "".join(w for _, _, w in rows) == "ac" * 6 + "a"


def test_orbit_rows_thinning():
    dyn = two_bloc_dynamics()
    view = two_bloc_view(dyn)
    rows = orbit_rows(dyn, view.state(0.99, 0.99), 12, keep_every=3, discard=2)
    assert [k for k, _, _ in rows] == [2, 5, 8, 11, 14]


def test_find_periodic_orbit_two_cycle():
    dyn = two_bloc_dynamics()
    view = two_bloc_view(dyn)
    found = find_periodic_orbit(
        dyn, lambda rng: view.state(*sample_region_a1(rng)), period=2, tol=1e-10, seed=6
    )
    assert found is not None
    assert len(found.states) == 2
    assert set(found.winners) == {"a", "c"}
    xz = [view.coords(s) for s in found.states]
    assert any(in_region_a1(*p) for p in xz) and any(in_region_a2(*p) for p in xz)


def test_find_periodic_orbit_rejects_wrong_period():
    dyn = two_bloc_dynamics()
    view = two_bloc_view(dyn)
    # a genuine 2-cycle is not reported as a 3-cycle
    found = find_periodic_orbit(
        dyn, lambda rng: view.state(*sample_region_a1(rng)), period=3, tol=1e-10, seed=6, attempts=8
    )
    assert found is None


def test_find_periodic_orbit_fixed_point_in_ac_region():
    e = consensual_loser_electorate()
    dyn = embed_discrete(e)

    def sampler(rng):
        x = 0.96 + 0.04 * rng.random()
        z = 0.02 * rng.random()
        return dyn.state_from_shares({
            "Z": {frozenset("ab"): z, frozenset("a"): 1 - z},
            "X": {frozenset("ab"): x, frozenset("b"): 1 - x},
        })

    found = find_periodic_orbit(dyn, sampler, period=1, tol=1e-12, seed=2, settle=8)
    assert found is not None and found.winners == ("a",)


def test_half_fallback_steps_match_fresh_dynamics():
    # the margin gate once cached its answer under id(outcome); CPython
    # reuses the id of a freed outcome, so a step could get the answer of
    # the step before, which shows under the half fallback.  Building the
    # fresh dynamics before the step on every other start varies which
    # freed memory the step's outcome lands on.
    rng = np.random.default_rng(0)
    dyn = two_bloc_dynamics(fallback=Fallback.HALF)
    view = two_bloc_view(dyn)
    mismatches = 0
    for i in range(3000):
        s = view.state(rng.random(), rng.random())
        for _ in range(10):
            fresh = two_bloc_dynamics(fallback=Fallback.HALF) if i % 2 else None
            nxt = dyn.step(s)
            fresh = fresh or two_bloc_dynamics(fallback=Fallback.HALF)
            mismatches += nxt != fresh.step(s)
            s = nxt
    assert mismatches == 0


def test_rate_one_returns_the_shared_target_points():
    dyn = embed_discrete(lr_cycle_electorate())
    s = dyn.extreme_state({t.name: ballots[0] for t, ballots in zip(dyn.electorate.types, dyn.admissible)})
    out = dyn.outcome(s)
    slots = dyn.targets[(out.winner, out.runner_up)]
    target = dyn.step(s)
    assert target == dyn.extreme_state({
        t.name: ballots[j] for t, ballots, j in zip(dyn.electorate.types, dyn.admissible, slots)
    })
    assert all(a is b for a, b in zip(target, dyn.step(s)))


def test_rate_zero_returns_the_state():
    dyn = two_bloc_dynamics(fallback=Fallback.KEEP)
    s = two_bloc_view(dyn).state(1 / 3, 2 / 3)  # every margin is zero
    assert dyn.rate(dyn.outcome(s)) == 0.0
    assert dyn.step(s) is s


def test_sup_distance_zero_on_self():
    dyn = two_bloc_dynamics()
    view = two_bloc_view(dyn)
    s = view.state(0.3, 0.7)
    assert sup_distance(s, s) == 0.0


def _wrong_shapes(s):
    """``s`` with a point too many or too few, with a share too many or
    too few in its first point, and with the first point's last share
    moved to the second point, which keeps the flat width."""
    first = s[0].shares
    return [
        s + (SimplexPoint((1.0,)),),
        s[:-1],
        (SimplexPoint(first + (0.0,)), *s[1:]),
        (SimplexPoint(first[:-1]), *s[1:]),
        (SimplexPoint(first[:-1]), SimplexPoint(first[-1:] + s[1].shares), *s[2:]),
    ]


@pytest.mark.parametrize("make", [two_bloc_dynamics, lambda: embed_discrete(lr_cycle_electorate())])
def test_a_state_of_the_wrong_shape_is_refused(make):
    dyn = make()
    s = dyn.state_from_vectors([[1 / len(b)] * len(b) for b in dyn.admissible])
    # on the lift, dyn.step(s) is a unit state its table answers for
    for good in (s, dyn.step(s)):
        for bad in _wrong_shapes(good):
            for call in (dyn.step, dyn.advance, dyn.winner, lambda t: sup_distance(good, t), dyn.outcome,
                         lambda t: dyn._move(t, dyn.outcome(good)), lambda t: dyn.run_many([good, t], 1)):
                with pytest.raises(ValueError):
                    call(bad)


def test_sup_distance_refuses_states_of_different_shapes():
    dyn = two_bloc_dynamics()
    s = two_bloc_view(dyn).state(0.3, 0.7)
    with pytest.raises(ValueError):
        sup_distance(s, s[:2])
    with pytest.raises(ValueError):
        sup_distance(s, (SimplexPoint((0.3, 0.7, 0.0)), *s[1:]))


def test_simplex_preserved_along_random_orbits():
    rng = np.random.default_rng(8)
    dyn = two_bloc_dynamics(fallback=Fallback.APPLY)
    view = two_bloc_view(dyn)
    for _ in range(20):
        s = view.state(rng.random(), rng.random())
        for _ in range(50):
            s = dyn.step(s)
            for point in s:
                assert abs(sum(point.shares) - 1.0) <= 1e-12
                assert all(0.0 <= v <= 1.0 for v in point.shares)


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), -1.0])
def test_margin_must_be_finite_and_non_negative(margin):
    # a NaN threshold would close the gate at every state
    with pytest.raises(ValueError, match="margin"):
        two_bloc_dynamics(margin=margin)


@pytest.mark.parametrize("gate, field", [
    # each of the first three once stepped a two-bloc state to shares
    # outside [0, 1] or to NaN shares
    ((1.5, 0.0, 1.5), "p"),
    ((0.5, float("nan"), -0.5), "closed"),
    ((float("nan"), 0.0, 0.2), "p"),
    ((0.5, float("nan"), 0.5), "threshold"),
    ((0.5, float("inf"), 0.5), "threshold"),
    ((0.5, -1.0, 0.5), "threshold"),
])
def test_margin_gate_refuses_a_rate_or_threshold_out_of_range(gate, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        MarginGate(*gate)
    assert MarginGate(0.0, 0.0, 1.0).closed == 1.0  # the ends of [0, 1] are rates


@pytest.mark.parametrize("make", [
    lambda: two_bloc_dynamics(fallback=Fallback.HALF),
    lambda: embed_discrete(lr_cycle_electorate()),
])
def test_dynamics_pickle_and_step_like_the_original(make):
    dyn = make()
    names = [t.name for t in dyn.electorate.types]
    starts = [dyn.extreme_state(dict(zip(names, (b[-1] for b in dyn.admissible)))),
              dyn.state_from_vectors([[1 / len(b)] * len(b) for b in dyn.admissible])]
    copies = [pickle.loads(pickle.dumps(dyn))]
    dyn.step(starts[0])
    copies.append(pickle.loads(pickle.dumps(dyn)))
    for copy in copies:
        assert copy == dyn
        for s in starts:
            t = s
            for _ in range(12):
                s, t = dyn.step(s), copy.step(t)
                assert [tuple(x.hex() for x in p.shares) for p in s] == [tuple(x.hex() for x in p.shares) for p in t]


def test_dynamics_needs_two_candidates():
    # the candidate set refuses one candidate, so no electorate or dynamics has fewer than two
    with pytest.raises(ValueError, match="need at least two candidates"):
        CandidateSet(("a",))

"""Golden tests for the two worked electorates plus structural and
property tests of the poll graph machinery."""

import numpy as np
import pytest

from pollsim import (
    CandidateSet,
    CultureKind,
    CultureSpec,
    Electorate,
    PollState,
    VoterType,
    build_polling_graph,
    classify,
    condorcet_analysis,
    polling_step,
    sample_electorate,
)
from pollsim.dynamics import all_states
from pollsim.strategies import Strategy

from conftest import pref


def labels(states):
    return sorted(s.label for s in states)


def test_poll_state_invariants():
    with pytest.raises(ValueError):
        PollState("a", "a")
    assert PollState("a", "b").label == "ab"


def test_cycle_electorate_steps(cycle_electorate):
    assert polling_step(cycle_electorate, PollState("b", "a")) == PollState("d", "a")
    assert polling_step(cycle_electorate, PollState("d", "a")) == PollState("c", "a")
    assert polling_step(cycle_electorate, PollState("c", "a")) == PollState("b", "a")


def test_loser_electorate_fixed_point_bc(loser_electorate):
    # the state bc reproduces itself: tallies a:103 b:201 c:104
    assert polling_step(loser_electorate, PollState("b", "c")) == PollState("b", "c")


def test_cycle_electorate_graph(cycle_electorate):
    g = build_polling_graph(cycle_electorate)
    assert len(g.states) == 12
    cycles = sorted(g.cycles, key=len)
    assert len(cycles) == 2
    assert labels(cycles[0]) == ["ad"]          # equilibrium
    assert labels(cycles[1]) == ["ba", "ca", "da"]
    # printed tallies along the cycle, exact
    assert g.tally_at(PollState("b", "a")).as_dict() == {"a": 3111.0, "b": 3020.0, "c": 2009.0, "d": 4027.0}
    assert g.tally_at(PollState("d", "a")).as_dict() == {"a": 3105.0, "b": 2104.0, "c": 4113.0, "d": 3026.0}
    assert g.tally_at(PollState("c", "a")).as_dict() == {"a": 3118.0, "b": 4122.0, "c": 3013.0, "d": 2018.0}
    # equilibrium tallies, derived by direct evaluation
    assert g.tally_at(PollState("a", "d")).as_dict() == {"a": 3105.0, "b": 3020.0, "c": 3013.0, "d": 3026.0}
    # the printed tallies force ab->ad, ac->ad and every other state into
    # the cycle (see the full transition table below); the basin counts the
    # cycle's own states, so it is 9/12, and the prose "two thirds" matches
    # the 6 of the 9 states off the cycle that are drawn into it
    k_cycle = next(k for k, c in enumerate(g.cycles) if len(c) == 3)
    assert len(g.basin[k_cycle]) == 9
    assert len(g.basin[1 - k_cycle]) == 3
    assert condorcet_analysis(cycle_electorate).condorcet_winner == "a"


def test_cycle_electorate_full_transition_table(cycle_electorate):
    # hand-checked successor of every one of the 12 states
    expected = {
        "ab": "ad", "ac": "ad", "ad": "ad",
        "ba": "da", "bc": "bd", "bd": "da",
        "ca": "ba", "cb": "ba", "cd": "bc",
        "da": "ca", "db": "cd", "dc": "ca",
    }
    g = build_polling_graph(cycle_electorate)
    got = {s.label: g.successor[s].label for s in g.states}
    assert got == expected


def test_cycle_electorate_classification(cycle_electorate):
    g = build_polling_graph(cycle_electorate)
    report = condorcet_analysis(cycle_electorate)
    dyn = classify(g, report)
    assert dyn.condorcet_winner == "a"
    by_period = {c.period: c for c in dyn.cycles}
    assert by_period[3].bad is True
    assert set(by_period[3].winners) == {"b", "c", "d"}
    assert len(set(by_period[3].winners)) != 1
    assert by_period[1].bad is False
    assert len(set(by_period[1].winners)) == 1
    assert dyn.is_bad is True


def test_loser_electorate_graph(loser_electorate):
    g = build_polling_graph(loser_electorate)
    assert len(g.states) == 6
    cycles = {len(c): c for c in g.cycles}
    assert labels(cycles[2]) == ["ab", "ca"]
    fixed = sorted(labels(c)[0] for c in g.cycles if len(c) == 1)
    assert fixed == ["ac", "bc"]
    two_cycle_idx = next(k for k, c in enumerate(g.cycles) if len(c) == 2)
    assert len(g.basin[two_cycle_idx]) == 4
    assert g.tally_at(PollState("a", "b")).as_dict() == {"a": 103.0, "b": 100.0, "c": 104.0}
    assert g.tally_at(PollState("c", "a")).as_dict() == {"a": 203.0, "b": 201.0, "c": 104.0}


def test_loser_electorate_classification(loser_electorate):
    g = build_polling_graph(loser_electorate)
    dyn = classify(g, condorcet_analysis(loser_electorate))
    per_state = {tuple(labels(c.states)): c for c in dyn.cycles}
    assert per_state[("ab", "ca")].bad is True          # elects c in one state
    assert per_state[("bc",)].bad is True               # equilibrium electing b
    assert per_state[("ac",)].bad is False
    assert dyn.is_bad is True


def test_is_bad_undefined_without_condorcet_winner(abc):
    # a perfect 3-cycle electorate: no Condorcet winner
    e = Electorate(abc, (
        VoterType("Z", pref(abc, "abc"), 1.0, Strategy.LEADER_RULE),
        VoterType("Y", pref(abc, "bca"), 1.0, Strategy.LEADER_RULE),
        VoterType("X", pref(abc, "cab"), 1.0, Strategy.LEADER_RULE),
    ))
    report = condorcet_analysis(e)
    assert report.condorcet_winner is None
    dyn = classify(build_polling_graph(e), report)
    assert dyn.is_bad is None


def test_graph_determinism(cycle_electorate):
    g1 = build_polling_graph(cycle_electorate)
    g2 = build_polling_graph(cycle_electorate)
    assert g1.successor == g2.successor
    assert [tuple(c) for c in g1.cycles] == [tuple(c) for c in g2.cycles]
    assert g1.basin == g2.basin


def test_graph_equality(cycle_electorate, loser_electorate):
    # the duel matrix is a function of the electorate and stays out of ==
    assert build_polling_graph(cycle_electorate) == build_polling_graph(cycle_electorate)
    assert build_polling_graph(cycle_electorate) != build_polling_graph(loser_electorate)


def _random_spec(strategy, n_candidates=5, n_types=8, seed=0):
    return CultureSpec(CultureKind.IMPARTIAL, n_candidates, n_types, strategy, seed=seed)


def test_functional_graph_sanity_random():
    spec = _random_spec(Strategy.MODIFIED_LEADER_RULE, seed=42)
    for i in range(100):
        e = sample_electorate(spec, i)
        g = build_polling_graph(e)
        n = len(g.states)
        assert n == len(e.candidates) * (len(e.candidates) - 1)
        assert sum(len(b) for b in g.basin.values()) == n
        # every chain enters a cycle within n steps
        on_cycle = {s for c in g.cycles for s in c}
        for s in g.states:
            t = s
            for _ in range(n):
                if t in on_cycle:
                    break
                t = g.successor[t]
            assert t in on_cycle


def test_object_path_matches_graph_successors():
    for strategy, seed in [(Strategy.LEADER_RULE, 1), (Strategy.MODIFIED_LEADER_RULE, 2)]:
        spec = _random_spec(strategy, seed=seed)
        for i in range(40):
            e = sample_electorate(spec, i)
            g = build_polling_graph(e)
            for s in g.states:
                assert polling_step(e, s) == g.successor[s]


def test_two_candidate_dynamics_enumeration():
    # with two candidates the same ballots are cast at both states, so the
    # dynamics reaches a fixed point after at most one step
    cs = CandidateSet(("a", "b"))
    spec = CultureSpec(CultureKind.IMPARTIAL, 2, 5, Strategy.MODIFIED_LEADER_RULE, seed=9)
    for i in range(200):
        e = sample_electorate(spec, i)
        g = build_polling_graph(e)
        succ = g.successor
        ab, ba = PollState("a", "b"), PollState("b", "a")
        assert succ[ab] == succ[ba]
        assert succ[succ[ab]] == succ[ab]
        assert all(len(c) == 1 for c in g.cycles)


def test_leader_rule_fixed_points_elect_condorcet_winner():
    # tie-free preferences + a Condorcet winner: every equilibrium elects her
    spec = _random_spec(Strategy.LEADER_RULE, n_candidates=6, n_types=11, seed=77)
    checked = 0
    for i in range(400):
        e = sample_electorate(spec, i)
        report = condorcet_analysis(e)
        if report.condorcet_winner is None:
            continue
        g = build_polling_graph(e)
        for c in g.cycles:
            if len(c) == 1:
                assert c[0].winner == report.condorcet_winner
                checked += 1
    assert checked > 100


def test_three_candidate_leader_rule_converges():
    # tie-free 3-candidate electorates with a Condorcet winner always
    # converge to an equilibrium electing her (smaller sibling of the
    # acceptance-scale run)
    spec = CultureSpec(CultureKind.IMPARTIAL, 3, 10, Strategy.LEADER_RULE, seed=123)
    checked = 0
    for i in range(2000):
        e = sample_electorate(spec, i)
        report = condorcet_analysis(e)
        if report.condorcet_winner is None:
            continue
        g = build_polling_graph(e)
        assert all(len(c) == 1 for c in g.cycles)
        dyn = classify(g, report)
        assert dyn.is_bad is False
        checked += 1
    assert checked > 1500


def test_all_states_order(loser_electorate):
    assert [s.label for s in all_states(loser_electorate)] == ["ab", "ac", "ba", "bc", "ca", "cb"]


def test_classify_not_bad_when_every_state_elects_winner(abc):
    # a single voter type: every state elects its favorite immediately
    e = Electorate(abc, (VoterType("Z", pref(abc, "abc"), 1.0, Strategy.LEADER_RULE),))
    g = build_polling_graph(e)
    assert all(g.successor[s].winner == "a" for s in g.states)
    dyn = classify(g, condorcet_analysis(e))
    assert dyn.is_bad is False
    assert all(len(set(c.winners)) == 1 for c in dyn.cycles)

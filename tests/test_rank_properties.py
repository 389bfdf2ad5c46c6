"""Properties of the rank-vector preferences and the pair-index poll graph
on random electorates with ties and small integer weights: the graph's
successors agree with the explicit-ballot step (exact score ties included,
so the tie-break order is exercised), tie-groups round-trip through the
validating constructor, and electorates round-trip through their text
form.  The poll graph's state views agree with its successor map, and the
weak and strong Condorcet reports agree with a pairwise reference written
from the definitions.  The graph's tallies, read from the one duel matrix
of an analysis, agree with the explicit-ballot tally."""

from itertools import permutations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pollsim import (
    CandidateSet,
    Electorate,
    PollState,
    Preference,
    VoterType,
    build_polling_graph,
    classify,
    condorcet_analysis,
    parse_electorate,
    polling_step,
    serialize_electorate,
)
from pollsim import dynamics, majority
from pollsim.dynamics import all_states
from pollsim.model import tally
from pollsim.presets import lr_cycle_electorate
from pollsim.strategies import Strategy, ballot_for


def _dense(raw: list[int]) -> tuple[int, ...]:
    """Renumber arbitrary ranks to exactly 0..k-1, keeping their order."""
    levels = sorted(set(raw))
    return tuple(levels.index(r) for r in raw)


@st.composite
def preferences(draw, cs: CandidateSet):
    n = len(cs)
    return Preference(cs, _dense(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))


@st.composite
def electorates(draw):
    n = draw(st.integers(2, 5))
    names = draw(st.sampled_from([list("abcdefg"), ["a0", "b1", "c2", "d3", "e4"]]))[:n]
    cs = CandidateSet(tuple(names))
    types = []
    for i in range(draw(st.integers(1, 6))):
        pref = draw(preferences(cs))
        strategies = [Strategy.MODIFIED_LEADER_RULE] + [Strategy.LEADER_RULE] * pref.tie_free
        weight = float(draw(st.integers(0, 3)))
        types.append(VoterType(f"T{i}", pref, weight, draw(st.sampled_from(strategies))))
    assume(sum(t.weight for t in types) > 0)
    return Electorate(cs, tuple(types))


@settings(deadline=None, max_examples=300)
@given(electorates())
def test_graph_successors_match_explicit_ballots(e):
    g = build_polling_graph(e)
    for s in g.states:
        assert g.successor[s] == polling_step(e, s)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_groups_round_trip_through_validating_constructor(data):
    cs = CandidateSet(tuple("abcdef"[: data.draw(st.integers(1, 6))]))
    p = data.draw(preferences(cs))
    assert Preference.from_groups(cs, p.groups) == p
    assert all(p.rank_of(c) == k for k, g in enumerate(p.groups) for c in g)
    assert p.tie_free == all(len(g) == 1 for g in p.groups)


@settings(deadline=None, max_examples=200)
@given(electorates())
def test_serialized_electorate_parses_back(e):
    assert parse_electorate(serialize_electorate(e)) == e


@settings(deadline=None, max_examples=300)
@given(electorates())
def test_graph_views_agree_with_successor_map(e):
    g = build_polling_graph(e)
    succ = g.successor
    assert g.states == tuple(all_states(e))
    assert set(succ) == set(g.states)
    names = e.candidates.names
    n = len(names)
    label = {s: g.label[names.index(s.winner) * n + names.index(s.runner_up)] for s in g.states}
    on_cycle = {s: k for k, cyc in enumerate(g.cycles) for s in cyc}
    assert len(on_cycle) == sum(len(cyc) for cyc in g.cycles)
    for cyc in g.cycles:
        assert [succ[s] for s in cyc] == [*cyc[1:], cyc[0]]
    for s in g.states:
        t = s
        for _ in range(n * (n - 1)):
            t = succ[t]
        assert on_cycle[t] == label[s]
    assert sorted(g.basin) == list(range(len(g.cycles)))
    for k, members in g.basin.items():
        assert members == {s for s in g.states if label[s] == k}
    dyn = classify(g, condorcet_analysis(e))
    assert [c.basin_size for c in dyn.cycles] == [len(g.basin[k]) for k in range(len(g.cycles))]


def _reference_report(e: Electorate, strong: bool) -> dict:
    """The Condorcet report from the definitions, one pair at a time."""
    names = e.candidates.names
    total = sum(t.weight for t in e.types)

    def support(a, b):
        return sum(t.weight for t in e.types if t.preference.rank_of(a) < t.preference.rank_of(b))

    def beats(a, b):
        return support(a, b) > (total / 2 if strong else support(b, a))

    def ranked_last(t, c):
        return t.preference.rank_of(c) == max(t.preference.ranks)

    return {
        "majority": [[support(a, b) > support(b, a) for b in names] for a in names],
        "winner": next((a for a in names if all(beats(a, b) for b in names if b != a)), None),
        "loser": next((a for a in names if all(beats(b, a) for b in names if b != a)), None),
        "consensual": next(
            (c for c in names if sum(t.weight for t in e.types if ranked_last(t, c)) > total / 2), None
        ),
        "order": next(
            (p for p in permutations(names) if all(beats(p[i], p[j]) for j in range(len(p)) for i in range(j))),
            None,
        ),
    }


@settings(deadline=None, max_examples=300)
@given(electorates(), st.booleans())
def test_condorcet_report_matches_pairwise_reference(e, strong):
    rep = condorcet_analysis(e, strong=strong)
    got = {
        "majority": (rep.duel > rep.duel.T).tolist(),
        "winner": rep.condorcet_winner,
        "loser": rep.condorcet_loser,
        "consensual": rep.consensual_loser,
        "order": rep.condorcet_order,
    }
    assert got == _reference_report(e, strong)


def test_graph_builds_no_poll_state_and_classify_only_cycle_states(monkeypatch):
    made = []
    check = PollState.__post_init__

    def counting(state):
        made.append(state)
        check(state)

    monkeypatch.setattr(PollState, "__post_init__", counting)
    e = lr_cycle_electorate()
    report = condorcet_analysis(e)
    g = build_polling_graph(e, report=report)
    assert made == []
    classify(g, report)
    assert sorted(made) == sorted(s for cyc in g.cycles for s in cyc)
    assert len(made) == 4  # the fixed point ad and the 3-cycle ba -> da -> ca


@settings(deadline=None, max_examples=300)
@given(electorates())
def test_graph_tallies_match_explicit_ballots(e):
    g = build_polling_graph(e, report=condorcet_analysis(e))
    for s in g.states:
        ballots = {t.name: ballot_for(t.strategy, t.preference, s) for t in e.types}
        assert g.tally_at(s).scores == tally(e, ballots).scores


def test_one_duel_matrix_per_analysis(monkeypatch):
    calls = []
    reference = majority.duel_matrix

    def counting(electorate):
        calls.append(electorate)
        return reference(electorate)

    monkeypatch.setattr(majority, "duel_matrix", counting)
    monkeypatch.setattr(dynamics, "duel_matrix", counting)
    e = lr_cycle_electorate()
    build_polling_graph(e, report=condorcet_analysis(e))
    assert len(calls) == 1
    build_polling_graph(e)  # without a report the builder computes it
    assert len(calls) == 2

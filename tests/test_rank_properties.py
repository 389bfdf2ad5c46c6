"""Properties of the rank-vector preferences and the pair-index poll graph
on random electorates with ties and small integer weights: the graph's
successors agree with the explicit-ballot step (exact score ties included,
so the tie-break order is exercised), tie-groups round-trip through the
validating constructor, and electorates round-trip through their text
form."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pollsim import (
    CandidateSet,
    Electorate,
    Preference,
    VoterType,
    build_polling_graph,
    parse_electorate,
    polling_step,
    serialize_electorate,
)
from pollsim.strategies import Strategy


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
    assert p.last_group == p.groups[-1]
    assert p.tie_free == all(len(g) == 1 for g in p.groups)


@settings(deadline=None, max_examples=200)
@given(electorates())
def test_serialized_electorate_parses_back(e):
    assert parse_electorate(serialize_electorate(e)) == e

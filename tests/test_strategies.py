"""The leader rule's ballot on tie-free and tied preferences, its domain,
and the exhaustive sincerity sweep over every tie-structure on up to five
candidates."""

import pytest

from pollsim import CandidateSet, PollState, Preference, VoterType, is_sincere
from pollsim.model import Outcome, Tally, is_weakly_sincere
from pollsim.strategies import Strategy, ballot_for

from conftest import pref


def state(w, r):
    return PollState(w, r)


def test_leader_rule_cycle_electorate_examples(abcd):
    # type V (cadb) facing outcome ba approves c, a, d
    assert ballot_for(pref(abcd, "cadb"), state("b", "a")) == frozenset("cad")
    # type T (abcd) facing outcome da approves a, b, c
    assert ballot_for(pref(abcd, "abcd"), state("d", "a")) == frozenset("abc")


def test_leader_rule_favorite_leads(abc):
    assert ballot_for(pref(abc, "abc"), state("a", "b")) == frozenset("a")


def test_leader_rule_rejects_ties(abc):
    tied = pref(abc, "a(bc)")
    assert not Strategy.LEADER_RULE.admits(tied)
    assert Strategy.MODIFIED_LEADER_RULE.admits(tied)
    with pytest.raises(ValueError, match="type 'Z' uses the leader rule but has a tied preference"):
        VoterType("Z", tied, 1.0, Strategy.LEADER_RULE)
    # the strategy is checked before the weight
    with pytest.raises(ValueError, match="leader rule"):
        VoterType("Z", tied, -1.0, Strategy.LEADER_RULE)


def test_modified_leader_rule_constant_types(abc):
    w = pref(abc, "c(ab)")
    y = pref(abc, "a(bc)")
    for s in [state(a, b) for a in "abc" for b in "abc" if a != b]:
        assert ballot_for(w, s) == frozenset("c")
        assert ballot_for(y, s) == frozenset("a")


def test_modified_leader_rule_tied_runner_up():
    cs = CandidateSet(tuple("abcdef"))
    p = pref(cs, "ab(cdef)")
    assert ballot_for(p, state("e", "f")) == frozenset("ab")


def _tie_structures(names):
    """All ordered partitions of ``names`` into non-empty tie-groups."""
    if not names:
        yield []
        return
    first, rest = names[0], names[1:]
    for sub in _tie_structures(rest):
        for i, group in enumerate(sub):
            yield sub[:i] + [group + [first]] + sub[i + 1:]
        for i in range(len(sub) + 1):
            yield sub[:i] + [[first]] + sub[i:]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_outputs_sincere_for_every_tie_structure_and_outcome(n):
    # Weak (tie-tolerant) sincerity holds for every tie structure; strict
    # sincerity additionally holds whenever ties are confined to the
    # terminal group, which is the only shape the cultures produce.  A
    # winner inside a non-terminal tie-group genuinely splits her group:
    # preference (bc)a at outcome ba yields the ballot {b}.
    names = tuple("abcde"[:n])
    cs = CandidateSet(names)
    outcomes = [state(w, r) for w in names for r in names if w != r]
    count = 0
    for groups in _tie_structures(list(names)):
        p = Preference.from_groups(cs, groups)
        terminal_ties_only = all(len(g) == 1 for g in p.groups[:-1])
        for o in outcomes:
            ballot = ballot_for(p, o)
            assert is_weakly_sincere(p, ballot)
            if terminal_ties_only:
                assert is_sincere(p, ballot)
            # the bottom tie-group is never approved
            assert not (ballot & p.groups[-1])
            count += 1
    assert count == len(outcomes) * _fubini(n)


def test_strict_sincerity_fails_on_mid_tie_winner(abc):
    p = pref(abc, "(bc)a")
    ballot = ballot_for(p, state("b", "a"))
    assert ballot == frozenset("b")
    assert is_weakly_sincere(p, ballot)
    assert not is_sincere(p, ballot)


def _fubini(n):
    return {2: 3, 3: 13, 4: 75, 5: 541}[n]


def test_simple_strategy_ignores_scores(abc):
    p = pref(abc, "bac")
    t1 = Outcome(Tally(abc, (10.0, 20.0, 5.0)), ("b", "a", "c"))
    t2 = Outcome(Tally(abc, (99.0, 100.0, 98.5)), ("b", "a", "c"))
    assert ballot_for(p, t1) == ballot_for(p, t2)

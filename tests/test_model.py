import math

import numpy as np
import pytest

from pollsim import (
    CandidateSet,
    Electorate,
    Preference,
    Tally,
    VoterType,
    is_sincere,
    outcome_from_tally,
    tally,
)
from pollsim.model import is_weakly_sincere
from pollsim.strategies import Strategy

from conftest import pref


def test_candidate_set_validation():
    for names in ((), ("a",)):  # an outcome needs a winner and a runner-up
        with pytest.raises(ValueError, match="need at least two candidates"):
            CandidateSet(names)
    with pytest.raises(ValueError):
        CandidateSet(("a", "a"))
    cs = CandidateSet(("a", "b"))
    assert cs.index("b") == 1
    with pytest.raises(ValueError):
        cs.index("q")


def test_preference_validation(abcd):
    with pytest.raises(ValueError, match="repeated"):
        Preference.from_groups(abcd, [["a"], ["b"], ["a"], ["c"], ["d"]])
    with pytest.raises(ValueError, match="incomplete|missing"):
        Preference.from_groups(abcd, [["a"], ["b"]])
    with pytest.raises(ValueError, match="unknown"):
        Preference.from_groups(abcd, [["a"], ["b"], ["c"], ["q"]])
    p = pref(abcd, "a(bc)d")
    assert p.groups == (frozenset("a"), frozenset("bc"), frozenset("d"))
    assert not p.tie_free
    assert pref(abcd, "abcd").tie_free


def test_preference_rank_vector(abcd):
    p = pref(abcd, "a(bc)d")
    assert p.ranks == (0, 1, 1, 2)
    assert p == Preference(abcd, (0, 1, 1, 2))
    assert p.groups[-1] == frozenset("d")
    with pytest.raises(ValueError, match="one rank per candidate"):
        Preference(abcd, (0, 1, 2))
    with pytest.raises(ValueError, match="0..k-1"):
        Preference(abcd, (0, 2, 2, 3))
    with pytest.raises(ValueError, match="empty"):
        Preference.from_groups(abcd, [["a"], [], ["b", "c", "d"]])


def test_preference_prefers(abcd):
    p = pref(abcd, "a(bc)d")
    assert p.rank_of("a") < p.rank_of("b")
    assert p.rank_of("b") == p.rank_of("c")
    assert p.rank_of("b") < p.rank_of("d")
    with pytest.raises(ValueError, match="unknown candidate"):
        p.rank_of("q")


def test_is_sincere(abcd):
    p = pref(abcd, "a(bc)d")
    assert is_sincere(p, frozenset("abc"))
    assert not is_sincere(p, frozenset("ab"))
    assert is_sincere(p, frozenset())
    assert is_sincere(p, frozenset("abcd"))
    assert is_sincere(p, frozenset("a"))
    assert not is_sincere(p, frozenset("b"))
    # weak sincerity allows splitting the tie group {b, c}, nothing else
    assert is_weakly_sincere(p, frozenset("ab"))
    assert not is_weakly_sincere(p, frozenset("b"))
    assert is_weakly_sincere(p, frozenset("abcd"))


def test_every_sincere_ballot_is_sincere(abcd):
    for notation in ["abcd", "a(bc)d", "(ab)(cd)", "(abcd)", "d(abc)", "(abc)d"]:
        p = pref(abcd, notation)
        for k in range(len(p.groups) + 1):  # every prefix union of the tie-groups
            assert is_sincere(p, frozenset().union(*p.groups[:k]))


def test_tally_consensual_loser_example(loser_electorate):
    # every type approves everything except its bottom group
    assignment = {"Z": frozenset("ab"), "Y": frozenset("a"), "X": frozenset("ab"), "W": frozenset("c")}
    t = tally(loser_electorate, assignment)
    assert t.as_dict() == {"a": 203.0, "b": 201.0, "c": 104.0}


def test_tally_cycle_example_at_ba(cycle_electorate):
    assignment = {
        "T": frozenset("a"),
        "U": frozenset("b"),
        "X": frozenset("b"),
        "V": frozenset("cad"),
        "Y": frozenset("cda"),
        "W": frozenset("da"),
        "Z": frozenset("db"),
    }
    t = tally(cycle_electorate, assignment)
    assert t.as_dict() == {"a": 3111.0, "b": 3020.0, "c": 2009.0, "d": 4027.0}


def test_tally_missing_assignment(loser_electorate):
    with pytest.raises(ValueError, match="no ballot"):
        tally(loser_electorate, {"Z": frozenset("a")})


def test_tally_empty_ballots(loser_electorate):
    assignment = {t.name: frozenset() for t in loser_electorate.types}
    assert all(s == 0.0 for s in tally(loser_electorate, assignment).scores)


def test_outcome_from_tally(abc):
    out = outcome_from_tally(Tally(abc, (103.0, 100.0, 104.0)))
    assert out.ranking == ("c", "a", "b")
    assert out.winner == "c" and out.runner_up == "a"
    # pure tie-break: declaration order
    assert outcome_from_tally(Tally(abc, (1.0, 1.0, 1.0))).ranking == ("a", "b", "c")
    assert outcome_from_tally(Tally(abc, (203.0, 100.0, 104.0))).ranking == ("a", "c", "b")


def test_tally_linear_in_weights(abc):
    rng = np.random.default_rng(5)
    for _ in range(50):
        weights = rng.random(3)
        types = tuple(
            VoterType(f"T{i}", pref(abc, n), float(w), Strategy.MODIFIED_LEADER_RULE)
            for i, (n, w) in enumerate(zip(["abc", "bca", "c(ab)"], weights))
        )
        e1 = Electorate(abc, types)
        e2 = Electorate(abc, tuple(
            VoterType(t.name, t.preference, 2 * t.weight, t.strategy) for t in types
        ))
        assignment = {"T0": frozenset("ab"), "T1": frozenset("b"), "T2": frozenset("c")}
        t1, t2 = tally(e1, assignment), tally(e2, assignment)
        assert all(math.isclose(2 * a, b) for a, b in zip(t1.scores, t2.scores))
        assert outcome_from_tally(t1).ranking == outcome_from_tally(t2).ranking


def test_outcome_invariant_under_rescaling(abc):
    rng = np.random.default_rng(11)
    for _ in range(100):
        scores = tuple(rng.random(3))
        scale = float(rng.random() * 10 + 0.1)
        r1 = outcome_from_tally(Tally(abc, scores)).ranking
        r2 = outcome_from_tally(Tally(abc, tuple(scale * s for s in scores))).ranking
        assert r1 == r2
        assert sorted(r1) == list(abc.names)


def test_electorate_validation(abc):
    p = pref(abc, "abc")
    with pytest.raises(ValueError, match="duplicate"):
        Electorate(abc, (
            VoterType("Z", p, 1.0, Strategy.LEADER_RULE),
            VoterType("Z", p, 1.0, Strategy.LEADER_RULE),
        ))
    with pytest.raises(ValueError, match="positive"):
        Electorate(abc, (VoterType("Z", p, 0.0, Strategy.LEADER_RULE),))
    with pytest.raises(ValueError):
        VoterType("Z", p, -1.0, Strategy.LEADER_RULE)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_voter_type_rejects_non_finite_weight(abc, weight):
    # a NaN weight used to pass and make the total weight NaN, which the
    # electorate's positivity check let through
    with pytest.raises(ValueError, match="finite and non-negative"):
        VoterType("Z", pref(abc, "abc"), weight, Strategy.LEADER_RULE)

import numpy as np
import pytest

from pollsim import (
    CandidateSet,
    CultureKind,
    CultureSpec,
    Electorate,
    PositionalModel,
    VoterType,
    condorcet_analysis,
    median_candidate,
)
from pollsim.cultures import sample_spatial_electorate
from pollsim.strategies import Strategy

from conftest import pref


def duel(e, rep, a, b):
    """1 if ``a`` beats ``b`` in the majority relation of the report's
    duel matrix, -1 if ``b`` beats ``a``, 0 on a tie."""
    i, j = e.candidates.index(a), e.candidates.index(b)
    return int(np.sign(rep.duel[i, j] - rep.duel[j, i]))


def test_dominates_loser_electorate(loser_electorate):
    rep = condorcet_analysis(loser_electorate)
    assert duel(loser_electorate, rep, "a", "b") == 1
    assert duel(loser_electorate, rep, "b", "c") == 1
    assert duel(loser_electorate, rep, "c", "b") == -1


def test_dominates_tie(abc):
    e = Electorate(abc, (
        VoterType("Z", pref(abc, "abc"), 1.0, Strategy.LEADER_RULE),
        VoterType("Y", pref(abc, "cba"), 1.0, Strategy.LEADER_RULE),
    ))
    assert duel(e, condorcet_analysis(e), "a", "c") == 0


def test_condorcet_analysis_cycle_electorate(cycle_electorate):
    rep = condorcet_analysis(cycle_electorate)
    assert rep.condorcet_winner == "a"
    assert rep.condorcet_order is None  # majority cycle b > c > d > b
    assert duel(cycle_electorate, rep, "b", "c") == 1
    assert duel(cycle_electorate, rep, "c", "d") == 1
    assert duel(cycle_electorate, rep, "d", "b") == 1
    assert rep.condorcet_loser is None


def test_condorcet_analysis_loser_electorate(loser_electorate):
    rep = condorcet_analysis(loser_electorate)
    assert rep.condorcet_winner == "a"
    assert rep.consensual_loser == "c"
    assert rep.condorcet_loser == "c"
    assert rep.condorcet_order == ("a", "b", "c")


def test_condorcet_analysis_single_type(abc):
    e = Electorate(abc, (VoterType("Z", pref(abc, "abc"), 2.0, Strategy.LEADER_RULE),))
    rep = condorcet_analysis(e)
    assert rep.condorcet_winner == "a"
    assert rep.condorcet_loser == "c"
    assert rep.condorcet_order == ("a", "b", "c")
    assert rep.consensual_loser == "c"


def test_domination_antisymmetry_random():
    # the majority relation is the sign of D - D.T, antisymmetric by
    # construction; what the duel matrix must get right is that each
    # voter distinguishing a pair counts on exactly one side of it
    spec = CultureSpec(CultureKind.IMPARTIAL, 5, 9, Strategy.MODIFIED_LEADER_RULE, seed=3)
    from pollsim import sample_electorate

    for i in range(60):
        e = sample_electorate(spec, i)
        d = condorcet_analysis(e).duel
        assert not np.diag(d).any()
        for a in range(5):
            for b in range(5):
                distinguishing = sum(t.weight for t in e.types if t.preference.ranks[a] != t.preference.ranks[b])
                assert d[a, b] + d[b, a] == pytest.approx(distinguishing, rel=1e-12)


def test_condorcet_winner_uniqueness_random():
    spec = CultureSpec(CultureKind.IMPARTIAL, 5, 9, Strategy.LEADER_RULE, seed=17)
    from pollsim import sample_electorate

    for i in range(200):
        e = sample_electorate(spec, i)
        rep = condorcet_analysis(e)
        winners = [a for a in e.candidates if all(duel(e, rep, a, b) == 1 for b in e.candidates if b != a)]
        assert len(winners) <= 1
        assert (rep.condorcet_winner in winners) if winners else rep.condorcet_winner is None


def test_strong_mode_differs_with_ties(abc):
    # W's voters are indifferent between a and b; a dominates b 2:1 among
    # voters with an opinion but holds no strict majority of all 10
    e = Electorate(abc, (
        VoterType("Z", pref(abc, "abc"), 2.0, Strategy.MODIFIED_LEADER_RULE),
        VoterType("X", pref(abc, "bac"), 1.0, Strategy.MODIFIED_LEADER_RULE),
        VoterType("W", pref(abc, "c(ab)"), 7.0, Strategy.MODIFIED_LEADER_RULE),
    ))
    assert condorcet_analysis(e).condorcet_winner == "c"
    weak = condorcet_analysis(e, strong=False)
    strong = condorcet_analysis(e, strong=True)
    assert duel(e, weak, "a", "b") == 1
    assert strong.condorcet_winner == "c"  # c beats both with 7/10 > 1/2
    # and on tie-free preferences both modes agree
    e2 = Electorate(abc, (
        VoterType("Z", pref(abc, "abc"), 2.0, Strategy.LEADER_RULE),
        VoterType("X", pref(abc, "bac"), 1.0, Strategy.LEADER_RULE),
    ))
    assert condorcet_analysis(e2).condorcet_winner == condorcet_analysis(e2, strong=True).condorcet_winner


def _positional_electorate(type_positions, weights, cand_positions, names="ab"):
    cs = CandidateSet(tuple(names))
    types = []
    for i, (x, w) in enumerate(zip(type_positions, weights)):
        order = sorted(names, key=lambda c: abs(cand_positions[names.index(c)] - x))
        types.append(VoterType(f"T{i}", pref(cs, "".join(order)), w, Strategy.LEADER_RULE))
    e = Electorate(cs, tuple(types))
    model = PositionalModel(
        candidate_positions={c: (cand_positions[i],) for i, c in enumerate(names)},
        type_positions={f"T{i}": (x,) for i, x in enumerate(type_positions)},
    )
    return e, model


def test_median_candidate_heavy_right_type():
    # the right-most type holds the majority on its own side of every cut
    e, model = _positional_electorate([0.1, 0.45, 0.9], [1.0, 1.0, 2.5], [0.2, 0.8])
    median_type, mu = median_candidate(model, e)
    assert median_type == "T2"
    assert mu == "b"
    assert condorcet_analysis(e).condorcet_winner == "b"


def test_median_candidate_single_type():
    e, model = _positional_electorate([0.3], [1.0], [0.2, 0.8])
    median_type, mu = median_candidate(model, e)
    assert median_type == "T0" and mu == "a"


def test_median_candidate_rejects_equidistant_type():
    # a type at 0.5 sits exactly between candidates at 0.25 and 0.75
    # (binary-exact positions, so the distances tie exactly)
    e, model = _positional_electorate([0.1, 0.5, 0.9], [1.0, 1.0, 1.5], [0.25, 0.75])
    with pytest.raises(ValueError, match="genericity"):
        median_candidate(model, e)


def test_median_candidate_rejects_half_split():
    e, model = _positional_electorate([0.1, 0.9], [1.0, 1.0], [0.2, 0.8])
    with pytest.raises(ValueError, match="genericity|half"):
        median_candidate(model, e)


def test_median_agrees_with_condorcet_on_sampled_cultures():
    spec = CultureSpec(CultureKind.SPATIAL, 5, 9, Strategy.LEADER_RULE, seed=21, dimension=1)
    for i in range(300):
        e, model = sample_spatial_electorate(spec, i)
        _, mu = median_candidate(model, e)
        assert condorcet_analysis(e).condorcet_winner == mu


def test_consensual_loser_loses_every_comparable_duel():
    # The raw definition degenerates on totally indifferent voters (they
    # rank everyone last, tied), so the provable statement is per pair:
    # whenever the last-ranking majority actually distinguishes the
    # consensual loser from an opponent, she loses that duel.
    spec = CultureSpec(CultureKind.IMPARTIAL, 4, 7, Strategy.MODIFIED_LEADER_RULE, seed=5)
    from pollsim import sample_electorate

    seen = comparable = 0
    for i in range(2000):
        e = sample_electorate(spec, i)
        rep = condorcet_analysis(e)
        cl = rep.consensual_loser
        if cl is None:
            continue
        seen += 1
        total = e.total_weight
        for other in e.candidates:
            if other == cl:
                continue
            distinguishing = sum(
                t.weight for t in e.types
                if cl in t.preference.groups[-1] and other not in t.preference.groups[-1]
            )
            if distinguishing > total / 2:
                comparable += 1
                assert duel(e, rep, cl, other) == -1
    assert seen > 50 and comparable > 30


def test_consensual_loser_comparable_duels_loser_electorate(loser_electorate):
    # c is ranked last by Z and X alone and inside Y's {b, c} group; the
    # distinguishing majority exists against both a and b, so c loses both
    rep = condorcet_analysis(loser_electorate)
    assert rep.consensual_loser == "c"
    assert duel(loser_electorate, rep, "c", "a") == -1
    assert duel(loser_electorate, rep, "c", "b") == -1

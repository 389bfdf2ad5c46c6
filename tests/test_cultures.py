"""Sampler determinism, limit-placement statistics, and the structural
guarantees of the one-dimensional culture."""

import numpy as np
import pytest

from pollsim import CultureKind, CultureSpec, condorcet_analysis, sample_electorate
from pollsim.cultures import (
    _impartial_base,
    _sample_spatial,
    candidate_names,
    sample_spatial_electorate,
    trial_seed,
)
from pollsim.strategies import Strategy


def spec_of(kind, strategy, seed=0, nc=6, nt=20, d=0):
    return CultureSpec(kind, nc, nt, strategy, seed=seed, dimension=d)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_of(CultureKind.SPATIAL, Strategy.LEADER_RULE, d=0)
    with pytest.raises(ValueError):
        CultureSpec(CultureKind.IMPARTIAL, 1, 5, Strategy.LEADER_RULE, seed=0)
    with pytest.raises(ValueError):
        CultureSpec(CultureKind.IMPARTIAL, 3, 0, Strategy.LEADER_RULE, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        CultureSpec(CultureKind.IMPARTIAL, 3, 2, Strategy.LEADER_RULE, seed=1, dimension=7)


def test_trial_seed_decorrelates():
    seeds = {trial_seed(1, i) for i in range(10000)}
    assert len(seeds) == 10000
    assert trial_seed(1, 5) != trial_seed(2, 5)


def test_determinism_per_trial():
    for kind, d in [(CultureKind.IMPARTIAL, 0), (CultureKind.SPATIAL, 1), (CultureKind.SPATIAL, 3)]:
        spec = spec_of(kind, Strategy.MODIFIED_LEADER_RULE, seed=99, d=d)
        for i in (0, 1, 17):
            assert sample_electorate(spec, i) == sample_electorate(spec, i)
    a = sample_electorate(spec_of(CultureKind.IMPARTIAL, Strategy.LEADER_RULE, seed=1), 0)
    b = sample_electorate(spec_of(CultureKind.IMPARTIAL, Strategy.LEADER_RULE, seed=1), 1)
    assert a != b


def test_l1_expected_distance_matches_d_over_3():
    rng = np.random.default_rng(4)
    for d in (1, 2, 5):
        pairs = 200_000
        u = rng.random((pairs, d))
        v = rng.random((pairs, d))
        mean = float(np.abs(u - v).sum(axis=1).mean())
        assert mean == pytest.approx(d / 3, rel=0.01)


def test_candidate_names_past_alphabet():
    names = candidate_names(30)
    assert len(set(names)) == 30


def test_impartial_limit_mean_rank_is_central():
    # the limit lands uniformly among the 7 slots: zero-based mean 3.0
    spec = spec_of(CultureKind.IMPARTIAL, Strategy.MODIFIED_LEADER_RULE, seed=11, nt=20)
    stats = {}
    for i in range(5000):
        sample_electorate(spec, i, stats=stats)
    ranks = stats["limit_ranks"]
    assert len(ranks) == 100_000
    assert abs(float(np.mean(ranks)) - 3.0) < 0.02


@pytest.mark.parametrize("d", [1, 2, 3])
def test_spatial_limit_mean_rank_is_central(d):
    # the limit threshold shares the law of a candidate distance, so on
    # average half the six candidates fall inside it
    spec = spec_of(CultureKind.SPATIAL, Strategy.MODIFIED_LEADER_RULE, seed=13, d=d)
    stats = {}
    for i in range(2500):
        sample_electorate(spec, i, stats=stats)
    assert abs(float(np.mean(stats["limit_ranks"])) - 3.0) < 0.05


def test_spatial_lr_preferences_are_tie_free_and_single_peaked():
    spec = spec_of(CultureKind.SPATIAL, Strategy.LEADER_RULE, seed=8, d=1)
    for i in range(300):
        e, model = sample_spatial_electorate(spec, i)
        cand_order = sorted(e.candidates, key=lambda c: model.candidate_positions[c][0])
        for t in e.types:
            assert t.preference.tie_free
            # ranks along the spatial axis are V-shaped around the favorite
            ranks = [t.preference.rank_of(c) for c in cand_order]
            top = ranks.index(0)
            assert all(ranks[k] > ranks[k + 1] for k in range(top))
            assert all(ranks[k] < ranks[k + 1] for k in range(top, len(ranks) - 1))


def _reference_ranks(row, nc, mlr):
    """Ranks from one impartial row, a permutation of the candidates and
    the sentinel nc that marks the approval limit, by a plain loop."""
    limit = row.index(nc)
    order = [c for c in row if c != nc]
    ranks = [0] * nc
    for place, c in enumerate(order):
        ranks[c] = min(place, limit) if mlr else place
    return tuple(ranks)


@pytest.mark.parametrize("strategy", [Strategy.LEADER_RULE, Strategy.MODIFIED_LEADER_RULE])
def test_impartial_ranks_match_reference_loop(strategy):
    spec = spec_of(CultureKind.IMPARTIAL, strategy, seed=21)
    nc, nt = spec.n_candidates, spec.n_types
    assert not _impartial_base(nt, nc).flags.writeable  # every trial permutes the one cached base
    for i in range(100):
        rng = np.random.default_rng(trial_seed(spec.seed, i))
        rng.random(nt)  # the weights are drawn first
        rows = rng.permuted(np.tile(np.arange(nc + 1), (nt, 1)), axis=1).tolist()
        e = sample_electorate(spec, i)
        mlr = strategy is Strategy.MODIFIED_LEADER_RULE
        assert [t.preference.ranks for t in e.types] == [_reference_ranks(r, nc, mlr) for r in rows]


@pytest.mark.parametrize("strategy", [Strategy.LEADER_RULE, Strategy.MODIFIED_LEADER_RULE])
def test_spatial_ranks_match_distances(strategy):
    # a candidate's place is the number of candidates strictly closer;
    # MLR clips the places at the type's limit, its largest rank
    spec = spec_of(CultureKind.SPATIAL, strategy, seed=22, d=2)
    for i in range(100):
        e, model = sample_spatial_electorate(spec, i)
        for t in e.types:
            pos = model.type_positions[t.name]
            dist = [sum(abs(a - b) for a, b in zip(pos, model.candidate_positions[c])) for c in e.candidates]
            places = [sum(o < x for o in dist) for x in dist]
            ranks = t.preference.ranks
            assert ranks == tuple(min(p, max(ranks)) for p in places)
            if strategy is Strategy.LEADER_RULE:
                assert ranks == tuple(places)


def test_spatial_d1_always_has_condorcet_winner_under_lr():
    spec = spec_of(CultureKind.SPATIAL, Strategy.LEADER_RULE, seed=30, d=1)
    for i in range(500):
        e = sample_electorate(spec, i)
        assert condorcet_analysis(e).condorcet_winner is not None


def test_mlr_groups_are_terminal_tie_only():
    for kind, d in [(CultureKind.IMPARTIAL, 0), (CultureKind.SPATIAL, 2)]:
        spec = spec_of(kind, Strategy.MODIFIED_LEADER_RULE, seed=44, d=d)
        for i in range(100):
            e = sample_electorate(spec, i)
            for t in e.types:
                assert all(len(g) == 1 for g in t.preference.groups[:-1])


def test_trusted_preferences_match_validating_constructor():
    # the samplers build rank vectors directly; rebuilding each preference
    # from its tie-groups through the validating constructor must agree
    from pollsim import Preference

    for kind, d in [(CultureKind.IMPARTIAL, 0), (CultureKind.SPATIAL, 3)]:
        spec = spec_of(kind, Strategy.MODIFIED_LEADER_RULE, seed=7, d=d)
        for i in range(50):
            e = sample_electorate(spec, i)
            for t in e.types:
                rebuilt = Preference.from_groups(t.preference.candidates, t.preference.groups)
                assert rebuilt == t.preference
                assert all(
                    rebuilt.rank_of(c) == t.preference.rank_of(c) for c in e.candidates
                )


class _HalfRng:
    """Stands in for a generator whose every draw is 0.5."""

    def random(self, size=None):
        return 0.5 if size is None else np.full(size, 0.5)


@pytest.mark.parametrize("strategy", [Strategy.LEADER_RULE, Strategy.MODIFIED_LEADER_RULE])
def test_spatial_sampler_raises_when_ties_persist(strategy):
    # every candidate and type sits at 0.5, so every resample ties again;
    # the sampler must not fall back to the stable sort's order
    spec = spec_of(CultureKind.SPATIAL, strategy, nc=4, nt=3, d=1)
    stats = {}
    with pytest.raises(ValueError, match="T0"):
        _sample_spatial(spec, _HalfRng(), stats)
    assert stats["resamples"] == 64

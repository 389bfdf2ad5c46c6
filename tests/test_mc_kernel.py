"""The batched Monte Carlo kernel against its per-trial reference.

`experiments._count_range` evaluates a range of trials as stacked arrays;
`trial_outcome` (sample -> duel matrix -> Condorcet report -> poll graph
-> classify) is the readable reference it must reproduce, count for
count, on random specs and trial ranges.  Counts of a split range add up
to the counts of the whole range, which is what lets `run_table` merge
worker chunks.  The stacked duel tensor equals each trial's `duel_matrix`
bit for bit, including the exact structural ties the modified leader
rule produces."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pollsim import CultureKind, CultureSpec, sample_electorate
from pollsim.cultures import sample_ranks
from pollsim.experiments import _SLICE, _count_range, trial_outcome
from pollsim.majority import duel_matrix, duel_tensor
from pollsim.strategies import Strategy

LR, MLR = Strategy.LEADER_RULE, Strategy.MODIFIED_LEADER_RULE


@st.composite
def specs(draw):
    d = draw(st.sampled_from([0, 1, 2, 3, 400]))
    return CultureSpec(
        CultureKind.IMPARTIAL if d == 0 else CultureKind.SPATIAL,
        draw(st.integers(2, 8)),
        draw(st.integers(1, 25)),
        draw(st.sampled_from([LR, MLR])),
        seed=draw(st.integers(0, 2**32)),
        dimension=d,
    )


def _reference(spec, lo, hi):
    outcomes = [trial_outcome(spec, i) for i in range(lo, hi)]
    return sum(cw for cw, _ in outcomes), sum(bad for _, bad in outcomes)


@settings(deadline=None, max_examples=60)
@given(specs(), st.integers(0, 500), st.integers(1, 40))
@example(CultureSpec(CultureKind.IMPARTIAL, 2, 3, MLR, seed=7), 0, 30)
@example(CultureSpec(CultureKind.SPATIAL, 6, 20, MLR, seed=3, dimension=1), 5, _SLICE + 45)
@example(CultureSpec(CultureKind.IMPARTIAL, 8, 20, LR, seed=3), 0, _SLICE + 1)
def test_kernel_counts_equal_per_trial_reference(spec, lo, length):
    assert _count_range((spec, lo, lo + length)) == _reference(spec, lo, lo + length)


def _split_sum(spec, cuts):
    counts = [_count_range((spec, a, b)) for a, b in zip(cuts, cuts[1:])]
    return tuple(map(sum, zip(*counts)))


@settings(deadline=None, max_examples=40)
@given(specs(), st.integers(0, 500), st.data())
def test_split_ranges_add_up(spec, lo, data):
    hi = lo + data.draw(st.integers(2, 60))
    cut = data.draw(st.integers(lo + 1, hi - 1))
    assert _count_range((spec, lo, hi)) == _split_sum(spec, [lo, cut, hi])


def test_split_of_a_range_longer_than_a_slice_adds_up():
    spec = CultureSpec(CultureKind.SPATIAL, 4, 10, MLR, seed=9, dimension=2)
    hi = 2 * _SLICE + 7
    assert _count_range((spec, 0, hi)) == _split_sum(spec, [0, _SLICE - 1, _SLICE + 50, hi])


def test_duel_tensor_equals_duel_matrix_bit_for_bit():
    for spec in (
        CultureSpec(CultureKind.IMPARTIAL, 6, 20, MLR, seed=4),
        CultureSpec(CultureKind.SPATIAL, 6, 20, MLR, seed=4, dimension=1),
        CultureSpec(CultureKind.SPATIAL, 8, 20, MLR, seed=4, dimension=2),
        CultureSpec(CultureKind.SPATIAL, 3, 10, MLR, seed=4, dimension=400),
    ):
        ranks, weights = zip(*(sample_ranks(spec, i) for i in range(300)))
        tensor = duel_tensor(np.stack(ranks), np.stack(weights))
        for i in range(300):
            assert np.array_equal(tensor[i], duel_matrix(sample_electorate(spec, i))), (spec, i)

"""The stacked culture sampler against its per-trial reference.

`cultures.sample_slice` seeds a slice of trial streams at once
(`_pcg64_states`, numpy's SeedSequence hash and PCG64 seeding) and sorts
the slice's rows as stacked arrays.  Each seeded state must equal
``np.random.default_rng(seed)``'s, and each slice must equal stacking
`sample_ranks` trial by trial, bit for bit, at every block size of its
spatial trials, after a ``permuted`` left a 32-bit word buffered, and when
a trial ties."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pollsim import cultures
from pollsim.cultures import CultureKind, CultureSpec, _pcg64_states, sample_ranks, sample_slice, trial_seed
from pollsim.strategies import Strategy

LR, MLR = Strategy.LEADER_RULE, Strategy.MODIFIED_LEADER_RULE
EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 2, 2**64 - 1]


def _numpy_state(seed):
    state = np.random.default_rng(seed).bit_generator.state["state"]
    return state["state"], state["inc"]


def test_seeding_equals_default_rng_on_edge_and_trial_seeds():
    seeds = EDGE_SEEDS + [trial_seed(s, i) for s in (0, 1, -1, 7919) for i in range(50)]
    assert _pcg64_states(seeds) == [_numpy_state(s) for s in seeds]


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16))
def test_seeding_equals_default_rng_on_64_bit_seeds(seeds):
    assert _pcg64_states(seeds) == [_numpy_state(s) for s in seeds]


@settings(deadline=None, max_examples=60)
@given(st.integers(-2**70, -1), st.integers(0, 10**6))
def test_seeding_equals_default_rng_on_negative_spec_seeds(seed, lo):
    seeds = [trial_seed(seed, i) for i in range(lo, lo + 4)]
    assert _pcg64_states(seeds) == [_numpy_state(s) for s in seeds]


def _spec(d, strategy, nc=6, nt=20, seed=5):
    kind = CultureKind.IMPARTIAL if d == 0 else CultureKind.SPATIAL
    return CultureSpec(kind, nc, nt, strategy, seed=seed, dimension=d)


def _assert_equals_reference(spec, lo, hi):
    ranks, weights = sample_slice(spec, lo, hi)
    want_ranks, want_weights = map(np.stack, zip(*(sample_ranks(spec, i) for i in range(lo, hi))))
    assert ranks.dtype == want_ranks.dtype and weights.dtype == want_weights.dtype
    assert np.array_equal(ranks, want_ranks)
    assert np.array_equal(weights.view(np.uint64), want_weights.view(np.uint64))


@pytest.mark.parametrize("d", [0, 1, 2, 3, 400])
@pytest.mark.parametrize("strategy", [LR, MLR])
@pytest.mark.parametrize("n", [1, 64])
def test_slice_equals_per_trial_reference(d, strategy, n):
    _assert_equals_reference(_spec(d, strategy), 3, 3 + n)
    _assert_equals_reference(_spec(d, strategy, nc=2, nt=1, seed=-4), 0, n)


def _record_blocks(monkeypatch):
    """The leading shape of every draws array `_spatial_rows` receives."""
    rows, shapes = cultures._spatial_rows, []

    def recorded_rows(spec, draws):
        shapes.append(draws.shape[:-1])
        return rows(spec, draws)

    monkeypatch.setattr(cultures, "_spatial_rows", recorded_rows)
    return shapes


@pytest.mark.parametrize("d, nc", [(1, 6), (2, 6), (3, 8), (400, 6)])
@pytest.mark.parametrize("strategy", [LR, MLR])
@pytest.mark.parametrize("block", [1, 2, 3])
def test_forced_blocks_equal_the_reference(d, nc, strategy, block, monkeypatch):
    # a bound of `block` trials' doubles (the larger of a trial's draws and
    # its difference array), plus a remainder the division drops, gives
    # blocks of that many trials, the last one short when the slice does
    # not divide
    nt = 20
    k = nt + (nc + (3 if strategy is MLR else 1) * nt) * d
    monkeypatch.setattr(cultures, "_STACK_DOUBLES", block * max(k, nt * nc * d) + block - 1)
    shapes = _record_blocks(monkeypatch)
    for n in (7, 64):
        shapes.clear()
        _assert_equals_reference(_spec(d, strategy, nc=nc), 3, 3 + n)
        assert shapes == [(block,)] * (n // block) + [(n % block,)] * (n % block > 0)


@pytest.mark.parametrize("d, nc, strategy, blocks", [
    *[(d, 6, s, [(64,)]) for d in (1, 2, 3) for s in (LR, MLR)],
    (1, 8, MLR, [(64,)]),
    (3, 8, LR, [(64,)]),
    (400, 6, LR, [(1,)] * 64),
    (400, 6, MLR, [(1,)] * 64),
    (50, 6, MLR, [(10,)] * 6 + [(4,)]),
])
def test_paper_conditions_keep_their_blocks(d, nc, strategy, blocks, monkeypatch):
    # the culture table's spatial slices of 64 trials: one block at
    # d <= 3, one trial at a time at d = 400; d = 50 takes 10 at a time
    shapes = _record_blocks(monkeypatch)
    sample_slice(_spec(d, strategy, nc=nc), 0, 64)
    assert shapes == blocks


@st.composite
def slices(draw):
    d = draw(st.sampled_from([0, 1, 2, 3, 400]))
    spec = _spec(d, draw(st.sampled_from([LR, MLR])), nc=draw(st.integers(2, 8)),
                 nt=draw(st.integers(1, 25)), seed=draw(st.integers(-2**64, 2**64)))
    lo = draw(st.integers(0, 10**6))
    return spec, lo, lo + draw(st.integers(1, 70))


@settings(deadline=None, max_examples=40)
@given(slices())
@example((_spec(400, MLR, nc=8, nt=25), 0, 70))
def test_slice_equals_per_trial_reference_on_random_specs(args):
    _assert_equals_reference(*args)


def test_buffered_word_of_one_trial_does_not_shift_the_next():
    # `permuted` draws 32-bit words and can leave one buffered in the bit
    # generator; every trial must restart without it, in an LR slice and
    # in the MLR slice after it
    spec = _spec(0, LR)
    rng = np.random.default_rng(trial_seed(spec.seed, 0))
    rng.random(spec.n_types)
    rng.permuted(np.tile(np.arange(spec.n_candidates + 1), (spec.n_types, 1)), axis=1)
    assert rng.bit_generator.state["has_uint32"] == 1
    _assert_equals_reference(spec, 0, 64)
    _assert_equals_reference(_spec(0, MLR), 0, 64)


def test_empty_slice_is_refused():
    with pytest.raises(ValueError, match="at least one trial"):
        sample_slice(_spec(1, LR), 5, 5)


def test_seeding_check_is_loud(monkeypatch):
    derived = cultures._pcg64_states
    monkeypatch.setattr(cultures, "_pcg64_states", lambda seeds: [(s + 1, inc) for s, inc in derived(seeds)])
    with pytest.raises(RuntimeError, match="seeding"):
        sample_slice(_spec(0, LR), 0, 4)


def _tie_trial(monkeypatch, trial, threshold=False):
    """Make every distance in the first row of one trial tie or, with
    ``threshold``, every limit threshold of the trial equal its nearest
    candidate's distance, in a slice that stacks its draws."""
    rows = cultures._spatial_rows

    def tied_rows(spec, draws):
        dist, thresholds = rows(spec, draws)
        if threshold:
            thresholds[trial] = dist[trial].min(axis=-1)
        else:
            dist[trial, 0] = dist[trial, 0, 0]
        return dist, thresholds

    monkeypatch.setattr(cultures, "_spatial_rows", tied_rows)


@pytest.mark.parametrize("strategy, threshold", [(LR, False), (MLR, False), (MLR, True)])
def test_tied_trial_is_drawn_again_by_the_reference(strategy, threshold, monkeypatch):
    spec = _spec(2, strategy)
    untouched = sample_slice(spec, 10, 30)[0]
    _tie_trial(monkeypatch, 7, threshold)
    _assert_equals_reference(spec, 10, 30)
    assert np.array_equal(sample_slice(spec, 10, 30)[0], untouched)


class _HalfRng:
    """Stands in for a generator whose every draw is 0.5."""

    def random(self, size=None):
        return 0.5 if size is None else np.full(size, 0.5)


def test_persistent_tie_raises_naming_the_type(monkeypatch):
    spec = _spec(1, MLR)
    _tie_trial(monkeypatch, 3)
    sample = cultures._sample_spatial
    monkeypatch.setattr(cultures, "_sample_spatial", lambda spec, rng, stats=None: sample(spec, _HalfRng(), stats))
    with pytest.raises(ValueError, match="type T0"):
        sample_slice(spec, 0, 8)

"""Properties of the orbit generator over the planar, tent and two-bloc
sources: winners words agree with collected orbits, thinned rows are
slices of the full orbit, ``advance`` is called once per state up to the
last row and never past it, a source with nothing but ``advance`` drives
the orbit and the word alike, a source's ``advance`` is the reference
winner and its step, and two-bloc states stay on the simplex."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pollsim import (
    Fallback,
    build_planar_map,
    build_tent_model,
    orbit_rows,
    winners_word,
)
from pollsim import continuous
from pollsim.continuous import ContinuousDynamics
from pollsim.cli import main
from pollsim.presets import two_bloc_dynamics, two_bloc_view

PLANAR = build_planar_map()
TENT = build_tent_model()
TWO_BLOC = {fb: two_bloc_dynamics(fallback=fb) for fb in Fallback}
TENT_DEN = 5**12

unit = st.floats(0.0, 1.0)


@st.composite
def source_and_start(draw):
    kind = draw(st.sampled_from(["planar", "tent", "twobloc"]))
    if kind == "planar":
        return PLANAR, (draw(unit), draw(unit))
    if kind == "tent":
        return TENT, Fraction(draw(st.integers(0, TENT_DEN)), TENT_DEN)
    dyn = TWO_BLOC[draw(st.sampled_from(list(Fallback)))]
    return dyn, two_bloc_view(dyn).state(draw(unit), draw(unit))


def reference_winner(source, state):
    """The winner at ``state`` by each source's reference, not its
    ``advance``: the outcome of a dynamics' scores, the planar map's
    `reference_winner`, and b exactly when the tent state is at least 1/2."""
    if isinstance(source, ContinuousDynamics):
        return source.outcome(state).winner
    if source is PLANAR:
        return source.reference_winner(state)
    return "b" if state >= 0.5 else "c"


class Counting:
    """A source that counts the steps taken through it; an ``advance``
    is one step."""

    def __init__(self, source):
        self.source, self.steps = source, 0

    def advance(self, state):
        self.steps += 1
        return self.source.advance(state)


class AdvanceOnly:
    """A source with nothing but ``advance``, the whole orbit protocol."""

    __slots__ = ("advance",)

    def __init__(self, source):
        self.advance = source.advance


@settings(deadline=None)
@given(source_and_start(), st.integers(0, 60))
def test_winners_word_matches_iterated_orbit(case, n):
    source, start = case
    winners = "".join(w for _, _, w in orbit_rows(source, start, n))
    assert winners == winners_word(source, start, n + 1).letters


@settings(deadline=None)
@given(source_and_start(), st.integers(0, 40), st.integers(1, 7), st.integers(0, 20))
def test_thinned_rows_are_slices_of_the_full_orbit(case, n, keep_every, discard):
    source, start = case
    full = list(orbit_rows(source, start, discard + n))
    counting = Counting(source)
    rows = list(orbit_rows(counting, start, n, keep_every, discard))
    assert rows == full[discard::keep_every]
    assert counting.steps == rows[-1][0] + 1


@settings(deadline=None)
@given(source_and_start(), st.integers(0, 40), st.integers(1, 7), st.integers(0, 20))
def test_a_source_is_its_advance_alone(case, n, keep_every, discard):
    source, start = case
    bare = AdvanceOnly(source)
    assert list(orbit_rows(bare, start, n, keep_every, discard)) == list(orbit_rows(source, start, n, keep_every, discard))
    # a planar map's own word loop answers the real source; the bare one
    # takes `winners_word`'s `orbit_rows` branch
    assert winners_word(bare, start, n + 1).letters == winners_word(source, start, n + 1).letters


@settings(deadline=None)
@given(source_and_start(), st.integers(0, 20))
def test_advance_is_the_winner_and_the_step(case, n):
    source, state = case
    for _ in range(n):
        w, nxt = source.advance(state)
        assert (w, nxt) == (reference_winner(source, state), source.step(state))
        state = nxt


@given(unit)
def test_tent_float_advance_is_the_winner_and_the_step(z):
    w, nxt = TENT.advance(z)
    assert (w, nxt.hex()) == (reference_winner(TENT, z), TENT.step(z).hex())


def test_grid_runs_one_batch_and_no_scalar_kernel(monkeypatch, tmp_path):
    # 30 x 30 starts of 8 steps each go through one `run_many` call; the
    # scalar kernel behind `advance` runs not once
    calls, batches = [], []
    resolve = continuous._resolved_step
    run_many = continuous.ContinuousDynamics.run_many

    def counted(dyn):
        kernel = resolve(dyn)
        return lambda state: calls.append(1) or kernel(state)

    def batched(dyn, starts, n):
        batches.append((len(starts), n))
        return run_many(dyn, starts, n)

    monkeypatch.setattr(continuous, "_resolved_step", counted)
    monkeypatch.setattr(continuous.ContinuousDynamics, "run_many", batched)
    assert main(["grid", "--model", "twobloc", "--res", "30", "--iters", "8", "--out", str(tmp_path / "g.csv")]) == 0
    assert calls == []
    assert batches == [(900, 8)]
    dyn = two_bloc_dynamics()
    dyn.advance(two_bloc_view(dyn).state(0.5, 0.5))
    assert calls == [1]  # the counter sees a scalar call


@settings(deadline=None)
@given(st.sampled_from(list(Fallback)), unit, unit, st.integers(1, 60))
def test_two_bloc_states_stay_on_the_simplex(fallback, x, z, n):
    dyn = TWO_BLOC[fallback]
    for _, state, _ in orbit_rows(dyn, two_bloc_view(dyn).state(x, z), n):
        for point in state:
            assert all(0.0 <= s <= 1.0 for s in point.shares)
            assert abs(sum(point.shares) - 1.0) <= 1e-12

"""Properties of the orbit generator over the planar, tent and two-bloc
sources: winners words agree with collected orbits, thinned rows are
slices of the full orbit, no step is taken past the last row, a source's
``advance`` is its winner and its step, and two-bloc states stay on the
simplex."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pollsim import (
    Fallback,
    build_planar_map,
    build_tent_model,
    iterate_orbit,
    orbit_rows,
    winners_word,
)
from pollsim import continuous
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


class Counting:
    """A source that counts the steps taken through it; an ``advance``
    is one step."""

    def __init__(self, source):
        self.source, self.steps = source, 0

    def step(self, state):
        self.steps += 1
        return self.source.step(state)

    def winner(self, state):
        return self.source.winner(state)

    def advance(self, state):
        self.steps += 1
        return self.source.advance(state)


@settings(deadline=None)
@given(source_and_start(), st.integers(0, 60))
def test_winners_word_matches_iterated_orbit(case, n):
    source, start = case
    assert iterate_orbit(source, start, n).winners == winners_word(source, start, n + 1).letters


@settings(deadline=None)
@given(source_and_start(), st.integers(0, 40), st.integers(1, 7), st.integers(0, 20))
def test_thinned_rows_are_slices_of_the_full_orbit(case, n, keep_every, discard):
    source, start = case
    full = list(orbit_rows(source, start, discard + n))
    counting = Counting(source)
    rows = list(orbit_rows(counting, start, n, keep_every, discard))
    assert rows == full[discard::keep_every]
    assert counting.steps == rows[-1][0]


@settings(deadline=None)
@given(source_and_start(), st.integers(0, 20))
def test_advance_is_the_winner_and_the_step(case, n):
    source, state = case
    for _ in range(n):
        w, nxt = source.advance(state)
        assert (w, nxt) == (source.winner(state), source.step(state))
        state = nxt


@given(unit)
def test_tent_float_advance_is_the_winner_and_the_step(z):
    w, nxt = TENT.advance(z)
    assert (w, nxt.hex()) == (TENT.winner(z), TENT.step(z).hex())


def test_grid_evaluates_one_outcome_per_row(monkeypatch, tmp_path):
    # 30 x 30 starts with 9 rows each: 8,100 rows and as many evaluations
    # of the step kernel, which `step`, `advance` and `winner` all run
    calls = []
    resolve = continuous._resolved_step

    def counted(dyn):
        kernel = resolve(dyn)

        def run(state):
            calls.append(1)
            return kernel(state)

        return run

    monkeypatch.setattr(continuous, "_resolved_step", counted)
    assert main(["grid", "--model", "twobloc", "--res", "30", "--iters", "8", "--out", str(tmp_path / "g.csv")]) == 0
    assert len(calls) == 8100


@settings(deadline=None)
@given(st.sampled_from(list(Fallback)), unit, unit, st.integers(1, 60))
def test_two_bloc_states_stay_on_the_simplex(fallback, x, z, n):
    dyn = TWO_BLOC[fallback]
    for _, state, _ in orbit_rows(dyn, two_bloc_view(dyn).state(x, z), n):
        for point in state:
            assert all(0.0 <= s <= 1.0 for s in point.shares)
            assert abs(sum(point.shares) - 1.0) <= 1e-12

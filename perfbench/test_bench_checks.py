"""Each workload's checker accepts the program's real output and rejects
the same output with one corruption."""

import warnings

import numpy as np
import pytest

from pollsim import build_polling_graph, experiments
from pollsim.behaviors import build_tent_model
from pollsim.cultures import CultureKind, CultureSpec
from pollsim.presets import lr_cycle_electorate, two_bloc_dynamics, two_bloc_view
from pollsim.strategies import Strategy

import checks
import reference
import wl_chaotic
import wl_perturbed


def test_flipped_winners_word_letter_is_rejected():
    tent = build_tent_model()
    start = tent.default_start(3)
    word = tent.winners_word_exact(start, 4000)
    want = reference.tent_word(start.numerator, start.denominator, 4000)
    assert checks.word_equals(word, want, "tent") == []
    flipped = word[:1234] + ("b" if word[1234] == "c" else "c") + word[1235:]
    assert checks.word_equals(flipped, want, "tent")


def test_flipped_planar_letter_is_rejected():
    workload = wl_chaotic.Workload()
    workload.setup(5)
    label, model, start, _ = workload.planar[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        word = wl_chaotic.wordstats.winners_word(model, start, 3000).letters
        assert wl_chaotic._check_planar(label, model, start, *wl_chaotic._pipeline(word)) == []
        k = 700
        flipped = word[:k] + ("b" if word[k] != "b" else "a") + word[k + 1:]
        assert wl_chaotic._check_planar(label, model, start, *wl_chaotic._pipeline(flipped))


def _problems(rows):
    return [p for serial, pool in rows for p in serial + pool]


def test_altered_monte_carlo_count_is_rejected():
    spec = CultureSpec(CultureKind.IMPARTIAL, 4, 8, Strategy.MODIFIED_LEADER_RULE, seed=9)
    results = experiments.run_table([spec], 64)
    csv_text = experiments.table_csv(results)
    counts = [(r.n_trials, r.n_condorcet, r.n_bad) for r in results]
    assert checks.mc_csv(csv_text, csv_text, counts) == [([], [])]
    row = csv_text.splitlines()[1].split(",")
    row[5] = "63"  # n_trials
    altered = csv_text.splitlines()[0] + "\r\n" + ",".join(row) + "\r\n"
    [(serial, pool)] = checks.mc_csv(csv_text, altered, counts)
    assert serial == [] and pool
    [(serial, pool)] = checks.mc_csv(altered, altered, counts)
    assert serial and pool == []
    n, n_cw, n_bad = counts[0]
    assert _problems(checks.mc_csv(csv_text, csv_text, [(n, n_cw + 1, n_bad)]))


def test_swapped_successor_is_rejected():
    graph = build_polling_graph(lr_cycle_electorate())
    got = {(s.winner, s.runner_up): (t.winner, t.runner_up) for s, t in graph.successor.items()}
    ref = reference.analysis(*checks.electorate_input(graph.electorate))
    assert checks.successors(got, ref["successor"], ref["tallies"]) == []
    swapped = dict(got)
    swapped[("a", "b")], swapped[("b", "a")] = got[("b", "a")], got[("a", "b")]
    assert checks.successors(swapped, ref["successor"], ref["tallies"])


@pytest.mark.parametrize("fallback", ["keep", "apply", "half"])
def test_share_moved_off_the_simplex_is_rejected(fallback):
    from pollsim import Fallback

    dyn = two_bloc_dynamics(fallback=Fallback(fallback))
    view = two_bloc_view(dyn)
    orbit = [view.state(0.9, 0.95)]
    for _ in range(20):
        orbit.append(dyn.step(orbit[-1]))
    shares = [p.shares for s in orbit for p in s]
    assert checks.simplex(shares) == []
    coords = [view.coords(s) for s in orbit]
    problems, _, _ = checks.two_bloc_orbit(coords, fallback)
    assert problems == []
    k = next(i for i in range(4, len(shares)) if len(shares[i]) == 2)
    a, b = shares[k]
    assert checks.simplex(shares[:k] + [(a + 1e-9, b)] + shares[k + 1:])
    assert checks.simplex(shares[:k] + [(a - 1.5, b + 1.5)] + shares[k + 1:])
    moved = coords[:5] + [(coords[5][0] + 1e-6, coords[5][1])] + coords[6:]
    assert checks.two_bloc_orbit(moved, fallback)[0]


def test_grid_rows_with_a_wrong_winner_are_rejected():
    header = "x0,z0,step,x,z,winner\n"
    good = header + "0.000000,1.000000,0,0.000000000000,1.000000000000,b\n"
    bad = header + "0.000000,1.000000,0,0.000000000000,1.000000000000,a\n"
    assert not any("winner inconsistent" in p for p in wl_perturbed.Workload._check_grid(0, good))
    assert any("winner inconsistent" in p for p in wl_perturbed.Workload._check_grid(0, bad))


def _closed_form_orbit(x, z, fallback, gate, steps=12):
    """An orbit of the closed-form map with the gate answered by ``gate``."""
    orbit = [(x, z)]
    for _ in range(steps):
        x, z = orbit[-1]
        orbit.append(reference.two_bloc_step(x, z, fallback, gate(reference.two_bloc_scores(x, z))))
    return orbit


@pytest.mark.parametrize("x, z, always", [(0.9, 0.95, False), (0.3, 0.4, True)])
def test_orbit_behind_a_gate_stuck_open_or_closed_is_rejected(x, z, always):
    # (0.9, 0.95) lies where the gate is open, (0.3, 0.4) where it is closed
    assert reference.two_bloc_gate_open(reference.two_bloc_scores(x, z)) is not always
    for fallback in ("keep", "half"):
        stuck = _closed_form_orbit(x, z, fallback, lambda scores: always)
        assert checks.two_bloc_orbit(stuck, fallback)[0]
        inverted = _closed_form_orbit(x, z, fallback, lambda scores: not reference.two_bloc_gate_open(scores))
        assert checks.two_bloc_orbit(inverted, fallback)[0]
        right = _closed_form_orbit(x, z, fallback, reference.two_bloc_gate_open)
        assert checks.two_bloc_orbit(right, fallback) == ([], sum(
            not reference.two_bloc_gate_open(reference.two_bloc_scores(*p)) for p in right[:-1]), 0)


def _gate_open(point):
    return reference.two_bloc_gate_open(reference.two_bloc_scores(*point))


def _half_step(point, gate):
    return reference.two_bloc_step(*point, "half", gate)


def test_only_a_repeated_gate_answer_counts_as_stale():
    # a start where the gate is closed and whose half step lands where it is open
    q0 = next((i / 20, j / 20) for i in range(21) for j in range(21)
              if not _gate_open((i / 20, j / 20)) and _gate_open(_half_step((i / 20, j / 20), False)))
    q1 = _half_step(q0, False)
    held = [q0, q1, _half_step(q1, False)]  # the closed answer applied one step too long
    assert checks.two_bloc_orbit(held, "half") == ([], 1, 1)
    assert checks.two_bloc_orbit(held[1:], "half")[0]  # no answer before the first step
    p1 = _half_step((0.1, 0.1), True)  # A2 -> A1, the gate open at both
    assert _gate_open(p1)
    switched = [(0.1, 0.1), p1, _half_step(p1, False)]  # a closed answer after an open one
    assert checks.two_bloc_orbit(switched, "half")[0]
    assert checks.two_bloc_orbit(switched[:2] + [_half_step(p1, True)], "half") == ([], 0, 0)


def test_program_orbits_on_fresh_dynamics_pass():
    from pollsim import Fallback

    rng = np.random.default_rng(4)
    for fallback in Fallback:
        for _ in range(20):
            dyn = two_bloc_dynamics(fallback=fallback)
            view = two_bloc_view(dyn)
            s = view.state(rng.random(), rng.random())
            orbit = [view.coords(s)]
            for _ in range(40):
                s = dyn.step(s)
                orbit.append(view.coords(s))
            assert checks.two_bloc_orbit(orbit, fallback.value)[0] == []

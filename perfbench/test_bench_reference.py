"""The benchmark's reference computations, tested on hand-worked cases
and on the paper's printed tallies.  These tests do not import pollsim."""

import math
from fractions import Fraction
from pathlib import Path

import reference

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def _load(name):
    return reference.parse_text((DATA / name).read_text())


def test_leader_rule_reproduces_the_lr_cycle_tallies():
    candidates, types = _load("lr_cycle.txt")
    ref = reference.analysis(candidates, types)
    assert ref["tallies"][("b", "a")] == {"a": 3111, "b": 3020, "c": 2009, "d": 4027}
    assert ref["tallies"][("d", "a")] == {"a": 3105, "b": 2104, "c": 4113, "d": 3026}
    assert ref["tallies"][("c", "a")] == {"a": 3118, "b": 4122, "c": 3013, "d": 2018}
    assert ref["tallies"][("a", "d")] == {"a": 3105, "b": 3020, "c": 3013, "d": 3026}
    assert ref["basins"] == {(("b", "a"), ("d", "a"), ("c", "a")): 9, (("a", "d"),): 3}
    assert ref["condorcet_winner"] == "a"


def test_modified_leader_rule_reproduces_the_consensual_loser_tallies():
    candidates, types = _load("consensual_loser.txt")
    ref = reference.analysis(candidates, types)
    assert ref["tallies"][("c", "a")] == {"a": 203, "b": 201, "c": 104}
    assert ref["tallies"][("a", "b")] == {"a": 103, "b": 100, "c": 104}
    assert ref["basins"] == {(("a", "b"), ("c", "a")): 4, (("a", "c"),): 1, (("b", "c"),): 1}
    assert ref["consensual_loser"] == "c"
    assert reference.trial_outcome(candidates, types) == (True, True)


def test_duel_and_median_voter():
    candidates = ("a", "b", "c")
    types = [({"a": 0, "b": 1, "c": 2}, 2.0), ({"b": 0, "c": 1, "a": 2}, 1.0)]
    d = reference.duel(candidates, types)
    assert d[("a", "b")] == 2.0 and d[("b", "a")] == 1.0
    assert reference.condorcet_winner(candidates, types) == "a"
    near = reference.median_nearest({"a": 0.1, "b": 0.5, "c": 0.9}, {"T": 0.2, "U": 0.6, "V": 0.95},
                                    {"T": 1.0, "U": 1.5, "V": 1.0})
    assert near == "b"


def test_two_bloc_closed_form():
    assert reference.two_bloc_scores(0.0, 1.0) == (4.0, 6.0, 5.0)
    assert not reference.two_bloc_gate_open(reference.two_bloc_scores(1 / 3, 0.5))  # a = c = 5
    assert reference.two_bloc_gate_open(reference.two_bloc_scores(0.9, 0.95))
    # on A1 the outcome is abc: Z moves to {a} and X to {b}, into A2
    x, z = reference.two_bloc_step(0.9, 0.95, "keep", True)
    assert math.isclose(x, 0.15 * 0.9) and math.isclose(z, 0.15 * 0.95)
    # on A2 the outcome is cab: both move to {a, b}
    x, z = reference.two_bloc_step(0.1, 0.1, "keep", True)
    assert math.isclose(x, 0.85 + 0.15 * 0.1) and math.isclose(z, 0.85 + 0.15 * 0.1)
    assert reference.two_bloc_step(0.3, 0.4, "keep", False) == (0.3, 0.4)
    x, _ = reference.two_bloc_step(0.9, 0.95, "half", False)
    assert math.isclose(x, 0.575 * 0.9)


def test_planar_map_at_the_centre():
    # V = (5.5, 4.5, 5) of 12: both safeties are 1/24, so both shares go to 19/24
    x, z = reference.planar_step(0.5, 0.5, (3.0, 1.0, 3.0, 5.0), "derived", "total")
    assert math.isclose(x, 19 / 24) and math.isclose(z, 19 / 24)
    assert reference.planar_winner(0.5, 0.5, (3.0, 1.0, 3.0, 5.0), "derived") == "a"
    assert reference.planar_scores(0.5, 0.5, (3.0, 1.0, 3.0, 5.0), "literal") == (5.5, 2.0, 5.0)


def test_tent_word_by_doubling_matches_the_rational_orbit():
    assert reference.tent_word(1, 3, 5) == "cbbbb"
    assert reference.tent_word(1, 5, 5) == "ccbcb"
    z, letters = Fraction(123456789, 5**15), []
    for _ in range(300):
        letters.append("b" if z >= Fraction(1, 2) else "c")
        z = 2 * z if z <= Fraction(1, 2) else 2 - 2 * z
    assert reference.tent_word(123456789, 5**15, 300) == "".join(letters)


def test_window_counter():
    entropy, distinct = reference.window_profile("abab", 2)
    assert distinct == [2, 2]
    assert math.isclose(entropy[0], math.log(2))
    assert math.isclose(entropy[1], -(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3)))

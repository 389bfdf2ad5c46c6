"""Canned electorates used by the demos, the CLI models and the tests,
plus the margin-certified regions of the two-bloc example."""

from __future__ import annotations

import numpy as np

from .continuous import ContinuousDynamics, Fallback, TwoShareView, perturbed_dynamics
from .model import CandidateSet, Electorate, Preference, VoterType
from .strategies import Strategy


def _electorate(names: str, rows: list[tuple[str, str, float, Strategy]]) -> Electorate:
    cs = CandidateSet(tuple(names))
    types = tuple(
        VoterType(tname, Preference.from_notation(cs, pref), weight, strat)
        for tname, pref, weight, strat in rows
    )
    return Electorate(cs, types)


def lr_cycle_electorate() -> Electorate:
    """Four candidates, seven tie-free types under the leader rule.

    Candidate a is the Condorcet winner while b, c, d form a majority
    cycle; the poll dynamics has an attracting 3-cycle ba -> da -> ca that
    never elects a, plus the equilibrium ad.
    """
    return _electorate(
        "abcd",
        [
            ("T", "abcd", 100, Strategy.LEADER_RULE),
            ("U", "bacd", 1000, Strategy.LEADER_RULE),
            ("X", "bcad", 1004, Strategy.LEADER_RULE),
            ("V", "cadb", 1001, Strategy.LEADER_RULE),
            ("Y", "cdab", 1008, Strategy.LEADER_RULE),
            ("W", "dabc", 1002, Strategy.LEADER_RULE),
            ("Z", "dbac", 1016, Strategy.LEADER_RULE),
        ],
    )


def consensual_loser_electorate() -> Electorate:
    """Three candidates with tied preferences under the modified leader
    rule: a is the Condorcet winner, c is ranked last by two thirds of the
    weight, and the dynamics has a 2-cycle {ab, ca} electing a and c in
    alternation plus equilibria ac and bc."""
    return _electorate(
        "abc",
        [
            ("Z", "abc", 101, Strategy.MODIFIED_LEADER_RULE),
            ("Y", "a(bc)", 2, Strategy.MODIFIED_LEADER_RULE),
            ("X", "bac", 100, Strategy.MODIFIED_LEADER_RULE),
            ("W", "c(ab)", 104, Strategy.MODIFIED_LEADER_RULE),
        ],
    )


def two_bloc_electorate() -> Electorate:
    """The 3+1+3+5 electorate whose continuous dynamics reduces to the
    unit square: only types Z and X have two admissible ballots."""
    return _electorate(
        "abc",
        [
            ("Z", "abc", 3, Strategy.MODIFIED_LEADER_RULE),
            ("Y", "a(bc)", 1, Strategy.MODIFIED_LEADER_RULE),
            ("X", "bac", 3, Strategy.MODIFIED_LEADER_RULE),
            ("W", "c(ab)", 5, Strategy.MODIFIED_LEADER_RULE),
        ],
    )


def two_bloc_dynamics(p: float = 0.85, margin: float = 0.04, fallback: Fallback = Fallback.KEEP) -> ContinuousDynamics:
    """Perturbed dynamics on the two-bloc electorate: a fraction p of each
    type adjusts whenever all pairwise margins reach the threshold."""
    return perturbed_dynamics(two_bloc_electorate(), p=p, margin=margin, fallback=fallback)


def two_bloc_view(dynamics: ContinuousDynamics) -> TwoShareView:
    """(x, z) coordinates: shares of X and Z casting the ballot {a, b}."""
    return TwoShareView(dynamics, dynamics.slot("X", "ab"), dynamics.slot("Z", "ab"))


# Margin-certified regions of the unit square for the two-bloc example:
# on A1 the outcome is abc and on A2 it is cab, in both cases with every
# pairwise margin at least 1/24 of the electorate (just above 4%).

def in_region_a1(x: float, z: float) -> bool:
    return 5 / 6 < z <= 1 and z < x + 1 / 6 and x <= 1


def in_region_a2(x: float, z: float) -> bool:
    return 0 <= x < 1 / 6 and 0 <= z < x + 1 / 6


def region_a1_grid(n: int) -> list[tuple[float, float]]:
    pts = []
    for i in range(n):
        z = 5 / 6 + (i + 0.5) / n * (1 / 6)
        lo = z - 1 / 6
        for j in range(n):
            pts.append((lo + (j + 0.5) / n * (1 - lo), z))
    return pts


def region_a2_grid(n: int) -> list[tuple[float, float]]:
    pts = []
    for i in range(n):
        x = (i + 0.5) / n * (1 / 6)
        for j in range(n):
            pts.append((x, (j + 0.5) / n * (x + 1 / 6)))
    return pts


def sample_region_a1(rng: np.random.Generator) -> tuple[float, float]:
    z = 5 / 6 + rng.random() * (1 / 6)
    lo = z - 1 / 6
    return (lo + rng.random() * (1 - lo), z)

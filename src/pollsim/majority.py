"""Majority-graph analysis: pairwise domination, Condorcet winner/loser
and order, consensual loser, and the one-dimensional median construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Candidate, Electorate


class DuelResult(Enum):
    DOMINATES = "dominates"
    DOMINATED = "dominated"
    TIE = "tie"


def duel_matrix(electorate: Electorate) -> np.ndarray:
    """D[i, j] = total weight of voters strictly preferring candidate i to
    candidate j (indifferent voters abstain)."""
    g = electorate.group_index_matrix()
    w = electorate.weights_array()
    strict = g[:, :, None] < g[:, None, :]
    return np.einsum("t,tij->ij", w, strict)


def dominates(electorate: Electorate, alpha: Candidate, beta: Candidate) -> DuelResult:
    if alpha == beta:
        raise ValueError("a candidate cannot be compared with herself")
    d = duel_matrix(electorate)
    i = electorate.candidates.index(alpha)
    j = electorate.candidates.index(beta)
    if d[i, j] > d[j, i]:
        return DuelResult.DOMINATES
    if d[i, j] < d[j, i]:
        return DuelResult.DOMINATED
    return DuelResult.TIE


@dataclass(frozen=True)
class CondorcetReport:
    candidates: tuple[Candidate, ...]
    domination: dict
    condorcet_winner: Candidate | None
    condorcet_loser: Candidate | None
    consensual_loser: Candidate | None
    condorcet_order: tuple[Candidate, ...] | None
    strong: bool = False


def condorcet_analysis(
    electorate: Electorate, strong: bool = False, duel: np.ndarray | None = None
) -> CondorcetReport:
    """Full majority-graph report.

    With ``strong=True`` the winner must be preferred by a strict majority
    of the whole electorate (abstainers counted in the denominator); the
    two definitions coincide on tie-free preferences.  A precomputed
    `duel_matrix` can be passed to avoid recomputing it.
    """
    names = electorate.candidates.names
    n = len(names)
    d = (duel_matrix(electorate) if duel is None else duel).tolist()
    total = electorate.total_weight

    domination: dict[tuple[Candidate, Candidate], DuelResult] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if d[i][j] > d[j][i]:
                domination[(names[i], names[j])] = DuelResult.DOMINATES
            elif d[i][j] < d[j][i]:
                domination[(names[i], names[j])] = DuelResult.DOMINATED
            else:
                domination[(names[i], names[j])] = DuelResult.TIE

    def dominated_by(i: int, j: int) -> bool:
        # does j dominate i?
        if strong:
            return d[j][i] > total / 2
        return d[j][i] > d[i][j]

    winner = None
    loser = None
    for i in range(n):
        if all(dominated_by(j, i) for j in range(n) if j != i):
            winner = names[i]
        if all(dominated_by(i, j) for j in range(n) if j != i):
            loser = names[i]

    # Consensual loser: a strict majority of the weight ranks her last
    # (possibly tied with others).
    consensual = None
    worst = [(t.weight, t.preference.ranks, max(t.preference.ranks)) for t in electorate.types]
    for i, name in enumerate(names):
        last_weight = sum(w for w, ranks, m in worst if ranks[i] == m)
        if last_weight > total / 2:
            consensual = name
            break

    # Condorcet order: sort by domination wins, then verify the chain.
    wins = [(sum(1 for j in range(n) if j != i and dominated_by(j, i)), i) for i in range(n)]
    order_idx = [i for _, i in sorted(wins, key=lambda p: (-p[0], p[1]))]
    order: tuple[Candidate, ...] | None = tuple(names[i] for i in order_idx)
    for a in range(n):
        for b in range(a + 1, n):
            if not dominated_by(order_idx[b], order_idx[a]):
                order = None
                break
        if order is None:
            break

    return CondorcetReport(
        candidates=names,
        domination=domination,
        condorcet_winner=winner,
        condorcet_loser=loser,
        consensual_loser=consensual,
        condorcet_order=order,
        strong=strong,
    )


@dataclass(frozen=True)
class PositionalModel:
    """Positions of candidates and voter types on d axes."""

    candidate_positions: dict
    type_positions: dict

    @property
    def dimension(self) -> int:
        any_pos = next(iter(self.candidate_positions.values()))
        return len(any_pos)


def median_candidate(model: PositionalModel, electorate: Electorate) -> tuple[str, Candidate]:
    """One-dimensional median voter type and the candidate nearest to it.

    Requires the generic position data the construction relies on: no two
    candidates equidistant from any type, and no prefix of the
    position-sorted types weighing exactly half the electorate (these are
    the cuts every pairwise duel reduces to in one dimension).
    """
    if model.dimension != 1:
        raise ValueError("median_candidate requires one-dimensional positions")
    cand_pos = {c: model.candidate_positions[c][0] for c in electorate.candidates}
    type_pos = {t.name: model.type_positions[t.name][0] for t in electorate.types}

    for t in electorate.types:
        dists = sorted(abs(cand_pos[c] - type_pos[t.name]) for c in electorate.candidates)
        for a, b in zip(dists, dists[1:]):
            if a == b:
                raise ValueError(f"genericity violated: equidistant candidates from type {t.name!r}")

    total = electorate.total_weight
    by_pos = sorted(electorate.types, key=lambda t: type_pos[t.name])
    acc = 0.0
    median_type = None
    for t in by_pos:
        acc += t.weight
        if acc == total / 2:
            raise ValueError("genericity violated: a half/half weight split exists")
        if acc > total / 2:
            median_type = t
            break
    assert median_type is not None
    m = type_pos[median_type.name]
    mu = min(electorate.candidates, key=lambda c: abs(cand_pos[c] - m))
    return median_type.name, mu

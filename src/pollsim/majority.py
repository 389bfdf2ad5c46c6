"""Majority-graph analysis: the duel matrix of pairwise strict
preferences, Condorcet winner/loser and order, consensual loser, and the
one-dimensional median construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Candidate, Electorate


def duel_matrix(electorate: Electorate) -> np.ndarray:
    """D[i, j] = total weight of voters strictly preferring candidate i to
    candidate j (indifferent voters abstain)."""
    g = np.array([t.preference.ranks for t in electorate.types], dtype=np.int64)
    w = np.array([t.weight for t in electorate.types], dtype=np.float64)
    return duel_tensor(g[None], w[None])[0]


def duel_tensor(ranks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """`duel_matrix` of a stack of electorates, from their (B, types,
    candidates) ranks and (B, types) weights.  A stack's matrices equal
    the matrices of its electorates taken one at a time bit for bit,
    exact ties included; a `matmul` form does not."""
    return np.einsum("bt,btij->bij", weights, ranks[..., :, None] < ranks[..., None, :])


@dataclass(frozen=True)
class CondorcetReport:
    condorcet_winner: Candidate | None
    condorcet_loser: Candidate | None
    consensual_loser: Candidate | None
    condorcet_order: tuple[Candidate, ...] | None
    duel: np.ndarray = field(compare=False, repr=False)  # the `duel_matrix` every field derives from


def condorcet_analysis(
    electorate: Electorate, strong: bool = False, duel: np.ndarray | None = None
) -> CondorcetReport:
    """Full majority-graph report.

    Every field derives from the duel matrix D, which the report keeps as
    ``duel``: its majority relation is ``duel > duel.T`` (D[i, j] >
    D[j, i]).  The Condorcet relation ``beats`` is the majority relation,
    or with ``strong=True`` D[i, j] > total / 2: the winner must then be
    preferred by a strict majority of the whole electorate (abstainers
    counted in the denominator); the two definitions coincide on tie-free
    preferences.  The winner beats every other candidate and the loser is
    beaten by every other one; the Condorcet order sorts the candidates by
    how many they beat and exists when each one beats all that follow it.
    A precomputed `duel_matrix` can be passed to avoid recomputing it.
    """
    names = electorate.candidates.names
    n = len(names)
    d = duel_matrix(electorate) if duel is None else duel
    total = electorate.total_weight
    beats = d > total / 2 if strong else d > d.T

    # the diagonal of `beats` is False (D[i, i] = 0 and the total is
    # positive), so beating n - 1 candidates is beating every other one
    n_beaten = beats.sum(axis=1).tolist()
    n_beaten_by = beats.sum(axis=0).tolist()
    winner = names[n_beaten.index(n - 1)] if n - 1 in n_beaten else None
    loser = names[n_beaten_by.index(n - 1)] if n - 1 in n_beaten_by else None

    # Consensual loser: a strict majority of the weight ranks her last
    # (possibly tied with others).
    consensual = None
    worst = [(t.weight, t.preference.ranks, max(t.preference.ranks)) for t in electorate.types]
    for i, name in enumerate(names):
        last_weight = sum(w for w, ranks, m in worst if ranks[i] == m)
        if last_weight > total / 2:
            consensual = name
            break

    # Condorcet order: sort by the number of candidates beaten, then check
    # that each one beats all that follow it.
    order_idx = sorted(range(n), key=lambda i: -n_beaten[i])
    b = beats.tolist()
    chain = all(b[order_idx[x]][order_idx[y]] for x in range(n) for y in range(x + 1, n))
    order = tuple(names[i] for i in order_idx) if chain else None

    return CondorcetReport(
        condorcet_winner=winner,
        condorcet_loser=loser,
        consensual_loser=consensual,
        condorcet_order=order,
        duel=d,
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
    # the weights are finite and their total positive, so the running sum
    # passes half the total and the loop always breaks
    for median in by_pos:
        acc += median.weight
        if acc == total / 2:
            raise ValueError("genericity violated: a half/half weight split exists")
        if acc > total / 2:
            break
    m = type_pos[median.name]
    mu = min(electorate.candidates, key=lambda c: abs(cand_pos[c] - m))
    return median.name, mu

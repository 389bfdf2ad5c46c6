"""Discrete poll-response dynamics over (winner, runner-up) states.

Both implemented strategies are simple (they read only the expected
winner and runner-up), so the dynamics factors through the n(n-1)
ordered pairs.  The closed form used by the graph builder: at state
(w, r) every type approves the candidates it strictly prefers to w,
plus w itself when preferred to r, hence

    score(c)  =  D[c, w]              for c != w
    score(w)  =  D[w, r]

with D the pairwise strict-preference weight matrix of `majority`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .majority import CondorcetReport, duel_matrix
from .model import Candidate, Electorate, Tally, outcome_from_tally, tally
from .strategies import ballot_for


@dataclass(frozen=True, order=True)
class PollState:
    """Expected winner and runner-up."""

    winner: Candidate
    runner_up: Candidate

    def __post_init__(self) -> None:
        if self.winner == self.runner_up:
            raise ValueError("winner and runner-up must differ")

    @property
    def label(self) -> str:
        if len(self.winner) == 1 and len(self.runner_up) == 1:
            return self.winner + self.runner_up
        return f"{self.winner}>{self.runner_up}"


def all_states(electorate: Electorate) -> list[PollState]:
    names = electorate.candidates.names
    return [PollState(w, r) for w in names for r in names if w != r]


def polling_step(electorate: Electorate, state: PollState) -> PollState:
    """One synchronized poll adjustment, computed through explicit ballots."""
    assignment = {t.name: ballot_for(t.preference, state) for t in electorate.types}
    out = outcome_from_tally(tally(electorate, assignment))
    return PollState(out.winner, out.runner_up)


@dataclass
class PollingGraph:
    """Functional graph of the poll dynamics with its cycle decomposition.

    The graph is stored on pair indices ``w * n + r`` (state (w, r) with
    candidate indices w and r): ``succ[i]`` is the successor pair index of
    i, ``label[i]`` the index of the cycle that i reaches (-1 on the
    diagonal, where ``succ`` carries no state), and ``cycle_ids[k]`` lists
    the pair indices of cycle k in orbit order.  ``duel`` is the
    `duel_matrix` they come from; ``tally_at`` reads the closed form from
    it.

    ``states``, ``successor``, ``cycles`` and ``basin`` are `PollState`
    views built on first use; ``basin[k]`` is the set of states that
    eventually reach ``cycles[k]`` (the cycle's own states included).
    """

    electorate: Electorate
    succ: list[int]
    label: list[int]
    cycle_ids: list[list[int]]
    duel: np.ndarray = field(compare=False, repr=False)  # a function of `electorate`

    @cached_property
    def _state_of(self) -> list[PollState | None]:
        """One `PollState` per pair index, None on the diagonal."""
        names = self.electorate.candidates.names
        return [PollState(w, r) if w != r else None for w in names for r in names]

    @cached_property
    def states(self) -> tuple[PollState, ...]:
        return tuple(s for s in self._state_of if s is not None)

    @cached_property
    def successor(self) -> dict:
        state_of = self._state_of
        return {s: state_of[j] for s, j in zip(state_of, self.succ) if s is not None}

    @cached_property
    def cycles(self) -> list:
        names = self.electorate.candidates.names
        n = len(names)
        return [tuple(PollState(names[i // n], names[i % n]) for i in c) for c in self.cycle_ids]

    @cached_property
    def basin(self) -> dict:
        pairs = list(zip(self._state_of, self.label))  # the diagonal's label -1 is no cycle
        return {k: frozenset(s for s, j in pairs if j == k) for k in range(len(self.cycle_ids))}

    def is_fixed_point(self, state: PollState) -> bool:
        return self.successor[state] == state

    def tally_at(self, state: PollState) -> Tally:
        """Scores of the election triggered by expecting ``state``: column
        w of D, with D[w, r] in place of entry w."""
        w = self.electorate.candidates.index(state.winner)
        r = self.electorate.candidates.index(state.runner_up)
        scores = self.duel[:, w].tolist()
        scores[w] = float(self.duel[w, r])
        return Tally(self.electorate.candidates, tuple(scores))


def _successors(d: np.ndarray):
    """Vectorized transition tables of a stack of duel matrices, shape
    (B, n, n): returns (w1, w2), where w1[b, w, r] and w2[b, w, r] are the
    winner and runner-up elected from state (w, r) of electorate b.  The
    Monte Carlo kernel passes a slice of at most `experiments._SLICE`
    trials and `build_polling_graph` a stack of one, so the table has this
    one implementation."""
    n = d.shape[-1]
    scores = np.repeat(d.transpose(0, 2, 1)[:, :, None, :], n, axis=2)
    idx = np.arange(n)
    scores[:, idx, :, idx] = d.transpose(1, 0, 2)  # score(w) = D[w, r]
    w1 = scores.argmax(axis=3)  # argmax takes the first maximum: the tie-break order
    w2 = np.where(idx == w1[..., None], -np.inf, scores).argmax(axis=3)
    return w1, w2


def build_polling_graph(electorate: Electorate, report: CondorcetReport | None = None) -> PollingGraph:
    """Build the full transition graph from the electorate's duel matrix:
    the ``duel`` of ``report``, a Condorcet report of this electorate, or
    computed here when no report is given."""
    n = len(electorate.candidates)
    duel = duel_matrix(electorate) if report is None else report.duel
    w1, w2 = _successors(duel[None])
    succ = (w1[0] * n + w2[0]).ravel().tolist()

    # Functional-graph decomposition: walk each unresolved state until a
    # resolved state or the current path repeats.  label[i] is the cycle
    # index of a resolved state, -2 on the current path, -1 unvisited (and
    # on the diagonal w * (n + 1), which no walk reaches).
    label = [-1] * (n * n)
    cycle_ids: list[list[int]] = []
    for s0 in range(n * n):
        if label[s0] >= 0 or s0 % (n + 1) == 0:
            continue
        path: list[int] = []
        s = s0
        while label[s] == -1:
            label[s] = -2
            path.append(s)
            s = succ[s]
        if label[s] == -2:
            cycle_ids.append(path[path.index(s):])
            target = len(cycle_ids) - 1
        else:
            target = label[s]
        for t in path:
            label[t] = target

    return PollingGraph(electorate=electorate, succ=succ, label=label, cycle_ids=cycle_ids, duel=duel)


@dataclass(frozen=True)
class CycleReport:
    states: tuple[PollState, ...]
    winners: tuple[Candidate, ...]
    period: int
    bad: bool | None
    basin_size: int


@dataclass(frozen=True)
class DynamicsReport:
    """Per-cycle classification; ``is_bad`` is None when no Condorcet
    winner exists (badness is undefined in that case, not false)."""

    condorcet_winner: Candidate | None
    cycles: tuple[CycleReport, ...]

    @property
    def is_bad(self) -> bool | None:
        if self.condorcet_winner is None:
            return None
        return any(c.bad for c in self.cycles)


def classify(graph: PollingGraph, report: CondorcetReport) -> DynamicsReport:
    cw = report.condorcet_winner
    cycle_reports = []
    for k, cyc in enumerate(graph.cycles):
        winners = tuple(s.winner for s in cyc)
        bad = None if cw is None else any(w != cw for w in winners)
        cycle_reports.append(
            CycleReport(
                states=cyc,
                winners=winners,
                period=len(cyc),
                bad=bad,
                basin_size=graph.label.count(k),
            )
        )
    return DynamicsReport(
        condorcet_winner=cw,
        cycles=tuple(cycle_reports),
    )

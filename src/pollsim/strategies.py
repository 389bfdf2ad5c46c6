"""Sincere consistent strategies: map an expected outcome to a ballot.

Both rules read only the expected winner and runner-up ("simple"
strategies), so any object with ``winner`` and ``runner_up`` attributes
is accepted where an outcome is expected.
"""

from __future__ import annotations

from enum import Enum

from .model import Ballot, Preference


class Strategy(Enum):
    LEADER_RULE = "LR"
    MODIFIED_LEADER_RULE = "MLR"


def _ballot(pref: Preference, winner: str, runner_up: str) -> Ballot:
    w_rank = pref.rank_of(winner)
    approved = {c for c, r in zip(pref.candidates, pref.ranks) if r < w_rank}
    if w_rank < pref.rank_of(runner_up):
        approved.add(winner)
    return frozenset(approved)


def leader_rule(pref: Preference, outcome) -> Ballot:
    """Approve every candidate strictly preferred to the expected winner,
    and the winner herself iff preferred to the expected runner-up.

    Defined for tie-free preferences only; use `modified_leader_rule` when
    the preference contains ties.
    """
    if not pref.tie_free:
        raise ValueError("leader rule requires a tie-free preference; use modified_leader_rule")
    return _ballot(pref, outcome.winner, outcome.runner_up)


def modified_leader_rule(pref: Preference, outcome) -> Ballot:
    """Same approval rule evaluated with strict comparisons on a
    preference that may contain ties; coincides with `leader_rule` on
    tie-free preferences.  Candidates in the last tie-group are never
    approved.

    The output is always sincere in the weak tie-tolerant sense, and
    strictly sincere whenever ties are confined to the terminal group
    (the only tie shape the cultures generate).  When the expected winner
    sits inside a non-terminal tie-group, the ballot can split that group
    and strict sincerity fails: preference (bc)a facing outcome ba yields
    {b}.
    """
    return _ballot(pref, outcome.winner, outcome.runner_up)


def ballot_for(strategy: Strategy, pref: Preference, outcome) -> Ballot:
    if strategy is Strategy.LEADER_RULE:
        return leader_rule(pref, outcome)
    return modified_leader_rule(pref, outcome)

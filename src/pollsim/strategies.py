"""Sincere consistent strategies: map an expected outcome to a ballot.

Both strategies cast the ballot of `ballot_for`, which reads only the
expected winner and runner-up ("simple" strategies), so any object with
``winner`` and ``runner_up`` attributes is accepted where an outcome is
expected.  They differ in their domain only: the leader rule is defined
on tie-free preferences, its modified form on every preference
(`Strategy.admits`).
"""

from __future__ import annotations

from enum import Enum

from .model import Ballot, Preference


class Strategy(Enum):
    LEADER_RULE = "LR"
    MODIFIED_LEADER_RULE = "MLR"

    def admits(self, pref: Preference) -> bool:
        """Whether the strategy is defined on ``pref``: false only for the
        leader rule on a tied preference."""
        return self is not Strategy.LEADER_RULE or pref.tie_free


def ballot_for(pref: Preference, outcome) -> Ballot:
    """Approve every candidate strictly preferred to the expected winner,
    and the winner herself iff preferred to the expected runner-up.  On a
    preference with ties the comparisons stay strict, so candidates in the
    last tie-group are never approved.

    The output is always sincere in the weak tie-tolerant sense, and
    strictly sincere whenever ties are confined to the terminal group
    (the only tie shape the cultures generate).  When the expected winner
    sits inside a non-terminal tie-group, the ballot can split that group
    and strict sincerity fails: preference (bc)a facing outcome ba yields
    {b}.
    """
    w_rank = pref.rank_of(outcome.winner)
    approved = {c for c, r in zip(pref.candidates, pref.ranks) if r < w_rank}
    if w_rank < pref.rank_of(outcome.runner_up):
        approved.add(outcome.winner)
    return frozenset(approved)

"""Domain model for Approval Voting: candidates, preferences, ballots,
electorates, and the tally/outcome computation.

A preference is its rank vector, aligned with the candidate order; its
tie-groups are a view derived from the ranks.

Scores are 64-bit floats.  Integer-weighted electorates therefore tally
exactly, while sampled real-valued weights make exact score ties a
measure-zero event; score comparisons use plain float equality and ties
are broken by candidate declaration order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from .strategies import Strategy

Candidate = str
Ballot = frozenset  # frozenset[Candidate]


@dataclass(frozen=True)
class CandidateSet:
    """Ordered set of candidate names; the order is the tie-break order."""

    names: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        if len(self.names) < 2:
            raise ValueError("need at least two candidates")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate candidate names")

    def index(self, name: Candidate) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown candidate {name!r}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self.names


@dataclass(frozen=True)
class Preference:
    """A weak order over the full candidate set, stored as its rank vector.

    ``ranks[i]`` is the tie-group index of ``candidates.names[i]`` (0 =
    most preferred); with k tie-groups the ranks are exactly 0..k-1.
    Candidates of equal rank are tied.  `groups` is the tie-group view,
    ``groups[0]`` holding the most preferred candidates.
    """

    candidates: CandidateSet
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ranks) != len(self.candidates):
            raise ValueError("a preference needs one rank per candidate")
        used = set(self.ranks)
        if used != set(range(len(used))):
            raise ValueError(f"ranks must be exactly 0..k-1, got {self.ranks}")

    @classmethod
    def from_groups(cls, candidates: CandidateSet, groups: Iterable[Iterable[Candidate]]) -> "Preference":
        """Validating constructor from most-to-least preferred tie-groups."""
        rank: dict[Candidate, int] = {}
        for i, group in enumerate(groups):
            group = frozenset(group)
            if not group:
                raise ValueError("empty tie-group")
            for name in group:
                if name not in candidates:
                    raise ValueError(f"unknown candidate {name!r}")
                if name in rank:
                    raise ValueError(f"candidate {name!r} repeated in preference")
                rank[name] = i
        if len(rank) != len(candidates):
            missing = [n for n in candidates if n not in rank]
            raise ValueError(f"incomplete preference, missing {missing}")
        return cls(candidates, tuple(rank[n] for n in candidates))

    @classmethod
    def from_notation(cls, candidates: CandidateSet, text: str) -> "Preference":
        """Parse compact notation like ``a(bc)d`` (single-character names only)."""
        if any(len(n) != 1 for n in candidates):
            raise ValueError("compact notation requires single-character names")
        groups: list[list[str]] = []
        in_group = False
        for ch in text:
            if ch == "(":
                if in_group:
                    raise ValueError("nested parenthesis in preference notation")
                in_group = True
                groups.append([])
            elif ch == ")":
                if not in_group:
                    raise ValueError("unbalanced parenthesis in preference notation")
                in_group = False
            else:
                if in_group:
                    groups[-1].append(ch)
                else:
                    groups.append([ch])
        if in_group:
            raise ValueError("unbalanced parenthesis in preference notation")
        return cls.from_groups(candidates, groups)

    @cached_property
    def groups(self) -> tuple[Ballot, ...]:
        members: list[list[Candidate]] = [[] for _ in range(max(self.ranks) + 1)]
        for name, r in zip(self.candidates.names, self.ranks):
            members[r].append(name)
        return tuple(frozenset(m) for m in members)

    def rank_of(self, name: Candidate) -> int:
        """Index of the tie-group containing ``name`` (0 = most preferred)."""
        return self.ranks[self.candidates.index(name)]

    @property
    def tie_free(self) -> bool:
        return max(self.ranks) == len(self.ranks) - 1


def _sincere(pref: Preference, ballot: Ballot, below) -> bool:
    """``below(worst rank on the ballot, best rank off it)``; empty and
    full ballots pass."""
    if not ballot:
        return True
    worst_in = max(pref.rank_of(c) for c in ballot)
    out = [c for c in pref.candidates if c not in ballot]
    return not out or below(worst_in, min(pref.rank_of(c) for c in out))


def is_sincere(pref: Preference, ballot: Ballot) -> bool:
    """A ballot is sincere when every approved candidate is strictly
    preferred to every non-approved candidate."""
    return _sincere(pref, ballot, operator.lt)


def is_weakly_sincere(pref: Preference, ballot: Ballot) -> bool:
    """Tie-tolerant sincerity: no candidate left off the ballot is
    strictly preferred to one on it.  Coincides with `is_sincere` on
    tie-free preferences; the strict form additionally forbids approving
    one of two tied candidates without the other."""
    return _sincere(pref, ballot, operator.le)


@dataclass(frozen=True)
class VoterType:
    """A bloc of identical voters: preference, weight and strategy tag."""

    name: str
    preference: Preference
    weight: float
    strategy: "Strategy"

    def __post_init__(self) -> None:
        if not self.strategy.admits(self.preference):
            raise ValueError(f"type {self.name!r} uses the leader rule but has a tied preference")
        if not math.isfinite(self.weight) or self.weight < 0:
            raise ValueError(f"weight of type {self.name!r} must be finite and non-negative, got {self.weight}")


@dataclass(frozen=True)
class Electorate:
    candidates: CandidateSet
    types: tuple[VoterType, ...]

    def __post_init__(self) -> None:
        names = [t.name for t in self.types]
        if len(set(names)) != len(names):
            raise ValueError("duplicate voter type names")
        for t in self.types:
            if t.preference.candidates != self.candidates:
                raise ValueError(f"type {t.name!r} has a preference over a different candidate set")
        if self.total_weight <= 0:
            raise ValueError("total weight must be positive")

    @property
    def total_weight(self) -> float:
        return sum(t.weight for t in self.types)


@dataclass(frozen=True)
class Tally:
    """Approval score per candidate, aligned with the candidate order."""

    candidates: CandidateSet
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.scores) != len(self.candidates):
            raise ValueError("score vector length mismatch")

    def as_dict(self) -> dict[Candidate, float]:
        return dict(zip(self.candidates.names, self.scores))


@dataclass(frozen=True)
class Outcome:
    """A tally together with the strict ranking it induces (descending
    score, ties broken by candidate declaration order)."""

    tally: Tally
    ranking: tuple[Candidate, ...]

    @property
    def winner(self) -> Candidate:
        return self.ranking[0]

    @property
    def runner_up(self) -> Candidate:
        return self.ranking[1]


def tally(electorate: Electorate, assignment: Mapping[str, Ballot]) -> Tally:
    """Compound the ballots cast by each voter type (one ballot per type)."""
    scores = [0.0] * len(electorate.candidates)
    for t in electorate.types:
        if t.name not in assignment:
            raise ValueError(f"no ballot assigned to type {t.name!r}")
        ballot = assignment[t.name]
        for c in ballot:
            scores[electorate.candidates.index(c)] += t.weight
    return Tally(electorate.candidates, tuple(scores))


def outcome_from_tally(t: Tally) -> Outcome:
    order = sorted(range(len(t.candidates)), key=lambda i: (-t.scores[i], i))
    return Outcome(t, tuple(t.candidates.names[i] for i in order))

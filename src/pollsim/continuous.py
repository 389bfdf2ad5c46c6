"""Continuous-state poll dynamics on the product of per-type ballot
simplices.

A state assigns to every voter type a distribution over that type's
admissible ballots.  A step reads the expected outcome and moves the
fraction ``rate(outcome)`` of every type's voters to its target: the unit
point of the ballot its simple strategy casts at the outcome's (winner,
runner-up).  The discrete dynamics embeds as rate 1 (`embed_discrete`);
the perturbed dynamics gates the rate on the pairwise score margins
(`perturbed_dynamics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterator, Protocol

import numpy as np

from .dynamics import PollState, all_states
from .model import Ballot, Electorate, Outcome, Tally, outcome_from_tally
from .strategies import ballot_for

SUM_TOL = 1e-12


@dataclass(frozen=True)
class SimplexPoint:
    """Distribution over one type's admissible ballots.

    Entries are clamped to [0, 1]; the sum must be 1 within 1e-12 and is
    renormalized exactly on construction.
    """

    ballots: tuple[Ballot, ...]
    shares: tuple[float, ...]

    def __post_init__(self) -> None:
        shares = self.shares
        if len(self.ballots) != len(shares):
            raise ValueError("one share per admissible ballot")
        total = 0.0
        clean = True
        for s in shares:
            if not 0.0 <= s <= 1.0:
                clean = False
            total += s
        if not clean:
            shares = tuple(min(1.0, max(0.0, s)) for s in shares)
            total = sum(shares)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"shares sum to {total}, not 1")
        if total != 1.0:
            shares = tuple(s / total for s in shares)
        if shares is not self.shares:
            object.__setattr__(self, "shares", shares)

    @classmethod
    def unit(cls, ballots: tuple[Ballot, ...], ballot: Ballot) -> "SimplexPoint":
        if ballot not in ballots:
            raise ValueError(f"{set(ballot)} is not an admissible ballot here")
        return cls(ballots, tuple(1.0 if b == ballot else 0.0 for b in ballots))

    @classmethod
    def _convex(cls, ballots: tuple[Ballot, ...], shares: tuple[float, ...]) -> "SimplexPoint":
        # hot-path constructor for shares produced as a convex combination
        # of valid points: entries are in [0, 1] by construction and the
        # sum error is contracted toward 0 by every further combination,
        # so clamping and renormalization are unnecessary
        self = object.__new__(cls)
        object.__setattr__(self, "ballots", ballots)
        object.__setattr__(self, "shares", shares)
        return self

    def share_of(self, ballot: Ballot) -> float:
        try:
            return self.shares[self.ballots.index(ballot)]
        except ValueError:
            raise ValueError(f"{set(ballot)} is not an admissible ballot here") from None

    def blend_toward(self, target: "SimplexPoint", p: float) -> "SimplexPoint":
        """p of the voters move to the unit point ``target``, the rest keep
        their plan."""
        if self.shares[target.shares.index(1.0)] == 1.0:
            return self
        q = 1.0 - p
        new = tuple(p * t + q * s for t, s in zip(target.shares, self.shares))
        return SimplexPoint._convex(self.ballots, new)

    def as_dict(self) -> dict[Ballot, float]:
        return dict(zip(self.ballots, self.shares))


ContinuousState = tuple  # tuple[SimplexPoint, ...] aligned with electorate.types


class SymbolicSource(Protocol):
    """Anything that can be iterated and asked who wins at a state."""

    def step(self, state): ...

    def winner(self, state) -> str: ...


def orbit_rows(
    source: SymbolicSource,
    start,
    n_steps: int,
    keep_every: int = 1,
    discard: int = 0,
) -> Iterator[tuple[int, object, str]]:
    """Yield (step, state, winner) for every ``keep_every``-th state of the
    orbit of ``start`` after a transient of ``discard`` steps, up to step
    ``discard + n_steps``.  No step is taken past the last state yielded."""
    if n_steps < 0 or discard < 0:
        raise ValueError("n_steps and discard must be non-negative")
    if keep_every < 1:
        raise ValueError("keep_every must be at least 1")
    step, winner = source.step, source.winner
    last = discard + n_steps - n_steps % keep_every
    s, kept = start, discard
    for k in range(last + 1):
        if k == kept:
            yield k, s, winner(s)
            kept += keep_every
        if k < last:
            s = step(s)


@dataclass(frozen=True)
class ContinuousDynamics:
    """``targets[i]`` maps an outcome's (winner, runner-up) to the unit
    point of type i's strategy ballot; ``rate`` gives the fraction of every
    type that moves to its target at an outcome."""

    electorate: Electorate
    admissible: tuple[tuple[Ballot, ...], ...]
    targets: tuple[dict, ...]
    rate: Callable[[Outcome], float]

    @cached_property
    def _contributions(self):
        """Per type, per admissible ballot: sparse (candidate index,
        weight) pairs the ballot adds when cast by the whole type."""
        cand = self.electorate.candidates
        out = []
        for t, ballots in zip(self.electorate.types, self.admissible):
            vecs = []
            for ballot in ballots:
                vecs.append(tuple((cand.index(c), t.weight) for c in sorted(ballot, key=cand.index)))
            out.append(tuple(vecs))
        return tuple(out)

    def scores(self, state: ContinuousState) -> Tally:
        cand = self.electorate.candidates
        acc = [0.0] * len(cand)
        for point, vecs in zip(state, self._contributions):
            for share, pairs in zip(point.shares, vecs):
                if share:
                    for i, w in pairs:
                        acc[i] += share * w
        return Tally(cand, tuple(acc))

    def outcome(self, state: ContinuousState) -> Outcome:
        return outcome_from_tally(self.scores(state))

    def winner(self, state: ContinuousState) -> str:
        return self.outcome(state).winner

    def step(self, state: ContinuousState) -> ContinuousState:
        out = self.outcome(state)
        key = (out.winner, out.runner_up)
        p = self.rate(out)
        if p == 1.0:
            return tuple(table[key] for table in self.targets)
        if p == 0.0:
            return state
        return tuple(point.blend_toward(table[key], p) for point, table in zip(state, self.targets))

    def extreme_state(self, assignment: dict) -> ContinuousState:
        """State where all voters of each type cast the assigned ballot."""
        points = []
        for t, ballots in zip(self.electorate.types, self.admissible):
            points.append(SimplexPoint.unit(ballots, frozenset(assignment[t.name])))
        return tuple(points)

    def state_from_shares(self, shares: dict) -> ContinuousState:
        """Build a state from {type name: {ballot: share}}; omitted
        admissible ballots get share zero, and a type omitted entirely
        must have a single admissible ballot (which gets everything)."""
        points = []
        for t, ballots in zip(self.electorate.types, self.admissible):
            if t.name not in shares:
                if len(ballots) != 1:
                    raise ValueError(f"type {t.name!r} has several admissible ballots; shares required")
                points.append(SimplexPoint.unit(ballots, ballots[0]))
                continue
            given = {frozenset(b): s for b, s in shares[t.name].items()}
            points.append(SimplexPoint(ballots, tuple(given.get(b, 0.0) for b in ballots)))
        return tuple(points)


def sup_distance(s: ContinuousState, t: ContinuousState) -> float:
    """Sup norm over every ballot share of every type."""
    worst = 0.0
    for a, b in zip(s, t):
        for x, y in zip(a.shares, b.shares):
            worst = max(worst, abs(x - y))
    return worst


def _dynamics(electorate: Electorate, rate: Callable[[Outcome], float]) -> ContinuousDynamics:
    """Dynamics with the given rate and the strategies' targets.  Simple
    strategies make (winner, runner-up) -> ballot a complete lookup table;
    a type's admissible ballots are its image in first occurrence order,
    and outcomes with the same ballot share one unit point."""
    states = all_states(electorate)
    admissible, targets = [], []
    for t in electorate.types:
        table = {(s.winner, s.runner_up): ballot_for(t.strategy, t.preference, s) for s in states}
        ballots = tuple(dict.fromkeys(table.values()))
        units = {b: SimplexPoint.unit(ballots, b) for b in ballots}
        admissible.append(ballots)
        targets.append({key: units[b] for key, b in table.items()})
    return ContinuousDynamics(electorate, tuple(admissible), tuple(targets), rate)


def embed_discrete(electorate: Electorate) -> ContinuousDynamics:
    """The continuous lift of the discrete dynamics (rate 1): every state
    maps to the extreme state of the ballots the discrete strategies
    dictate."""
    return _dynamics(electorate, lambda out: 1.0)


class Fallback(Enum):
    """Behavior where some pairwise margin is below the threshold; the
    stability result allows anything there, so it is configurable."""

    KEEP = "keep"
    APPLY = "apply"
    HALF = "half"


def perturbed_dynamics(
    electorate: Electorate,
    p: float,
    margin: float,
    fallback: Fallback = Fallback.KEEP,
) -> ContinuousDynamics:
    """Dynamics where a fraction ``p`` of each type adjusts to its
    strategy ballot whenever all pairwise score margins reach ``margin``
    (a fraction of the total weight); elsewhere the fallback policy
    applies."""
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if margin < 0:
        raise ValueError("margin must be non-negative")
    threshold = margin * electorate.total_weight
    closed = {Fallback.KEEP: 0.0, Fallback.APPLY: p, Fallback.HALF: p / 2}[fallback]

    def rate(out: Outcome) -> float:
        if all(abs(a - b) >= threshold for a, b in combinations(out.tally.scores, 2)):
            return p
        return closed

    return _dynamics(electorate, rate)


@dataclass(frozen=True)
class TwoShareView:
    """Coordinates (x, z) for electorates where exactly two types are
    undecided between two admissible ballots each; x and z track the
    share of the named types on the given ballots."""

    dynamics: ContinuousDynamics
    type_x: str
    ballot_x: Ballot
    type_z: str
    ballot_z: Ballot

    def _index(self, name: str) -> int:
        for i, t in enumerate(self.dynamics.electorate.types):
            if t.name == name:
                return i
        raise ValueError(f"unknown voter type {name!r}")

    @cached_property
    def _layout(self):
        """Per type: ("x"|"z", ballots) for the tracked types, or the
        constant unit point for single-ballot types."""
        rows = []
        for t, ballots in zip(self.dynamics.electorate.types, self.dynamics.admissible):
            if t.name == self.type_x:
                tracked = frozenset(self.ballot_x)
                coord = "x"
            elif t.name == self.type_z:
                tracked = frozenset(self.ballot_z)
                coord = "z"
            else:
                if len(ballots) != 1:
                    raise ValueError(f"type {t.name!r} is not pinned to a single ballot")
                rows.append(SimplexPoint.unit(ballots, ballots[0]))
                continue
            if len(ballots) != 2 or tracked not in ballots:
                raise ValueError(f"type {t.name!r} must have exactly the tracked and one other ballot")
            rows.append((coord, ballots, tuple(b == tracked for b in ballots)))
        return tuple(rows)

    def state(self, x: float, z: float) -> ContinuousState:
        points = []
        for row in self._layout:
            if isinstance(row, SimplexPoint):
                points.append(row)
                continue
            coord, ballots, mask = row
            val = x if coord == "x" else z
            points.append(SimplexPoint(ballots, tuple(val if m else 1.0 - val for m in mask)))
        return tuple(points)

    @cached_property
    def _coord_slots(self):
        ix, iz = self._index(self.type_x), self._index(self.type_z)
        jx = self.dynamics.admissible[ix].index(frozenset(self.ballot_x))
        jz = self.dynamics.admissible[iz].index(frozenset(self.ballot_z))
        return ix, jx, iz, jz

    def coords(self, state: ContinuousState) -> tuple[float, float]:
        ix, jx, iz, jz = self._coord_slots
        return (state[ix].shares[jx], state[iz].shares[jz])


@dataclass
class Orbit:
    steps: list[int]
    states: list
    winners: str


def iterate_orbit(
    source: SymbolicSource,
    start,
    n_steps: int,
    keep_every: int = 1,
    discard: int = 0,
) -> Orbit:
    """Iterate a map, recording every ``keep_every``-th state after an
    optional transient of ``discard`` steps."""
    rows = list(orbit_rows(source, start, n_steps, keep_every, discard))
    return Orbit([k for k, _, _ in rows], [s for _, s, _ in rows], "".join(w for _, _, w in rows))


@dataclass(frozen=True)
class PeriodicOrbit:
    states: tuple
    winners: tuple[str, ...]

    @property
    def period(self) -> int:
        return len(self.states)


def find_periodic_orbit(
    dynamics: ContinuousDynamics,
    sampler: Callable[[np.random.Generator], ContinuousState],
    period: int,
    tol: float = 1e-9,
    seed: int = 0,
    attempts: int = 32,
    settle: int = 512,
) -> PeriodicOrbit | None:
    """Search for an attracting cycle of the given period: iterate from
    sampled starts, then accept a point whose period-fold image returns
    within ``tol`` and whose cycle states are pairwise distinct."""
    if period < 1:
        raise ValueError("period must be at least 1")
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        rows = list(orbit_rows(dynamics, sampler(rng), period, discard=settle))
        cycle = [s for _, s, _ in rows]
        if sup_distance(cycle[0], cycle[period]) >= tol:
            continue
        distinct = all(
            sup_distance(cycle[i], cycle[j]) > tol
            for i in range(period)
            for j in range(i + 1, period)
        )
        if not distinct:
            continue
        return PeriodicOrbit(tuple(cycle[:period]), tuple(w for _, _, w in rows[:period]))
    return None

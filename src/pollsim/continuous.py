"""Continuous-state poll dynamics on the product of per-type ballot
simplices.

A state assigns to every voter type a distribution over that type's
admissible ballots.  A step reads the expected outcome and moves the
fraction ``rate(outcome)`` of every type's voters to its target: the unit
point of the ballot its simple strategy casts at the outcome's (winner,
runner-up).  The rate is a `MarginGate`, a named object, so a dynamics
pickles: the perturbed dynamics gates the rate on the pairwise score
margins (`perturbed_dynamics`), and the discrete dynamics embeds as the
gate of rate 1 that never closes (`embed_discrete`).

`ContinuousDynamics.step`, `advance` and `winner` run one kernel that
`_resolved_step` compiles from Python source at construction: straight
lines for the dynamics' numbers of types, shares and candidates, with no
loop over them.  Only those indices enter the source; the weights, rates,
names and targets are values in the namespace the kernel runs in, and
dynamics of one shape share one cached code object.  The kernel adds a
zero share's product as `scores` would skip it, which changes no bit,
and it unpacks every point and share, so a state of the wrong shape
raises `ValueError`; `winner` stops after the ranking.  Where the rate
can be 1, the kernel also answers its own unit states from a table it
fills at construction.
`ContinuousDynamics.run_many` does the kernel's float operations on the
orbits of many starts at once, as one array.  `scores`, `outcome` and
`_move` are the readable reference that all of them match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations
from types import CodeType
from typing import Callable, Iterator

import numpy as np

from .dynamics import all_states
from .model import Ballot, Electorate, Outcome, Tally, outcome_from_tally
from .strategies import ballot_for

SUM_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class SimplexPoint:
    """Point i of a state: type i's distribution over its admissible
    ballots, ``shares[j]`` being the share casting
    ``dynamics.admissible[i][j]``.  States are built by
    `ContinuousDynamics.state_from_vectors`, which validates them."""

    shares: tuple[float, ...]


ContinuousState = tuple  # tuple[SimplexPoint, ...] aligned with electorate.types


def orbit_rows(
    source,
    start,
    n_steps: int,
    keep_every: int = 1,
    discard: int = 0,
) -> Iterator[tuple[int, object, str]]:
    """Yield (step, state, winner) for every ``keep_every``-th state of the
    orbit of ``start`` under ``source`` after a transient of ``discard``
    steps, up to step ``discard + n_steps``.  ``source.advance(state)``
    equals ``(source.winner(state), source.step(state))`` from one
    evaluation; a kept state's winner comes with its step from one
    ``advance`` call, and no step is taken past the last state yielded."""
    if n_steps < 0 or discard < 0:
        raise ValueError("n_steps and discard must be non-negative")
    if keep_every < 1:
        raise ValueError("keep_every must be at least 1")
    step, advance = source.step, source.advance
    last = discard + n_steps - n_steps % keep_every
    s = start
    for _ in range(discard):
        s = step(s)
    for k in range(discard, last, keep_every):
        w, nxt = advance(s)
        yield k, s, w
        s = nxt
        for _ in range(keep_every - 1):
            s = step(s)
    yield last, s, source.winner(s)


@dataclass(frozen=True)
class MarginGate:
    """The rate of a dynamics: ``p`` where every pairwise score margin
    reaches ``threshold``, ``closed`` elsewhere; with ``closed == p`` it is
    the constant rate p.  Both rates lie in [0, 1] and the threshold is
    finite and non-negative."""

    p: float
    threshold: float
    closed: float

    def __post_init__(self) -> None:
        for name in ("p", "closed"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not (math.isfinite(self.threshold) and self.threshold >= 0):
            raise ValueError(f"threshold must be finite and non-negative, got {self.threshold}")

    def __call__(self, out: Outcome) -> float:
        if all(abs(a - b) >= self.threshold for a, b in combinations(out.tally.scores, 2)):
            return self.p
        return self.closed


@dataclass(frozen=True)
class ContinuousDynamics:
    """``targets`` maps an outcome's (winner, runner-up) to the slot of
    every type's strategy ballot in ``admissible``; ``rate`` gives the
    fraction of every type that moves to its target at an outcome."""

    electorate: Electorate
    admissible: tuple[tuple[Ballot, ...], ...]
    targets: dict
    rate: MarginGate

    def __post_init__(self) -> None:
        if type(self.rate) is not MarginGate:
            raise TypeError(f"the rate must be a MarginGate, got {type(self.rate).__name__}")
        advance, winner = _resolved_step(self)
        object.__setattr__(self, "_advance", advance)
        object.__setattr__(self, "_winner", winner)

    def __reduce__(self):  # the kernel does not pickle; the fields do
        return ContinuousDynamics, (self.electorate, self.admissible, self.targets, self.rate)

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

    @cached_property
    def _terms(self):
        """Per candidate: the (type, slot) pairs of its score, in the order
        `scores` adds them; a pair adds the share times the type's
        weight."""
        terms = [[] for _ in self.electorate.candidates.names]
        for i, vecs in enumerate(self._contributions):
            for j, pairs in enumerate(vecs):
                for c, _ in pairs:
                    terms[c].append((i, j))
        return tuple(map(tuple, terms))

    @cached_property
    def _units(self):
        """Per type, per slot: the unit point of that ballot."""
        return tuple(
            tuple(SimplexPoint(tuple(float(k == j) for k in range(len(ballots)))) for j in range(len(ballots)))
            for ballots in self.admissible
        )

    def scores(self, state: ContinuousState) -> Tally:
        cand = self.electorate.candidates
        acc = [0.0] * len(cand)
        for point, vecs in zip(state, self._contributions, strict=True):
            for share, pairs in zip(point.shares, vecs, strict=True):
                if share:
                    for i, w in pairs:
                        acc[i] += share * w
        return Tally(cand, tuple(acc))

    def outcome(self, state: ContinuousState) -> Outcome:
        return outcome_from_tally(self.scores(state))

    def winner(self, state: ContinuousState) -> str:
        return self._winner(state)

    def step(self, state: ContinuousState) -> ContinuousState:
        return self._advance(state)[1]

    def advance(self, state: ContinuousState) -> tuple[str, ContinuousState]:
        return self._advance(state)

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        """Where each type's shares start in a flat state row (the types in
        order, then each type's admissible ballots); the row's width last."""
        return tuple(accumulate(map(len, self.admissible), initial=0))

    def run_many(self, starts, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The orbits of many starts at once: ``winners[b, k]`` is the
        winner of start b's state after k steps and ``states[b, k]`` that
        state as a flat row of shares (see `_offsets`), for k = 0..n.  Each
        step does the kernel's float operations on a (starts, slots) array:
        a score adds every term ``x[:, slot] * w`` in the kernel's order, a
        zero share's +0.0 included, which changes no bit; the ranking is a
        stable sort of the negated scores; and the p = 0, p = 1 and
        at-target branches take precedence as in the kernel.  The rows equal
        `orbit_rows` bit for bit."""
        if n < 0:
            raise ValueError(f"need n >= 0 steps, got {n}")
        cand, offsets = self.electorate.candidates, self._offsets
        m, width = len(cand), offsets[-1]
        weights = [t.weight for t in self.electorate.types]
        terms = [[(offsets[i] + j, weights[i]) for i, j in c_terms] for c_terms in self._terms]
        # per (winner, runner-up): every type's target as a flat slot, and
        # the unit state the rate 1 moves to
        target = np.zeros((m, m, len(self.admissible)), dtype=np.intp)
        for (w, r), js in self.targets.items():
            target[cand.index(w), cand.index(r)] = [o + j for o, j in zip(offsets, js)]
        unit = np.zeros((m, m, width))
        np.put_along_axis(unit, target, 1.0, axis=2)
        owner = np.repeat(np.arange(len(self.admissible)), np.diff(offsets))  # the type of each slot
        p_open, threshold, closed = self.rate.p, self.rate.threshold, self.rate.closed
        shares = [point.shares for point in chain.from_iterable(starts)]
        sizes = list(map(len, self.admissible))
        if list(map(len, starts)) != [len(sizes)] * len(starts) or list(map(len, shares)) != sizes * len(starts):
            for b, state in enumerate(starts):
                self._check_sizes(state, f"start {b}")
        x = np.fromiter(chain.from_iterable(shares), np.float64, len(starts) * width).reshape(len(starts), width)
        rows = np.arange(len(x))[:, None]
        states = np.empty((len(x), n + 1, width))
        winners = np.empty((len(x), n + 1), dtype=np.intp)
        for k in range(n + 1):
            states[:, k] = x
            acc = np.zeros((len(x), m))
            for c, c_terms in enumerate(terms):
                v = acc[:, c]
                for col, w in c_terms:
                    v += x[:, col] * w
            order = np.argsort(-acc, axis=1, kind="stable")
            winners[:, k] = order[:, 0]
            if k == n:
                break
            ranked = np.take_along_axis(acc, order, axis=1)
            p = np.where((ranked[:, :-1] - ranked[:, 1:] >= threshold).all(axis=1), p_open, closed)
            first, second = order[:, 0], order[:, 1]
            cols = target[first, second]
            moved = (1.0 - p)[:, None] * x
            moved[rows, cols] += p[:, None]
            at_target = np.take_along_axis(x, cols, axis=1) == 1.0
            moved = np.where(at_target[:, owner], x, moved)
            moved = np.where((p == 1.0)[:, None], unit[first, second], moved)
            x = np.where((p == 0.0)[:, None], x, moved)
        return np.array(cand.names)[winners], states

    def _check_sizes(self, state: ContinuousState, what: str = "state") -> None:
        """Raise ValueError unless ``state`` has one point per type, each
        with one share per admissible ballot of its type."""
        want = list(map(len, self.admissible))
        if (got := [len(point.shares) for point in state]) != want:
            raise ValueError(f"{what} has points of sizes {got}, need {want}")

    def _move(self, state: ContinuousState, out: Outcome) -> ContinuousState:
        """Reference move: the fraction p = rate(outcome) of every type
        goes to its target slot j: q = 1 - p of each share stays and the
        target gains p, which is p * unit + q * shares bit for bit.  A type
        already at its target keeps its point (blending would round 1 to
        p + q)."""
        self._check_sizes(state)
        p = self.rate(out)
        if p == 0.0:
            return state
        slots = self.targets[out.ranking[:2]]  # (winner, runner-up)
        if p == 1.0:
            return tuple(units[j] for units, j in zip(self._units, slots))
        q = 1.0 - p
        points = []
        for point, j in zip(state, slots):
            if point.shares[j] == 1.0:
                points.append(point)
                continue
            shares = [q * s for s in point.shares]
            shares[j] += p
            points.append(SimplexPoint(tuple(shares)))
        return tuple(points)

    def state_from_vectors(self, vectors) -> ContinuousState:
        """Build a state from one share vector per type, in the order of
        the type's admissible ballots.  Every entry must lie in [0, 1] (NaN
        does not); each vector must sum to 1 within 1e-12 and is
        renormalized exactly."""
        if len(vectors) != len(self.admissible):
            raise ValueError("one share vector per voter type")
        points = []
        for t, ballots, shares in zip(self.electorate.types, self.admissible, vectors):
            if len(shares) != len(ballots):
                raise ValueError(f"type {t.name!r}: one share per admissible ballot")
            total = 0.0
            for s in shares:
                if not 0.0 <= s <= 1.0:
                    raise ValueError(f"type {t.name!r}: share {s} is not in [0, 1]")
                total += s
            if abs(total - 1.0) > SUM_TOL:
                raise ValueError(f"type {t.name!r}: shares sum to {total}, not 1")
            if total != 1.0:
                shares = tuple(s / total for s in shares)
            points.append(SimplexPoint(tuple(shares)))
        return tuple(points)

    def slot(self, name: str, ballot) -> tuple[int, int]:
        """(type index, slot index) of an admissible ballot of the named
        type."""
        for i, t in enumerate(self.electorate.types):
            if t.name == name:
                ballots = self.admissible[i]
                ballot = frozenset(ballot)
                if ballot not in ballots:
                    raise ValueError(f"{sorted(ballot)} is not an admissible ballot of type {name!r}")
                return i, ballots.index(ballot)
        raise ValueError(f"unknown voter type {name!r}")

    def state_from_shares(self, shares: dict) -> ContinuousState:
        """Build a state from {type name: {ballot: share}}; omitted
        admissible ballots get share zero, and a type omitted entirely
        must have a single admissible ballot (which gets everything).  An
        unknown type or a ballot the type never casts raises ValueError."""
        vectors = [[0.0] * len(ballots) for ballots in self.admissible]
        for name, given in shares.items():
            for ballot, share in given.items():
                i, j = self.slot(name, ballot)
                vectors[i][j] = share
        for t, ballots, vector in zip(self.electorate.types, self.admissible, vectors):
            if t.name not in shares:
                if len(ballots) != 1:
                    raise ValueError(f"type {t.name!r} has several admissible ballots; shares required")
                vector[0] = 1.0
        return self.state_from_vectors(vectors)

    def extreme_state(self, assignment: dict) -> ContinuousState:
        """State where all voters of each type cast the assigned ballot;
        types are omitted and validated as in `state_from_shares`."""
        return self.state_from_shares({name: {ballot: 1.0} for name, ballot in assignment.items()})


_KERNEL_CACHE = 128  # compiled kernels kept, one per shape of dynamics

_KERNEL = """\
def winner(state):
{read}
    return names[sorted(indices, key=acc.__getitem__, reverse=True)[0]]
def advance(state):
{read}
    {order}= sorted(indices, key=acc.__getitem__, reverse=True)
    winner = names[o0]
    p = p_open if {gate} else closed
    if p == 0.0:
        return winner, state
    if p == 1.0:
        return winner, units[o0, o1]
    q = 1.0 - p
    {targets}= slots[o0, o1]
{moves}
    return winner, ({points})
"""

_MOVE = """\
    if s{i}[j{i}] == 1.0:
        n{i} = t{i}
    else:
        new = [{blend}]
        new[j{i}] += p
        n{i} = point(tuple(new))"""


@lru_cache(maxsize=_KERNEL_CACHE)
def _compiled(sizes: tuple[int, ...], terms: tuple) -> CodeType:
    """The compiled source of ``advance`` and ``winner`` for dynamics whose
    type i has ``sizes[i]`` admissible ballots and whose candidate c scores
    the (type, slot) pairs ``terms[c]``.  Type i's point is ``t{i}``, its
    shares ``s{i}`` and share j ``x{i}_{j}``; ``o{k}`` is the candidate
    ranked k-th.  Only these indices enter the source, so the cache is
    keyed by them, and a construction that hits it builds no source."""

    def listed(v, n):  # the targets v0, v1, ... of an unpacking
        return "".join([f"{v}{k}, " for k in range(n)])

    shares = [[f"x{i}_{j}" for j in range(n)] for i, n in enumerate(sizes)]
    scores = [" + ".join(["0.0", *[f"x{i}_{j} * w{i}" for i, j in c_terms]]) for c_terms in terms]
    read = [f"    {listed('t', len(sizes))}= state"]
    read += [f"    {', '.join(xs)}, = s{i} = t{i}.shares" for i, xs in enumerate(shares)]
    read.append(f"    acc = [{', '.join(scores)}]")
    source = _KERNEL.format(
        read="\n".join(read),
        order=listed("o", len(terms)),
        gate=" and ".join([f"acc[o{k}] - acc[o{k + 1}] >= threshold" for k in range(len(terms) - 1)]),
        targets=listed("j", len(sizes)),
        moves="\n".join([_MOVE.format(i=i, blend=", ".join([f"q * {x}" for x in xs])) for i, xs in enumerate(shares)]),
        points=listed("n", len(sizes)),
    )
    return compile(source, "<continuous step kernel>", "exec")


def _resolved_step(dyn: ContinuousDynamics):
    """The dynamics' ``(advance, winner)``: `scores`, `outcome`, `rate` and
    `_move` as straight-line Python, written and compiled by `_compiled`
    once per shape of dynamics and run in a namespace that holds this
    dynamics' weights ``w{i}``, rates, candidate names, target slots and
    unit states.  Only type, slot and rank indices enter the source, so no
    name of the electorate is ever parsed as code, and dynamics of one
    shape share one code object.

    The kernel unpacks the state into its points and every point into its
    shares, so a state with a wrong number of points or shares raises
    `ValueError`.  Candidate c's score is ``0.0 + x * w + ...`` over its
    terms in the order `scores` adds them.  `scores` skips a zero share;
    adding it is exact: its product with a finite weight is +0.0 or -0.0,
    adding either leaves every sum but -0.0 as it is, and a sum that
    starts at +0.0 is never -0.0, since only -0.0 + -0.0 is.  The stable
    descending sort breaks ties toward the lower index, as
    `outcome_from_tally` does, and the `MarginGate` compares adjacent
    scores of the ranking: rounding is monotone, so no other pair's margin
    is smaller.  The p = 0 and p = 1 branches come first, as in `_move`;
    each type's move blends its own number of shares, and a type already
    at its target keeps its point.  ``winner`` stops after the ranking.

    Where the rate can be 1, every step that moves at rate 1 returns one
    of the kernel's unit states, so each unit state is stepped once here
    and a later ``advance`` of that very object is answered from the
    table.  The table holds the objects, so an id it answers for cannot be
    reused."""
    cand = dyn.electorate.candidates
    slots = {(cand.index(w), cand.index(r)): js for (w, r), js in dyn.targets.items()}
    units = {key: tuple(u[j] for u, j in zip(dyn._units, js)) for key, js in slots.items()}
    namespace = {f"w{i}": t.weight for i, t in enumerate(dyn.electorate.types)}
    namespace.update(
        names=cand.names,
        indices=range(len(cand)),
        p_open=dyn.rate.p,
        threshold=dyn.rate.threshold,
        closed=dyn.rate.closed,
        slots=slots,
        units=units,
        point=SimplexPoint,
    )
    exec(_compiled(tuple(map(len, dyn.admissible)), dyn._terms), namespace)
    advance, winner = namespace["advance"], namespace["winner"]
    if dyn.rate.p != 1.0 and dyn.rate.closed != 1.0:
        return advance, winner
    table = {id(s): (s, advance(s)) for s in units.values()}

    def tabled(state):
        hit = table.get(id(state))
        if hit is not None and hit[0] is state:
            return hit[1]
        return advance(state)

    return tabled, winner


def sup_distance(s: ContinuousState, t: ContinuousState) -> float:
    """Sup norm over every ballot share of every type."""
    worst = 0.0
    for a, b in zip(s, t, strict=True):
        for x, y in zip(a.shares, b.shares, strict=True):
            worst = max(worst, abs(x - y))
    return worst


def _dynamics(electorate: Electorate, rate: MarginGate) -> ContinuousDynamics:
    """Dynamics with the given rate and the strategies' targets.  Simple
    strategies make (winner, runner-up) -> ballot a complete lookup table;
    a type's admissible ballots are its image in first occurrence order."""
    states = all_states(electorate)
    admissible, columns = [], []
    for t in electorate.types:
        cast = [ballot_for(t.preference, s) for s in states]
        ballots = tuple(dict.fromkeys(cast))
        admissible.append(ballots)
        columns.append([ballots.index(b) for b in cast])
    targets = dict(zip(((s.winner, s.runner_up) for s in states), zip(*columns)))
    return ContinuousDynamics(electorate, tuple(admissible), targets, rate)


def embed_discrete(electorate: Electorate) -> ContinuousDynamics:
    """The continuous lift of the discrete dynamics (rate 1): every state
    maps to the extreme state of the ballots the discrete strategies
    dictate.  Adjacent scores of a descending ranking differ by at least
    0, so the gate of threshold 0 never closes; its closed rate is 1 too."""
    return _dynamics(electorate, MarginGate(1.0, 0.0, 1.0))


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
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and non-negative, got {margin}")
    closed = {Fallback.KEEP: 0.0, Fallback.APPLY: p, Fallback.HALF: p / 2}[fallback]
    return _dynamics(electorate, MarginGate(p, margin * electorate.total_weight, closed))


@dataclass(frozen=True)
class TwoShareView:
    """Coordinates (x, z) for electorates where exactly two types are
    undecided between two admissible ballots each: x and z are the shares
    at the (type index, slot index) pairs ``x`` and ``z``, and every other
    type has a single admissible ballot."""

    dynamics: ContinuousDynamics
    x: tuple[int, int]
    z: tuple[int, int]

    def __post_init__(self) -> None:
        tracked = {self.x[0]: self.x[1], self.z[0]: self.z[1]}
        if len(tracked) != 2 or not all(0 <= i < len(self.dynamics.admissible) for i in tracked):
            raise ValueError("x and z must track two different types of the electorate")
        for i, (t, ballots) in enumerate(zip(self.dynamics.electorate.types, self.dynamics.admissible)):
            if i in tracked:
                if len(ballots) != 2 or tracked[i] not in (0, 1):
                    raise ValueError(f"type {t.name!r} must have exactly the tracked and one other ballot")
            elif len(ballots) != 1:
                raise ValueError(f"type {t.name!r} is not pinned to a single ballot")
        pinned = SimplexPoint((1.0,))
        points = tuple(None if i in tracked else pinned for i in range(len(self.dynamics.admissible)))
        object.__setattr__(self, "_pinned", points)

    def state(self, x: float, z: float) -> ContinuousState:
        """The state at (x, z); ValueError unless both lie in [0, 1].  The
        pinned types' points come from a template.  It equals
        `state_from_vectors` bit for bit: for v in [0, 1], 1 - v is exact
        above 1/2 and off by at most half an ulp of 1 below, so v + (1 - v)
        rounds to exactly 1 and a tracked type is never renormalized."""
        if not (0.0 <= x <= 1.0 and 0.0 <= z <= 1.0):
            raise ValueError(f"(x, z) = ({x}, {z}) is not in the unit square")
        points = list(self._pinned)
        for (i, j), v in ((self.x, x), (self.z, z)):
            points[i] = SimplexPoint((v, 1.0 - v) if j == 0 else (1.0 - v, v))
        return tuple(points)

    @property
    def columns(self) -> tuple[int, int]:
        """Where x and z sit in a flat state row of `ContinuousDynamics.run_many`."""
        offsets = self.dynamics._offsets
        return offsets[self.x[0]] + self.x[1], offsets[self.z[0]] + self.z[1]

    def coords(self, state: ContinuousState) -> tuple[float, float]:
        (ix, jx), (iz, jz) = self.x, self.z
        return (state[ix].shares[jx], state[iz].shares[jz])


@dataclass(frozen=True)
class PeriodicOrbit:
    states: tuple
    winners: tuple[str, ...]


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

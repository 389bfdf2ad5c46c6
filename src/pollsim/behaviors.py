"""Opportunity-driven voter behavior: safety and collaboration functions,
the two-coordinate reluctance model on the unit square, and the
one-dimensional tent-map model with exact rational iteration.

The planar model covers a four-type electorate (Z: abc, Y: a(bc),
X: bac, W: c(ab)) in reduced coordinates (x, z): the shares of X and Z
casting the two-name ballot {a, b}.  Candidate scores are

    V_a = n_z + n_y + n_x * x        V_c = n_w
    V_b = n_z * z + n_x              (rule "derived")
    V_b = n_z * z + x                (rule "literal")

The two b-score rules and the two safety normalizations are exposed as
configuration axes, so nothing is silently privileged; the
derived/total-weight pair is the one that reproduces the documented
attractors.  The axes change the orbit more than the winners word: at
the default weights both total-normalization configurations turn x by
one tent map of slope 5/4 whose turning point x = 1/3 decides between a
and c (b never wins under literal/total), so their words from (0.5, 0.5)
agree letter for letter while z differs, and both raw configurations
fall onto a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .continuous import orbit_rows
from .cultures import splitmix64


class SafetyKind(Enum):
    # margin of the second-listed score over the third when it leads the
    # first, otherwise the average of both leading margins over the third
    TWO_CASE = "two_case"
    SIMPLE_MARGIN = "simple_margin"


class Normalization(Enum):
    RAW = "raw"
    TOTAL_WEIGHT = "total"


@dataclass(frozen=True)
class SafetyFunction:
    kind: SafetyKind = SafetyKind.TWO_CASE
    normalization: Normalization = Normalization.TOTAL_WEIGHT


def safety(f: SafetyFunction, v1: float, v2: float, v3: float, total_weight: float | None = None) -> float:
    """How safe it looks not to cooperate, given the scores of the
    favorite (v1), the second choice (v2) and the rejected candidate (v3).
    Continuous in the scores; both branches agree when v1 == v2."""
    if f.normalization is Normalization.TOTAL_WEIGHT:
        if total_weight is None:
            raise ValueError("total_weight required for normalized safety")
        v1, v2, v3 = v1 / total_weight, v2 / total_weight, v3 / total_weight
    if f.kind is SafetyKind.SIMPLE_MARGIN:
        return abs(v2 - v3)
    if v2 > v1:
        return abs(v2 - v3)
    return 0.5 * abs(v2 - v3) + 0.5 * abs(v1 - v3)


@dataclass(frozen=True)
class LinearClamped:
    """C(t) = max(0, 1 - kappa t): full collaboration at zero safety,
    none beyond 1/kappa."""

    kappa: float = 5.0

    def __call__(self, t: float) -> float:
        return max(0.0, 1.0 - self.kappa * t)


@dataclass(frozen=True)
class RationalDecay:
    """C(t) = 1 / (1 + lam t): steeper near zero, never fully opts out."""

    lam: float = 45.0

    def __call__(self, t: float) -> float:
        return 1.0 / (1.0 + self.lam * t)


class BScoreRule(Enum):
    # "derived": b's score counts the whole cooperating bloc of type X.
    # "literal": the cooperating share of X contributes with unit weight.
    DERIVED = "derived"
    LITERAL = "literal"


@dataclass(frozen=True)
class ReluctanceConfig:
    n_z: float = 3.0
    n_y: float = 1.0
    n_x: float = 3.0
    n_w: float = 5.0
    safety_fn: SafetyFunction = field(default_factory=SafetyFunction)
    collaboration: LinearClamped | RationalDecay = field(default_factory=LinearClamped)
    b_score_rule: BScoreRule = BScoreRule.DERIVED

    def __post_init__(self) -> None:
        if not all(0 < w < math.inf for w in (self.n_z, self.n_y, self.n_x, self.n_w)):
            raise ValueError("weights must be finite and positive")
        if type(self.collaboration) not in (LinearClamped, RationalDecay):
            raise TypeError(f"collaboration must be LinearClamped or RationalDecay, "
                            f"got {type(self.collaboration).__name__}")
        if not all(map(math.isfinite, astuple(self.collaboration))):
            raise ValueError(f"collaboration steepness must be finite, got {self.collaboration}")
        if isinstance(self.collaboration, RationalDecay) and self.collaboration.lam < 0:
            raise ValueError(f"collaboration steepness lam must be non-negative, got {self.collaboration.lam}")

    @property
    def total_weight(self) -> float:
        return self.n_z + self.n_y + self.n_x + self.n_w


class PlanarReluctanceMap:
    """The (x, z) -> (x', z') map induced by opportunity-driven
    collaboration of types X and Z; maps the unit square into itself.

    One closure, specialized to the configuration by `_resolved_map` at
    construction, runs n steps from a state in the unit square:
    `winners_word` is its n letters, `advance(state) -> (winner, next
    state)` its run of one step, and `winner` and `step` the halves of
    `advance`; `run_many` steps it from many starts.  `reference_winner`
    and `reference_step`, built on `scores`
    and `safety`, are the readable reference; the closure does the same
    float operations in the same order.  Once an orbit returns to an
    earlier float state, the closure writes the rest of the word by
    repetition (see `_resolved_map`); letters and end state are still
    those of n steps."""

    def __init__(self, config: ReluctanceConfig):
        self.config = config
        self._run = _resolved_map(config)

    def __reduce__(self):  # the closure does not pickle; the configuration does
        return PlanarReluctanceMap, (self.config,)

    def winner(self, state: tuple[float, float]) -> str:
        return self._run(state, 1)[0]

    def step(self, state: tuple[float, float]) -> tuple[float, float]:
        return self._run(state, 1)[1]

    def advance(self, state: tuple[float, float]) -> tuple[str, tuple[float, float]]:
        return self._run(state, 1)

    def winners_word(self, start: tuple[float, float], n: int) -> str:
        """The winners of the first n states of the orbit of ``start``."""
        if n < 0:
            raise ValueError(f"need n >= 0 letters, got {n}")
        return self._run(start, n)[0]

    def run_many(self, starts, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The orbits of many starts, as `ContinuousDynamics.run_many`
        returns them: ``winners[b, k]`` and ``states[b, k] = (x, z)`` of
        start b after k steps, for k = 0..n.  Each start's `orbit_rows`
        runs the closure one step at a time, so the planar float
        operations stay in one copy."""
        if n < 0:
            raise ValueError(f"need n >= 0 steps, got {n}")
        rows = [list(orbit_rows(self, s, n)) for s in starts]
        return (np.array([[w for _, _, w in r] for r in rows], dtype=str).reshape(len(rows), n + 1),
                np.array([[s for _, s, _ in r] for r in rows], dtype=np.float64).reshape(len(rows), n + 1, 2))

    def scores(self, state: tuple[float, float]) -> tuple[float, float, float]:
        x, z = state
        c = self.config
        va = c.n_z + c.n_y + c.n_x * x
        if c.b_score_rule is BScoreRule.LITERAL:
            vb = c.n_z * z + x
        else:
            vb = c.n_z * z + c.n_x
        return va, vb, c.n_w

    def reference_winner(self, state: tuple[float, float]) -> str:
        va, vb, vc = self.scores(state)
        best = max(enumerate((va, vb, vc)), key=lambda p: (p[1], -p[0]))[0]
        return "abc"[best]

    def reference_step(self, state: tuple[float, float]) -> tuple[float, float]:
        c = self.config
        va, vb, vc = self.scores(state)
        total = c.total_weight
        s_z = safety(c.safety_fn, va, vb, vc, total)
        s_x = safety(c.safety_fn, vb, va, vc, total)
        z_new = min(1.0, max(0.0, c.collaboration(s_z)))
        x_new = min(1.0, max(0.0, c.collaboration(s_x)))
        return (x_new, z_new)


def _resolved_map(c: ReluctanceConfig):
    """The map's ``run(state, n) -> (letters, state after n steps)`` for
    one configuration: the winners of the n states from ``state`` on, by
    the reference's scores, safety and clamped collaboration with every
    configuration branch resolved here, once.

    The run finds an orbit's exact cycle on Brent's schedule: it keeps
    one checkpoint, replaced at states 1, 2, 4, 8, ..., and compares
    every new state with it.  When state t equals the checkpoint, state
    lo, the map, a function of (x, z) alone, repeats with period
    t - lo from lo on, so letters t..n-1 are letters lo..t-1 over again
    and state n is state t stepped (n - t) mod (t - lo) more times.
    Float ``==`` is exact here: a NaN start is refused and the clamp
    maps -0.0 and NaN to +0.0 at every step, so no checkpoint holds
    either and equal states are equal bits.  A chaotic orbit pays one
    comparison per step; a one-step call pays the checkpoint's few
    assignments."""
    n_z, n_x, vc = c.n_z, c.n_x, c.n_w
    a0 = c.n_z + c.n_y  # va = (n_z + n_y) + n_x * x, as `scores` adds
    literal = c.b_score_rule is BScoreRule.LITERAL
    normalized = c.safety_fn.normalization is Normalization.TOTAL_WEIGHT
    total = c.total_weight
    wc = vc / total if normalized else vc
    two_case = c.safety_fn.kind is SafetyKind.TWO_CASE
    linear = type(c.collaboration) is LinearClamped
    k = c.collaboration.kappa if linear else c.collaboration.lam

    def run(state, n):
        x, z = state
        if not (0.0 <= x <= 1.0 and 0.0 <= z <= 1.0):  # also refuses NaN
            raise ValueError(f"planar state {state} lies outside the unit square")
        letters = []
        # states lo+1..hi are compared with the checkpoint (cx, cz), state lo
        # from state 1 on; (-1, -1) is no state of the square
        lo, hi, cx, cz = 0, 1, -1.0, -1.0
        while True:
            for t in range(lo + 1, (hi if hi < n else n) + 1):
                va = a0 + n_x * x
                vb = n_z * z + (x if literal else n_x)
                if va >= vb:  # ties go to the lower index, as in `reference_winner`
                    letters.append("a" if va >= vc else "c")
                else:
                    letters.append("b" if vb >= vc else "c")
                if normalized:
                    va, vb = va / total, vb / total
                d_b, d_a = abs(vb - wc), abs(va - wc)
                if two_case:
                    s_z = d_b if vb > va else 0.5 * d_b + 0.5 * d_a
                    s_x = d_a if va > vb else 0.5 * d_a + 0.5 * d_b
                else:
                    s_z, s_x = d_b, d_a
                if linear:
                    x, z = 1.0 - k * s_x, 1.0 - k * s_z
                else:
                    x, z = 1.0 / (1.0 + k * s_x), 1.0 / (1.0 + k * s_z)
                # min(1.0, max(0.0, y)), which also maps NaN and -0.0 to 0.0
                x = x if 0.0 < x < 1.0 else 1.0 if x >= 1.0 else 0.0
                z = z if 0.0 < z < 1.0 else 1.0 if z >= 1.0 else 0.0
                if x == cx and z == cz:  # state t repeats state lo: period t - lo from lo on
                    cycle = "".join(letters[lo:])
                    q, r = divmod(n - t, t - lo)
                    return "".join(letters) + cycle * q + cycle[:r], run((x, z), r)[1]
            if hi >= n:
                return "".join(letters), (x, z)
            lo, hi, cx, cz = hi, hi + hi, x, z

    return run


def build_planar_map(config: ReluctanceConfig | None = None) -> PlanarReluctanceMap:
    return PlanarReluctanceMap(config or ReluctanceConfig())


_TENT_DEN = 5**30  # odd, and 2 has huge multiplicative order mod 5**30


class TentModel:
    """One-dimensional model (Z: abc 2, Y: b(ac) 3.5, X: c(ab) 4.5).

    Only type Z reacts to polls; its cooperating share z follows
    z -> 2z on [0, 1/2], 2 - 2z on [1/2, 1], and the winner is b exactly
    when z >= 1/2.  Binary floats collapse doubling maps onto 0 after a
    few dozen steps, so long orbits run on exact rationals p/q with a
    fixed odd q; the orbit is then eventually periodic with period tied
    to the multiplicative order of 2 modulo q, which the default q makes
    astronomically large.
    """

    n_z = 2.0
    n_y = 3.5
    n_x = 4.5
    safety_fn = SafetyFunction(SafetyKind.SIMPLE_MARGIN, Normalization.TOTAL_WEIGHT)
    collaboration = LinearClamped(kappa=10.0)

    @property
    def total_weight(self) -> float:
        return self.n_z + self.n_y + self.n_x

    def scores(self, z: float) -> tuple[float, float, float]:
        return (self.n_z, self.n_y + self.n_z * float(z), self.n_x)

    def winner(self, z) -> str:
        return self.advance(z)[0]

    def step(self, z):
        return self.advance(z)[1]

    def advance(self, z):
        """The winner at z and the tent image of z, from one doubling of z;
        `winner` and `step` return its two halves.  Refuses z outside
        [0, 1], NaN included."""
        if not 0 <= z <= 1:
            raise ValueError(f"tent state {z} lies outside [0, 1]")
        if isinstance(z, Fraction):
            num, den = z.numerator, z.denominator
            two = 2 * num
            return ("b" if two >= den else "c",
                    Fraction(two, den) if two <= den else Fraction(2 * den - two, den))
        two = 2.0 * z  # exact, so two >= 1.0 exactly when z >= 0.5
        return ("b" if two >= 1.0 else "c"), (two if two <= 1.0 else 2.0 - two)

    def collaboration_step(self, z: float) -> float:
        """Same update computed through the safety/collaboration pipeline
        rather than the closed form."""
        va, vb, vc = self.scores(z)
        return self.collaboration(safety(self.safety_fn, va, vb, vc, self.total_weight))

    def default_start(self, seed: int = 0) -> Fraction:
        """A generic rational start p/q with q = 5**30 and p coprime to 5."""
        acc = 0
        x = seed & 0xFFFFFFFFFFFFFFFF
        for _ in range(3):
            x = splitmix64(x)
            acc = (acc << 64) | x
        p = acc % _TENT_DEN
        while p % 5 == 0 or p == 0:
            p += 1
        return Fraction(p, _TENT_DEN)

    def winners_word_exact(self, start: Fraction, n: int) -> str:
        """n letters of the winners word along the exact orbit of
        ``start``: read off its binary expansion when the denominator is
        odd and start < 1, iterated in integers on the fixed denominator
        otherwise."""
        if n < 0:
            raise ValueError(f"need n >= 0 letters, got {n}")
        num, den = start.numerator, start.denominator
        if not 0 <= num <= den:
            raise ValueError("start must lie in [0, 1]")
        if den % 2 and num < den:
            return _tent_word_from_bits(num, den, n)
        return _tent_word_by_steps(num, den, n)


def _tent_word_by_steps(num: int, den: int, n: int) -> str:
    """The tent word of num/den letter by letter: the reference, and the
    path for starts the binary expansion does not cover."""
    letters = bytearray(n)
    for k in range(n):
        two = num << 1
        letters[k] = 98 if two >= den else 99  # 'b' / 'c'
        num = two if two <= den else (den << 1) - two
    return letters.decode("ascii")


def _tent_word_from_bits(num: int, den: int, n: int) -> str:
    """The tent word of num/den for odd ``den`` and 0 <= num < den, read
    off the binary expansion 0.b1 b2 b3 ... of the start.  The tent map T
    satisfies T^k = T o D^(k-1) with the doubling map D(x) = 2x mod 1, and
    an odd denominator keeps every D-iterate off 1/2, so letter 0 is 'b'
    exactly when b1 = 1 and letter k >= 1 exactly when b_k != b_(k+1):
    the letters are the bits of the Gray code g ^ (g >> 1) of the
    expansion's integer g."""
    size = (n + 7) // 8
    g = (num << 8 * size) // den
    letters = np.unpackbits(np.frombuffer((g ^ (g >> 1)).to_bytes(size, "big"), dtype=np.uint8))[:n]
    return str(np.subtract(99, letters, out=letters).data, "ascii")  # 1 -> 'b', 0 -> 'c'


def build_tent_model() -> TentModel:
    return TentModel()

"""Symbolic statistics of winners words: subword census, Shannon block
entropies, least-squares entropy-rate estimation, and eventual-period
detection.

Natural logarithms throughout, so a fair binary word has entropy rate
log 2 and an alphabet of size N caps the rate at log N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .continuous import orbit_rows


@dataclass(frozen=True)
class WinnersWord:
    """Sequence of election winners along an orbit, one letter per step."""

    letters: str
    source: str = ""

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters


def winners_word(source, start, n: int, label: str = "") -> WinnersWord:
    """First ``n`` winners along the orbit of ``start`` under ``source``
    (anything with ``step`` and ``winner``): the winners of ``n - 1``
    steps."""
    if n < 1:
        raise ValueError("need at least one letter")
    letters = [w for _, _, w in orbit_rows(source, start, n - 1)]
    if any(len(w) != 1 for w in letters):
        raise ValueError("winners words need single-character candidate names")
    return WinnersWord("".join(letters), label)


def _letters(word) -> str:
    return word.letters if isinstance(word, WinnersWord) else word


def _window_codes(text: str, n: int, max_block: int, name: str):
    """Yield the exact integer codes of all length-1, 2, ..., ``max_block``
    windows of ``text``, the first ``n`` letters of a word.  Codes are
    injective (base**max_block fits in 64 bits), so no collision handling
    is needed."""
    if not 1 <= max_block <= n:
        raise ValueError(f"need 1 <= {name} <= n")
    alphabet, codes = np.unique(np.frombuffer(text.encode("ascii"), dtype=np.uint8), return_inverse=True)
    codes = codes.astype(np.int64)
    base = max(2, len(alphabet))
    if base**max_block > 2**62:
        raise ValueError(f"{name} too long for exact window codes")
    cur = codes
    yield cur
    for k in range(1, max_block):
        cur = cur[:-1] * base + codes[k:]
        yield cur


@dataclass(frozen=True)
class Census:
    counts: dict
    distinct: int
    windows: int

    def proportions(self) -> dict:
        return {w: c / self.windows for w, c in self.counts.items()}


def subword_census(word, block: int, n: int | None = None) -> Census:
    """Occurrence counts of every length-``block`` factor of the first
    ``n`` letters."""
    text = _letters(word)
    n = len(text) if n is None else n
    text = text[:n]
    for codes in _window_codes(text, n, block, "block"):
        pass  # keep the codes of the length-``block`` windows
    values, first, counts = np.unique(codes, return_index=True, return_counts=True)
    decoded = {text[i:i + block]: c for i, c in zip(first.tolist(), counts.tolist())}
    return Census(decoded, len(values), n - block + 1)


def shannon_entropy(probs: Sequence[float]) -> float:
    """Entropy (nats) of a probability vector, with 0 log 0 = 0."""
    total = 0.0
    acc = 0.0
    for p in probs:
        if p < 0:
            raise ValueError("negative probability")
        total += p
        if p > 0:
            acc -= p * math.log(p)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return acc


def _entropy_from_counts(counts: np.ndarray) -> float:
    w = counts.sum()
    p = counts / w
    return float(-(p * np.log(p)).sum())


@dataclass(frozen=True)
class EntropyProfile:
    """Block entropies H(block) and distinct-factor counts S(block) of a
    word prefix, for block lengths 1..max_block."""

    blocks: tuple[int, ...]
    entropy: tuple[float, ...]
    distinct: tuple[int, ...]
    n: int

    @property
    def log_distinct(self) -> tuple[float, ...]:
        return tuple(math.log(s) for s in self.distinct)


def ks_profile(word, n: int | None = None, max_block: int = 16) -> EntropyProfile:
    text = _letters(word)
    n = len(text) if n is None else n
    entropy, distinct = [], []
    for codes in _window_codes(text[:n], n, max_block, "max_block"):
        values, counts = np.unique(codes, return_counts=True)
        entropy.append(_entropy_from_counts(counts))
        distinct.append(len(values))
    windows = n - max_block + 1
    if distinct[-1] > windows / 10:
        warnings.warn(
            f"S({max_block}) = {distinct[-1]} leaves fewer than 10 windows per factor; "
            "block entropies at the top lengths will be biased low",
            stacklevel=2,
        )
    return EntropyProfile(tuple(range(1, max_block + 1)), tuple(entropy), tuple(distinct), n)


@dataclass(frozen=True)
class EntropyFit:
    slope: float
    intercept: float
    residual_rms: float
    plateau_suspected: bool
    low_confidence: bool


def ks_entropy_estimate(profile: EntropyProfile, fit_range: tuple[int, int] = (4, 14)) -> EntropyFit:
    """Least-squares line through (block, H(block)) over ``fit_range``;
    the slope estimates the entropy rate.  A flat fit with a constant
    distinct-factor count flags an eventually periodic word; a residual
    RMS of 0.02 or more flags a poorly aligned profile."""
    lo, hi = fit_range
    if lo < profile.blocks[0] or hi > profile.blocks[-1] or hi - lo + 1 < 3:
        raise ValueError("degenerate fit range")
    xs = np.arange(lo, hi + 1, dtype=float)
    ys = np.array(profile.entropy[lo - 1: hi])
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ np.array([slope, intercept])
    rms = float(np.sqrt(np.mean(resid**2)))
    s_values = profile.distinct[lo - 1: hi]
    plateau = abs(float(slope)) < 0.01 and len(set(s_values)) == 1
    return EntropyFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=rms,
        plateau_suspected=plateau,
        low_confidence=rms >= 0.02,
    )


def _z_array(text: str) -> list[int]:
    n = len(text)
    z = [0] * n
    z[0] = n
    l = r = 0
    for i in range(1, n):
        if i < r:
            z[i] = min(r - i, z[i - l])
        while i + z[i] < n and text[z[i]] == text[i + z[i]]:
            z[i] += 1
        if i + z[i] > r:
            l, r = i, i + z[i]
    return z


def _period_by_z_array(text: str) -> tuple[int, int] | None:
    """`detect_eventual_period` from the Z-array of the reversed word: the
    reference, and the path for words the filtered search gives up on."""
    n = len(text)
    if n < 3:
        return None
    limit = n // 3
    rev = text[::-1]
    z = _z_array(rev)
    for p in range(1, limit + 1):
        # the longest p-periodic suffix of the word has length p + z[p]
        length = p + z[p]
        pre = n - length
        if pre <= limit:
            return max(0, pre), p
    return None


_PROBES = 64  # letter positions each candidate period is tested at first
_BUDGET = 8  # letters compared in full checks, per letter of the word


def _period_by_filter(data: bytes) -> tuple[int, int] | None | bool:
    """`detect_eventual_period` of an ASCII word, or False when the full
    checks would compare more than _BUDGET * n letters (as on a^n b).
    With limit = n // 3, the suffix from ``limit`` is p-periodic exactly
    when data[limit:n-p] == data[limit+p:n]; candidates p = 1..limit are
    first filtered at up to _PROBES positions i in [limit, n - limit)."""
    n = len(data)
    limit = n // 3
    arr = np.frombuffer(data, dtype=np.uint8)
    alive = np.ones(limit, dtype=bool)  # alive[p - 1]: p is still a candidate
    for i in range(limit, n - limit, -(-(n - 2 * limit) // _PROBES)):
        alive &= arr[i + 1:i + limit + 1] == arr[i]
    view, budget = memoryview(data), _BUDGET * n
    for p in (np.flatnonzero(alive) + 1).tolist():
        budget -= n - p - limit
        if budget < 0:
            return False
        if view[limit:n - p] == view[limit + p:]:
            # the preperiod follows the last mismatch before ``limit``
            miss = arr[:limit] != arr[p:limit + p]
            return (limit - int(miss[::-1].argmax()) if miss.any() else 0), p
    return None


def detect_eventual_period(word) -> tuple[int, int] | None:
    """Smallest period p (then smallest preperiod q) such that the word
    repeats with period p from position q on, requiring both p and q to
    fit in the first third of the word; None when nothing qualifies."""
    text = _letters(word)
    if len(text) >= 3 and text.isascii():
        found = _period_by_filter(text.encode("ascii"))
        if found is not False:
            return found
    return _period_by_z_array(text)

"""Symbolic statistics of winners words: block entropies and
distinct-factor counts, least-squares entropy-rate estimation, and
eventual-period detection.

Natural logarithms throughout, so a fair binary word has entropy rate
log 2 and an alphabet of size N caps the rate at log N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .behaviors import PlanarReluctanceMap
from .continuous import orbit_rows


@dataclass(frozen=True)
class WinnersWord:
    """Sequence of election winners along an orbit, one letter per step."""

    letters: str

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters


def winners_word(source, start, n: int) -> WinnersWord:
    """First ``n`` winners along the orbit of ``start`` under ``source``
    (anything `orbit_rows` iterates, that is anything with
    ``advance(state) -> (winner, next state)``): the winners of ``n - 1``
    steps.  A planar map runs them in its own n-step loop
    (`PlanarReluctanceMap.winners_word`)."""
    if n < 1:
        raise ValueError("need at least one letter")
    if isinstance(source, PlanarReluctanceMap):
        return WinnersWord(source.winners_word(start, n))
    letters = [w for _, _, w in orbit_rows(source, start, n - 1)]
    if any(len(w) != 1 for w in letters):
        raise ValueError("winners words need single-character candidate names")
    return WinnersWord("".join(letters))


def _window_codes(text: str, n: int, max_block: int):
    """Yield the exact integer codes of all length-1, 2, ..., ``max_block``
    windows of ``text``, the first ``n`` letters of a word.  Codes are
    injective (base**max_block fits in 64 bits), so no collision handling
    is needed.  The reference for `_packed_codes`, and `ks_profile`'s path
    for windows too wide to pack into 64 bits."""
    if not 1 <= max_block <= n:
        raise ValueError("need 1 <= max_block <= n")
    alphabet, codes = np.unique(np.frombuffer(text.encode("ascii"), dtype=np.uint8), return_inverse=True)
    codes = codes.astype(np.int64)
    base = max(2, len(alphabet))
    if base**max_block > 2**62:
        raise ValueError("max_block too long for exact window codes")
    cur = codes
    yield cur
    for k in range(1, max_block):
        cur = cur[:-1] * base + codes[k:]
        yield cur


def _packed_codes(text: str, n: int, block: int):
    """(codes, bits): the length-``block`` window from each position of
    ``text`` packed into one unsigned integer with ``bits`` bits per
    letter, first letter highest.  A letter's digit is its rank 1..A among
    the word's A letters and 0 past the end of the word, so the codes sort
    as the windows do.  Codes is None when the windows need more than 64
    bits.  Raises the errors `_window_codes` raises, in its order."""
    if not 1 <= block <= n:
        raise ValueError("need 1 <= max_block <= n")
    arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    seen = np.zeros(256, dtype=bool)
    seen[arr] = True
    lut = np.cumsum(seen)
    letters = int(lut[-1])
    if max(2, letters) ** block > 2**62:
        raise ValueError("max_block too long for exact window codes")
    bits = letters.bit_length()
    if bits * block > 64:
        return None, bits
    dtype = np.uint32 if bits * block <= 32 else np.uint64
    span = np.zeros(len(arr) + block - 1, dtype)
    span[:len(arr)] = lut.astype(dtype)[arr]
    codes = np.zeros(len(arr), dtype)
    for k in range(block):
        codes <<= bits
        codes |= span[k:k + len(arr)]
    return codes, bits


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return np.flatnonzero(new)


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

    @property
    def log_distinct(self) -> tuple[float, ...]:
        return tuple(math.log(s) for s in self.distinct)


def ks_profile(text: str, n: int | None = None, max_block: int = 16) -> EntropyProfile:
    """Block entropies and distinct-factor counts of the first ``n``
    letters for block lengths 1..``max_block``, from one sort.

    Every position's length-``max_block`` window (`_packed_codes`, padded
    past the end of the word) is sorted once; the runs of equal codes count
    the length-``max_block`` factors.  Shifting out the last letter and
    merging equal runs gives each shorter length in turn, without the
    windows whose last letter lies past the end.  The factors come out in
    the order `np.unique` puts the `_window_codes` codes in, so the
    profile is bit-identical to that reference, which is also the path
    when the packed windows need more than 64 bits.  Warns when
    S(``max_block``) leaves fewer than 10 windows per factor."""
    n = len(text) if n is None else n
    text = text[:n]
    codes, bits = _packed_codes(text, n, max_block)
    if codes is None:
        counts = [np.unique(c, return_counts=True)[1] for c in _window_codes(text, n, max_block)]
    else:
        codes.sort()
        last = codes.dtype.type((1 << bits) - 1)  # the last letter's digit
        starts = _run_starts(codes)
        tally, codes = np.diff(starts, append=len(codes)), codes[starts]
        counts = [tally[(codes & last) != 0]]
        for _ in range(max_block - 1):
            codes >>= bits
            starts = _run_starts(codes)
            tally, codes = np.add.reduceat(tally, starts), codes[starts]
            counts.append(tally[(codes & last) != 0])
        counts.reverse()
    entropy = [_entropy_from_counts(c) for c in counts]
    distinct = [len(c) for c in counts]
    windows = n - max_block + 1
    if distinct[-1] > windows / 10:
        warnings.warn(
            f"S({max_block}) = {distinct[-1]} leaves fewer than 10 windows per factor; "
            "block entropies at the top lengths will be biased low",
            stacklevel=2,
        )
    return EntropyProfile(tuple(range(1, max_block + 1)), tuple(entropy), tuple(distinct))


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
_LCM_16 = math.lcm(*range(1, 17))


def _period_by_filter(data: bytes) -> tuple[int, int] | None | bool:
    """`detect_eventual_period` of an ASCII word, or False when the full
    checks would compare more than _BUDGET * n letters (as on a^n b).
    With limit = n // 3, the suffix from ``limit`` is p-periodic exactly
    when data[limit:n-p] == data[limit+p:n]; candidates p = 1..limit are
    first filtered at up to _PROBES positions i in [limit, n - limit), at
    a stride coprime to every m <= 16: a planar word has ``a`` at every
    odd position, and an even stride would leave every even p alive."""
    n = len(data)
    limit = n // 3
    arr = np.frombuffer(data, dtype=np.uint8)
    alive = np.ones(limit, dtype=bool)  # alive[p - 1]: p is still a candidate
    stride = -(-(n - 2 * limit) // _PROBES)
    while math.gcd(stride, _LCM_16) != 1:
        stride += 1
    for i in range(limit, n - limit, stride):
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


def detect_eventual_period(text: str) -> tuple[int, int] | None:
    """Smallest period p (then smallest preperiod q) such that the word
    repeats with period p from position q on, requiring both p and q to
    fit in the first third of the word; None when nothing qualifies."""
    if len(text) >= 3 and text.isascii():
        found = _period_by_filter(text.encode("ascii"))
        if found is not False:
            return found
    return _period_by_z_array(text)

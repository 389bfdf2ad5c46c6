"""Random electorate generators: impartial culture and d-dimensional
spatial cultures under the L1 distance.

Every sample is a pure function of ``(spec.seed, trial_index)``: a
splitmix-style mix of the two derives an independent PCG64 stream per
trial, so trials can be evaluated in any order or in parallel without
changing results.

Draw order inside a trial (part of the reproducibility contract):
weights first, then preference orders (impartial) or candidate
positions, type positions, and - under the modified leader rule - the
two auxiliary points per type whose distance sets the approval limit.

`sample_ranks` draws one trial at a time and is the reference for
`sample_slice`, which draws a slice of trials from the same streams: it
seeds them all at once (`_pcg64_states`), restarts one generator at each
trial's stream, and sorts the slice's rows as stacked arrays.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .majority import PositionalModel
from .model import CandidateSet, Electorate, Preference, VoterType
from .strategies import Strategy

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def trial_seed(seed: int, trial_index: int) -> int:
    """Derive a decorrelated 64-bit stream seed for one trial."""
    x = (seed * _GOLDEN + trial_index + 1) & _MASK
    x = splitmix64(x)
    return splitmix64(x)


# numpy's SeedSequence hash (uint32 words, pool size 4) and PCG64's multiplier
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first n (xor, multiply) constant pairs of a SeedSequence hash
    chain, as (n, 1) columns; the chain depends on no seed."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & _M32
        mults.append(init)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _pcg64_states(seeds: list[int]) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``np.random.default_rng(s)`` for each seed
    in [0, 2^64): numpy's SeedSequence hash of the seed's two uint32
    words, vectorised over the seeds, then ``pcg_setseq_128_srandom_r``
    on its ``generate_state(4, uint64)``.  A seed below 2^32 is one word,
    and the hash pads it with the same ``hashmix(0)`` a zero high word
    gets."""
    s = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[0], pool[1] = s & _M32, s >> 32
    xor, mult = _hash_consts(_INIT_A, _MULT_A, 16)
    pool = _hashmix(pool, xor[:4], mult[:4])
    for src in range(4):
        # word src, hashed three times, mixes into each other word in turn
        dst = [i for i in range(4) if i != src]
        h = _hashmix(pool[src], xor[4 + 3 * src:7 + 3 * src], mult[4 + 3 * src:7 + 3 * src])
        mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * h
        pool[dst] = mixed ^ (mixed >> 16)
    xor, mult = _hash_consts(_INIT_B, _MULT_B, 8)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], xor, mult).astype(np.uint64)
    words = words[0::2] | (words[1::2] << 32)  # little-endian uint32 pairs
    states = []
    for hi_state, lo_state, hi_seq, lo_seq in words.T.tolist():
        inc = ((hi_seq << 64 | lo_seq) << 1 | 1) & _M128
        states.append((((inc + (hi_state << 64 | lo_state)) * _PCG_MULT + inc) & _M128, inc))
    return states


def _trial_streams(spec: CultureSpec, lo: int, hi: int):
    """One generator, restarted in turn at the stream of each trial
    ``lo .. hi - 1``: the state ``default_rng(trial_seed(spec.seed, i))``
    starts from.  Raises `RuntimeError` when the derived seeding of the
    first trial differs from numpy's own."""
    seeds = [trial_seed(spec.seed, i) for i in range(lo, hi)]
    states = _pcg64_states(seeds)
    rng = np.random.default_rng(seeds[0])
    bit_generator = rng.bit_generator
    if bit_generator.state["state"] != dict(zip(("state", "inc"), states[0])):
        raise RuntimeError("numpy's PCG64 seeding differs from the stacked sampler's")
    for state, inc in states:
        # the whole state: `permuted` draws 32-bit words and can leave one buffered
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


class CultureKind(Enum):
    IMPARTIAL = "impartial"
    SPATIAL = "spatial"


@dataclass(frozen=True)
class CultureSpec:
    kind: CultureKind
    n_candidates: int
    n_types: int
    strategy: Strategy
    seed: int
    dimension: int = 0

    def __post_init__(self) -> None:
        if self.n_candidates < 2:
            raise ValueError("need at least two candidates")
        if self.n_types < 1:
            raise ValueError("need at least one voter type")
        if self.kind is CultureKind.SPATIAL and self.dimension < 1:
            raise ValueError("spatial culture needs dimension >= 1")
        if self.kind is CultureKind.IMPARTIAL and self.dimension != 0:
            raise ValueError(f"impartial culture has dimension 0, got {self.dimension}")


def candidate_names(n: int) -> tuple[str, ...]:
    letters = string.ascii_lowercase
    if n <= len(letters):
        return tuple(letters[:n])
    return tuple(letters[i % 26] + str(i // 26) for i in range(n))


def _electorate(spec: CultureSpec, ranks: np.ndarray, weights: np.ndarray) -> Electorate:
    """Electorate from a (types x candidates) rank matrix, 0 = most preferred."""
    cs = CandidateSet(candidate_names(spec.n_candidates))
    types = (
        VoterType(f"T{i}", Preference(cs, tuple(r)), w, spec.strategy)
        for i, (r, w) in enumerate(zip(ranks.tolist(), weights.tolist()))
    )
    return Electorate(cs, tuple(types))


def _ranks(spec: CultureSpec, places: np.ndarray, limit: np.ndarray, stats: dict | None) -> np.ndarray:
    """Ranks from each type's places and approval limit: under the modified
    leader rule every candidate placed at or beyond the limit falls into
    one terminal tie-group."""
    if stats is not None:
        stats.setdefault("limit_ranks", []).extend(limit.tolist())
    if spec.strategy is Strategy.MODIFIED_LEADER_RULE:
        return np.minimum(places, limit[..., None])
    return places


@lru_cache(maxsize=16)
def _impartial_base(n_types: int, n_candidates: int) -> np.ndarray:
    """The read-only (types x candidates + 1) rows ``0 .. candidates``
    that each impartial trial permutes."""
    base = np.tile(np.arange(n_candidates + 1), (n_types, 1))
    base.flags.writeable = False
    return base


def _impartial_ranks(spec: CultureSpec, rows: np.ndarray, stats: dict | None = None) -> np.ndarray:
    """Ranks from permuted rows (any leading axes): each row orders the
    candidates and the sentinel nc, which marks the approval limit; a
    candidate after the sentinel moves up one place."""
    nc = spec.n_candidates
    pos = np.argsort(rows, axis=-1)
    limit = pos[..., nc]
    places = pos[..., :nc] - (pos[..., :nc] > limit[..., None])
    return _ranks(spec, places, limit, stats)


def _sample_impartial(spec: CultureSpec, rng: np.random.Generator, stats: dict | None = None):
    """(ranks, weights) of one impartial trial: the (types x candidates)
    rank matrix, clipped under the modified leader rule, and the weights."""
    weights = rng.random(spec.n_types)
    rows = rng.permuted(_impartial_base(spec.n_types, spec.n_candidates), axis=1)
    return _impartial_ranks(spec, rows, stats), weights


def _sample_spatial(spec: CultureSpec, rng: np.random.Generator, stats: dict | None = None):
    """(ranks, weights, candidate positions, type positions) of one spatial
    trial; the ranks are clipped under the modified leader rule."""
    nc, nt, d = spec.n_candidates, spec.n_types, spec.dimension
    mlr = spec.strategy is Strategy.MODIFIED_LEADER_RULE
    weights = rng.random(nt)
    cand_pos = rng.random((nc, d))
    type_pos = rng.random((nt, d))
    if mlr:
        u = rng.random((nt, d))
        v = rng.random((nt, d))
        thresholds = np.abs(u - v).sum(axis=1)
    else:
        thresholds = np.full(nt, np.inf)

    diff = type_pos[:, None, :] - cand_pos[None, :, :]
    dist = np.abs(diff, out=diff).sum(axis=2)  # in place: a second temporary is slow at d = 400
    # exact float ties are measure-zero; resample the offending type's
    # position (and its limit draw) rather than break ties arbitrarily
    sorted_d = np.sort(dist, axis=1)
    tied = np.min(np.diff(sorted_d, axis=1), axis=1) == 0.0
    if mlr:
        tied |= (dist == thresholds[:, None]).any(axis=1)
    for i in np.flatnonzero(tied):
        for _attempt in range(64):
            if stats is not None:
                stats["resamples"] = stats.get("resamples", 0) + 1
            type_pos[i] = rng.random(d)
            if mlr:
                thresholds[i] = float(np.abs(rng.random(d) - rng.random(d)).sum())
            dist_i = np.abs(cand_pos - type_pos[i]).sum(axis=1)
            row_tied = len(np.unique(dist_i)) != nc or (mlr and bool(np.any(dist_i == thresholds[i])))
            if not row_tied:
                dist[i] = dist_i
                break
        else:
            raise ValueError(f"type T{i}: distances still tied after 64 resamples")

    places = np.argsort(np.argsort(dist, axis=1, kind="stable"), axis=1)
    limit = (dist < thresholds[:, None]).sum(axis=1)
    return _ranks(spec, places, limit, stats), weights, cand_pos, type_pos


def sample_ranks(spec: CultureSpec, trial_index: int, *, stats: dict | None = None):
    """(ranks, weights) of one trial: the (types x candidates) rank matrix
    and the weight vector that `sample_electorate` wraps, drawn from the
    trial's own ``default_rng(trial_seed(spec.seed, trial_index))`` stream
    in the documented order.  The per-trial reference of `sample_slice`,
    and its path for a spatial trial whose distances tie."""
    rng = np.random.default_rng(trial_seed(spec.seed, trial_index))
    if spec.kind is CultureKind.IMPARTIAL:
        return _sample_impartial(spec, rng, stats)
    return _sample_spatial(spec, rng, stats)[:2]


_STACK_DOUBLES = 1 << 16  # a block of spatial trials draws and differences at most this many doubles, or is one trial


def _spatial_rows(spec: CultureSpec, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(type-candidate L1 distances, limit thresholds) from the trials'
    doubles (any leading axes), split in the documented order; the
    thresholds are infinite under the leader rule."""
    nc, nt, d = spec.n_candidates, spec.n_types, spec.dimension
    lead = draws.shape[:-1]
    cand = draws[..., nt:nt + nc * d].reshape(*lead, nc, d)
    pos = draws[..., nt + nc * d:].reshape(*lead, -1, nt, d)  # type positions, then the MLR limit points
    diff = pos[..., 0, :, None, :] - cand[..., None, :, :]
    dist = np.abs(diff, out=diff).sum(axis=-1)
    if spec.strategy is Strategy.MODIFIED_LEADER_RULE:
        return dist, np.abs(pos[..., 1, :, :] - pos[..., 2, :, :]).sum(axis=-1)
    return dist, np.full((*lead, nt), np.inf)


def sample_slice(spec: CultureSpec, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(ranks (B, types, candidates), weights (B, types)) of trials
    ``lo .. hi - 1``, equal bit for bit to stacking `sample_ranks` of each.

    Each trial draws from its own stream (`_trial_streams`): one
    ``random`` call for all its doubles (a double takes one 64-bit output,
    so this is the documented order), and for an impartial trial one
    ``permuted`` of the constant base.  Spatial trials draw into one
    reused buffer, a block of trials at a time (`_STACK_DOUBLES`).  The
    sorts, distances and limits run on stacked (B, types, candidates)
    arrays.  A spatial trial with a tied row is drawn again whole by
    `sample_ranks`, which resamples the tied types or raises."""
    if hi <= lo:
        raise ValueError(f"need at least one trial, got {lo} .. {hi - 1}")
    nc, nt, d = spec.n_candidates, spec.n_types, spec.dimension
    n = hi - lo
    if spec.kind is CultureKind.IMPARTIAL:
        weights = np.empty((n, nt))
        base = _impartial_base(nt, nc)
        rows = np.empty((n, *base.shape), base.dtype)
        for b, rng in enumerate(_trial_streams(spec, lo, hi)):
            rng.random(out=weights[b])
            rng.permuted(base, axis=1, out=rows[b])
        return _impartial_ranks(spec, rows), weights

    k = nt + (nc + (3 if spec.strategy is Strategy.MODIFIED_LEADER_RULE else 1) * nt) * d
    block = max(1, _STACK_DOUBLES // max(k, nt * nc * d))  # a trial's draws or its difference array
    draws = np.empty((min(block, n), k))
    weights, thresholds, dist = np.empty((n, nt)), np.empty((n, nt)), np.empty((n, nt, nc))
    streams = _trial_streams(spec, lo, hi)
    for start in range(0, n, block):
        rows = draws[:min(block, n - start)]
        for row, rng in zip(rows, streams):
            rng.random(out=row)
        stop = start + len(rows)
        weights[start:stop] = rows[:, :nt]
        dist[start:stop], thresholds[start:stop] = _spatial_rows(spec, rows)

    tied = (np.diff(np.sort(dist, axis=-1), axis=-1) == 0.0).any(axis=-1)
    tied |= (dist == thresholds[..., None]).any(axis=-1)
    places = np.argsort(np.argsort(dist, axis=-1, kind="stable"), axis=-1)
    ranks = _ranks(spec, places, (dist < thresholds[..., None]).sum(axis=-1), None)
    for b in np.flatnonzero(tied.any(axis=1)):
        ranks[b] = sample_ranks(spec, lo + int(b))[0]
    return ranks, weights


def sample_electorate(spec: CultureSpec, trial_index: int, *, stats: dict | None = None) -> Electorate:
    return _electorate(spec, *sample_ranks(spec, trial_index, stats=stats))


def sample_spatial_electorate(
    spec: CultureSpec, trial_index: int, *, stats: dict | None = None
) -> tuple[Electorate, PositionalModel]:
    """Spatial sample together with the positional model that produced it
    (needed for median-voter cross checks)."""
    if spec.kind is not CultureKind.SPATIAL:
        raise ValueError("positions only exist for spatial cultures")
    rng = np.random.default_rng(trial_seed(spec.seed, trial_index))
    ranks, weights, cand_pos, type_pos = _sample_spatial(spec, rng, stats)
    names = candidate_names(spec.n_candidates)
    model = PositionalModel(
        candidate_positions={names[c]: tuple(p) for c, p in enumerate(cand_pos.tolist())},
        type_positions={f"T{i}": tuple(p) for i, p in enumerate(type_pos.tolist())},
    )
    return _electorate(spec, ranks, weights), model

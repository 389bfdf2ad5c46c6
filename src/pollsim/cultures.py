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
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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


def candidate_names(n: int) -> tuple[str, ...]:
    letters = string.ascii_lowercase
    if n <= len(letters):
        return tuple(letters[:n])
    return tuple(letters[i % 26] + str(i // 26) for i in range(n))


def l1_distance(p: Sequence[float], q: Sequence[float]) -> float:
    if len(p) != len(q):
        raise ValueError("dimension mismatch")
    return float(sum(abs(a - b) for a, b in zip(p, q)))


def _electorate(spec: CultureSpec, places: np.ndarray, limit: np.ndarray, weights: np.ndarray) -> Electorate:
    """Electorate from each type's (types x candidates) places, 0 = most
    preferred; under the modified leader rule every candidate placed at or
    beyond the type's limit falls into one terminal tie-group."""
    cs = CandidateSet(candidate_names(spec.n_candidates))
    ranks = np.minimum(places, limit[:, None]) if spec.strategy is Strategy.MODIFIED_LEADER_RULE else places
    types = (
        VoterType(f"T{i}", Preference(cs, tuple(r)), w, spec.strategy)
        for i, (r, w) in enumerate(zip(ranks.tolist(), weights.tolist()))
    )
    return Electorate(cs, tuple(types))


def _sample_impartial(spec: CultureSpec, rng: np.random.Generator, stats: dict | None = None) -> Electorate:
    nc, nt = spec.n_candidates, spec.n_types
    weights = rng.random(nt)
    # each row orders the candidates and the sentinel nc, which marks the
    # approval limit; a candidate after the sentinel moves up one place
    pos = np.argsort(rng.permuted(np.tile(np.arange(nc + 1), (nt, 1)), axis=1), axis=1)
    limit = pos[:, nc]
    places = pos[:, :nc] - (pos[:, :nc] > limit[:, None])
    if stats is not None:
        stats.setdefault("limit_ranks", []).extend(limit.tolist())
    return _electorate(spec, places, limit, weights)


def _sample_spatial(spec: CultureSpec, rng: np.random.Generator, stats: dict | None, want_positions: bool = True):
    nc, nt, d = spec.n_candidates, spec.n_types, spec.dimension
    names = candidate_names(nc)
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

    dist = np.abs(type_pos[:, None, :] - cand_pos[None, :, :]).sum(axis=2)
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
    if stats is not None:
        stats.setdefault("limit_ranks", []).extend(limit.tolist())
    electorate = _electorate(spec, places, limit, weights)
    if not want_positions:
        return electorate, None
    model = PositionalModel(
        candidate_positions={names[c]: tuple(float(x) for x in cand_pos[c]) for c in range(nc)},
        type_positions={f"T{i}": tuple(float(x) for x in type_pos[i]) for i in range(nt)},
    )
    return electorate, model


def sample_electorate(spec: CultureSpec, trial_index: int, *, stats: dict | None = None) -> Electorate:
    rng = np.random.default_rng(trial_seed(spec.seed, trial_index))
    if spec.kind is CultureKind.IMPARTIAL:
        return _sample_impartial(spec, rng, stats)
    electorate, _ = _sample_spatial(spec, rng, stats, want_positions=False)
    return electorate


def sample_spatial_electorate(
    spec: CultureSpec, trial_index: int, *, stats: dict | None = None
) -> tuple[Electorate, PositionalModel]:
    """Spatial sample together with the positional model that produced it
    (needed for median-voter cross checks)."""
    if spec.kind is not CultureKind.SPATIAL:
        raise ValueError("positions only exist for spatial cultures")
    rng = np.random.default_rng(trial_seed(spec.seed, trial_index))
    return _sample_spatial(spec, rng, stats)

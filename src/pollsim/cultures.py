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
        return np.minimum(places, limit[:, None])
    return places


def _sample_impartial(spec: CultureSpec, rng: np.random.Generator, stats: dict | None = None):
    """(ranks, weights) of one impartial trial: the (types x candidates)
    rank matrix, clipped under the modified leader rule, and the weights."""
    nc, nt = spec.n_candidates, spec.n_types
    weights = rng.random(nt)
    # each row orders the candidates and the sentinel nc, which marks the
    # approval limit; a candidate after the sentinel moves up one place
    pos = np.argsort(rng.permuted(np.tile(np.arange(nc + 1), (nt, 1)), axis=1), axis=1)
    limit = pos[:, nc]
    places = pos[:, :nc] - (pos[:, :nc] > limit[:, None])
    return _ranks(spec, places, limit, stats), weights


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
    and the weight vector that `sample_electorate` wraps.  They are drawn
    from the trial's own stream in the documented order, so stacking them
    (`experiments._count_range` evaluates `experiments._SLICE` trials at a
    time) changes no drawn value."""
    rng = np.random.default_rng(trial_seed(spec.seed, trial_index))
    if spec.kind is CultureKind.IMPARTIAL:
        return _sample_impartial(spec, rng, stats)
    return _sample_spatial(spec, rng, stats)[:2]


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

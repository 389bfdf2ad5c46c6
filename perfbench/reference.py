"""Reference computations written without pollsim.

The benchmark checks the program's outputs against these.  Each one is a
direct transcription of the method, chosen for readability rather than
speed:

* the Leader Rule / Modified Leader Rule poll dynamics (duel matrix,
  Condorcet winner, successor by explicit tallies, functional-graph walk);
* the closed-form two-bloc map of the perturbed continuous dynamics;
* the planar reluctance map;
* the tent word by integer doubling (the binary digits of p/q);
* a window counter for block entropies and distinct-factor counts.
"""

from __future__ import annotations

import math
from collections import Counter

# ---------------------------------------------------------------------------
# Discrete poll dynamics
#
# An electorate is (candidates, types): candidates is a tuple of names whose
# order is the tie-break order, and each type is (rank, weight) where rank
# maps every candidate to the index of its tie-group (0 = most preferred).


def parse_text(text: str):
    """Read the electorate text format: ``candidates: a b c`` then lines
    ``type NAME: a>b=c WEIGHT [LR|MLR]``."""
    candidates = None
    types = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("candidates:"):
            candidates = tuple(line.split(":", 1)[1].split())
            continue
        _, rest = line.split(":", 1)
        fields = rest.split()
        rank = {}
        for k, group in enumerate(fields[0].split(">")):
            for name in group.split("="):
                rank[name] = k
        types.append((rank, float(fields[1])))
    return candidates, types


def ballot(rank: dict, winner: str, runner_up: str) -> set:
    """Leader Rule: approve every candidate strictly preferred to the
    expected winner, and the winner when strictly preferred to the expected
    runner-up.  The Modified Leader Rule is the same rule read with strict
    comparisons on a preference with ties, so one function serves both."""
    approved = {c for c in rank if rank[c] < rank[winner]}
    if rank[winner] < rank[runner_up]:
        approved.add(winner)
    return approved


def tally(candidates, types, winner: str, runner_up: str) -> dict:
    """Scores of the election in which every type casts its ballot for the
    expected outcome (winner, runner_up)."""
    parts = {c: [] for c in candidates}
    for rank, weight in types:
        for c in ballot(rank, winner, runner_up):
            parts[c].append(weight)
    return {c: math.fsum(parts[c]) for c in candidates}


def ranking(candidates, scores: dict) -> list:
    """Descending score, ties broken by the candidate order."""
    return sorted(candidates, key=lambda c: (-scores[c], candidates.index(c)))


def successor_table(candidates, types) -> dict:
    """(winner, runner_up) -> (winner, runner_up) of the next poll."""
    table = {}
    for w in candidates:
        for r in candidates:
            if w != r:
                order = ranking(candidates, tally(candidates, types, w, r))
                table[(w, r)] = (order[0], order[1])
    return table


def duel(candidates, types) -> dict:
    """D[(a, b)] = weight of the voters strictly preferring a to b."""
    return {
        (a, b): math.fsum(weight for rank, weight in types if rank[a] < rank[b])
        for a in candidates
        for b in candidates
        if a != b
    }


def condorcet_winner(candidates, types):
    d = duel(candidates, types)
    for a in candidates:
        if all(d[(a, b)] > d[(b, a)] for b in candidates if b != a):
            return a
    return None


def consensual_loser(candidates, types):
    """A candidate ranked last (possibly tied) by a strict majority."""
    total = math.fsum(weight for _, weight in types)
    for c in candidates:
        last = math.fsum(weight for rank, weight in types if rank[c] == max(rank.values()))
        if last > total / 2:
            return c
    return None


def cycles_and_basins(table: dict):
    """Walk the functional graph from every state.  Returns the cycles, each
    rotated to start at its smallest state, and the basin size of each (the
    cycle's own states included), as a dict cycle -> size."""
    reaches = {}
    for start in table:
        seen = []
        s = start
        while s not in seen:
            seen.append(s)
            s = table[s]
        cyc = seen[seen.index(s):]
        k = cyc.index(min(cyc))
        reaches[start] = tuple(cyc[k:] + cyc[:k])
    return dict(Counter(reaches.values()))


def analysis(candidates, types) -> dict:
    """Everything the worked-example checks compare against."""
    table = successor_table(candidates, types)
    return {
        "successor": table,
        "tallies": {s: tally(candidates, types, *s) for s in table},
        "basins": cycles_and_basins(table),
        "condorcet_winner": condorcet_winner(candidates, types),
        "consensual_loser": consensual_loser(candidates, types),
    }


def trial_outcome(candidates, types) -> tuple[bool, bool]:
    """(a Condorcet winner exists, some cycle elects anyone else)."""
    cw = condorcet_winner(candidates, types)
    if cw is None:
        return False, False
    cycles = cycles_and_basins(successor_table(candidates, types))
    return True, any(w != cw for cyc in cycles for (w, _) in cyc)


def median_nearest(cand_pos: dict, type_pos: dict, weights: dict) -> str:
    """One dimension: the candidate nearest to the weighted median voter."""
    total = math.fsum(weights.values())
    acc = 0.0
    for name in sorted(type_pos, key=type_pos.get):
        acc += weights[name]
        if acc > total / 2:
            m = type_pos[name]
            return min(cand_pos, key=lambda c: abs(cand_pos[c] - m))
    raise ValueError("no median voter")


# ---------------------------------------------------------------------------
# Two-bloc perturbed dynamics.  Types Z: abc (3), Y: a(bc) (1), X: bac (3),
# W: c(ab) (5); x and z are the shares of X and Z casting {a, b}.

TWO_BLOC_TOTAL = 12.0
TWO_BLOC_PREF = {"Z": {"a": 0, "b": 1, "c": 2}, "X": {"b": 0, "a": 1, "c": 2}}


def two_bloc_scores(x: float, z: float) -> tuple[float, float, float]:
    return 4.0 + 3.0 * x, 3.0 + 3.0 * z, 5.0


def two_bloc_gate_open(scores, margin: float = 0.04) -> bool:
    """Every pairwise score margin reaches margin x total weight."""
    threshold = margin * TWO_BLOC_TOTAL
    a, b, c = scores
    return abs(a - b) >= threshold and abs(a - c) >= threshold and abs(b - c) >= threshold


def two_bloc_step(x: float, z: float, fallback: str, gate_open: bool, p: float = 0.85):
    """One step of the closed-form map.  ``fallback`` is keep, apply or
    half; ``gate_open`` is the margin gate's answer for this step."""
    scores = dict(zip("abc", two_bloc_scores(x, z)))
    w, r = ranking(("a", "b", "c"), scores)[:2]
    if gate_open or fallback == "apply":
        rate = p
    elif fallback == "keep":
        rate = 0.0
    else:
        rate = p / 2
    new = []
    for share, name in ((x, "X"), (z, "Z")):
        target = ballot(TWO_BLOC_PREF[name], w, r) == {"a", "b"}
        new.append(rate * target + (1.0 - rate) * share)
    return new[0], new[1]


# ---------------------------------------------------------------------------
# Planar reluctance map: V_a = nz + ny + nx x, V_b = nz z + nx (derived) or
# nz z + x (literal), V_c = nw; the two-case safety function, optionally
# normalized by the total weight, and C(t) = max(0, 1 - kappa t).


def planar_scores(x, z, weights, rule):
    nz, ny, nx, nw = weights
    vb = nz * z + (nx if rule == "derived" else x)
    return nz + ny + nx * x, vb, nw


def _safety(v1, v2, v3):
    if v2 > v1:
        return abs(v2 - v3)
    return (abs(v2 - v3) + abs(v1 - v3)) / 2


def planar_step(x, z, weights, rule, norm, kappa=5.0):
    va, vb, vc = planar_scores(x, z, weights, rule)
    if norm == "total":
        total = sum(weights)
        va, vb, vc = va / total, vb / total, vc / total
    z_new = max(0.0, 1.0 - kappa * _safety(va, vb, vc))
    x_new = max(0.0, 1.0 - kappa * _safety(vb, va, vc))
    return min(1.0, x_new), min(1.0, z_new)


def planar_winner(x, z, weights, rule) -> str:
    return ranking(("a", "b", "c"), dict(zip("abc", planar_scores(x, z, weights, rule))))[0]


# ---------------------------------------------------------------------------
# Tent word.  The tent map reads the binary digits d1 d2 ... of z = p/q and
# flips the remaining digits whenever it drops a 1, so the leading digit of
# the k-th iterate is d(k+1) xor d(k): the word is the Gray code of the
# integer floor(p 2^n / q).  b is the winner when that digit is 1 (z >= 1/2).


def tent_word(p: int, q: int, n: int) -> str:
    digits = (p << n) // q  # d1 ... dn, most significant first
    gray = digits ^ (digits >> 1)
    bits = format(gray, "b").zfill(n)
    return bits.translate(str.maketrans("10", "bc"))


# ---------------------------------------------------------------------------
# Block statistics by counting windows.


def window_profile(text: str, max_block: int) -> tuple[list, list]:
    """Shannon block entropies H(k) (nats) and distinct-factor counts S(k),
    k = 1..max_block, of every window of the text."""
    entropies, distinct = [], []
    for k in range(1, max_block + 1):
        counts = Counter(text[i:i + k] for i in range(len(text) - k + 1))
        windows = len(text) - k + 1
        entropies.append(-math.fsum(c / windows * math.log(c / windows) for c in counts.values()))
        distinct.append(len(counts))
    return entropies, distinct

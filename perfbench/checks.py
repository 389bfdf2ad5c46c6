"""Checkers of the program's outputs.  Each returns a list of problems,
empty when the output passes; the tests in this directory feed them
corrupted outputs."""

from __future__ import annotations

import csv
import io
import math

import reference

TOL = 1e-12  # continuous shares and planar steps
TIE = 1e-9  # scores this close may be ordered either way by float rounding


def electorate_input(electorate):
    """A pollsim electorate as the references take it: the candidate
    names and (rank of every candidate, weight) per voter type."""
    names = electorate.candidates.names
    return names, [({c: t.preference.rank_of(c) for c in names}, t.weight) for t in electorate.types]


def wilson(k: int, n: int, z: float) -> tuple[float, float]:
    p = k / n
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return centre - half, centre + half


def rate_agrees(label, k, n, band_pct, z) -> list:
    """The rate k/n is consistent with a true rate inside the band."""
    lo, hi = wilson(k, n, z)
    if hi < band_pct[0] / 100 - 1e-12 or lo > band_pct[1] / 100 + 1e-12:
        return [f"{label} {100 * k / n:.2f}% of {n} is not consistent with {band_pct[0]}-{band_pct[1]}%"]
    return []


def mc_csv(serial_csv: str, pool_csv: str, counts) -> list:
    """Per condition, the problems of its serial row and of its two-worker
    row.  The serial row holds its condition's counts: the rates and 95%
    Wilson intervals of ``counts`` = [(trials, with a Condorcet winner,
    bad), ...].  The two-worker CSV must be byte-identical to the serial
    one, so its row passes when it and the header equal the serial ones."""
    serial_lines = serial_csv.splitlines(keepends=True)
    pool_lines = pool_csv.splitlines(keepends=True)
    rows = list(csv.DictReader(io.StringIO(serial_csv)))
    out = []
    for k, (n, n_cw, n_bad) in enumerate(counts):
        if len(rows) != len(counts):
            out.append(([f"{len(rows)} CSV rows for {len(counts)} conditions"], []))
            continue
        row, problems = rows[k], []
        want = {"n_trials": str(n)}
        for name, hits, base in (("cw", n_cw, n), ("bad", n_bad, n_cw)):
            if base:
                lo, hi = wilson(hits, base, 1.959964)
                want.update({f"{name}_rate": f"{hits / base:.6f}", f"{name}_low": f"{max(0.0, lo):.6f}",
                             f"{name}_high": f"{min(1.0, hi):.6f}"})
            else:
                want.update({f"{name}_rate": "", f"{name}_low": "", f"{name}_high": ""})
        for field, value in want.items():
            if row[field] != value:
                problems.append(f"CSV {row['culture']} d={row['d']} {row['strategy']}: "
                                f"{field} {row[field]!r}, counts give {value!r}")
        same = len(pool_lines) == len(serial_lines) and pool_lines[0] == serial_lines[0] \
            and pool_lines[k + 1] == serial_lines[k + 1]
        out.append((problems, [] if same else [f"n_jobs=2 CSV row {k + 1} differs from the serial row"]))
    return out


def l1_ordered(electorate, model) -> list:
    """Every voter type ranks candidates by increasing L1 distance."""
    problems = []
    for t in electorate.types:
        here = model.type_positions[t.name]
        dist = {c: math.fsum(abs(a - b) for a, b in zip(model.candidate_positions[c], here))
                for c in electorate.candidates}
        for c1 in electorate.candidates:
            for c2 in electorate.candidates:
                if t.preference.rank_of(c1) < t.preference.rank_of(c2) and not dist[c1] < dist[c2]:
                    problems.append(f"type {t.name} ranks {c1} above the nearer {c2}")
    return problems


def _near_tie(scores: dict, a: str, b: str) -> bool:
    return abs(scores[a] - scores[b]) <= TIE * max(1.0, abs(scores[a]))


def successors(got: dict, want: dict, tallies: dict) -> list:
    """Successor tables keyed by (winner, runner_up) pairs agree; a pair
    whose reference scores nearly tie may be ordered either way."""
    problems = []
    if set(got) != set(want):
        return [f"successor table covers {sorted(got)}, expected {sorted(want)}"]
    for state, nxt in want.items():
        if got[state] != nxt:
            scores = tallies[state]
            swapped = (got[state][1], got[state][0]) == nxt and _near_tie(scores, *nxt)
            if not swapped:
                problems.append(f"successor of {state}: {got[state]}, reference {nxt}")
    return problems


def tallies(got: dict, want: dict) -> list:
    problems = []
    for state, scores in want.items():
        for c, v in scores.items():
            if abs(got[state][c] - v) > TIE * max(1.0, abs(v)):
                problems.append(f"tally of {c} at {state}: {got[state][c]}, reference {v}")
    return problems


def simplex(points) -> list:
    """Every share lies in [0, 1] and each point's shares sum to 1."""
    problems = []
    for k, shares in enumerate(points):
        if not all(0.0 <= s <= 1.0 for s in shares):
            problems.append(f"point {k}: share outside [0, 1] in {shares}")
        if abs(math.fsum(shares) - 1.0) > TOL:
            problems.append(f"point {k}: shares sum to {math.fsum(shares)!r}")
    return problems


def two_bloc_orbit(xz, fallback: str):
    """Compare an orbit [(x0, z0), (x1, z1), ...] of the perturbed two-bloc
    dynamics with the closed-form map.  The orbit must be the first one
    taken on its dynamics object, so that the margin gate's memo is empty
    at its first step.  Returns (problems, closed, stale): the steps taken
    with the gate closed, and the stale steps.

    A stale step matches the map only with the gate's answer reversed, and
    the answer it applied is the one applied at the step before: the
    signature of the gate's one-slot memo answering for an earlier outcome.
    Any other reversed step is a problem, and so is a reversed first step.
    Where both answers give the same step (always under the apply fallback)
    the applied answer cannot be told, and a reversed step right after it
    is a problem too.  Steps whose scores sit within float rounding of a
    tie or of the gate threshold are not compared; the answer they applied
    is read from the step when only one answer fits it."""
    problems, closed, stale = [], 0, 0
    applied_before = None
    for k in range(len(xz) - 1):
        x, z = xz[k]
        nxt = xz[k + 1]
        fits = [g for g in (True, False) if _close(nxt, reference.two_bloc_step(x, z, fallback, g))]
        applied = fits[0] if len(fits) == 1 else None
        scores = reference.two_bloc_scores(x, z)
        margins = [abs(scores[i] - scores[j]) for i in range(3) for j in range(i + 1, 3)]
        if min(margins) > TIE and min(abs(m - 0.04 * reference.TWO_BLOC_TOTAL) for m in margins) > TIE:
            gate = reference.two_bloc_gate_open(scores)
            closed += not gate
            if gate in fits:
                pass
            elif applied is not None and applied == applied_before:
                stale += 1
            else:
                problems.append(f"{fallback} step {k} from ({x!r}, {z!r}) gave {nxt}, "
                                f"closed form {reference.two_bloc_step(x, z, fallback, gate)}")
        applied_before = applied
    return problems, closed, stale


def _close(a, b) -> bool:
    return abs(a[0] - b[0]) <= TOL and abs(a[1] - b[1]) <= TOL


def word_equals(word: str, want: str, label: str) -> list:
    if word == want:
        return []
    if len(word) != len(want):
        return [f"{label}: {len(word)} letters, reference {len(want)}"]
    k = next(i for i, (a, b) in enumerate(zip(word, want)) if a != b)
    return [f"{label}: letter {k} is {word[k]!r}, reference {want[k]!r}"]


def profile_matches(profile, text: str, label: str) -> list:
    """An entropy profile of ``text`` equals the window counter's."""
    entropy, distinct = reference.window_profile(text, len(profile.blocks))
    problems = []
    if list(profile.distinct) != distinct:
        problems.append(f"{label}: S = {list(profile.distinct)}, window counter {distinct}")
    for k, (h, want) in enumerate(zip(profile.entropy, entropy), start=1):
        if abs(h - want) > 1e-9:
            problems.append(f"{label}: H({k}) = {h!r}, window counter {want!r}")
    return problems


def profile_bounds(profile, alphabet: int, label: str) -> list:
    """H(k) <= log S(k) <= k log|A| and S(i + j) <= S(i) S(j)."""
    problems = []
    log_a = math.log(max(2, alphabet))
    s = dict(zip(profile.blocks, profile.distinct))
    for k, h in zip(profile.blocks, profile.entropy):
        if not -1e-12 <= h <= math.log(s[k]) + 1e-9 or math.log(s[k]) > k * log_a + 1e-9:
            problems.append(f"{label}: H({k}) = {h}, S({k}) = {s[k]} break H <= log S <= k log|A|")
    for i in s:
        for j in s:
            if i + j in s and s[i + j] > s[i] * s[j]:
                problems.append(f"{label}: S({i + j}) > S({i}) S({j})")
    return problems


def period_verified(word: str, found, label: str) -> list:
    """A detected (preperiod, period) repeats from the preperiod on, and
    both fit in the first third of the word."""
    if found is None:
        return []
    pre, p = found
    if not (0 < p <= len(word) // 3 and 0 <= pre <= len(word) // 3):
        return [f"{label}: period {p}, preperiod {pre} outside the first third"]
    if word[pre + p:] != word[pre:len(word) - p]:
        return [f"{label}: the word is not {p}-periodic from {pre}"]
    return []

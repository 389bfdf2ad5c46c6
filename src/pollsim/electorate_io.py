"""Electorate text format, serialization, and DOT export of poll graphs.

File grammar (one statement per line, ``#`` starts a comment line)::

    candidates: a b c
    type Z: a>b>c 101 MLR
    type W: c>a=b 104

``>`` separates tie-groups from most to least preferred, ``=`` joins
tied candidates, the number is the voter weight, and the optional
strategy is LR or MLR (default MLR).  A candidate name is one token
without ``>`` or ``=``; a type name is not blank, holds no ``:`` or line
break and no whitespace at either end.  `serialize_electorate` refuses
other names, which would not read back.
"""

from __future__ import annotations

import math

from .dynamics import DynamicsReport, PollingGraph, PollState
from .majority import CondorcetReport
from .model import CandidateSet, Electorate, Preference, VoterType
from .strategies import Strategy


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


def _fail(lineno: int, line: str, token: str, message: str) -> ParseError:
    col = line.find(token) + 1 if token and token in line else 1
    return ParseError(lineno, col, message)


def _bad_candidate_name(names) -> str | None:  # the first name that is not one token of a type line
    return next((n for n in names if not n or any(c.isspace() or c in ">=" for c in n)), None)


def _bad_type_name(names) -> str | None:  # the first name that a type line would not give back
    return next((n for n in names if n != n.strip() or ":" in n or n.splitlines() != [n]), None)


def parse_electorate(text: str) -> Electorate:
    candidates: CandidateSet | None = None
    types: list[VoterType] = []
    names_seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("candidates:"):
            if candidates is not None:
                raise _fail(lineno, raw, "candidates:", "duplicate candidates declaration")
            names = line[len("candidates:"):].split()
            if not names:
                raise _fail(lineno, raw, "candidates:", "empty candidates declaration")
            if len(set(names)) != len(names):
                raise _fail(lineno, raw, names[0], "duplicate candidate in declaration")
            if (bad := _bad_candidate_name(names)) is not None:
                raise _fail(lineno, raw, bad, f"candidate name {bad!r} contains '>' or '='")
            candidates = CandidateSet(tuple(names))
            continue
        if line.startswith("type"):
            if candidates is None:
                raise _fail(lineno, raw, "type", "candidates must be declared before types")
            head, _, rest = line.partition(":")
            if not rest:
                raise _fail(lineno, raw, head, "missing ':' after type name")
            tname = head[len("type"):].strip()
            if not tname:
                raise _fail(lineno, raw, "type", "missing type name")
            if tname in names_seen:
                raise _fail(lineno, raw, tname, f"duplicate type {tname!r}")
            fields = rest.split()
            if len(fields) < 2:
                raise _fail(lineno, raw, rest.strip() or ":", "incomplete type declaration (need preference and weight)")
            if len(fields) > 3:
                raise _fail(lineno, raw, fields[3], "too many fields in type declaration")
            pref_tok, weight_tok = fields[0], fields[1]
            strat_tok = fields[2] if len(fields) == 3 else "MLR"

            groups: list[list[str]] = []
            for group_tok in pref_tok.split(">"):
                names = group_tok.split("=") if group_tok else [""]
                if any(not n for n in names):
                    raise _fail(lineno, raw, pref_tok, "malformed preference (empty group or name)")
                groups.append(names)
            flat = [n for g in groups for n in g]
            for n in flat:
                if n not in candidates:
                    raise _fail(lineno, raw, n, f"unknown candidate {n!r}")
            if len(set(flat)) != len(flat):
                raise _fail(lineno, raw, pref_tok, "candidate repeated in preference")
            if len(flat) != len(candidates):
                missing = [n for n in candidates if n not in flat]
                raise _fail(lineno, raw, pref_tok, f"incomplete preference (missing {', '.join(missing)})")

            try:
                weight = float(weight_tok)
            except ValueError:
                raise _fail(lineno, raw, weight_tok, f"malformed number {weight_tok!r}") from None
            if not math.isfinite(weight) or weight < 0:
                raise _fail(lineno, raw, weight_tok, "weight must be a finite non-negative number")

            if strat_tok == "LR":
                strategy = Strategy.LEADER_RULE
            elif strat_tok == "MLR":
                strategy = Strategy.MODIFIED_LEADER_RULE
            else:
                raise _fail(lineno, raw, strat_tok, f"unknown strategy {strat_tok!r} (expected LR or MLR)")

            names_seen.add(tname)
            types.append(VoterType(tname, Preference.from_groups(candidates, groups), weight, strategy))
            continue
        raise _fail(lineno, raw, line.split()[0], "unrecognized line")

    if candidates is None:
        raise ParseError(1, 1, "no candidates declaration")
    if not types:
        raise ParseError(1, 1, "no voter types declared")
    return Electorate(candidates, tuple(types))


def _weight_str(w: float) -> str:
    return str(int(w)) if w == int(w) else repr(w)


def serialize_electorate(electorate: Electorate) -> str:
    if (bad := _bad_candidate_name(electorate.candidates)) is not None:
        raise ValueError(f"candidate name {bad!r} cannot be written (empty, or holds whitespace, '>' or '=')")
    if (bad := _bad_type_name(t.name for t in electorate.types)) is not None:
        raise ValueError(f"type name {bad!r} cannot be written (blank, outer whitespace, ':' or a line break)")
    lines = ["candidates: " + " ".join(electorate.candidates.names)]
    for t in electorate.types:
        pref = ">".join(
            "=".join(sorted(g, key=electorate.candidates.index)) for g in t.preference.groups
        )
        lines.append(f"type {t.name}: {pref} {_weight_str(t.weight)} {t.strategy.value}")
    return "\n".join(lines) + "\n"


def preference_notation(pref: Preference) -> str:
    """Compact a(bc)d notation for single-character names, arrow notation
    otherwise."""
    order = pref.candidates.index
    if all(len(n) == 1 for n in pref.candidates):
        parts = []
        for g in pref.groups:
            names = "".join(sorted(g, key=order))
            parts.append(names if len(g) == 1 else f"({names})")
        return "".join(parts)
    return " > ".join("=".join(sorted(g, key=order)) for g in pref.groups)


def _transient_heights(graph: PollingGraph) -> dict:
    """Longest incoming path length per transient state: the state cannot
    occur after height+1 poll iterations.  Iterating the image of the
    state set, a transient state of height h leaves it at iteration h+1."""
    recurrent = sum(len(cyc) for cyc in graph.cycles)
    heights: dict[PollState, int] = {}
    image = set(graph.states)
    k = 0
    while len(image) > recurrent:
        nxt = {graph.successor[s] for s in image}
        heights.update((s, k) for s in image - nxt)
        image, k = nxt, k + 1
    return heights


def export_dot(graph: PollingGraph, report: DynamicsReport) -> str:
    """DOT rendering of a polling graph and its classification report.

    One node per state labeled winner+runner-up; self-loops on fixed
    points are omitted.  Recurrent states electing the Condorcet winner
    are light green, other states electing it are green, bad periodic
    states are orange, bad equilibria are red, and transient states that
    stop being reachable after some iteration are grey (annotated with
    that iteration count).
    """
    lines = ["digraph polling_dynamics {", "  rankdir=LR;", '  node [style=filled, fillcolor=white];']
    on_cycle = {s for cyc in graph.cycles for s in cyc}
    cw = report.condorcet_winner  # None elects no state
    heights = _transient_heights(graph)

    for s in graph.states:
        if s in on_cycle:
            if s.winner == cw:
                attrs = "fillcolor=lightgreen"
            elif graph.is_fixed_point(s):
                attrs = "fillcolor=red"
            else:
                attrs = "fillcolor=orange"
        else:
            fill = "green" if s.winner == cw else "grey"
            attrs = f'fillcolor={fill}, tooltip="cannot occur after {heights[s] + 1} iterations"'
        lines.append(f'  "{s.label}" [{attrs}];')

    for s in graph.states:
        t = graph.successor[s]
        if t != s:
            lines.append(f'  "{s.label}" -> "{t.label}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_analysis(report: CondorcetReport, dynamics: DynamicsReport, graph: PollingGraph) -> str:
    """Human-readable analysis summary used by the command line."""
    total = len(graph.states)
    out = []
    out.append(f"Condorcet winner: {report.condorcet_winner or 'none'}")
    out.append(f"Condorcet loser: {report.condorcet_loser or 'none'}")
    out.append(f"consensual loser: {report.consensual_loser or 'none'}")
    order = "".join(report.condorcet_order) if report.condorcet_order else "none"
    out.append(f"Condorcet order: {order}")
    for cyc in dynamics.cycles:
        states = "{" + ", ".join(s.label for s in cyc.states) + "}"
        quality = "bad " if cyc.bad else ("good " if cyc.bad is not None else "")
        kind = "fixed point" if cyc.period == 1 else f"{cyc.period}-cycle"
        winners = ",".join(dict.fromkeys(cyc.winners))
        out.append(f"{quality}{kind} {states}: winners {winners}; basin {cyc.basin_size}/{total}")
    if dynamics.is_bad is None:
        out.append("bad dynamics: undefined (no Condorcet winner)")
    else:
        out.append(f"bad dynamics: {'yes' if dynamics.is_bad else 'no'}")
    return "\n".join(out) + "\n"

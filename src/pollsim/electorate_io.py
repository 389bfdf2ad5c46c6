"""Electorate text format, serialization, and DOT export of poll graphs.

File grammar (one statement per line, ``#`` starts a comment line)::

    candidates: a b c
    type Z: a>b>c 101 MLR
    type W: c>a=b 104

``>`` separates tie-groups from most to least preferred, ``=`` joins
tied candidates, the number is the voter weight, and the optional
strategy is LR or MLR (default MLR).  A line splits at its first ``:``;
the first word before it is the keyword, and the rest is the name, which
only ``type`` takes.  A candidate name is one token without ``>`` or
``=``; a type name is not blank, holds no ``:`` or line break and no
whitespace at either end.  `serialize_electorate` refuses other names,
which would not read back.  The parser checks this syntax; the model's
constructors check meaning (at least two distinct candidates, complete
preferences, the leader rule's tie-free preference, weights), and
`parse_electorate` raises their errors again as `ParseError` at the
token concerned.  A preference is checked once, by
`Preference.from_groups`; only when that refuses it does the parser look
for an empty or unknown name to place the error at, else the error (a
repeat, also inside one tie-group, or a missing candidate) is placed at
the preference.  It asks `Strategy.admits` before it builds a type, so
a leader-rule type with a tie fails at its strategy and any other type
error at its weight.  `format_analysis` and `export_dot` read the poll
graph's pair-index arrays, not its `PollState` views.
"""

from __future__ import annotations

import re

from .dynamics import DynamicsReport, PollingGraph
from .majority import CondorcetReport
from .model import CandidateSet, Electorate, Preference, VoterType
from .strategies import Strategy


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


_FIELD = re.compile(r"\S+")


def _fail(lineno: int, line: str, token: str, message: str, field: int | None = None, at: int = 0) -> ParseError:
    """The error at ``token``'s first column in ``line`` (1 when absent).  A
    token of the body names the ``field`` after the first ':' that holds it,
    and ``at`` its offset in that field, so that a copy in the type name or
    earlier in the body does not place it."""
    start = 0 if field is None else list(_FIELD.finditer(line, line.index(":") + 1))[field].start() + at
    return ParseError(lineno, max(line.find(token, start), 0) + 1, message)


def _bad_candidate_name(names) -> str | None:  # the first name that is not one token of a type line
    return next((n for n in names if not n or any(c.isspace() or c in ">=" for c in n)), None)


def _bad_type_name(names) -> str | None:  # the first name that a type line would not give back
    return next((n for n in names if n != n.strip() or ":" in n or n.splitlines() != [n]), None)


_HEAD = re.compile(r"(\S*)\s*(.*?)\s*")  # the text before a statement's ':' -> keyword, name


def parse_electorate(text: str) -> Electorate:
    candidates: CandidateSet | None = None
    types: dict[str, VoterType] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, colon, body = line.partition(":")
        keyword, name = _HEAD.fullmatch(head).groups()
        if keyword == "candidates" and not name:
            if candidates is not None:
                raise _fail(lineno, raw, "candidates", "duplicate candidates declaration")
            names = body.split()
            if (bad := _bad_candidate_name(names)) is not None:
                raise _fail(lineno, raw, bad, f"candidate name {bad!r} contains '>' or '='", names.index(bad))
            try:
                candidates = CandidateSet(tuple(names))
            except ValueError as exc:
                raise _fail(lineno, raw, "candidates", str(exc)) from None
            continue
        if keyword != "type":
            raise _fail(lineno, raw, line.split()[0], "unrecognized line")
        if candidates is None:
            raise _fail(lineno, raw, "type", "candidates must be declared before types")
        if not colon:
            raise _fail(lineno, raw, head, "missing ':' after type name")
        if not name:
            raise _fail(lineno, raw, "type", "missing type name")
        if name in types:
            raise _fail(lineno, raw, name, f"duplicate type {name!r}")
        fields = body.split()
        if len(fields) < 2:
            raise _fail(lineno, raw, body.strip() or ":", "incomplete type declaration (need preference and weight)",
                        0 if fields else None)
        if len(fields) > 3:
            raise _fail(lineno, raw, fields[3], "too many fields in type declaration", 3)
        pref_tok, weight_tok, strat_tok = fields if len(fields) == 3 else (*fields, "MLR")

        groups = [group.split("=") for group in pref_tok.split(">")]
        try:
            preference = Preference.from_groups(candidates, groups)
        except ValueError as exc:  # an empty or unknown name is placed at itself, the rest at the token
            parts = [n for group in groups for n in group]
            for n in parts:
                if not n:
                    raise _fail(lineno, raw, pref_tok, "malformed preference (empty group or name)", 0)
                if n not in candidates:  # no earlier part equals n: each was a candidate
                    at = sum(len(m) + 1 for m in parts[:parts.index(n)])
                    raise _fail(lineno, raw, n, f"unknown candidate {n!r}", 0, at)
            raise _fail(lineno, raw, pref_tok, str(exc), 0) from None
        try:
            weight = float(weight_tok)
        except ValueError:
            raise _fail(lineno, raw, weight_tok, f"malformed number {weight_tok!r}", 1) from None
        try:
            strategy = Strategy(strat_tok)
        except ValueError:
            raise _fail(lineno, raw, strat_tok, f"unknown strategy {strat_tok!r} (expected LR or MLR)", 2) from None
        if not strategy.admits(preference):
            raise _fail(lineno, raw, strat_tok, f"type {name!r} uses the leader rule but has a tied preference", 2)
        try:
            types[name] = VoterType(name, preference, weight, strategy)
        except ValueError as exc:
            raise _fail(lineno, raw, weight_tok, str(exc), 1) from None

    if candidates is None:
        raise ParseError(1, 1, "no candidates declaration")
    if not types:
        raise ParseError(1, 1, "no voter types declared")
    try:
        return Electorate(candidates, tuple(types.values()))
    except ValueError as exc:
        raise ParseError(1, 1, str(exc)) from None


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


def export_dot(graph: PollingGraph, report: DynamicsReport) -> str:
    """DOT rendering of a polling graph and its classification report.

    One node per state labeled winner+runner-up; self-loops on fixed
    points are omitted.  Recurrent states electing the Condorcet winner
    are light green, other states electing it are green, bad periodic
    states are orange, bad equilibria are red, and transient states that
    stop being reachable after some iteration are grey (annotated with
    that iteration count).  Node IDs escape ``\\`` and ``"``.
    """
    lines = ["digraph polling_dynamics {", "  rankdir=LR;", '  node [style=filled, fillcolor=white];']
    candidates, succ = graph.electorate.candidates, graph.succ
    names, n = candidates.names, len(candidates)
    # the quoted, escaped `PollState.label` of each pair index: escaping is
    # per character, and neither "" nor ">" between the names holds \ or "
    escaped = [name.replace("\\", "\\\\").replace('"', '\\"') for name in names]
    ids = [f'"{escaped[w]}{"" if len(names[w]) == len(names[r]) == 1 else ">"}{escaped[r]}"'
           for w in range(n) for r in range(n)]
    states = [i for i, k in enumerate(graph.label) if k >= 0]  # the diagonal's -1 is no state
    on_cycle = {i for cyc in graph.cycle_ids for i in cyc}
    cw = -1 if report.condorcet_winner is None else candidates.index(report.condorcet_winner)

    # Longest incoming path per transient state: iterating the image of the
    # state set, a transient state of height h leaves it at iteration h + 1.
    heights: dict[int, int] = {}
    image, k = set(states), 0
    while len(image) > len(on_cycle):
        nxt = {succ[i] for i in image}
        heights.update(dict.fromkeys(image - nxt, k))
        image, k = nxt, k + 1

    for i in states:
        if i in on_cycle:
            if i // n == cw:
                attrs = "fillcolor=lightgreen"
            elif succ[i] == i:
                attrs = "fillcolor=red"
            else:
                attrs = "fillcolor=orange"
        else:
            fill = "green" if i // n == cw else "grey"
            attrs = f'fillcolor={fill}, tooltip="cannot occur after {heights[i] + 1} iterations"'
        lines.append(f"  {ids[i]} [{attrs}];")

    for i in states:
        if succ[i] != i:
            lines.append(f"  {ids[i]} -> {ids[succ[i]]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_analysis(report: CondorcetReport, dynamics: DynamicsReport, graph: PollingGraph) -> str:
    """Human-readable analysis summary used by the command line."""
    total = len(graph.label) - graph.label.count(-1)  # -1 only on the diagonal
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

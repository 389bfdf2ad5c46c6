"""File-format round trips, parse diagnostics, DOT export, and the
human-readable analysis text."""

import re
from pathlib import Path

import pytest

from pollsim import (
    CandidateSet,
    Electorate,
    ParseError,
    Preference,
    Strategy,
    VoterType,
    build_polling_graph,
    classify,
    condorcet_analysis,
    export_dot,
    parse_electorate,
    preference_notation,
    serialize_electorate,
)
from pollsim.electorate_io import format_analysis
from pollsim.presets import consensual_loser_electorate, lr_cycle_electorate, two_bloc_electorate

DATA = Path(__file__).parent / "data"


def check_dot_syntax(text: str) -> None:
    """Minimal DOT grammar check: header, balanced braces, and every
    statement a quoted node, a quoted edge, or an attribute line."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    assert lines[0] == "digraph polling_dynamics {"
    assert lines[-1] == "}"
    node_re = re.compile(r'^"[^"]+"(\s*\[[^\]]*\])?;$')
    edge_re = re.compile(r'^"[^"]+"\s*->\s*"[^"]+"(\s*\[[^\]]*\])?;$')
    attr_re = re.compile(r"^(rankdir|node|edge|graph|label)\b.*;$")
    for ln in lines[1:-1]:
        if not ln:
            continue
        assert node_re.match(ln) or edge_re.match(ln) or attr_re.match(ln), ln


@pytest.mark.parametrize(
    "fname,builder",
    [
        ("lr_cycle.txt", lr_cycle_electorate),
        ("consensual_loser.txt", consensual_loser_electorate),
        ("two_bloc.txt", two_bloc_electorate),
    ],
)
def test_worked_electorate_files_parse(fname, builder):
    text = (DATA / fname).read_text()
    assert parse_electorate(text) == builder()


def test_round_trip_serialize_parse(loser_electorate, cycle_electorate):
    for e in (loser_electorate, cycle_electorate):
        assert parse_electorate(serialize_electorate(e)) == e


def test_parse_weights_and_defaults():
    e = parse_electorate(
        """
        # comment line
        candidates: a b c

        type Z: a>b=c 1.5
        type W: c>a=b 104 MLR
        """
    )
    assert e.types[0].weight == 1.5
    assert e.types[0].strategy.value == "MLR"  # default
    assert e.types[1].preference.groups == (frozenset("c"), frozenset("ab"))


@pytest.mark.parametrize(
    "text,message",
    [
        ("candidates: a b\ntype Z: a>b>a 1", "repeated"),
        ("candidates: a b\ntype Z: a>q 1", "unknown candidate"),
        ("candidates: a b c\ntype Z: a>b 1", "incomplete preference"),
        ("candidates: a b\ntype Z: a>b 1x2", "malformed number"),
        ("candidates: a b\ntype Z: a>b -4", "non-negative"),
        ("candidates: a b\ntype Z: a>b 1 XX", "unknown strategy"),
        ("candidates: a b\ntype Z: a>b 1\ntype Z: b>a 2", "duplicate type"),
        ("candidates: a b\ncandidates: a b\ntype Z: a>b 1", "duplicate candidates"),
        ("type Z: a>b 1", "candidates must be declared"),
        ("candidates: a b\ntype Z a>b 1", "missing ':'"),
        ("candidates: a b\ntype Z: a>>b 1", "malformed preference"),
        ("candidates: a b\nwhatever here", "unrecognized line"),
        ("candidates: a b\ntype Z: a>b", "incomplete type declaration"),
        ("candidates: a a\ntype Z: a>a 1", "duplicate candidate"),
        ("candidates: a=b c\ntype Z: a>c 1", "contains '>' or '='"),
        ("", "no candidates"),
        ("candidates: a b\n# only comments", "no voter types"),
    ],
)
def test_parse_diagnostics(text, message):
    with pytest.raises(ParseError, match=message):
        parse_electorate(text)


def test_parse_error_carries_position():
    try:
        parse_electorate("candidates: a b\ntype Z: a>q 1")
    except ParseError as exc:
        assert exc.line == 2
        assert exc.column == len("type Z: a>") + 1
    else:
        raise AssertionError("expected ParseError")


def test_separator_in_candidate_name_is_refused_at_its_column():
    with pytest.raises(ParseError) as exc:
        parse_electorate("candidates: b c>d\ntype Z: b>c 1")
    assert (exc.value.line, exc.value.column) == (1, len("candidates: b ") + 1)


@pytest.mark.parametrize("name", ["a>b", "a=b"])
def test_serialize_refuses_a_separator_in_a_candidate_name(name):
    cs = CandidateSet((name, "c"))
    e = Electorate(cs, (VoterType("Z", Preference(cs, (0, 1)), 1.0, Strategy.LEADER_RULE),))
    with pytest.raises(ValueError, match="cannot be written"):
        serialize_electorate(e)


@pytest.mark.parametrize("candidate, type_name, bad", [
    ("a b", "Z", "a b"),
    ("a\tb", "Z", "a\tb"),
    ("", "Z", ""),
    ("a", "Z:1", "Z:1"),
    ("a", "", ""),
    ("a", "  ", "  "),
    ("a", "Z\nW", "Z\nW"),
    ("a", "Z ", "Z "),  # read back as "Z", another electorate
    ("a", " Z", " Z"),
    ("a", "Z 1", None),
    ("a:b", "#Z", None),
])
def test_serialized_names_read_back_or_are_refused(candidate, type_name, bad):
    cs = CandidateSet((candidate, "c"))
    e = Electorate(cs, (VoterType(type_name, Preference(cs, (0, 1)), 1.0, Strategy.LEADER_RULE),))
    if bad is None:
        assert parse_electorate(serialize_electorate(e)) == e
    else:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            serialize_electorate(e)


def test_preference_notation(loser_electorate):
    notations = [preference_notation(t.preference) for t in loser_electorate.types]
    assert notations == ["abc", "a(bc)", "bac", "c(ab)"]


def test_dot_export_cycle_electorate(cycle_electorate):
    g = build_polling_graph(cycle_electorate)
    dyn = classify(g, condorcet_analysis(cycle_electorate))
    dot = export_dot(g, dyn)
    check_dot_syntax(dot)
    node_lines = [ln for ln in dot.splitlines() if re.match(r'^\s*"[a-d]{2}"', ln) and "->" not in ln]
    edge_lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(node_lines) == 12
    assert len(edge_lines) == 11  # one self-loop omitted
    assert sum("orange" in ln for ln in node_lines) == 3
    assert sum("lightgreen" in ln for ln in node_lines) == 1
    assert sum("green" in ln and "lightgreen" not in ln for ln in node_lines) == 2  # ab, ac


def test_dot_export_loser_electorate(loser_electorate):
    g = build_polling_graph(loser_electorate)
    dyn = classify(g, condorcet_analysis(loser_electorate))
    dot = export_dot(g, dyn)
    check_dot_syntax(dot)
    edges = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(edges) == 4  # 6 states, 2 fixed-point loops omitted
    assert sum("orange" in ln for ln in dot.splitlines()) == 1  # ca
    assert sum("red" in ln for ln in dot.splitlines()) == 1     # bc
    assert '"ba" [' in dot and "grey" in dot  # transient states greyed
    assert "cannot occur after 1 iterations" in dot


def test_format_analysis_loser_electorate(loser_electorate):
    g = build_polling_graph(loser_electorate)
    rep = condorcet_analysis(loser_electorate)
    text = format_analysis(rep, classify(g, rep), g)
    assert "Condorcet winner: a" in text
    assert "consensual loser: c" in text
    assert "bad 2-cycle {ab, ca}" in text
    assert "bad dynamics: yes" in text
    assert "basin 4/6" in text

"""File-format round trips, parse diagnostics, DOT export, and the
human-readable analysis text."""

import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    node_id = r'"(?:[^"\\]|\\.)+"'  # a quoted ID; \" and \\ are escapes
    node_re = re.compile(rf'^{node_id}(\s*\[[^\]]*\])?;$')
    edge_re = re.compile(rf'^{node_id}\s*->\s*{node_id}(\s*\[[^\]]*\])?;$')
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


@pytest.mark.parametrize("text, line", [
    ("candidates: a b\ntyped: a>b 1", 2),  # before, read as a type named "d"
    ("candidates: a b\ntypeZ: b>a 2", 2),
    ("candidates: a b\ntype Z: a>b 1\n: a b", 3),
    ("candidates foo: a b\ntype Z: a>b 1", 1),
])
def test_a_statement_keyword_is_a_whole_word(text, line):
    with pytest.raises(ParseError, match="unrecognized line") as exc:
        parse_electorate(text)
    assert exc.value.line == line


def test_any_whitespace_ends_the_keyword():
    e = parse_electorate("candidates:\ta b\ntype\tZ  1:\ta>b 1")
    assert [t.name for t in e.types] == ["Z  1"]


@pytest.mark.parametrize("text, message, position", [
    ("candidates: a b\ntype Z: a>b 0\ntype W: b>a 0", "total weight must be positive", (1, 1)),
    ("candidates: a b\ntype Z: a>b nan", "finite", (2, len("type Z: a>b ") + 1)),
    ("candidates: a b\ntype Z: a>b=a 1", "repeated", (2, len("type Z: ") + 1)),
    ("candidates:", "at least two candidates", (1, 1)),
    ("candidates: a", "at least two candidates", (1, 1)),
    ("candidates: a b c\ntype Z: a=b>c 1 LR", "uses the leader rule", (2, len("type Z: a=b>c 1 ") + 1)),
    # the parser checks the strategy before it builds the type, so the error names the strategy field
    ("candidates: a b c\ntype Z: a=b>c -1 LR", "uses the leader rule", (2, len("type Z: a=b>c -1 ") + 1)),
])
def test_model_errors_are_placed(text, message, position):
    with pytest.raises(ParseError, match=message) as exc:
        parse_electorate(text)
    assert (exc.value.line, exc.value.column) == position


@pytest.mark.parametrize("text, message, position", [
    ("candidates: a b\ntype q: a>q 1", "unknown candidate 'q'", (2, len("type q: a>") + 1)),
    ("candidates: a b\ntype MLRX: a>b MLR", "malformed number 'MLR'", (2, len("type MLRX: a>b ") + 1)),
    ("candidates: a b\ntype Z: b>a a", "malformed number 'a'", (2, len("type Z: b>a ") + 1)),
    ("candidates: ab c\ntype Z: ab>b 1", "unknown candidate 'b'", (2, len("type Z: ab>") + 1)),
])
def test_a_body_token_is_placed_in_its_own_field(text, message, position):
    with pytest.raises(ParseError, match=message) as exc:
        parse_electorate(text)
    assert (exc.value.line, exc.value.column) == position


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


# Texts from the grammar's fragments: a well-formed electorate over a b c,
# with at most one line of any fragments inserted anywhere.
_FRAGMENTS = ["candidates", "type", "typed", "a", "b", "c", "Z", "W", ":", ">", "=",
              "0", "-1", "nan", "inf", "1.5", "2", "LR", "MLR", "XX", "#"]
_SEP = st.sampled_from(["", " ", "\t"])


def _preference(names, ops):
    return names[0] + "".join(op + n for op, n in zip(ops, names[1:]))


_good_body = st.builds(
    lambda names, ops, weight, strategy: f"{_preference(names, ops)} {weight}{strategy}",
    st.permutations("abc"), st.lists(st.sampled_from(">="), min_size=2, max_size=2),
    st.sampled_from(["0", "1.5", "2"]), st.sampled_from(["", " LR", " MLR"]),
)
_good_types = st.lists(st.tuples(st.sampled_from([" ", "\t"]), _good_body), max_size=4).map(
    lambda lines: [f"type{sep}T{i}: {body}" for i, (sep, body) in enumerate(lines)])
_any_line = st.one_of(
    st.lists(st.sampled_from("abc"), max_size=4).map(lambda names: "candidates: " + " ".join(names)),
    st.builds(
        lambda kw, sep, name, names, ops, weight, strategy: f"{kw}{sep}{name}: {_preference(names, ops)} {weight}{strategy}",
        st.sampled_from(["type", "typed"]), _SEP, st.sampled_from(["Z", "T0", ""]),
        st.lists(st.sampled_from("abc"), min_size=1, max_size=4), st.lists(st.sampled_from(">="), min_size=3, max_size=3),
        st.sampled_from(["0", "-1", "nan", "inf", "1.5", "2"]), st.sampled_from(["", " LR", " MLR", " XX"]),
    ),
    st.lists(st.tuples(_SEP, st.sampled_from(_FRAGMENTS)), max_size=8).map(
        lambda parts: "".join(sep + frag for sep, frag in parts)),
    st.sampled_from(["", "# note", "\t", ": a b"]),
)
_text = st.builds(
    lambda lines, extra, at: "\n".join(lines[:at] + extra + lines[at:]),
    _good_types.map(lambda types: ["candidates: a b c", *types]), st.lists(_any_line, max_size=1), st.integers(0, 5),
)


# errors about a token after the line's first ':'
_BODY_ERRORS = ("unknown candidate", "malformed number", "unknown strategy", "too many fields",
                "malformed preference", "contains '>' or '='", "repeated", "incomplete preference", "finite",
                "uses the leader rule")


@settings(deadline=None, max_examples=400)
@given(_text)
@example("candidates: a b\ntype Z: a>b 0")
@example("candidates: a b\ntyped: a>b 1")
@example("candidates: a b c\ntype a: a>a 1")
@example("candidates: a b c\ntype LR: a>b>c 1 LR LR")
def test_a_text_parses_and_round_trips_or_fails_at_a_position(text):
    try:
        e = parse_electorate(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1
        if any(m in exc.message for m in _BODY_ERRORS):
            line = text.splitlines()[exc.line - 1]
            assert exc.column > line.index(":") + 1
        return
    heads = [ln.strip().partition(":")[0].split() for ln in text.splitlines()]
    keywords = [words[0] for words in heads if words and not words[0].startswith("#")]
    assert set(keywords) <= {"candidates", "type"}
    assert len(e.types) == keywords.count("type")
    assert parse_electorate(serialize_electorate(e)) == e


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


@pytest.mark.parametrize("names, first", [('a" b', r'"a\">b"'), ("a\\ b", r'"a\\>b"')])
def test_dot_export_escapes_quotes_and_backslashes_in_names(names, first):
    x, y = names.split()
    e = parse_electorate(f"candidates: {names}\ntype Z: {x}>{y} 2\ntype W: {y}>{x} 1")
    g = build_polling_graph(e)
    dot = export_dot(g, classify(g, condorcet_analysis(e)))
    check_dot_syntax(dot)
    assert f"  {first} [fillcolor=lightgreen];" in dot.splitlines()


def test_format_analysis_loser_electorate(loser_electorate):
    g = build_polling_graph(loser_electorate)
    rep = condorcet_analysis(loser_electorate)
    text = format_analysis(rep, classify(g, rep), g)
    assert "Condorcet winner: a" in text
    assert "consensual loser: c" in text
    assert "bad 2-cycle {ab, ca}" in text
    assert "bad dynamics: yes" in text
    assert "basin 4/6" in text

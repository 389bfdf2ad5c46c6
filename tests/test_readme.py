"""README's Python blocks run against the library and print what they
say, and its command lines parse: a name or flag the README uses and the
library lost fails here."""

import math
import re
import shlex
from pathlib import Path

import pytest

from pollsim import parse_electorate
from pollsim.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def run_block(block):
    namespace = {"__name__": "readme"}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_readme_has_the_three_python_blocks():
    assert len(BLOCKS) == 3


def test_library_tour_block():
    ns = run_block(BLOCKS[0])
    assert (ns["report"].condorcet_winner, ns["report"].consensual_loser) == ("a", "c")
    assert len(ns["graph"].states) == 6
    bad = [sorted(f"{s.winner}{s.runner_up}" for s in c.states) for c in ns["dynamics"].cycles if c.bad]
    assert ["ab", "ca"] in bad


def test_monte_carlo_block(capsys):
    ns = run_block(BLOCKS[1])
    result = ns["result"]
    low, high = result.bad_interval()
    assert low <= result.bad_rate <= high
    assert capsys.readouterr().out == f"{result.cw_rate} {result.bad_rate} {(low, high)}\n"


def test_tent_entropy_block(capsys):
    ns = run_block(BLOCKS[2])
    assert ns["fit"].slope == pytest.approx(math.log(2), abs=0.01)
    assert capsys.readouterr().out == f"{ns['fit'].slope}\n"


def test_electorate_file_block_parses():
    block = re.search(r"## Electorate files\n\n```\n(.*?)```", README.read_text(), re.S).group(1)
    assert [t.name for t in parse_electorate(block).types] == ["Z", "W"]


def test_readme_command_lines_parse():
    # every `pollsim ...` line of the bash blocks, `\` continuations joined; parsed, not run
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)
    lines = [ln for b in blocks for ln in b.replace("\\\n", " ").splitlines() if ln.startswith("pollsim ")]
    assert len(lines) == 6
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")

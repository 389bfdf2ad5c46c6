"""The demos stay in step with the public API: every demo loads, and the
perturbed-cycle demo, which writes no file, runs to its 2-cycle."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_loads(path):
    # the demos do their work only as __main__, so this runs their imports
    runpy.run_path(str(path), run_name="demo")


def test_perturbed_cycle_demo_prints_the_two_cycle(capsys):
    runpy.run_path(str(DEMOS / "perturbed_cycle.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("step(A1) in A2: True, step(A2) in A1: True") == 3
    cycle = out.split("attracting 2-cycle:\n")[1].split("\n\n")[0].splitlines()
    assert [line.split()[-1] for line in cycle] == ["a", "c"]
    assert "(0.869565, 0.869565)" in cycle[0] and "(0.130435, 0.130435)" in cycle[1]

"""Command-line smoke tests: exit codes, CSV determinism, and the
documented output claims."""

import argparse
import math
from pathlib import Path

import pytest

from pollsim.cli import build_parser, main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_consensual_loser(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = run(capsys, "analyze", str(DATA / "consensual_loser.txt"), "--dot", str(dot))
    assert code == 0
    assert "Condorcet winner: a" in out
    assert "consensual loser: c" in out
    assert "bad 2-cycle {ab, ca}" in out
    assert dot.read_text().startswith("digraph")


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "no_such_file.txt")
    assert code == 2 and "error" in err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("candidates: a b\ntype Z: a>q 1\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "unknown candidate" in err


def test_leader_rule_with_ties_exits_2_at_its_strategy(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("candidates: a b c\ntype Z: a=b>c 1 LR\n")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    assert "line 2, column 17: type 'Z' uses the leader rule but has a tied preference" in err


def test_unknown_flag_exits_2(capsys):
    assert main(["mc", "--nope"]) == 2
    assert main(["bogus-command"]) == 2


def test_graph_command(capsys, tmp_path):
    dot = tmp_path / "cycle.dot"
    code, _, _ = run(capsys, "analyze", str(DATA / "lr_cycle.txt"), "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.count("->") == 11


def test_mc_csv_deterministic_across_jobs(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["mc", "--culture", "impartial", "--strategy", "mlr", "--candidates", "4",
            "--types", "8", "--trials", "300", "--seed", "5"]
    assert main(base + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(base + ["--jobs", "4", "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == ("culture,d,strategy,n_candidates,n_types,n_trials,"
                      "cw_rate,cw_low,cw_high,bad_rate,bad_low,bad_high,seed")
    capsys.readouterr()


def test_mc_spatial_d1_lr_no_bad(capsys, tmp_path):
    out = tmp_path / "d1.csv"
    code, stdout, _ = run(capsys, "mc", "--culture", "spatial", "--dim", "1", "--strategy", "lr",
                          "--candidates", "6", "--types", "20", "--trials", "400",
                          "--seed", "1", "--out", str(out))
    assert code == 0
    assert "bad_rate=0.0000" in stdout
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "spatial" and row[1] == "1" and float(row[9]) == 0.0


def test_orbit_tent_exact(capsys, tmp_path):
    out = tmp_path / "orbit.csv"
    code, _, _ = run(capsys, "cpd-orbit", "--model", "tent", "--start", "2/5",
                     "--steps", "6", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,z,winner"
    zs = [float(r.split(",")[1]) for r in lines[1:]]
    assert zs == pytest.approx([0.4, 0.8, 0.4, 0.8, 0.4, 0.8, 0.4])
    winners = [r.split(",")[2] for r in lines[1:]]
    assert winners == list("cbcbcbc")


def test_orbit_twobloc(capsys, tmp_path):
    out = tmp_path / "twobloc.csv"
    code, _, _ = run(capsys, "cpd-orbit", "--model", "twobloc", "--start", "0.99,0.99",
                     "--steps", "4", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,x,z,winner"
    assert [r.split(",")[-1] for r in lines[1:]] == list("acaca")


@pytest.mark.parametrize("model", ["thm4", "section7"])
def test_retired_model_aliases_exit_2(capsys, model):
    code, out, err = run(capsys, "cpd-orbit", "--model", model, "--steps", "4")
    assert code == 2 and out == "" and "--model" in err


def test_entropy_command_tent_small(capsys):
    code, out, _ = run(capsys, "entropy", "--model", "tent", "--steps", str(2**16),
                       "--lmax", "12", "--fit", "4:10", "--seed", "0")
    assert code == 0
    slope = float(out.split("slope=")[1].split()[0])
    assert abs(slope - math.log(2)) < 0.05
    assert "no eventual period detected" in out


def test_entropy_command_periodic_weights(capsys, tmp_path):
    csv = tmp_path / "profile.csv"
    code, out, _ = run(capsys, "entropy", "--model", "reluctance",
                       "--weights", "0.56,0.08,0.6,0.81", "--steps", "40000",
                       "--lmax", "14", "--fit", "4:12", "--out", str(csv))
    assert code == 0
    assert "eventual period detected" in out and "period=22" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "block,log_distinct,entropy"
    assert len(lines) == 15


def test_grid_command(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "grid", "--model", "reluctance", "--res", "5",
                     "--iters", "2", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x0,z0,step,x,z,winner"
    assert len(lines) == 1 + 5 * 5 * 3


def test_invalid_ranges_exit_2(capsys):
    assert main(["cpd-orbit", "--model", "tent", "--steps", "-3"]) == 2
    assert main(["entropy", "--model", "tent", "--steps", "100", "--fit", "4:20"]) == 2


@pytest.mark.parametrize("theta", ["nan", "inf", "-1"])
def test_non_finite_or_negative_theta_exits_2(capsys, theta):
    code, out, err = run(capsys, "grid", "--model", "twobloc", "--theta", theta, "--res", "2", "--iters", "1")
    assert code == 2 and out == "" and "margin" in err


SMALL_ENTROPY = ["--steps", "100", "--lmax", "6", "--fit", "2:5"]


@pytest.mark.parametrize("command,model,start", [
    ("cpd-orbit", "tent", "1/0"),
    ("cpd-orbit", "tent", "3/2"),
    ("cpd-orbit", "tent", "-1/3"),
    ("entropy", "tent", "1/0"),
    ("cpd-orbit", "reluctance", "2,-1"),
    ("cpd-orbit", "reluctance", "nan,0.5"),
    ("cpd-orbit", "twobloc", "0.5,1.5"),
    ("entropy", "reluctance", "2,-1"),
    ("cpd-orbit", "tent", "abc"),
    ("cpd-orbit", "reluctance", "x,0.5"),
    ("cpd-orbit", "reluctance", "0.5"),
])
def test_start_outside_the_model_exits_2(capsys, command, model, start):
    # tent starts lie in [0, 1]; planar x and z are shares
    steps = ["--steps", "4"] if command == "cpd-orbit" else SMALL_ENTROPY
    code, out, err = run(capsys, command, "--model", model, f"--start={start}", *steps)
    assert code == 2 and out == "" and "--start" in err


@pytest.mark.parametrize("flags,name", [
    (["--weights", "3,1,3"], "--weights"),
    (["--weights", "3,1,3,x"], "--weights"),
    (["--weights", "nan,1,3,5"], "weights"),
    (["--weights", "inf,1,3,5"], "weights"),
    (["--kappa", "nan"], "steepness"),
    (["--collab", "rational", "--lam", "inf"], "steepness"),
    (["--collab", "rational", "--lam=-1"], "lam"),
])
def test_bad_reluctance_parameters_exit_2(capsys, flags, name):
    code, out, err = run(capsys, "cpd-orbit", "--model", "reluctance", *flags, "--steps", "3")
    assert code == 2 and out == "" and name in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_mc_jobs_below_one_exits_2(capsys, jobs):
    code, out, err = run(capsys, "mc", "--culture", "impartial", "--strategy", "lr", "--candidates", "3",
                         "--types", "4", "--trials", "10", f"--jobs={jobs}")
    assert code == 2 and out == "" and "--jobs" in err


@pytest.mark.parametrize("flag", ["--start=0.5,0.5", "--seed=3"])
def test_grid_refuses_the_orbit_start_flags(capsys, flag):
    code, out, err = run(capsys, "grid", "--model", "twobloc", "--res", "2", "--iters", "1", flag)
    assert code == 2 and out == "" and flag.partition("=")[0] in err


class _Reads(argparse.Namespace):
    """A namespace that records the attributes read from it in ``_reads``."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def _runs(tmp_path):
    """Tiny runs of each subcommand that together take every branch that
    reads a flag: each model, both collaboration laws, both cultures."""
    out = ["--out", str(tmp_path / "out")]
    models = [["--model", m] for m in ("twobloc", "reluctance", "tent")]
    models.append(["--model", "reluctance", "--collab", "rational"])
    yield ["analyze", str(DATA / "consensual_loser.txt"), "--dot", str(tmp_path / "g.dot")]
    for culture in ("impartial", "spatial"):
        yield ["mc", "--culture", culture, "--strategy", "lr", "--candidates", "3", "--types", "3",
               "--trials", "2", *out]
    for model in models:
        yield ["cpd-orbit", *model, "--steps", "2", *out]
        yield ["entropy", *model, *SMALL_ENTROPY, *out]
        if model[1] != "tent":
            yield ["grid", *model, "--res", "2", "--iters", "1", *out]


@pytest.mark.filterwarnings("ignore:S\\(6\\) = .* windows per factor")  # words of 100 letters
def test_every_registered_flag_is_read(capsys, tmp_path):
    parser = build_parser()
    registered, read = {}, {}
    for argv in _runs(tmp_path):
        args = parser.parse_args(argv)
        dests = set(vars(args)) - {"command", "fn"}
        registered.setdefault(args.command, set()).update(dests)
        assert args.fn(_Reads(_reads=read.setdefault(args.command, set()), **vars(args))) == 0
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(registered) == set(commands)
    assert {c: dests - read[c] for c, dests in registered.items()} == {c: set() for c in registered}

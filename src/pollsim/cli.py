"""Command-line interface.

Subcommands: ``analyze`` reports on an electorate file (``--dot`` also
writes its poll graph), ``mc`` runs a Monte Carlo culture condition,
``cpd-orbit`` iterates one of the continuous models, ``entropy``
estimates the entropy rate of a winners word, and ``grid`` dumps
grid-of-orbits scatter data.  All randomness is controlled by
``--seed``; exit code 2 flags a usage or validation error.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import behaviors, presets
from .continuous import Fallback, orbit_rows
from .cultures import CultureKind, CultureSpec
from .dynamics import build_polling_graph, classify
from .electorate_io import ParseError, export_dot, format_analysis, parse_electorate
from .experiments import run_condition, table_csv
from .majority import condorcet_analysis
from .strategies import Strategy
from .wordstats import detect_eventual_period, ks_entropy_estimate, ks_profile, winners_word


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("THREADS", "1")))
    except ValueError:
        return 1


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_electorate(path: str):
    with open(path) as fh:
        return parse_electorate(fh.read())


def _cmd_analyze(args) -> int:
    electorate = _load_electorate(args.file)
    report = condorcet_analysis(electorate, strong=args.strong)
    graph = build_polling_graph(electorate, report=report)
    dynamics = classify(graph, report)
    sys.stdout.write(format_analysis(report, dynamics, graph))
    if args.dot:
        _write_or_print(export_dot(graph, dynamics), args.dot)
    return 0


def _cmd_mc(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    kind = CultureKind.IMPARTIAL if args.culture == "impartial" else CultureKind.SPATIAL
    strategy = Strategy.LEADER_RULE if args.strategy == "lr" else Strategy.MODIFIED_LEADER_RULE
    spec = CultureSpec(
        kind=kind,
        n_candidates=args.candidates,
        n_types=args.types,
        strategy=strategy,
        seed=args.seed,
        dimension=args.dim if kind is CultureKind.SPATIAL else 0,
    )
    result = run_condition(spec, args.trials, n_jobs=args.jobs)
    csv = table_csv([result])
    _write_or_print(csv, args.out)
    bad = "undefined" if result.bad_rate is None else f"{result.bad_rate:.4f}"
    sys.stdout.write(
        f"cw_rate={result.cw_rate:.4f} bad_rate={bad} "
        f"({result.n_condorcet}/{result.n_trials} trials with a Condorcet winner)\n"
    )
    return 0


def _planar_source(args):
    """The requested planar model as (source, state at (x, z), (x, z) of a
    state, columns of x and z in a state row of ``source.run_many``)."""
    if args.model == "twobloc":
        dyn = presets.two_bloc_dynamics(p=args.p, margin=args.theta, fallback=Fallback(args.fallback))
        view = presets.two_bloc_view(dyn)
        return dyn, view.state, view.coords, view.columns
    collab = behaviors.LinearClamped(args.kappa) if args.collab == "linear" else behaviors.RationalDecay(args.lam)
    nz, ny, nx, nw = args.weights
    config = behaviors.ReluctanceConfig(
        n_z=nz,
        n_y=ny,
        n_x=nx,
        n_w=nw,
        safety_fn=behaviors.SafetyFunction(
            behaviors.SafetyKind.TWO_CASE,
            behaviors.Normalization.RAW if args.norm == "raw" else behaviors.Normalization.TOTAL_WEIGHT,
        ),
        collaboration=collab,
        b_score_rule=behaviors.BScoreRule.LITERAL if args.vb == "literal" else behaviors.BScoreRule.DERIVED,
    )
    return behaviors.build_planar_map(config), lambda x, z: (x, z), lambda xz: xz, (0, 1)


def _orbit_start(args):
    """The requested model as (source, start state, coordinates of a
    state): planar starts x,z in the unit square, tent starts in [0, 1]."""
    if args.model == "tent":
        model = behaviors.build_tent_model()
        try:
            z = Fraction(args.start) if args.start else model.default_start(args.seed)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--start {args.start} is not a rational number like 2/5") from None
        if not 0 <= z <= 1:
            raise ValueError("--start must lie in [0, 1]")
        return model, z, lambda z: (float(z),)
    source, state, coords, _ = _planar_source(args)
    try:
        x, z = (float(c) for c in args.start.split(",")) if args.start else (0.5, 0.5)
    except ValueError:
        raise ValueError(f"--start {args.start} is not two numbers x,z") from None
    if not (0 <= x <= 1 and 0 <= z <= 1):
        raise ValueError("--start x,z must lie in the unit square")
    return source, state(x, z), coords


def _cmd_orbit(args) -> int:
    if args.steps < 0:
        raise ValueError("--steps must be non-negative")
    if args.keep_every < 1:
        raise ValueError("--keep-every must be at least 1")
    source, start, coords = _orbit_start(args)
    rows = ["step,x,z,winner\n" if args.model != "tent" else "step,z,winner\n"]
    for k, s, winner in orbit_rows(source, start, args.steps, args.keep_every):
        rows.append(",".join([str(k), *[f"{c:.12f}" for c in coords(s)], winner]) + "\n")
    _write_or_print("".join(rows), args.out)
    return 0


def _cmd_entropy(args) -> int:
    if args.steps < 1:
        raise ValueError("--steps must be positive")
    try:
        lo, hi = (int(p) for p in args.fit.split(":"))
    except ValueError:
        raise ValueError("--fit must look like 4:14") from None
    if not (1 <= lo and hi <= args.lmax and hi - lo + 1 >= 3):
        raise ValueError(f"--fit range {lo}:{hi} does not fit in 1..{args.lmax}")
    source, start, _ = _orbit_start(args)
    if args.model == "tent":
        word = source.winners_word_exact(start, args.steps)
    else:
        word = winners_word(source, start, args.steps).letters
    profile = ks_profile(word, max_block=args.lmax)
    fit = ks_entropy_estimate(profile, (lo, hi))
    period = detect_eventual_period(word)
    lines = ["block,log_distinct,entropy\n"]
    for b, ld, h in zip(profile.blocks, profile.log_distinct, profile.entropy):
        lines.append(f"{b},{ld:.8f},{h:.8f}\n")
    if args.out:
        _write_or_print("".join(lines), args.out)
    sys.stdout.write(
        f"slope={fit.slope:.6f} intercept={fit.intercept:.6f} residual_rms={fit.residual_rms:.6f} "
        f"plateau_suspected={fit.plateau_suspected} low_confidence={fit.low_confidence}\n"
    )
    if period:
        sys.stdout.write(f"eventual period detected: preperiod={period[0]} period={period[1]}\n")
    else:
        sys.stdout.write("no eventual period detected\n")
    return 0


def _cmd_grid(args) -> int:
    if args.res < 1 or args.iters < 0:
        raise ValueError("--res must be positive and --iters non-negative")
    source, state, _, (cx, cz) = _planar_source(args)
    res = args.res
    axis = [i / (res - 1) if res > 1 else 0.5 for i in range(res)]
    points = [(x0, z0) for x0 in axis for z0 in axis]
    winners, states = source.run_many([state(x0, z0) for x0, z0 in points], args.iters)
    rows = ["x0,z0,step,x,z,winner\n"]
    for (x0, z0), xs, zs, ws in zip(points, states[:, :, cx].tolist(), states[:, :, cz].tolist(), winners.tolist()):
        head = f"{x0:.6f},{z0:.6f},"
        rows.extend(f"{head}{k},{x:.12f},{z:.12f},{w}\n" for k, (x, z, w) in enumerate(zip(xs, zs, ws)))
    _write_or_print("".join(rows), args.out)
    return 0


def _weights(text: str) -> tuple[float, float, float, float]:
    try:
        nz, ny, nx, nw = (float(w) for w in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not four numbers nZ,nY,nX,nW") from None
    return nz, ny, nx, nw


def _add_planar_flags(sub: argparse.ArgumentParser, orbit: bool = True) -> None:
    """The model flags; an ``orbit`` command also runs the tent model from
    ``--start`` or a ``--seed``-drawn start."""
    models = ["twobloc", "reluctance"] + (["tent"] if orbit else [])
    sub.add_argument("--model", choices=models, required=True)
    sub.add_argument("--p", type=float, default=0.85, help="adjusting fraction (twobloc)")
    sub.add_argument("--theta", type=float, default=0.04, help="margin threshold (twobloc)")
    sub.add_argument("--fallback", choices=[f.value for f in Fallback], default="keep")
    sub.add_argument("--vb", choices=["literal", "derived"], default="derived",
                     help="b-score rule of the reluctance model")
    sub.add_argument("--norm", choices=["raw", "total"], default="total",
                     help="safety normalization of the reluctance model")
    sub.add_argument("--kappa", type=float, default=5.0, help="linear collaboration steepness")
    sub.add_argument("--collab", choices=["linear", "rational"], default="linear")
    sub.add_argument("--lam", type=float, default=45.0, help="rational collaboration steepness")
    sub.add_argument("--weights", type=_weights, default=(3.0, 1.0, 3.0, 5.0),
                     help="reluctance weights nZ,nY,nX,nW")
    if not orbit:
        return
    sub.add_argument("--start", default=None, help="x,z in the unit square (planar) or a rational in [0, 1] like 2/5 (tent)")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pollsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="Condorcet report and poll-graph summary of an electorate file")
    p.add_argument("file")
    p.add_argument("--dot", default=None, help="also write the graph as DOT")
    p.add_argument("--strong", action="store_true", help="use the strict-majority Condorcet definition")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("mc", help="Monte Carlo culture condition")
    p.add_argument("--culture", choices=["impartial", "spatial"], required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--strategy", choices=["lr", "mlr"], required=True)
    p.add_argument("--candidates", type=int, required=True)
    p.add_argument("--types", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("cpd-orbit", help="iterate a continuous model and export the orbit")
    _add_planar_flags(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--keep-every", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("entropy", help="entropy-rate estimate of a winners word")
    _add_planar_flags(p)
    p.add_argument("--steps", type=int, default=2**20)
    p.add_argument("--lmax", type=int, default=16)
    p.add_argument("--fit", default="4:14")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_entropy)

    p = sub.add_parser("grid", help="grid-of-orbits scatter data")
    _add_planar_flags(p, orbit=False)
    p.add_argument("--res", type=int, default=200)
    p.add_argument("--iters", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""How often do bad cycles appear in random electorates?

Sweeps impartial and spatial cultures under both strategies and reports,
per condition, how often a Condorcet winner exists and how often the
poll dynamics has a cycle or equilibrium that fails to elect her.  Run
with --trials 100000 to reproduce reference-scale numbers (takes a
while); the default desk scale already shows the pattern:

  * under the leader rule bad cycles are rare everywhere and impossible
    in one-dimensional cultures,
  * under the tie-tolerant variant they are most common exactly in the
    one-dimensional culture.
"""

import argparse
from pathlib import Path

from pollsim import CultureKind, CultureSpec, run_table, table_csv
from pollsim.strategies import Strategy

OUT = Path(__file__).parent / "out"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args()

    specs = []
    for strategy in (Strategy.LEADER_RULE, Strategy.MODIFIED_LEADER_RULE):
        specs.append(CultureSpec(CultureKind.IMPARTIAL, 6, 20, strategy, seed=args.seed))
        for d in (1, 2, 3, 400):
            specs.append(CultureSpec(CultureKind.SPATIAL, 6, 20, strategy, seed=args.seed, dimension=d))

    print(f"{args.trials} electorates per condition, 6 candidates, 20 voter types\n")
    print(f"{'culture':>10} {'strategy':>8} | {'CW exists':>9} | {'bad dynamics':>12}")
    print("-" * 50)
    results = run_table(specs, args.trials, n_jobs=args.jobs)
    for r in results:
        d = "impartial" if r.spec.kind is CultureKind.IMPARTIAL else f"d={r.spec.dimension}"
        bad = "undefined" if r.bad_rate is None else f"{r.bad_rate:.2%}"
        print(f"{d:>10} {r.spec.strategy.value:>8} | {r.cw_rate:>8.1%} | {bad:>11}")

    OUT.mkdir(exist_ok=True)
    path = OUT / "culture_table.csv"
    path.write_text(table_csv(results))
    print(f"\nCSV written to {path}")


if __name__ == "__main__":
    main()

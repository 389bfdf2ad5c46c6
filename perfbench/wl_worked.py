"""worked-examples: library analysis of electorate texts, one at a time.

A round analyses every input: ``parse_electorate`` -> ``condorcet_analysis``
-> ``build_polling_graph`` -> ``classify`` -> ``format_analysis`` ->
``export_dot``.  The inputs are the three files of ``tests/data`` and, for
every candidate count from 3 to 12, one impartial-culture electorate under
the Leader Rule and one spatial (d = 2) electorate under the Modified
Leader Rule, 12 voter types each, three of each, sampled from the run seed
and serialized at set-up.
"""

from __future__ import annotations

import re
import statistics
from pathlib import Path

from pollsim import dynamics, electorate_io, majority
from pollsim.cultures import CultureKind, CultureSpec, sample_electorate
from pollsim.strategies import Strategy

import checks
import reference

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
FILES = ("lr_cycle.txt", "consensual_loser.txt", "two_bloc.txt")
CANDIDATES = range(3, 13)
TYPES = 12
REPEATS = 3  # electorates per (candidate count, culture)
CULTURES = (
    (CultureKind.IMPARTIAL, Strategy.LEADER_RULE, 0),
    (CultureKind.SPATIAL, Strategy.MODIFIED_LEADER_RULE, 2),
)

# the worked examples as printed: tallies and poll-graph structure
LR_CYCLE_TALLIES = {
    ("b", "a"): {"a": 3111.0, "b": 3020.0, "c": 2009.0, "d": 4027.0},
    ("d", "a"): {"a": 3105.0, "b": 2104.0, "c": 4113.0, "d": 3026.0},
    ("c", "a"): {"a": 3118.0, "b": 4122.0, "c": 3013.0, "d": 2018.0},
    ("a", "d"): {"a": 3105.0, "b": 3020.0, "c": 3013.0, "d": 3026.0},
}
LOSER_TALLIES = {
    ("c", "a"): {"a": 203.0, "b": 201.0, "c": 104.0},
    ("a", "b"): {"a": 103.0, "b": 100.0, "c": 104.0},
}
EDGE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)";$')


def _pair(state):
    return state.winner, state.runner_up


def _cycles(graph):
    """Cycles rotated to start at their smallest state -> basin size."""
    out = {}
    for k, cyc in enumerate(graph.cycles):
        pairs = [_pair(s) for s in cyc]
        i = pairs.index(min(pairs))
        out[tuple(pairs[i:] + pairs[:i])] = len(graph.basin[k])
    return out


class Workload:
    name = "worked-examples"

    def setup(self, seed):
        self.inputs = [(name, (DATA / name).read_text(), None) for name in FILES]
        for nc in CANDIDATES:
            for kind, strategy, d in CULTURES:
                spec = CultureSpec(kind, nc, TYPES, strategy, seed=seed, dimension=d)
                for i in range(REPEATS):
                    e = sample_electorate(spec, REPEATS * nc + i)
                    label = f"{kind.value}-{strategy.value}-{nc}c-{i}"
                    self.inputs.append((label, electorate_io.serialize_electorate(e), e))
        self.ops_per_round = len(self.inputs)
        self.first = None

    def run_round(self, r, parts, tracer):
        out = []
        for _, text, _ in self.inputs:
            with parts.part("analysis"):
                e = electorate_io.parse_electorate(text)
                report = majority.condorcet_analysis(e)
                graph = dynamics.build_polling_graph(e, report=report)
                dyn = dynamics.classify(graph, report)
                summary = electorate_io.format_analysis(report, dyn, graph)
                dot = electorate_io.export_dot(graph, dyn)
            out.append((e, report, graph, summary, dot))
        return out

    def check(self, r, out):
        """An analysis fails when any check of its outputs fails."""
        # outputs are a pure function of the inputs: after the first round
        # has been checked against the reference, later rounds must repeat it
        digest = [(summary, dot, {_pair(s): _pair(t) for s, t in graph.successor.items()})
                  for _, _, graph, summary, dot in out]
        if self.first is not None:
            differ = [label for (label, _, _), d, first in zip(self.inputs, digest, self.first) if d != first]
            return [f"round {r}: {label} differs from round 0" for label in differ], len(differ)
        self.first = digest
        problems, failed = [], 0
        for (label, text, sampled), (e, report, graph, summary, dot) in zip(self.inputs, out):
            found = self._check_one(label, text, sampled, e, report, graph, summary, dot)
            problems += [f"{label}: {p}" for p in found]
            failed += bool(found)
        return problems, failed

    def _check_one(self, label, text, sampled, e, report, graph, summary, dot):
        candidates, types = reference.parse_text(text)
        ref = reference.analysis(candidates, types)
        got_succ = {_pair(s): _pair(t) for s, t in graph.successor.items()}
        got_tally = {_pair(s): graph.tally_at(s).as_dict() for s in graph.states}
        problems = checks.successors(got_succ, ref["successor"], ref["tallies"])
        problems += checks.tallies(got_tally, ref["tallies"])
        cycles = _cycles(graph)
        if cycles != ref["basins"]:
            problems.append(f"cycles and basins {cycles}, reference {ref['basins']}")
        if report.condorcet_winner != ref["condorcet_winner"]:
            problems.append(f"Condorcet winner {report.condorcet_winner}, reference {ref['condorcet_winner']}")
        if report.consensual_loser != ref["consensual_loser"]:
            problems.append(f"consensual loser {report.consensual_loser}, reference {ref['consensual_loser']}")
        if sampled is not None and e != sampled:
            problems.append("parse_electorate(serialize_electorate(e)) != e")
        problems += self._check_text(ref, cycles, summary, dot, len(got_succ))
        if label == "lr_cycle.txt":
            problems += self._check_lr_cycle(got_tally, cycles)
        if label == "consensual_loser.txt":
            problems += self._check_loser(got_tally, cycles, report)
        return problems

    @staticmethod
    def _check_text(ref, cycles, summary, dot, n_states):
        problems = []
        lines = summary.splitlines()
        cw = ref["condorcet_winner"] or "none"
        if lines[0] != f"Condorcet winner: {cw}":
            problems.append(f"summary says {lines[0]!r}, reference winner {cw}")
        basins = sorted(int(m) for m in re.findall(r"basin (\d+)/", summary))
        if basins != sorted(cycles.values()) or f"/{n_states}" not in summary:
            problems.append(f"summary basins {basins}, graph {sorted(cycles.values())}")
        edges = {m.groups() for m in map(EDGE.match, dot.splitlines()) if m}
        want = {(w + r, a + b) for (w, r), (a, b) in ref["successor"].items() if (w, r) != (a, b)}
        if edges != want:
            problems.append(f"DOT edges {sorted(edges ^ want)} differ from the reference")
        return problems

    @staticmethod
    def _check_lr_cycle(tallies, cycles):
        problems = [f"tally at {s}: {tallies[s]}, printed {t}"
                    for s, t in LR_CYCLE_TALLIES.items() if tallies[s] != t]
        want = {(("b", "a"), ("d", "a"), ("c", "a")): 9, (("a", "d"),): 3}
        if cycles != want:
            problems.append(f"cycles {cycles}, expected ba -> da -> ca (basin 9/12) and ad")
        return problems

    @staticmethod
    def _check_loser(tallies, cycles, report):
        problems = [f"tally at {s}: {tallies[s]}, printed {t}"
                    for s, t in LOSER_TALLIES.items() if tallies[s] != t]
        shapes = sorted(cycles)
        want = [(("a", "b"), ("c", "a")), (("a", "c"),), (("b", "c"),)]
        if shapes != want:
            problems.append(f"cycles {shapes}, expected {{ab, ca}}, ac and bc")
        if report.consensual_loser != "c":
            problems.append(f"consensual loser {report.consensual_loser}, expected c")
        return problems

    def finish(self):
        return []

    def part_metrics(self, rounds):
        samples = [dt for p in rounds for dt in p.samples["analysis"]]
        return [("analyze_us", statistics.median(samples) * 1e6, "us")]

    def instrument(self, tracer):
        tracer.wrap(electorate_io, "parse_electorate", "electorate_io.parse_us")
        tracer.wrap(majority, "duel_matrix", "majority.duel_us")
        tracer.wrap(dynamics, "duel_matrix", "majority.duel_us")
        tracer.wrap(majority, "condorcet_analysis", "majority.condorcet_us")
        tracer.wrap(dynamics, "build_polling_graph", "dynamics.graph_us")
        tracer.wrap(dynamics, "classify", "dynamics.classify_us")
        tracer.wrap(electorate_io, "format_analysis", "electorate_io.format_us")
        tracer.wrap(electorate_io, "export_dot", "electorate_io.dot_us")

    def layer_metrics(self, tracer, rounds):
        out = {name: tracer.per_call(name) for name in (
            "electorate_io.parse_us", "majority.duel_us", "majority.condorcet_us", "dynamics.graph_us",
            "dynamics.classify_us", "electorate_io.format_us", "electorate_io.dot_us",
        )}
        out["dynamics.graphs_built"] = tracer.calls["dynamics.graph_us"] / len(rounds)
        return out

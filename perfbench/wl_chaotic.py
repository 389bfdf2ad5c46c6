"""chaotic-words: winners words and their symbolic statistics.

A round builds nine words and puts each through ``ks_profile`` (blocks 1
to 16), ``ks_entropy_estimate`` (fit over blocks 4 to 14) and
``detect_eventual_period``:

* ``planar``: ``winners_word`` of the planar reluctance map for the four
  (b-score rule x normalization) configurations, at the default weights
  (2^15 letters each) and at the scaled weights 0.56/0.08/0.6/0.81 (2^14
  letters each), each from its own random start in the unit square;
* ``tent``: ``TentModel.winners_word_exact`` over 2^20 letters from the
  model's generic rational start for the run seed.
"""

from __future__ import annotations

import math
import warnings
from itertools import product

import numpy as np

from pollsim import behaviors, wordstats
from pollsim.behaviors import (
    BScoreRule,
    Normalization,
    PlanarReluctanceMap,
    ReluctanceConfig,
    SafetyFunction,
    SafetyKind,
    TentModel,
)

import checks
import reference
from harness import median_rate

DEFAULT_WEIGHTS = (3.0, 1.0, 3.0, 5.0)
SCALED_WEIGHTS = (0.56, 0.08, 0.6, 0.81)
DEFAULT_LETTERS = 2**15
SCALED_LETTERS = 2**14
TENT_LETTERS = 2**20
MAX_BLOCK = 16
FIT = (4, 14)
ORBIT_CHECK = 2048  # orbit points compared with the reference map
PREFIX = 4096  # letters whose profile is compared with the window counter
DERIVED_TOTAL = ("derived", "total")


class Workload:
    name = "chaotic-words"
    ops_per_round = 9

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.planar = []
        for weights, n in ((DEFAULT_WEIGHTS, DEFAULT_LETTERS), (SCALED_WEIGHTS, SCALED_LETTERS)):
            for rule, norm in product(BScoreRule, Normalization):
                config = ReluctanceConfig(*weights, safety_fn=SafetyFunction(SafetyKind.TWO_CASE, norm),
                                          b_score_rule=rule)
                label = (weights, rule.value, norm.value)
                start = (float(rng.random()), float(rng.random()))
                self.planar.append((label, behaviors.build_planar_map(config), start, n))
        self.tent = behaviors.build_tent_model()
        self.tent_start = self.tent.default_start(seed)
        self.first = None

    def run_round(self, r, parts, tracer):
        out = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with parts.part("planar"):
                for _, model, start, n in self.planar:
                    out.append(_pipeline(wordstats.winners_word(model, start, n).letters))
            with parts.part("tent"):
                out.append(_pipeline(self.tent.winners_word_exact(self.tent_start, TENT_LETTERS)))
        return out

    def check(self, r, out):
        """A word fails when any check of it or of its statistics fails."""
        if self.first is not None:
            differ = [k for k, (got, first) in enumerate(zip(out, self.first)) if got != first]
            return [f"round {r}: word {k} differs from round 0" for k in differ], len(differ)
        self.first = out
        found = [_check_planar(label, model, start, *result)
                 for (label, model, start, _), result in zip(self.planar, out)]
        found.append(self._check_tent(*out[-1]))
        return [p for word in found for p in word], sum(map(bool, found))

    def _check_tent(self, word, profile, fit, period):
        start = self.tent_start
        problems = checks.word_equals(word, reference.tent_word(start.numerator, start.denominator, TENT_LETTERS),
                                      "tent word")
        problems += _check_statistics("tent", word, profile, period)
        if abs(fit.slope - math.log(2)) > 0.05:
            problems.append(f"tent slope {fit.slope}, log 2 = {math.log(2)}")
        balance = word.count("b") / len(word)
        if abs(balance - 0.5) > 0.01:
            problems.append(f"tent letter balance {balance}")
        return problems

    def finish(self):
        return []

    def part_metrics(self, rounds):
        planar = sum(n for *_, n in self.planar)
        return [
            ("planar_letters_per_s", median_rate(rounds, "planar", planar), "letters/s"),
            ("tent_letters_per_s", median_rate(rounds, "tent", TENT_LETTERS), "letters/s"),
        ]

    def instrument(self, tracer):
        tracer.wrap(PlanarReluctanceMap, "step", "behaviors.planar_step_us")
        tracer.wrap(PlanarReluctanceMap, "winner", "behaviors.planar_winner_us")
        tracer.wrap(TentModel, "winners_word_exact", "behaviors.tent_letter_ns")
        tracer.wrap(wordstats, "winners_word", "wordstats.winners_word_self_s")
        tracer.wrap(wordstats, "ks_profile", "wordstats.ks_profile_s")
        tracer.wrap(wordstats, "ks_entropy_estimate", "wordstats.fit_us")
        tracer.wrap(wordstats, "detect_eventual_period", "wordstats.period_s")

    def layer_metrics(self, tracer, rounds):
        n = len(rounds)
        return {
            "behaviors.planar_step_us": tracer.per_call("behaviors.planar_step_us"),
            "behaviors.planar_winner_us": tracer.per_call("behaviors.planar_winner_us"),
            "behaviors.tent_letter_ns": tracer.time["behaviors.tent_letter_ns"] / (n * TENT_LETTERS) * 1e9,
            "wordstats.winners_word_self_s": tracer.time["wordstats.winners_word_self_s"] / n,
            "wordstats.ks_profile_s": tracer.time["wordstats.ks_profile_s"] / n,
            "wordstats.fit_us": tracer.per_call("wordstats.fit_us"),
            "wordstats.period_s": tracer.time["wordstats.period_s"] / n,
        }


def _pipeline(word):
    profile = wordstats.ks_profile(word, max_block=MAX_BLOCK)
    return word, profile, wordstats.ks_entropy_estimate(profile, FIT), wordstats.detect_eventual_period(word)


def _check_statistics(label, word, profile, period):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prefix = wordstats.ks_profile(word, n=PREFIX, max_block=10)
    problems = checks.profile_matches(prefix, word[:PREFIX], label)
    problems += checks.profile_bounds(profile, len(set(word)), label)
    problems += checks.period_verified(word, period, label)
    return problems


def _check_planar(label, model, start, word, profile, fit, period):
    weights, rule, norm = label
    problems = []
    s = start
    for k in range(ORBIT_CHECK):
        va, vb, vc = reference.planar_scores(*s, weights, rule)
        top = sorted((va, vb, vc))
        tie = top[2] - top[1] <= checks.TIE
        if model.winner(s) != word[k] or (not tie and reference.planar_winner(*s, weights, rule) != word[k]):
            problems.append(f"{label} letter {k} at {s}: {word[k]}, reference {reference.planar_winner(*s, weights, rule)}")
            break
        nxt = model.step(s)
        want = reference.planar_step(*s, weights, rule, norm)
        if abs(nxt[0] - want[0]) > checks.TOL or abs(nxt[1] - want[1]) > checks.TOL:
            problems.append(f"{label} step {k} from {s}: {nxt}, reference {want}")
            break
        s = nxt
    problems += _check_statistics(str(label), word, profile, period)
    if (rule, norm) == DERIVED_TOTAL and weights == SCALED_WEIGHTS:
        if period is None or period[1] != 22:
            problems.append(f"scaled derived/total period {period}, expected 22")
        else:
            _, distinct = reference.window_profile(word[period[0]:], MAX_BLOCK)
            if set(distinct[11:]) != {22}:
                problems.append(f"scaled derived/total tail S(12..16) = {distinct[11:]}, expected 22")
    if (rule, norm) == DERIVED_TOTAL and weights == DEFAULT_WEIGHTS:
        if not (0.15 <= fit.slope <= 0.45 and fit.residual_rms < 0.02):
            problems.append(f"default derived/total slope {fit.slope}, residual {fit.residual_rms}")
    return problems

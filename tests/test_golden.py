"""Golden sha256 digests of CLI outputs and of a planar winners word.

The grid, orbit, entropy and word digests were taken before continuous
stepping and the orbit loops were folded into one path; the half-fallback
ones were checked against a computation without the margin gate's memo,
which once let a step reuse the gate answer of the step before.  The
Monte Carlo CSV and analyze/DOT digests were taken before preferences
became rank vectors and the poll graph was decomposed on pair indices;
the `analyze --strong` ones before the poll graph kept only its
pair-index arrays and the Condorcet report was derived from one majority
relation.  The `ks_profile` digests (the entropies' `float.hex` and the
distinct-factor counts) were taken before the profile came from one sort
of packed window codes.  The planar words under the literal/raw, rational
and simple-margin configurations and the reluctance entropy output were
taken before a planar word came from one n-step loop of the map.  The
spatial d = 400 MLR and d = 3 LR Monte Carlo digests were taken before
the trials of a slice were seeded together and sorted as one array, and
the d = 400 LR and d = 50 MLR ones before a slice's spatial trials were
drawn in blocks sized by one bound.  The reluctance grids and the rate-1
two-bloc grid and orbits were taken before `grid` ran every start's
orbit as one batch (`run_many`) and before a rate-1 kernel answered its
own unit states from a table built with it; the `--p 1` orbit under
`keep` stays at its start, and under `apply` it reaches a unit state
after one step and stays there."""

import hashlib
from pathlib import Path

import pytest

from pollsim import (
    BScoreRule,
    LinearClamped,
    Normalization,
    RationalDecay,
    ReluctanceConfig,
    SafetyFunction,
    SafetyKind,
    build_planar_map,
    build_tent_model,
    ks_profile,
    winners_word,
)
from pollsim.cli import main

GRID = ["grid", "--model", "twobloc", "--res", "30", "--iters", "8"]
RELUCTANCE_GRID = ["grid", "--model", "reluctance", "--res", "30", "--iters", "8"]
DATA = Path(__file__).parent / "data"
TWOBLOC = ["cpd-orbit", "--model", "twobloc", "--steps", "300", "--start", "0.3,0.7"]

OUTPUTS = {
    "grid-keep": (GRID + ["--fallback", "keep"],
                  "88e233131300cd8c147469b21e017f19e0e70942ec137ade41a5be7ed88926e4"),
    "grid-apply": (GRID + ["--fallback", "apply"],
                   "7932c6c66be23f10305c17d734ce8a076874592b2b44d185c717fb76d6458812"),
    "grid-half": (GRID + ["--fallback", "half"],
                  "b5aff8cb4966d8fe3a1be856bd936ee2149067e065f8ff7f4dae82726f2bc722"),
    "grid-twobloc-p1-apply": (GRID + ["--p", "1", "--fallback", "apply"],
                              "8b1406612e4fad636542bf8f2082b741192cc937a8df127e278f8e014cf736ec"),
    "grid-reluctance": (RELUCTANCE_GRID,
                        "80be6201ab48e4b81ea1dc3f52ae0ff5e135eef6fb1c706fc75fe46ae332cc59"),
    "grid-reluctance-literal-raw-rational": (RELUCTANCE_GRID + ["--vb", "literal", "--norm", "raw",
                                                                "--collab", "rational"],
                                             "7f9f3dd2d4fafb5cd41db342483a10ed24684629401a0ff17e99911ea17995b1"),
    "orbit-twobloc": (TWOBLOC,
                      "a246da4c25b3f7b3d2c6e7a604ada41a886ac625d02fdfb8e143399469bd7031"),
    "orbit-twobloc-p1": (TWOBLOC + ["--p", "1"],
                         "a246da4c25b3f7b3d2c6e7a604ada41a886ac625d02fdfb8e143399469bd7031"),
    "orbit-twobloc-p1-apply": (TWOBLOC + ["--p", "1", "--fallback", "apply"],
                               "98b99b657e17cfbd12eba6db22e559f7ce497673d8d5fa28806f8affb2a63d2b"),
    "orbit-twobloc-half": (TWOBLOC + ["--fallback", "half", "--keep-every", "3"],
                           "222ac4974bce2e0aad9d23cadae5b144ad9badbf4219d73681aa328fd4d8c5f8"),
    "orbit-reluctance": (["cpd-orbit", "--model", "reluctance", "--steps", "300", "--keep-every", "7"],
                         "8470369a78e492aff51d2eb2c50199319a0e8e80bc978f39492c666624423a8b"),
    "orbit-tent": (["cpd-orbit", "--model", "tent", "--steps", "300", "--seed", "3"],
                   "d33f7227c2c987602178d3fabce9a1f287828e6be10dc0e41b657ea5a3667937"),
}

MC = ["mc", "--trials", "300", "--jobs", "1"]
MC_OUTPUTS = {
    "mc-impartial-lr": (MC + ["--culture", "impartial", "--strategy", "lr", "--candidates", "5",
                              "--types", "15", "--seed", "11"],
                        "20c85deabd71e1a850fefc17edb39c93057fb6939840f07ce0457ac2f3a1224d"),
    "mc-impartial-mlr": (MC + ["--culture", "impartial", "--strategy", "mlr", "--candidates", "5",
                               "--types", "15", "--seed", "12"],
                         "6a22db5f733abc39315eca49b09ab118bb1e646bd156133aad5c07b64b1eb5fd"),
    "mc-spatial-d1-mlr": (MC + ["--culture", "spatial", "--dim", "1", "--strategy", "mlr",
                                "--candidates", "6", "--types", "20", "--seed", "13"],
                          "78ee87567c4becdf0c7168e5c3591fdb628ea004c5e1834e4098e0e0199c20db"),
    # one trial per sampler pass: a d = 400 trial's draws fill the block bound
    "mc-spatial-d400-mlr": (MC + ["--culture", "spatial", "--dim", "400", "--strategy", "mlr",
                                  "--candidates", "6", "--types", "20", "--seed", "14"],
                            "4b6c5b893ac4af7802a0e830b70d6703b0c19b77827c2662478dabb4274142fd"),
    "mc-spatial-d3-lr-8c": (MC + ["--culture", "spatial", "--dim", "3", "--strategy", "lr",
                                  "--candidates", "8", "--types", "20", "--seed", "15"],
                            "3c6ae475204620d681fe286dd42be23cda85ce862768a6d6c86ac10eea417559"),
    "mc-spatial-d400-lr": (MC + ["--culture", "spatial", "--dim", "400", "--strategy", "lr",
                                 "--candidates", "6", "--types", "20", "--seed", "16"],
                           "772cec6eabfc47fa9dfe6600222ba812d5b010c6e4b67f0ed8b4de6abb00dfbc"),
    # a block of 10 trials per sampler pass, and an uneven last block in every slice
    "mc-spatial-d50-mlr": (MC + ["--culture", "spatial", "--dim", "50", "--strategy", "mlr",
                                 "--candidates", "6", "--types", "20", "--seed", "17"],
                           "17d0e6e688d57234f25006aa8dd02a3805b3316767a9e729f2155bc0b5c43b89"),
}

# the summary printed by `pollsim analyze` followed by its DOT file
ANALYZE_OUTPUTS = {
    "lr_cycle": "e60525a61a1eba58f12087e589e41f92a6741d82972d817dcc02d184a1d69412",
    "consensual_loser": "bf02c5d1690638105d84ea094ef4323f66477e9298f07b6522bbf8798084b4cf",
    "two_bloc": "bf02c5d1690638105d84ea094ef4323f66477e9298f07b6522bbf8798084b4cf",
}
# the same under `--strong`, the strict-majority Condorcet definition
STRONG_OUTPUTS = {
    "lr_cycle": "e60525a61a1eba58f12087e589e41f92a6741d82972d817dcc02d184a1d69412",
    "consensual_loser": "d12b92c86d248ad7c98729720dce50c1fa711a3da81a7452feffb5b100348592",
    "two_bloc": "c33c66805abcfe01b847e87b3c295105575f5a80fbe831ead07503bc9714bf7e",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _profile_digest(profile) -> str:
    text = ",".join(h.hex() for h in profile.entropy) + ";" + ",".join(map(str, profile.distinct))
    return _digest(text.encode())


@pytest.mark.parametrize("name", [*OUTPUTS, *MC_OUTPUTS])
def test_cli_output_digest(name, tmp_path):
    argv, digest = {**OUTPUTS, **MC_OUTPUTS}[name]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert _digest(out.read_bytes()) == digest


def _analyze_digest(argv, capsys, tmp_path) -> str:
    dot = tmp_path / "graph.dot"
    assert main(["analyze", *argv, "--dot", str(dot)]) == 0
    return _digest((capsys.readouterr().out + dot.read_text()).encode())


@pytest.mark.parametrize("name", ANALYZE_OUTPUTS)
def test_analyze_dot_digest(name, capsys, tmp_path):
    assert _analyze_digest([str(DATA / f"{name}.txt")], capsys, tmp_path) == ANALYZE_OUTPUTS[name]


@pytest.mark.parametrize("name", STRONG_OUTPUTS)
def test_analyze_strong_dot_digest(name, capsys, tmp_path):
    assert _analyze_digest([str(DATA / f"{name}.txt"), "--strong"], capsys, tmp_path) == STRONG_OUTPUTS[name]


def test_entropy_twobloc_half_digest(capsys, tmp_path):
    # the summary line and the profile CSV of a two-bloc winners word
    out = tmp_path / "profile.csv"
    assert main(["entropy", "--model", "twobloc", "--fallback", "half", "--steps", "20000",
                 "--lmax", "8", "--fit", "2:7", "--out", str(out)]) == 0
    text = capsys.readouterr().out + out.read_text()
    assert _digest(text.encode()) == "462d9856a7013552e592c4a55a338652ac14f69b6ed2cdae20330cbbf7d9895f"


def test_planar_winners_word_digest():
    # derived b-score rule, total-weight normalization: the defaults
    word = winners_word(build_planar_map(ReluctanceConfig()), (0.5, 0.5), 2**14).letters
    assert len(word) == 2**14
    assert _digest(word.encode()) == "2d007f3cc8b9068b919dbe910b3637b0f0d86086a88c3f7910dc18a88df30b82"
    assert _profile_digest(ks_profile(word)) == "41d8ca40541d7f2de3bf9a87db189a6b10ec9ad1d37ad9d6c088ed076a685af6"


PLANAR_WORDS = {  # 2^14 letters from (0.3, 0.7)
    "literal-raw": (ReluctanceConfig(0.56, 0.08, 0.6, 0.81,
                                     safety_fn=SafetyFunction(SafetyKind.TWO_CASE, Normalization.RAW),
                                     collaboration=LinearClamped(2.0), b_score_rule=BScoreRule.LITERAL),
                    "dc518623b801ca7333d50949a817309099c969564a3a01288b32f01c4482f805"),
    "rational": (ReluctanceConfig(collaboration=RationalDecay()),
                 "5bf077c39adafa3628f4c720d3a9032fa14630a6ba38f7eea1b6df5436370738"),
    "simple-margin": (ReluctanceConfig(safety_fn=SafetyFunction(SafetyKind.SIMPLE_MARGIN)),
                      "6da890b9605eeb5c1543fdb9f066eeea48c88f793d67205f554abd99a53594f0"),
}


@pytest.mark.parametrize("name", PLANAR_WORDS)
def test_planar_winners_word_digest_per_configuration(name):
    config, digest = PLANAR_WORDS[name]
    word = winners_word(build_planar_map(config), (0.3, 0.7), 2**14).letters
    assert _digest(word.encode()) == digest


def test_entropy_reluctance_digest(capsys, tmp_path):
    # the summary line and the profile CSV of a planar winners word
    out = tmp_path / "profile.csv"
    assert main(["entropy", "--model", "reluctance", "--steps", "65536", "--lmax", "12", "--fit", "4:10",
                 "--start", "0.3,0.7", "--out", str(out)]) == 0
    text = capsys.readouterr().out + out.read_text()
    assert _digest(text.encode()) == "ce2ff9cc5eb7f22adbb7878f7c5e66f4028fdbcf6655f0a8421b298e39d73c20"


def test_tent_profile_digest():
    tent = build_tent_model()
    word = tent.winners_word_exact(tent.default_start(1), 2**20)
    profile = ks_profile(word, max_block=16)
    assert _profile_digest(profile) == "401ac7c9854e64dcebeaf57f0a15305c357a2118e371b595b6e08723cecaa946"

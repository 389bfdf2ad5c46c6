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
after one step and stays there.  The 2^16-letter planar words of
eventually periodic orbits, their end states after 2^16 + 5 steps, and
the raw-normalization reluctance entropy output were taken before the
planar run found an orbit's exact cycle and wrote the rest of the word
by repetition.  The analysis digests of sampled electorates and of names
holding '"' and '\\' were taken before the DOT export and the summary
read the poll graph's pair-index arrays and a preference was parsed in
one pass."""

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
from pollsim.behaviors import _resolved_map
from pollsim.cli import main
from pollsim.cultures import CultureKind, CultureSpec, sample_electorate
from pollsim.dynamics import build_polling_graph, classify
from pollsim.electorate_io import export_dot, format_analysis, parse_electorate, serialize_electorate
from pollsim.majority import condorcet_analysis
from pollsim.strategies import Strategy

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


# `format_analysis` followed by `export_dot` of sampled electorates: 12
# types, trial index = candidate count, seed 30; impartial culture under
# the leader rule and spatial (d = 2) under the modified leader rule
GENERATED_ANALYSES = {
    ("impartial", 3): "32cdd13d37ac444ab16c548251d1fc3090df433ed69faaee50b9987bd66d6bbb",
    ("impartial", 4): "3498014e682183f9d14972b49f0fb259189c7a2c6d386cffdc02dc9a6fa1cdaa",
    ("impartial", 5): "2e10d2f404c5b46472adc568b25c9a333a2ca98b32b8528ba2e52c9f45a62c77",
    ("impartial", 6): "c62e4462b74e3eff7eb6412ac8386e9d1f747b19214b68f3491457bcf28adb13",
    ("impartial", 7): "89c3f859ef8521bd8627bbd8fceabffee51ea97402d802acdfaed9844bc4bbfd",
    ("impartial", 8): "fba2a54872c2699f6a8204c7165cd17d6e150c7430b5cf3d022915be2bba0186",
    ("impartial", 9): "d57f9e1f35dc74377f6b26f6304d9fff1e47ecb887a45abb67dfa6b7af5faeaf",
    ("impartial", 10): "2c65dfb09fce03942594837b70b497b09bc832f77f38021e549ca5d2664cf64f",
    ("impartial", 11): "49a2df40725ea3a8aa33b86cba307477a1ace13b87bef75c29857f7796dec43b",
    ("impartial", 12): "085d46fa26412232c3cba90d9a826b5b8c3d5eb8491df1843d5754ec69f65f28",
    ("spatial", 3): "828d102b1ac8efdda4bbc1815bc1e12966f1fa725c441050dbcf478739e57469",
    ("spatial", 4): "6e1e790066ed3c8ce14161e66fed6d45dec808412bc1a04d705cfe75e51e8ca3",
    ("spatial", 5): "05c5c9156b8279f419c04678898c4d4e1b08b355b0064eeed9a6c5071dd06f55",
    ("spatial", 6): "31344992c6b6f42f4e460622c8b2a695a9a44090fb71b0f4c90653787369d3c2",
    ("spatial", 7): "ba37db7441837e915c2629bec139057f3a8a07d0075120c8f63b02bd225eb910",
    ("spatial", 8): "be0d848825123bd1f15cf0032d3aece1db5d2af47852800d5c8667eeb19df277",
    ("spatial", 9): "9f407e88e361e38c044022115f6f9636e7ef287f86dd4a80e1c7439d92681b3a",
    ("spatial", 10): "f818af476333239c054607eac2a8d1f2d40bd32e8b25df878d777cc2108c62d0",
    ("spatial", 11): "3a9c06277e304c5d8aa4547135a3320d99060f920ce1d410822663e0617387e1",
    ("spatial", 12): "b9612908a6c98957cbb7379e897a80a8f2d3f97b9e21135f3c9fb01a3cdef16f",
}
_CULTURES = {"impartial": (CultureKind.IMPARTIAL, Strategy.LEADER_RULE, 0),
             "spatial": (CultureKind.SPATIAL, Strategy.MODIFIED_LEADER_RULE, 2)}

# the worked examples of tests/data with multi-character names holding '"'
# and '\', whose state labels join winner and runner-up with '>'
ESCAPED_TEXTS = {
    "lr_cycle": (r'''candidates: a" \b "c\ d\"
type T: a">\b>"c\>d\" 100 LR
type U: \b>a">"c\>d\" 1000 LR
type X: \b>"c\>a">d\" 1004 LR
type V: "c\>a">d\">\b 1001 LR
type Y: "c\>d\">a">\b 1008 LR
type W: d\">a">\b>"c\ 1002 LR
type Z: d\">\b>a">"c\ 1016 LR
''', "8b21af83b44da82e9986fb782172fcb1ca08d6364e55869361986f2666fa246a"),
    "consensual_loser": (r'''candidates: a" \b "c\
type Z: a">\b>"c\ 101 MLR
type Y: a">\b="c\ 2 MLR
type X: \b>a">"c\ 100 MLR
type W: "c\>a"=\b 104 MLR
''', "095404672129fbf4bc02fc179d55ca695add4e0f8371f4318d4f4574db621f98"),
}


def _analysis_digest(text: str) -> str:
    e = parse_electorate(text)
    report = condorcet_analysis(e)
    graph = build_polling_graph(e, report)
    dynamics = classify(graph, report)
    return _digest((format_analysis(report, dynamics, graph) + export_dot(graph, dynamics)).encode())


@pytest.mark.parametrize("culture, n", GENERATED_ANALYSES)
def test_generated_electorate_analysis_digest(culture, n):
    kind, strategy, dimension = _CULTURES[culture]
    e = sample_electorate(CultureSpec(kind, n, 12, strategy, seed=30, dimension=dimension), n)
    assert _analysis_digest(serialize_electorate(e)) == GENERATED_ANALYSES[culture, n]


@pytest.mark.parametrize("name", ESCAPED_TEXTS)
def test_escaped_names_analysis_digest(name):
    text, digest = ESCAPED_TEXTS[name]
    assert _analysis_digest(text) == digest


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


RAW = SafetyFunction(SafetyKind.TWO_CASE, Normalization.RAW)
CYCLE_WORDS = {  # 2^16 letters from (0.3, 0.7), and float.hex of the state after 2^16 + 5 steps
    # a 22-cycle from state 472 on
    "scaled-derived-total": (ReluctanceConfig(0.56, 0.08, 0.6, 0.81),
                             "c6363a31fdb789933d8196bafcacaa0b4930ba85b19cc69c6a1c140be056e89a",
                             ("0x1.401ad9672d0d0p-1", "0x1.4feb290f5d99ep-1")),
    # the fixed point (0, 0) from state 2 on
    "derived-raw": (ReluctanceConfig(safety_fn=RAW),
                    "bada0be233c45cf4ec69ae4abbcc4b0f002185c788e383ce10a85de09507461f",
                    ("0x0.0p+0", "0x0.0p+0")),
    "literal-raw": (ReluctanceConfig(safety_fn=RAW, b_score_rule=BScoreRule.LITERAL),
                    "2b83fd805e3eaec4aeee5f259f34ced487ff8d8f32d15d8e60140d6266dd9c39",
                    ("0x0.0p+0", "0x0.0p+0")),
}


@pytest.mark.parametrize("name", CYCLE_WORDS)
def test_eventually_periodic_word_and_end_state_digest(name):
    config, digest, end = CYCLE_WORDS[name]
    word = winners_word(build_planar_map(config), (0.3, 0.7), 2**16).letters
    assert _digest(word.encode()) == digest
    _, state = _resolved_map(config)((0.3, 0.7), 2**16 + 5)
    assert tuple(v.hex() for v in state) == end


def test_entropy_reluctance_raw_digest(capsys, tmp_path):
    # the summary line and the profile CSV of a word whose orbit is fixed from state 2 on
    out = tmp_path / "profile.csv"
    assert main(["entropy", "--model", "reluctance", "--norm", "raw", "--steps", "65536",
                 "--start", "0.3,0.7", "--out", str(out)]) == 0
    text = capsys.readouterr().out + out.read_text()
    assert _digest(text.encode()) == "7e7d2db185f6f21eca0dfaf321e1e74150f23b18e52e2b5433224b94cd0be483"


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

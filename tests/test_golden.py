"""Golden sha256 digests of CLI outputs and of a planar winners word,
taken before continuous stepping and the orbit loops were folded into
one path.  The half-fallback digests were checked against a computation
without the margin gate's memo, which once let a step reuse the gate
answer of the step before."""

import hashlib

import pytest

from pollsim import ReluctanceConfig, build_planar_map, winners_word
from pollsim.cli import main

GRID = ["grid", "--model", "twobloc", "--res", "30", "--iters", "8"]
TWOBLOC = ["cpd-orbit", "--model", "twobloc", "--steps", "300", "--start", "0.3,0.7"]

OUTPUTS = {
    "grid-keep": (GRID + ["--fallback", "keep"],
                  "88e233131300cd8c147469b21e017f19e0e70942ec137ade41a5be7ed88926e4"),
    "grid-apply": (GRID + ["--fallback", "apply"],
                   "7932c6c66be23f10305c17d734ce8a076874592b2b44d185c717fb76d6458812"),
    "grid-half": (GRID + ["--fallback", "half"],
                  "b5aff8cb4966d8fe3a1be856bd936ee2149067e065f8ff7f4dae82726f2bc722"),
    "orbit-twobloc": (TWOBLOC,
                      "a246da4c25b3f7b3d2c6e7a604ada41a886ac625d02fdfb8e143399469bd7031"),
    "orbit-twobloc-half": (TWOBLOC + ["--fallback", "half", "--keep-every", "3"],
                           "222ac4974bce2e0aad9d23cadae5b144ad9badbf4219d73681aa328fd4d8c5f8"),
    "orbit-reluctance": (["cpd-orbit", "--model", "reluctance", "--steps", "300", "--keep-every", "7"],
                         "8470369a78e492aff51d2eb2c50199319a0e8e80bc978f39492c666624423a8b"),
    "orbit-tent": (["cpd-orbit", "--model", "tent", "--steps", "300", "--seed", "3"],
                   "d33f7227c2c987602178d3fabce9a1f287828e6be10dc0e41b657ea5a3667937"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", OUTPUTS)
def test_cli_output_digest(name, tmp_path):
    argv, digest = OUTPUTS[name]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert _digest(out.read_bytes()) == digest


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

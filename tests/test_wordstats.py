import math
import re
import string
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pollsim import wordstats
from pollsim import (
    build_planar_map,
    build_tent_model,
    detect_eventual_period,
    ks_entropy_estimate,
    ks_profile,
    winners_word,
)

# the attractor's repeating winners block for weights (x,y,z,w) =
# (0.6, 0.08, 0.56, 0.81) under the derived/total configuration
PERIODIC_BLOCK = "aaacacaaacacacacaaaaaa"


def coin_word(n, seed=0):
    rng = np.random.default_rng(seed)
    return "".join("ab"[b] for b in rng.integers(0, 2, size=n))


def test_periodic_block_has_22_factors_from_length_10():
    distinct = ks_profile(PERIODIC_BLOCK * 200, max_block=16).distinct
    for block in (10, 12, 16):
        assert distinct[block - 1] == 22
    assert distinct[8 - 1] == 21
    assert distinct[7 - 1] == 17


def test_ks_profile_constant_word():
    p = ks_profile("a" * 4000, max_block=10)
    assert all(h == 0.0 for h in p.entropy)
    assert all(s == 1 for s in p.distinct)
    fit = ks_entropy_estimate(p, (4, 10))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.plateau_suspected


def test_ks_profile_coin_word():
    word = coin_word(2**20)
    p = ks_profile(word, max_block=12)
    for block in range(1, 13):
        assert p.entropy[block - 1] == pytest.approx(block * math.log(2), rel=0.01)


def test_ks_profile_warns_when_blocks_too_long():
    with pytest.warns(UserWarning):
        ks_profile(coin_word(2000), max_block=14)


def _unique_profile(text, n, max_block):
    """(entropy float.hex, distinct counts) of the reference: the
    `_window_codes` codes of each block length through `np.unique`."""
    counts = [np.unique(c, return_counts=True)[1]
              for c in wordstats._window_codes(text[:n], n, max_block)]
    return [wordstats._entropy_from_counts(c).hex() for c in counts], [len(c) for c in counts]


def _largest_exact_block(letters):
    """The largest block length whose codes pass the 2**62 check."""
    k = 1
    while max(2, letters) ** (k + 1) <= 2**62:
        k += 1
    return k


@st.composite
def window_cases(draw):
    """(word, n, block) over 1-26 letters with n below or above the word's
    length; block lengths include those whose packed windows take 32, 33,
    64 and 65 bits and both sides of the exact-code limit."""
    alphabet = draw(st.permutations(string.ascii_lowercase))[:draw(st.integers(1, 26))]
    word = draw(st.text(st.sampled_from(alphabet), min_size=1, max_size=300))
    n = draw(st.one_of(st.integers(1, len(word)), st.integers(len(word), len(word) + 80)))
    letters = len(set(word[:n]))
    bits = letters.bit_length()
    edges = [t // bits for t in (32, 33, 64, 65) if t % bits == 0]
    top = _largest_exact_block(letters)
    block = draw(st.one_of(st.integers(1, min(n, 20)), st.sampled_from(edges + [top, top + 1])))
    return word, n, block


def _check_profile(word, n, max_block):
    try:
        expected = _unique_profile(word, n, max_block)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            ks_profile(word, n, max_block)
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = ks_profile(word, n, max_block)
    assert ([h.hex() for h in p.entropy], list(p.distinct)) == expected
    assert p.blocks == tuple(range(1, max_block + 1))
    sparse = expected[1][-1] > (n - max_block + 1) / 10
    assert [w.category for w in caught] == [UserWarning] * sparse


@settings(deadline=None, max_examples=400)
@given(window_cases())
@example(("ab" * 100, 200, 16))  # 32 bits: the widest uint32 codes
@example(("ab" * 100, 200, 17))  # 34 bits: uint64
@example(("abcd" * 50, 200, 11))  # 33 bits
@example(("abc" * 50, 150, 32))  # 64 bits: the widest packed codes
@example(("abcdefghijklmnop" * 10, 160, 13))  # 65 bits: the reference path
@example(("a" * 40, 70, 33))  # one letter, n above the word's length
@example(("a" * 40, 70, 62))  # 62 bits, the last exact block of one letter
@example(("a" * 40, 70, 63))  # base 2: too long for exact codes
@example(("ab", 10, 5))  # every window of the top lengths runs past the end
@example(("abc", 2, 3))  # max_block above n
def test_ks_profile_equals_unique_reference(case):
    _check_profile(*case)


def test_ks_profile_keeps_its_errors():
    with pytest.raises(ValueError, match="need 1 <= max_block <= n"):
        ks_profile("abab", max_block=5)
    with pytest.raises(ValueError, match="max_block too long"):
        ks_profile("ab" * 40, max_block=63)
    with pytest.raises(ValueError, match="max_block too long"):
        ks_profile(string.ascii_lowercase * 2, max_block=14)
    for word in ("ab" * 40, string.ascii_lowercase * 2):
        _check_profile(word, len(word), _largest_exact_block(len(set(word))))


def test_ks_fit_recovers_linear_slope():
    p = ks_profile(coin_word(2**18, seed=3), max_block=14)
    fit = ks_entropy_estimate(p, (4, 12))
    assert fit.slope == pytest.approx(math.log(2), abs=0.02)
    assert fit.residual_rms < 0.02
    assert not fit.plateau_suspected and not fit.low_confidence


def test_ks_fit_exact_line():
    # synthetic profile H = 0.3 * block: slope 0.3, zero residual
    from pollsim.wordstats import EntropyProfile

    blocks = tuple(range(1, 17))
    profile = EntropyProfile(blocks, tuple(0.3 * b for b in blocks), tuple(2**min(b, 5) for b in blocks))
    fit = ks_entropy_estimate(profile, (4, 14))
    assert fit.slope == pytest.approx(0.3, abs=1e-12)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)


def test_ks_fit_degenerate_range():
    p = ks_profile("ab" * 100, max_block=8)
    with pytest.raises(ValueError):
        ks_entropy_estimate(p, (4, 5))
    with pytest.raises(ValueError):
        ks_entropy_estimate(p, (4, 14))


def test_periodic_word_plateaus_at_log_22():
    p = ks_profile(PERIODIC_BLOCK * 3000, max_block=16)
    for block in (10, 12, 14, 16):
        assert p.entropy[block - 1] == pytest.approx(math.log(22), abs=1e-3)
    fit = ks_entropy_estimate(p, (10, 16))
    assert abs(fit.slope) < 0.01
    assert fit.plateau_suspected


def test_detect_eventual_period():
    assert detect_eventual_period("ac" * 50) == (0, 2)
    assert detect_eventual_period("a" * 30) == (0, 1)
    assert detect_eventual_period("bca" + "ac" * 40) == (3, 2)
    word = "misc" + PERIODIC_BLOCK * 40
    assert detect_eventual_period(word) == (4, 22)
    assert detect_eventual_period(PERIODIC_BLOCK * 40) == (0, 22)
    assert detect_eventual_period(coin_word(2**16)) is None
    assert detect_eventual_period("ab") is None


@st.composite
def eventually_periodic(draw):
    pre = draw(st.text("abc", max_size=40))
    block = draw(st.text("abc", min_size=1, max_size=15))
    word = pre + block * draw(st.integers(1, 60))
    return word[:len(word) - draw(st.integers(0, len(block) - 1))]  # may end mid-block


def residue_word(seed, n, m, r):
    """n letters drawn from "abc", then ``a`` at every position p with p % m == r."""
    letters = np.frombuffer(b"abc", dtype=np.uint8)[np.random.default_rng(seed).integers(0, 3, size=n)]
    letters[r::m] = ord("a")
    return letters.tobytes().decode("ascii")


@st.composite
def residue_words(draw):
    m = draw(st.integers(2, 8))
    return residue_word(draw(st.integers(0, 2**32 - 1)), draw(st.integers(3, 3000)), m, draw(st.integers(0, m - 1)))


@settings(deadline=None, max_examples=500)
@given(st.one_of(eventually_periodic(), residue_words(), st.text("abc", max_size=100), st.text("ab", max_size=3)))
@example("aab" * 7 + "b")
@example("é" + "ab" * 10)  # not ASCII: the Z-array path
def test_period_search_equals_z_array_reference(word):
    assert detect_eventual_period(word) == wordstats._period_by_z_array(word)


def test_period_search_falls_back_on_a_n_b():
    # every candidate survives the probes and fails only at the last
    # letter, so the full checks run out of budget
    word = "a" * 5000 + "b"
    assert wordstats._period_by_filter(word.encode("ascii")) is False
    assert detect_eventual_period(word) is None
    assert wordstats._period_by_z_array(word) is None


def test_residue_and_planar_words_need_no_z_array(monkeypatch):
    # 161,280 = 3 * 64 * 840 letters: a stride of n / 192 = 840 would
    # leave every multiple of m alive on each residue word below
    n = 161_280
    words = [residue_word(m, n, m, r) for m in range(2, 9) for r in (0, m - 1)]
    words += [coin_word(1000, seed=5) + block * (n // len(block)) for block in ("ab", "abc", PERIODIC_BLOCK)]
    words.append(winners_word(build_planar_map(), (0.5, 0.5), 2**20).letters)
    reference = [wordstats._period_by_z_array(w) for w in words]
    calls = []
    monkeypatch.setattr(wordstats, "_period_by_z_array", lambda text: calls.append(text))
    assert [detect_eventual_period(w) for w in words] == reference
    assert calls == []


def test_period_search_on_long_words():
    word = coin_word(3000, seed=4)
    for w in (word, word + PERIODIC_BLOCK * 400, "ab" * 3000, word[:1000] + "abc" * 3000):
        assert detect_eventual_period(w) == wordstats._period_by_z_array(w)


def test_detect_eventual_period_reports_minimal_pair():
    # period 2 from position 1; period must be minimal, then preperiod
    word = "b" + "ab" * 30
    pre, per = detect_eventual_period(word)
    assert per == 2
    # "b" + "ab"*30 = "bab...": actually 2-periodic from position 0 with
    # pattern "ba", so the minimal preperiod is 0
    assert pre == 0


def test_winners_word_of_embedded_two_cycle():
    # embedding of the 3-candidate example, started at the extreme state
    # whose election gives outcome ab: winners alternate a, c
    from pollsim import PollState, ballot_for, embed_discrete
    from pollsim.presets import consensual_loser_electorate

    e = consensual_loser_electorate()
    dyn = embed_discrete(e)
    s0 = dyn.state_from_shares({
        "Z": {frozenset("ab"): 1.0},
        "X": {frozenset("ab"): 1.0},
    })
    assert dyn.outcome(s0).ranking[:2] == ("a", "b")
    w = winners_word(dyn, s0, 12)
    assert w.letters == "ac" * 6


def test_winners_word_from_sources():
    planar = build_planar_map()
    w = winners_word(planar, (0.5, 0.5), 64)
    assert len(w) == 64 and w.letters[0] == "a"
    assert set(w.letters) <= {"a", "b", "c"}

    tent = build_tent_model()
    from fractions import Fraction

    w2 = winners_word(tent, Fraction(2, 5), 10)
    assert w2.letters == "cbcbcbcbcb"
    exact = tent.winners_word_exact(Fraction(2, 5), 10)
    assert exact == w2.letters


def test_bound_chain_and_subadditivity_on_model_words():
    # 0 <= H(l)/l <= log(S(l))/l <= log(alphabet); S is submultiplicative
    planar = build_planar_map()
    word = winners_word(planar, (0.5, 0.5), 40_000).letters
    p = ks_profile(word, max_block=12)
    n_letters = len(set(word))
    for i, block in enumerate(p.blocks):
        assert 0.0 <= p.entropy[i] <= math.log(p.distinct[i]) + 1e-12
        assert p.distinct[i] <= n_letters ** block
    for i in range(len(p.blocks)):
        for j in range(len(p.blocks)):
            k = i + j + 2
            if k <= p.blocks[-1]:
                assert p.distinct[k - 1] <= p.distinct[i] * p.distinct[j]


def test_period_22_attractor_detected_from_orbit():
    from pollsim import ReluctanceConfig

    cfg = ReluctanceConfig(n_z=0.56, n_y=0.08, n_x=0.6, n_w=0.81)
    m = build_planar_map(cfg)
    word = winners_word(m, (0.5, 0.5), 50_000).letters
    found = detect_eventual_period(word)
    assert found is not None
    pre, per = found
    assert per == 22
    # the repeating block is a rotation of the documented one
    tail = word[pre: pre + 22]
    assert tail in PERIODIC_BLOCK * 2

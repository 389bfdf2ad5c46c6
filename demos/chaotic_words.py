"""Reluctant voters make election outcomes chaotic.

Types Z and X cooperate (approve their second choice) only when the
polls make it look necessary; the cooperating shares (x, z) then follow
a piecewise-linear map of the square.  The sequence of winners along an
orbit -- its "winners word" -- behaves like a random text: its block
entropies grow linearly, and the slope (the entropy rate) is a
quantitative measure of how unpredictable the next winner is.

Also shows how fragile the picture is: rescaling the four bloc weights
slightly turns the chaotic attractor into an attracting period-22 cycle
whose winners word has exactly 22 distinct blocks of every large length.
"""

from pathlib import Path

from pollsim import (
    BScoreRule,
    Normalization,
    ReluctanceConfig,
    SafetyFunction,
    SafetyKind,
    build_planar_map,
    detect_eventual_period,
    ks_entropy_estimate,
    ks_profile,
    winners_word,
)

OUT = Path(__file__).parent / "out"
STEPS = 2**18  # bump to 2**20 for reference-scale estimates


def analyze(tag, weights, rule, norm, steps=STEPS):
    config = ReluctanceConfig(
        n_z=weights[0], n_y=weights[1], n_x=weights[2], n_w=weights[3],
        safety_fn=SafetyFunction(SafetyKind.TWO_CASE, norm),
        b_score_rule=rule,
    )
    word = winners_word(build_planar_map(config), (0.5, 0.5), steps).letters
    profile = ks_profile(word, max_block=16)
    fit = ks_entropy_estimate(profile, (4, 14))
    period = detect_eventual_period(word)
    print(f"{tag:28s} first 44 letters: {word[:44]}")
    print(f"{'':28s} entropy rate {fit.slope:.4f} (residual {fit.residual_rms:.4f})"
          + (f", eventually periodic: preperiod {period[0]}, period {period[1]}" if period else ""))
    return profile


if __name__ == "__main__":
    default = (3.0, 1.0, 3.0, 5.0)
    print("default weights (Z, Y, X, W) =", default)
    profile = analyze("derived scores / normalized", default, BScoreRule.DERIVED, Normalization.TOTAL_WEIGHT)
    analyze("printed scores / raw", default, BScoreRule.LITERAL, Normalization.RAW)

    print("\nslightly rescaled blocs:")
    analyze("weights (.56,.08,.60,.82)", (0.56, 0.08, 0.60, 0.82), BScoreRule.DERIVED, Normalization.TOTAL_WEIGHT)
    analyze("weights (.56,.08,.60,.81)", (0.56, 0.08, 0.60, 0.81), BScoreRule.DERIVED, Normalization.TOTAL_WEIGHT)

    OUT.mkdir(exist_ok=True)
    path = OUT / "entropy_profile.csv"
    with path.open("w") as fh:
        fh.write("block,log_distinct,entropy\n")
        for b, ld, h in zip(profile.blocks, profile.log_distinct, profile.entropy):
            fh.write(f"{b},{ld:.8f},{h:.8f}\n")
    print(f"\nblock-entropy profile of the chaotic run written to {path}")
    print("plot entropy against block length: the points align, and the slope is the entropy rate")

#!/usr/bin/env python3
"""Desk-scale validation: draw from a known distribution, refit, compare.

For each family, samples n points at a fixed seed, runs the moment estimator
on the sample, and prints the generating versus recovered parameters together
with the goodness-of-fit battery.  Useful as a quick end-to-end smoke check:

    python scripts/synth_roundtrip.py --n 2000 --seed 42
"""

import argparse

import lindleyfit as lf
from lindleyfit import estimation, gof
from lindleyfit.errors import LindleyFitError

CASES = [
    lf.lindley1(2.0),
    lf.tpld(0.5, 2.0),
    lf.pld(2.66, 2.28),
    lf.gld(2.0, 3.0, 0.5),
    lf.ngld(2.0, 3.0, 1.5),
    lf.nwl(1.57, 3.77),
    lf.dtl(2.71, 0.019, 1.46),
    lf.lognormal(0.6, 0.9),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--bins", type=int, default=20)
    args = parser.parse_args()

    print(f"{'family':<10} {'generated':<32} {'recovered':<32} {'chi2_red':>8} {'P_KS':>8}")
    for spec in CASES:
        draws = lf.sample(spec, args.n, args.seed)
        cat = lf.MassCatalog(spec.family.value, draws)
        gen = ", ".join(f"{k}={v:.4g}" for k, v in spec.param_dict().items())
        try:
            solve = estimation.estimate(spec.family, lf.summarize(cat))
        except LindleyFitError as exc:
            # sampling noise can push moments off the family's attainable
            # set; report and move on
            print(f"{spec.family.value:<10} {gen:<32} fit failed: {exc}")
            continue
        rep = gof.full_report(draws, solve.spec, args.bins)
        rec = ", ".join(f"{k}={v:.4g}" for k, v in solve.spec.param_dict().items())
        print(f"{spec.family.value:<10} {gen:<32} {rec:<32} {rep.chi2_red:8.3f} {rep.p_ks:8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

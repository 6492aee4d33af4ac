#!/usr/bin/env python3
"""Generate survival / stop-loss curve data for a skewed scale-mixture pair.

Builds two univariate GHSS-style distributions (normal profile, 1/sqrt(z)
scale and 1/z shift maps, Beta(lambda, 1) mixing), runs the analytic st/icx
checks and one coupled Monte Carlo scan for both, and writes the curve CSV that a
plotting tool can turn into the classic survival-crossing pictures.

Examples:
    # dominated pair: same scale, shifted location
    python scripts/make_curves.py --mu2 0.3 --delta2 0.5 --out curves_ordered.csv

    # crossing pair: first scale larger, dominance fails in the tail
    python scripts/make_curves.py --sigma1 2.0 --mu2 0.2 --out curves_crossing.csv
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from lsemix import (
    AlphaBetaMap,
    BetaLambdaOne,
    DensityGenerator,
    GeneratorFamily,
    LseDistribution,
    McConfig,
    OrderKind,
    check_order,
    stoploss_dominance,
    verify_st,
)
from lsemix.cli import _curve_csv


def build(mu: float, sigma: float, delta: float, lam: float) -> LseDistribution:
    return LseDistribution(
        mu=np.array([mu]),
        sigma=np.array([[sigma ** 2]]),
        delta=np.array([delta]),
        generator=DensityGenerator(GeneratorFamily.NORMAL),
        ab_map=AlphaBetaMap.skew_slash(),
        mixing=BetaLambdaOne(lam),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mu1", type=float, default=0.0)
    parser.add_argument("--mu2", type=float, default=0.3)
    parser.add_argument("--sigma1", type=float, default=1.0)
    parser.add_argument("--sigma2", type=float, default=1.0)
    parser.add_argument("--delta1", type=float, default=0.2)
    parser.add_argument("--delta2", type=float, default=0.5)
    parser.add_argument("--lam", type=float, default=3.0)
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--out", default="curves.csv")
    args = parser.parse_args(argv)

    d1 = build(args.mu1, args.sigma1, args.delta1, args.lam)
    d2 = build(args.mu2, args.sigma2, args.delta2, args.lam)
    for order in (OrderKind.ST, OrderKind.ICX):
        report = check_order(d1, d2, order)
        print(f"analytic {order.value}: {report.verdict.value}")

    cfg = McConfig(sample_count=args.samples, seed=args.seed)
    # one scan gives both verdicts, as in `lsemix check`
    st_result = verify_st(d1, d2, cfg)
    icx_result = stoploss_dominance(st_result.curve, cfg.confidence_multiplier)
    print(f"monte carlo st: {'pass' if st_result.passed else 'FAIL'} "
          f"(max violation {st_result.max_violation:.3e})")
    print(f"monte carlo icx: {'pass' if icx_result.passed else 'FAIL'} "
          f"(max violation {icx_result.max_violation:.3e})")

    with open(args.out, "w", newline="\n") as handle:
        handle.write(_curve_csv(st_result.curve))
    print(f"curves written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

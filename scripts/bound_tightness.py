#!/usr/bin/env python3
"""Monte Carlo tightness sweep: simulated order probabilities against the
closed-form lower/upper bounds, for the hostile and adaptive strategies.
The last line gives the sweep's wall time.

Usage:
    python scripts/bound_tightness.py [--trials 1000000] [--out results/tightness.csv]
"""

import argparse
import sys
import time
from fractions import Fraction

import numpy as np

from fairorder.analysis import (
    ADAPTIVE_UPPER,
    LOWER_BOUND,
    order_prob_bounds,
    order_prob_monte_carlo,
)
from fairorder.harness import TableResult, emit_csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1_000_000)
    parser.add_argument("--out", default="results/tightness.csv")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(13)
    result = TableResult(
        header=("n", "alpha", "strategy", "estimate", "stderr", "target", "sigmas")
    )
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        for alpha in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2)):
            lower, upper = order_prob_bounds(n, alpha)
            for strategy, target in ((LOWER_BOUND, lower), (ADAPTIVE_UPPER, upper)):
                est, se = order_prob_monte_carlo(
                    strategy, n, float(alpha), tuple(range(n)), args.trials, rng
                )
                sigmas = abs(est - float(target)) / max(se, 1e-12)
                result.rows.append(
                    (n, str(alpha), strategy, f"{est:.6f}", f"{se:.6f}",
                     f"{float(target):.6f}", f"{sigmas:.2f}")
                )
                print(result.rows[-1])
    elapsed = time.perf_counter() - t0
    emit_csv(result, args.out)
    print(f"wrote {args.out}")
    print(f"{len(result.rows)} estimates of {args.trials} trials in {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every bundled experiment config and write its CSV under results/.

Usage:
    python scripts/run_experiments.py [--only geo_bias,sandwich] [--trials N]

A full run took 3.0-3.3 s wall in four runs on 2 cores of a shared Intel
Xeon under Python 3.11 and numpy 2.4.6 (geo_bias 1.3-1.5 s,
tradeoff_curve 1.3-1.5 s, the rest under 0.3 s together), alternated
with four runs of the previous version at 3.4-4.4 s; the same host has
taken 6.0-6.7 s at busy times, so its speed swings about twofold.
Every table cell is counted in one batch, command ids are hashed only
where they can change an order, a bercow trial does little besides its
two hashes per command, a cell whose commands' key ranges cannot overlap
repeats one order with no per-trial work, and a leader cell seeds all
its trials' generators in one pass before numpy draws each trial's
rotation (a list shuffle and one bounded integer).  Most of the time
is the leader and bercow cells' per-trial draws and hashes, which the
CSV bytes fix.  Pass --trials to downscale for a quick look.
"""

import argparse
import sys
import time
from dataclasses import replace
from importlib import resources

from fairorder.harness import emit_csv, parse_config, run_experiment

CONFIGS = ("bounds_table", "geo_bias", "tradeoff_curve", "sandwich", "liquidation")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", help="comma-separated subset of configs to run")
    parser.add_argument("--trials", type=int, help="override trial count for a quick pass")
    args = parser.parse_args(argv)
    wanted = set(args.only.split(",")) if args.only else set(CONFIGS)

    config_dir = resources.files("fairorder.data") / "configs"
    for name in CONFIGS:
        if name not in wanted:
            continue
        with resources.as_file(config_dir / f"{name}.cfg") as path:
            config = parse_config(path)
        if args.trials:
            config = replace(config, trials=args.trials)
        t0 = time.time()
        result = run_experiment(config)
        emit_csv(result, config.output)
        print(f"{name:15s} -> {config.output}  ({time.time() - t0:.1f}s, {len(result.rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

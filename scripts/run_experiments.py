#!/usr/bin/env python3
"""Run every bundled experiment config and write its CSV under results/.

Usage:
    python scripts/run_experiments.py [--only geo_bias,sandwich] [--trials N] [--jobs N]
    python scripts/run_experiments.py --check [--only ...] [--jobs N]

The trials of each experiment are counted in chunks, one trial range per
job, on a pool of --jobs worker processes (default: the usable CPUs, at
most 4); --jobs 1 counts the same chunks in this process.  A closed-form
table (bounds_table) counts no trials and is made in this process.  A trial's
order does not depend on which chunk or process counts it, so the summed
counts, and every CSV byte, are the same at any --jobs.  --check
regenerates the selected configs at their full trials in memory,
compares each CSV byte for byte with the committed file, names each that
differs, exits 1 if any does and writes nothing.  Pass --trials to
downscale for a quick look.

In 16 alternating runs on 2 cores of a shared Intel Xeon under Python
3.11 and numpy 2.4.6, a full run took 2.23-3.74 s wall (median 3.10) at
the default 2 jobs and 3.13-5.74 s (median 4.30) at --jobs 1, and the
default was faster in 15 of the 16; the previous, serial version took
2.95-5.56 s (median 4.08) alongside.  A multi-process figure tracks host
steal, and the same host's speed swings about twofold.  Most of the time
is the leader and bercow cells' per-trial draws and hashes, which the CSV
bytes fix; each worker also pays about 0.3 s to start and import the
package.
"""

import argparse
import sys
import time
from dataclasses import replace
from importlib import resources

from fairorder.analysis import _MAX_THREADS, _usable_cpus
from fairorder.harness import _SCENARIOS, count_trials, emit_csv, parse_config, tabulate

CONFIGS = ("bounds_table", "geo_bias", "tradeoff_curve", "sandwich", "liquidation")


def _chunks(config, jobs: int) -> list:
    """``config``'s trials as ``jobs`` consecutive ranges, (start, stop)
    each, none empty."""
    bounds = sorted({config.trials * i // jobs for i in range(jobs + 1)})
    return list(zip(bounds, bounds[1:]))


def tables(configs, jobs: int) -> list:
    """Each config's table, its trials counted in chunks on ``jobs`` worker
    processes, or in this process at 1 job.  A closed-form table counts no
    trials and is made here."""
    # a closed-form table has no cells function in the scenario table
    calls = [(config, start, stop) for config in configs if _SCENARIOS[config.scenario][0]
             for start, stop in _chunks(config, jobs)]
    if jobs == 1:
        counted = [count_trials(*call) for call in calls]
    else:
        # imported here: about 30 ms and 1.5 MB that --jobs 1 does not need
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            counted = list(pool.map(count_trials, *zip(*calls)))
    totals = {}  # config -> its first chunk's (cell, counts) pairs, the others added
    for (config, _, _), part in zip(calls, counted):
        total = totals.setdefault(config, part)
        if total is not part:
            for (_, counts), (_, more) in zip(total, part, strict=True):
                counts.update(more)
    return [tabulate(config, totals.get(config, [])) for config in configs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--only", help="comma-separated subset of configs to run")
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--trials", type=int, help="override trial count for a quick pass")
    scale.add_argument("--check", action="store_true",
                       help="compare with the committed CSVs at full trials; write nothing")
    parser.add_argument("--jobs", type=int, default=min(_usable_cpus(), _MAX_THREADS),
                        help="worker processes (default: usable CPUs, at most 4)")
    args = parser.parse_args(argv)
    for flag in ("jobs", "trials"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            parser.error(f"--{flag} must be >= 1, got {value}")
    wanted = set(args.only.split(",")) if args.only else set(CONFIGS)
    if wanted - set(CONFIGS):
        parser.error(f"--only: unknown configs {sorted(wanted - set(CONFIGS))}")

    config_dir = resources.files("fairorder.data") / "configs"
    configs = []
    for name in CONFIGS:
        if name not in wanted:
            continue
        with resources.as_file(config_dir / f"{name}.cfg") as path:
            config = parse_config(path)
        configs.append(replace(config, trials=args.trials) if args.trials else config)

    t0 = time.perf_counter()
    results = tables(configs, args.jobs)
    differs = []
    for config, result in zip(configs, results):
        if args.check:
            try:
                with open(config.output, "rb") as fh:
                    verdict = ("same as" if fh.read() == result.to_csv_text().encode("utf-8")
                               else "DIFFERS from")
            except FileNotFoundError:
                verdict = "MISSING:"
            print(f"{config.scenario:15s} {verdict} {config.output}")
            if verdict != "same as":
                differs.append(config.output)
        else:
            emit_csv(result, config.output)
            print(f"{config.scenario:15s} -> {config.output}  ({len(result.rows)} rows)")
    print(f"{len(configs)} configs in {time.perf_counter() - t0:.1f}s on {args.jobs} job(s)")
    if differs:
        print("differ: " + ", ".join(differs), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

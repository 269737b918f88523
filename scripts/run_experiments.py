#!/usr/bin/env python3
"""Make every output in OUTPUTS and write its CSV under results/.

Usage:
    python scripts/run_experiments.py [--only geo_bias,tightness] [--trials N] [--jobs N]
    python scripts/run_experiments.py --check [--only ...] [--jobs N]

OUTPUTS maps each output's name to how it is made and to its one pin.  The
five bundled configs' trials are counted in chunks, one trial range per
job, on a pool of --jobs worker processes (default: the usable CPUs, at
most 4; --jobs 1 counts here); a trial's order does not depend on its
chunk, so every CSV byte is the same at any --jobs.  Each config is pinned
by its committed results/*.csv.  The tightness sweep is made here after the
pool's chunks, prints its wall time and is pinned by its CSV's SHA-256.
--check makes the selected outputs at full trials in memory, compares each
with its pin, names each that differs, exits 1 if any does and writes
nothing.  --trials downscales, down to each output's floor (tightness: the
Monte Carlo's least, analysis.MIN_MONTE_CARLO_TRIALS).
"""

import argparse
import hashlib
import sys
import time
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from fairorder.analysis import (_MAX_THREADS, ADAPTIVE_UPPER, LOWER_BOUND,
                                MIN_MONTE_CARLO_TRIALS, _usable_cpus, order_prob_bounds,
                                order_prob_monte_carlo)
from fairorder.harness import _SCENARIOS, TableResult, count_trials, emit_csv, parse_config, tabulate


class Output(NamedTuple):
    """How an output is made, by a bundled config counted on the pool or by
    a function of the trial count (None: full) called in this process, and
    its one pin: ``file``, the committed CSV it must equal byte for byte, or
    ``sha256``, its full-trial CSV's digest.  ``floor`` is its least --trials."""

    make: object
    file: str | None = None
    sha256: str | None = None
    floor: int = 1


def tightness(trials=None) -> TableResult:
    """Monte Carlo estimates of Pr[target order] under the hostile and the
    adaptive strategy against the bounds they attain, (1-alpha)^n/n! and
    ((1+alpha)^n - n alpha^n)/n!, at ``trials`` (default 10^6) samples each."""
    trials = trials or 1_000_000
    rng, t0 = np.random.default_rng(13), time.perf_counter()
    result = TableResult(("n", "alpha", "strategy", "estimate", "stderr", "target", "sigmas"))
    for n in (2, 3, 4):
        for alpha in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2)):
            for strategy, target in zip((LOWER_BOUND, ADAPTIVE_UPPER), order_prob_bounds(n, alpha)):
                est, se = order_prob_monte_carlo(strategy, n, float(alpha), tuple(range(n)),
                                                 trials, rng)
                sigmas = abs(est - float(target)) / max(se, 1e-12)
                result.rows.append((n, str(alpha), strategy, f"{est:.6f}", f"{se:.6f}",
                                    f"{float(target):.6f}", f"{sigmas:.2f}"))
    print(f"{len(result.rows)} estimates of {trials} trials in {time.perf_counter() - t0:.2f}s")
    return result


def _bundled(name) -> Output:
    with resources.as_file(resources.files("fairorder.data") / "configs" / f"{name}.cfg") as path:
        config = parse_config(path)
    return Output(config, file=config.output)


OUTPUTS = {name: _bundled(name)
           for name in ("bounds_table", "geo_bias", "tradeoff_curve", "sandwich", "liquidation")}
# 10^6 samples are 61 full Monte Carlo blocks and a ragged one per estimate;
# the benchmark's bound_check batch pins the same bytes
OUTPUTS["tightness"] = Output(
    tightness, sha256="070039d8073a3859f070b89cf36018e89238e2cc220e79b085821e455024b16b",
    floor=MIN_MONTE_CARLO_TRIALS)


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


def verdict(entry: Output, data: bytes) -> str:
    """How ``data``, an output's full-trial CSV, compares with its pin, a
    digest or a file: "same as", "DIFFERS from" or "MISSING:"."""
    try:
        same = (hashlib.sha256(data).hexdigest() == entry.sha256 if entry.sha256
                else Path(entry.file).read_bytes() == data)
    except FileNotFoundError:
        return "MISSING:"
    return "same as" if same else "DIFFERS from"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--only", help="comma-separated subset of outputs to make")
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--trials", type=int, help="override trial count for a quick pass")
    scale.add_argument("--check", action="store_true",
                       help="compare with the pins at full trials; write nothing")
    parser.add_argument("--jobs", type=int, default=min(_usable_cpus(), _MAX_THREADS),
                        help="worker processes (default: usable CPUs, at most 4)")
    args = parser.parse_args(argv)
    for flag in ("jobs", "trials"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            parser.error(f"--{flag} must be >= 1, got {value}")
    wanted = set(args.only.split(",")) if args.only else set(OUTPUTS)
    if wanted - set(OUTPUTS):
        parser.error(f"--only: unknown outputs {sorted(wanted - set(OUTPUTS))}")
    entries = {name: entry for name, entry in OUTPUTS.items() if name in wanted}
    for name, entry in entries.items():
        if (args.trials or entry.floor) < entry.floor:
            parser.error(f"--trials: {name} needs at least {entry.floor}, got {args.trials}")

    t0 = time.perf_counter()
    configs = {name: replace(entry.make, trials=args.trials or entry.make.trials)
               for name, entry in entries.items() if not callable(entry.make)}
    counted = dict(zip(configs, tables(list(configs.values()), args.jobs)))
    differs = []
    for name, entry in entries.items():  # the pool is done: the others are made here
        result = counted[name] if name in counted else entry.make(args.trials)
        if args.check:
            pin = entry.file or f"sha256 {entry.sha256}"
            said = verdict(entry, result.to_csv_text().encode("utf-8"))
            print(f"{name:15s} {said} {pin}")
            if said != "same as":
                differs.append(pin)
        else:
            path = entry.file or f"results/{name}.csv"
            emit_csv(result, path)
            print(f"{name:15s} -> {path}  ({len(result.rows)} rows)")
    print(f"{len(entries)} outputs in {time.perf_counter() - t0:.1f}s on {args.jobs} job(s)")
    if differs:
        print("differ: " + ", ".join(differs), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

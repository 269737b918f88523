"""One benchmark process: set up, then run, time and check batches of a workload.

    python3 bench/worker.py <workload> <seed|default> <spawn_time> <trace 0|1> <budget_s>

The worker repeats the same batch until ``budget_s`` seconds have passed
since set-up ended (at least once).  ``spawn_time`` is CLOCK_MONOTONIC
(system-wide on Linux) read by the parent just before it started this
process, so set-up includes interpreter start and imports.

Host speed is not constant: on a shared 2-vCPU virtual machine the same
pure-Python loop was measured to swing by 1.7x within seconds, with no
steal time visible to the guest.  So fixed calibration loops, which do not
touch the package, run before set-up and around every batch, and each time
is also reported in reference seconds: measured seconds times the loop's
CAL_REFERENCE_S over the calibration time that goes with it (for a batch,
the mean of the two loops around it; for set-up, the median of the
worker's Python loops).  Prints one JSON object on its last line of
standard output.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_DIR = ROOT / ".bench_out"
# What each calibration loop takes, in seconds, on the reference host (an
# Intel Xeon vCPU, Python 3.11.7, numpy 2.4.6) at its median speed.
CAL_REFERENCE_S = {"python": 0.045, "numpy": 0.040}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def python_loop_s() -> float:
    """Time a fixed pure-Python loop of hashing, dict stores and small sorts."""
    start = now()
    table = {}
    for i in range(20_000):
        digest = hashlib.sha256(i.to_bytes(8, "big")).digest()
        table[digest[:1]] = sorted((i, i * 7 % 13, digest[0]))
    return now() - start


def numpy_loop_s() -> float:
    """Time a fixed numpy loop: uniform draws, differences and a reduction."""
    import numpy as np

    start = now()
    rng = np.random.default_rng(0)
    for _ in range(2):
        draws = rng.random((250_000, 4))
        np.count_nonzero(np.all(np.diff(draws, axis=1) > 0, axis=1))
    return now() - start


CALIBRATIONS = {"python": python_loop_s, "numpy": numpy_loop_s}


def _pin_problem(workload, outcome, seed, trials) -> list:
    pin = workload.pins.get(trials) if seed == workload.default_seed else None
    if pin is None or outcome.digest == pin:
        return []
    return [f"{workload.name}@{trials} seed {seed}: digest {outcome.digest} != pinned {pin}"]


def run(name: str, seed_arg: str, spawned: float, trace: bool, budget_s: float) -> dict:
    python_cals = [python_loop_s()]  # set-up is scaled by these loops' median
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import fairorder

    if Path(fairorder.__file__).resolve().parent != ROOT / "src" / "fairorder":
        raise RuntimeError(f"imported fairorder from {fairorder.__file__}, not from the checkout")
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]
    seed = workload.default_seed if seed_arg == "default" else int(seed_arg)

    # Warm-up at the default seed: fills lazy state and checks the small pin.
    warm_config = workload.prepare(workload.default_seed, workload.warmup_trials)
    warm = workload.run(warm_config)
    problems = workload.check(warm_config, warm)
    if workload.warmup_trials not in workload.pins:
        problems.append(f"{name}: no pinned digest for the warm-up")
    problems += _pin_problem(workload, warm, workload.default_seed, workload.warmup_trials)
    config = workload.prepare(seed, workload.batch_trials)
    ready = now()

    setup_s = ready - spawned - python_cals[0]
    # Each batch is scaled by the two loops of its own kind around it.
    calibrate = CALIBRATIONS[workload.calibration]
    reference_s = CAL_REFERENCE_S[workload.calibration]
    cal_before = calibrate()
    if calibrate is python_loop_s:
        python_cals.append(cal_before)
    report = {"seed": seed, "setup_s": setup_s, "reps": [], "numpy": numpy.__version__}
    digests = set()
    loop_start = now()
    while not report["reps"] or now() - loop_start < budget_s:
        tracer = Tracer() if trace else None
        start, cpu_start = now(), time.process_time()
        if tracer:
            tracer.install()
        try:
            outcome = workload.run(config)
        finally:
            if tracer:
                tracer.uninstall()
        timed_s, cpu_s = now() - start, time.process_time() - cpu_start
        for problem in workload.check(config, outcome) + _pin_problem(
            workload, outcome, seed, workload.batch_trials
        ):
            if problem not in problems:
                problems.append(problem)
        checked_s = now() - start
        digests.add(outcome.digest)
        cal_after = calibrate()
        if calibrate is python_loop_s:
            python_cals.append(cal_after)
        scale = 2 * reference_s / (cal_before + cal_after)
        if not report["reps"]:
            # process start to first output checked, without the calibration pauses
            report["wall_s"] = setup_s + checked_s
            first_checked_ref_s = checked_s * scale
        layers = tracer.metrics(outcome.trials, scale) if tracer else None
        report["reps"].append({
            "timed_s": timed_s,
            "timed_ref_s": timed_s * scale,
            "off_cpu_s": timed_s - cpu_s,
            "layers": layers,
        })
        cal_before = cal_after
    if len(digests) != 1:
        problems.append(f"repeated batches disagree on the digest: {sorted(digests)}")
    # A single set-up is too short to bracket well, so it takes the median
    # speed of the worker's Python loops (at least three).
    while len(python_cals) < 3:
        python_cals.append(python_loop_s())
    report["setup_ref_s"] = setup_s * CAL_REFERENCE_S["python"] / statistics.median(python_cals)
    report["wall_ref_s"] = report["setup_ref_s"] + first_checked_ref_s

    report.update(
        ok=not problems,
        problems=problems,
        digest=outcome.digest,
        trials=outcome.trials,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer:
        report["missing_bindings"] = tracer.missing
        TRACE_DIR.mkdir(exist_ok=True)
        spans_path = TRACE_DIR / f"spans-{name}.json"
        tracer.write_spans(spans_path, {"workload": name, "seed": seed, "trials": outcome.trials})
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def main(argv) -> int:
    name, seed_arg, spawned, trace, budget_s = argv
    try:
        report = run(name, seed_arg, float(spawned), trace == "1", float(budget_s))
    except Exception as exc:  # the parent counts this worker's batches as failed
        traceback.print_exc()
        report = {"ok": False, "problems": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""fairorder benchmark: one workload per invocation, end to end or traced.

    python3 bench/run.py --workload geo_bias [--seed N] [--seconds 20] [--trace 0|1]

Workloads: geo_bias, sandwich, bound_check (see bench/README.md).  The
command starts worker processes one after another, never two at once, for
``--seconds`` seconds (at least MIN_WORKERS of them).  Each worker sets up,
then repeats one fixed-size batch, checking every output; the figures are
medians over workers or batches, in reference seconds (see worker.py).
With ``--trace 1`` untraced and traced workers alternate and the per-layer
metrics are reported instead.  Without ``--seed`` the workload's default
seed is used and every batch digest is checked against its pin.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import PER_LAYER  # noqa: E402
from worker import now  # noqa: E402

WORKLOADS = ("geo_bias", "sandwich", "bound_check")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)
MIN_WORKERS = 3
WORKERS_PER_RUN = 16  # each worker repeats its batch for seconds / WORKERS_PER_RUN
WORKER_TIMEOUT_S = 60
# One thread of work: no numeric library may start a thread pool.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(workload: str, seed: str, trace: bool, budget_s: float) -> dict:
    """Run one worker to completion and return its report."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env.pop("PYTHONPATH", None)
    start = now()
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, seed, repr(start),
           str(int(trace)), repr(budget_s)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"ok": False, "problems": [f"worker timed out after {WORKER_TIMEOUT_S}s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"ok": False, "problems": [f"worker exited {proc.returncode}: {tail}"]}
    if not report["ok"]:
        sys.stderr.write(proc.stderr)
    return report


def run_workers(workload: str, seed: str, seconds: float, trace: bool):
    """Workers until the time is used up; in trace mode, untraced/traced pairs."""
    plain, traced = [], []
    budget_s = seconds / WORKERS_PER_RUN
    start = now()
    while now() - start < seconds or len(plain) + len(traced) < MIN_WORKERS:
        plain.append(spawn(workload, seed, False, budget_s))
        if trace:
            traced.append(spawn(workload, seed, True, budget_s))
    return plain, traced


def metadata(seed: str, reports: list) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    seeds = {r["seed"] for r in reports if "seed" in r}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in reports if "numpy" in r), "unknown"),
        "commit": git_commit(),
        "seed": seeds.pop() if len(seeds) == 1 else seed,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((ROOT / "src" / "fairorder").rglob("*.py"))
        ),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def reps(reports: list, key: str) -> list:
    return [rep[key] for r in reports if r["ok"] for rep in r["reps"]]


def end_to_end(reports: list, attempted: int, failed: int) -> dict:
    good = [r for r in reports if r["ok"]]
    return {
        "setup_s": median([r["setup_ref_s"] for r in good]),
        "wall_s": median([r["wall_ref_s"] for r in good]),
        "trials_per_s": median([good[0]["trials"] / t for t in reps(good, "timed_ref_s")]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
        # error_rate = failed / attempted; its complement is reported because
        # a gated metric must never read 0.
        "success_rate": (attempted - failed) / attempted,
    }


def per_layer(plain: list, traced: list) -> dict:
    layers = reps(traced, "layers")
    out = {}
    for name, unit in PER_LAYER:
        values = [layer[name] for layer in layers if name in layer]
        out[name] = (values[0] if unit == "count" else median(values)) if values else 0.0
    out["trace.overhead_s"] = (median(reps(traced, "timed_ref_s"))
                               - median(reps(plain, "timed_ref_s")))
    out["wait.off_cpu_s"] = median(reps(plain, "off_cpu_s"))
    return out


def spread_line(name: str, values: list, unit: str) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"  {name}: n={len(values)} min={min(values):.6g} q1={q[0]:.6g} "
            f"median={q[1]:.6g} q3={q[2]:.6g} max={max(values):.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "fairorder"
    if not (package / "__init__.py").is_file():
        print(f"error: no package source at {package}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(package), quiet=1)

    seed = "default" if args.seed is None else str(args.seed)
    plain, traced = run_workers(args.workload, seed, args.seconds, bool(args.trace))
    reports = plain + traced
    known = [r["trials"] for r in reports if "trials" in r]
    nominal = known[0] if known else 1
    batches = [(r.get("trials", nominal) * len(r.get("reps", [None])), r["ok"]) for r in reports]
    attempted = sum(trials for trials, _ in batches)
    failed = sum(trials for trials, ok in batches if not ok)
    digests = {r.get("digest") for r in reports}
    problems = [p for r in reports for p in r["problems"]]
    if len(digests) != 1:
        problems.append(f"workers disagree on the output digest: {sorted(map(str, digests))}")
    correct = not problems and failed == 0

    meta = metadata(seed, reports)
    meta.update(workload=args.workload, workers=len(reports), trace=args.trace)
    if traced:
        meta["missing_bindings"] = traced[0].get("missing_bindings", [])
        meta["spans_file"] = traced[0].get("spans_file")
    print("meta " + json.dumps(meta))
    for problem in problems[:20]:
        print(f"problem: {problem}")

    if not any(r["ok"] for r in reports):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    if args.trace:
        units, values = dict(PER_LAYER), per_layer(plain, traced)
    else:
        units, values = dict(END_TO_END), end_to_end(plain, attempted, failed)
        good = [r for r in plain if r["ok"]]
        print("samples (measured s, then reference s):")
        for key in ("setup_s", "setup_ref_s", "wall_s", "wall_ref_s"):
            print(spread_line(key, [r[key] for r in good], "s"))
        for key in ("timed_s", "timed_ref_s"):
            print(spread_line("batch " + key, reps(good, key), "s"))
        print(f"{'error_rate':40s} {failed / attempted:16.6g} ratio")
    for name, value in values.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs from a seed, one fixed-size batch, output checks.

Each workload is a batch of a fixed number of trials, driven only through
the package's public functions (``harness.parse_config``,
``harness.run_experiment`` and ``fairorder.analysis``).  ``prepare`` builds
the inputs (set-up), ``run`` does the timed work, ``check`` validates the
result and returns a list of problems (empty when the output is correct).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources

import numpy as np

from fairorder import analysis, harness

# The bound sweep of scripts/bound_tightness.py.
BOUND_NS = (2, 3, 4)
BOUND_ALPHAS = (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2))
BOUND_STRATEGIES = (analysis.LOWER_BOUND, analysis.ADAPTIVE_UPPER)
# A correct program falls outside 5 sigma about once in 3.5 million estimates.
MC_SIGMAS = 5.0


@dataclass
class Outcome:
    """What one batch produced: the table, and the numbers its check needs."""

    table: harness.TableResult
    trials: int
    exact: list  # (label, got, want) pairs that must be equal as rationals
    estimates: list  # (label, estimate, stderr, target) Monte Carlo rows

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.table.to_csv_text().encode()).hexdigest()


def _bundled_config(name: str) -> harness.ExperimentConfig:
    config_dir = resources.files("fairorder.data") / "configs"
    with resources.as_file(config_dir / f"{name}.cfg") as path:
        return harness.parse_config(path)


class SimulatorWorkload:
    """A bundled experiment config with its trials reduced and its seed replaced."""

    calibration = "python"  # interpreter-bound: hashing, small objects, sorting

    def __init__(self, name, batch_trials, warmup_trials, pins):
        self.name = name
        self.batch_trials = batch_trials
        self.warmup_trials = warmup_trials
        self.pins = pins  # {trials: sha256 of the CSV at the default seed}

    @property
    def default_seed(self) -> int:
        return _bundled_config(self.name).seed

    def prepare(self, seed: int, trials: int) -> harness.ExperimentConfig:
        return replace(_bundled_config(self.name), seed=seed, trials=trials)

    def run(self, config: harness.ExperimentConfig) -> Outcome:
        table = harness.run_experiment(config)
        return Outcome(table, self.trial_count(config), [], [])

    def trial_count(self, config) -> int:
        cells = len(config.policies)
        if config.scenario == "geo_bias":
            cells *= len(config.origins) * (len(config.origins) - 1) // 2
        return cells * config.trials

    def check(self, config, outcome: Outcome) -> list:
        if config.scenario == "geo_bias":
            return _check_geo_bias(config, outcome.table)
        return _check_sandwich(config, outcome.table)


def _check_geo_bias(config, table) -> list:
    problems = []
    pairs = len(config.origins) * (len(config.origins) - 1) // 2
    if len(table.rows) != pairs * len(config.policies):
        problems.append(f"geo_bias: {len(table.rows)} rows for {pairs} pairs")
    for city_a, city_b, spec, pr_a, diff, trials in table.rows:
        where = f"geo_bias {city_a}/{city_b} {spec}"
        p, d = float(pr_a), float(diff)
        if trials != config.trials:
            problems.append(f"{where}: {trials} trials, expected {config.trials}")
        if not 0.0 <= p <= 1.0:
            problems.append(f"{where}: probability {pr_a} outside [0, 1]")
        if abs(d - (2 * p - 1)) > 2e-6:
            problems.append(f"{where}: diff {diff} != 2 * {pr_a} - 1")
        if spec.partition(":")[0] in ("pompe", "receive") and abs(d) != 1.0:
            problems.append(f"{where}: deterministic policy has diff {diff}, not +-1")
    return problems


def _check_sandwich(config, table) -> list:
    problems = []
    for spec in config.policies:
        rows = [row for row in table.rows if row[0] == spec]
        orders = [row for row in rows if row[1] != "expected"]
        if len(orders) != 6 or len(rows) != 7:
            problems.append(f"sandwich {spec}: {len(orders)} orders in {len(rows)} rows")
        counts = 0
        for _, order, freq, _, _ in orders:
            p = float(freq)
            if not 0.0 <= p <= 1.0:
                problems.append(f"sandwich {spec} {order}: frequency {freq} outside [0, 1]")
            counts += round(p * config.trials)
        if counts != config.trials:
            problems.append(f"sandwich {spec}: frequencies sum to {counts}/{config.trials}")
        if [row[2] for row in rows if row[1] == "expected"] != ["1.000000"]:
            problems.append(f"sandwich {spec}: missing or wrong 'expected' row")
    return problems


class BoundCheckWorkload:
    """The Monte Carlo tightness sweep, plus the closed forms and the exact integrator."""

    name = "bound_check"
    default_seed = 13  # the seed scripts/bound_tightness.py uses
    calibration = "numpy"  # bound by vectorised array passes, not the interpreter

    def __init__(self, batch_trials, warmup_trials, pins):
        self.batch_trials = batch_trials  # Monte Carlo samples per strategy
        self.warmup_trials = warmup_trials
        self.pins = pins

    def prepare(self, seed: int, trials: int) -> tuple:
        return seed, trials

    def run(self, config) -> Outcome:
        seed, samples = config
        rng = np.random.default_rng(seed)
        table = harness.TableResult(
            header=("n", "alpha", "strategy", "estimate", "stderr", "target", "sigmas")
        )
        exact, estimates = [], []
        for n in BOUND_NS:
            for alpha in BOUND_ALPHAS:
                lower, upper = analysis.order_prob_bounds(n, alpha)
                tag = f"n={n} alpha={alpha}"
                exact.append((f"upper - lower {tag}", upper - lower,
                              analysis.epsilon_general(n, alpha)))
                for order in itertools.permutations(range(n)):
                    # every command but the last in the target order sits at alpha
                    ats = [alpha] * n
                    ats[order[-1]] = Fraction(0)
                    exact.append((f"integrate {tag} order={order}",
                                  analysis.order_prob_integrate(ats, 1, order), lower))
                for strategy, target in zip(BOUND_STRATEGIES, (lower, upper)):
                    est, se = analysis.order_prob_monte_carlo(
                        strategy, n, float(alpha), tuple(range(n)), samples, rng
                    )
                    estimates.append((f"{strategy} {tag}", est, se, float(target)))
                    sigmas = abs(est - float(target)) / max(se, 1e-12)
                    table.rows.append(
                        (n, str(alpha), strategy, f"{est:.6f}", f"{se:.6f}",
                         f"{float(target):.6f}", f"{sigmas:.2f}")
                    )
        return Outcome(table, self.trial_count(config), exact, estimates)

    def trial_count(self, config) -> int:
        return config[1] * len(BOUND_NS) * len(BOUND_ALPHAS) * len(BOUND_STRATEGIES)

    def check(self, config, outcome: Outcome) -> list:
        problems = [f"{label}: {got} != {want}" for label, got, want in outcome.exact
                    if got != want]
        for label, est, se, target in outcome.estimates:
            if not 0.0 <= est <= 1.0:
                problems.append(f"{label}: estimate {est} outside [0, 1]")
            if abs(est - target) > MC_SIGMAS * se:
                problems.append(f"{label}: estimate {est} is over {MC_SIGMAS} sigma "
                                f"(se {se}) from {target}")
        return problems


# Pins: sha256 of each workload's CSV at its default seed, computed by the
# code the benchmark was defined on.  The warm-up size is checked on every
# run; the batch size whenever the run uses the default seed.
WORKLOADS = {
    w.name: w
    for w in (
        SimulatorWorkload(
            "geo_bias", batch_trials=20, warmup_trials=4,
            pins={
                4: "cb185a4b833f9020c9006385f6c13a6b22d325615dba151e255df0306015aec7",
                20: "d5b850c0593c2f617d891f8634b1c4e8f1578fde3bf503d3525a499b0ed5d65d",
            },
        ),
        SimulatorWorkload(
            "sandwich", batch_trials=150, warmup_trials=20,
            pins={
                20: "8f6200cf6c8a90673878fbbe2ca2edf9e74d4b6313c0d4b0a5b51a1336b5da8e",
                150: "d3fce5651f5b6b9001098a4b7dc9e1f89d300d69d5080bcf44dae29edd25d9c8",
            },
        ),
        BoundCheckWorkload(
            batch_trials=1_000_000, warmup_trials=1000,
            pins={
                1000: "3270da1c04dc1799eef037a7b572192013496b8fa6a933c151687e4d25a8a2e4",
                # equal to results/tightness.csv from scripts/bound_tightness.py
                1_000_000: "070039d8073a3859f070b89cf36018e89238e2cc220e79b085821e455024b16b",
            },
        ),
    )
}

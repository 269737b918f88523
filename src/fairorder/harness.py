"""Experiment runner: deterministic configs in, CSV tables out.

A config file is line-oriented ``key = value`` text, one experiment per
file; an unknown key is an error.  Scenario kinds: geo_bias,
tradeoff_curve, sandwich, liquidation, bounds_table.  Every run is fully
determined by (config, seed): reruns produce byte-identical output files.

Policy specs are strings, read by ``consensus.OrderingPolicy.parse``:
``pompe``, ``receive``, ``leader:<period_ms>``, ``bercow:<noise_ms>``.
``policies``, ``alphas`` and ``bounds_n`` must each list at least one entry.

Every simulated table cell goes through one trial driver,
``_count_orders``: a scenario lists the cell's commands as
(label, invoke_us, city) triples and reads its numbers from the cell's
ledger orders, counted once by command index.  A count c of n trials is
printed as ``c / n``, which is correctly rounded and so prints as
``Fraction(c, n)`` does.  The cell's tags -- ``("geo", pair_index,
spec)``, ``("gap", spec, gap_ms)`` or ``("sand", spec)`` -- fix trial t's
command ids, ``CommandIds(tags, labels)(t)``, one per label in order;
under the leader policy they also fix the seed its schedule and phase are
drawn from, ``_trial_seed(seed, *tags, t)``, computed with the tags' repr
built once per cell (``_cell_trial_seed``).  Changing either changes the
CSVs.  No cell runs trial by trial: every policy's cell is one
``SimulationRun`` (``_cell``) and one call of the engine,
``consensus.trial_orders``, which computes what the ids do not affect once
per cell and yields every trial's ledger order from one loop.  A leader
cell seeds all its trials' generators in one bulk pass, which restates
numpy's ``SeedSequence`` over Python ints, and numpy's ``Generator``
still makes each trial's draws, the same as
``default_rng(_trial_seed(seed, *tags, t))`` makes.  A cell's ids come
from ``CommandIds(tags, labels)``, which encodes the tags and each label
once per cell, hashes the tags only when the cell first derives an id,
and encodes the trial once per trial.  They are derived only
where they can matter: once per trial under ``bercow``, in the same pass
as its noise, for the noise and any tie; otherwise only for a trial whose
id-free key prefix ties.  Work that no cell changes is done once: the
bundled topology, with its per-origin delay table, and the sandwich
payoff table are each built once per process.  Within one
``run_experiment`` call (``_Run``), each policy spec is parsed and each
cell's commands placed once, and the cells share one memo
(``SimulationRun.memo``) of each distinct command's receive times and
assigned timestamp, each decided slot's revealed seed and the leader
cells' scratch generator.  So a run observes each distinct (city, invoke
time) once and certifies and reveals each slot once, however many cells
use it, and nothing computed from its inputs outlives the call.  A
sandwich run builds its colluder plan once, before its cells, and
formats each order's payoff text once, not once per policy.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import analysis, attacks
from .adversary import AdversaryPlan, private_relay_placement
from .consensus import OrderingPolicy, PlacedInvocation, SimulationRun, trial_orders
from .domain import US_PER_MS, CommandIds, Invocation, quorum_median
from .netmodel import CityTopology, bundled_topology, load_topology
from .sro import Backend, SroConfig, SroHandle, sro_init

TOPOLOGY_DIR_ENV = "FAIRORDER_TOPOLOGY_DIR"

SCENARIOS = ("geo_bias", "tradeoff_curve", "sandwich", "liquidation", "bounds_table")


class ConfigError(ValueError):
    """Bad experiment configuration."""


@dataclass
class ExperimentConfig:
    scenario: str
    topology: str = "bundled"
    policies: tuple = ("pompe",)
    delta_net_ms: int = 300
    slot_ms: int = 1500
    trials: int = 10_000
    seed: int = 0
    origins: tuple = ()
    gaps_ms: tuple = ()
    colluders: str = "0"  # node count, or "max" for f
    offsets_ms: tuple = (1, 25)
    prize_usd: int = 200_000
    bounds_n: tuple = (2, 3)
    alphas: tuple = ("1/5",)
    output: str = ""

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; pick from {SCENARIOS}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not -(2**63) <= self.seed < 2**63:  # seeds are hashed as 8 signed bytes
            raise ConfigError(f"seed must fit in a signed 64-bit integer, got {self.seed}")
        # under 1 ms no delay bound can hold and a slot is empty; a negative
        # gap would make the "early" command the late one
        if self.delta_net_ms < 1:
            raise ConfigError(f"dnet_ms must be >= 1, got {self.delta_net_ms}")
        if self.slot_ms < 1:
            raise ConfigError(f"slot_ms must be >= 1, got {self.slot_ms}")
        if any(gap < 0 for gap in self.gaps_ms):
            raise ConfigError(f"gaps_ms entries must be >= 0, got {self.gaps_ms}")
        if self.gaps_ms and list(self.gaps_ms) != sorted(self.gaps_ms):
            raise ConfigError("gap sweep must be monotone")
        if self.colluders != "max" and not str(self.colluders).isdecimal():
            raise ConfigError(f"colluders must be a node count or 'max', got {self.colluders!r}")
        for key in ("policies", "alphas", "bounds_n"):
            if not getattr(self, key):
                raise ConfigError(f"{key} must list at least one entry")
        for spec in self.policies:
            OrderingPolicy.parse(spec)
        for alpha in self.alphas:
            parse_alpha(alpha)


def _names(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _ints(text):
    return tuple(int(x) for x in _names(text))


# config-file key -> (ExperimentConfig field, parser of the value text)
CONFIG_KEYS = {
    "scenario": ("scenario", str),
    "topology": ("topology", str),
    "policies": ("policies", _names),
    "dnet_ms": ("delta_net_ms", int),
    "slot_ms": ("slot_ms", int),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "origins": ("origins", _names),
    "gaps_ms": ("gaps_ms", _ints),
    "colluders": ("colluders", str),
    "offsets_ms": ("offsets_ms", _ints),
    "prize_usd": ("prize_usd", int),
    "bounds_n": ("bounds_n", _ints),
    "alphas": ("alphas", _names),
    "output": ("output", str),
}


def parse_config(path) -> ExperimentConfig:
    fields = {"scenario": ""}
    seen = {}  # key -> line number of its first definition
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(
                    f"{path}:{lineno}: key {key!r} repeats its definition on line {seen[key]}"
                )
            seen[key] = lineno
            name, parse = CONFIG_KEYS[key]
            try:
                fields[name] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc
    try:
        return ExperimentConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_alpha(text) -> Fraction:
    """An exact ratio such as ``1/5`` or ``0.2``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"alpha must be an exact ratio such as 1/5, got {text!r}") from exc


def resolve_topology(name: str) -> CityTopology:
    if name in ("", "bundled"):
        return bundled_topology()
    if not os.path.isabs(name) and not os.path.exists(name):
        base = os.environ.get(TOPOLOGY_DIR_ENV)
        if base and os.path.exists(os.path.join(base, name)):
            return load_topology(os.path.join(base, name))
    return load_topology(name)


@dataclass
class TableResult:
    header: tuple
    rows: list = field(default_factory=list)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        return buf.getvalue()


def emit_csv(result: TableResult, path):
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(result.to_csv_text())
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


def _fmt_prob(x) -> str:
    return f"{float(x):.6f}"


def _fmt_usd(x) -> str:
    return f"{float(x):.2f}"


def _trial_seed(config_seed: int, *tags) -> list:
    # hash() is salted per process; a digest keeps trial streams stable across runs
    digest = hashlib.sha256(repr(tags).encode()).digest()
    return [config_seed & 0xFFFFFFFFFFFFFFFF, int.from_bytes(digest[:8], "big")]


def _cell_trial_seed(config_seed: int, tags: tuple):
    """One cell's ``lambda t: _trial_seed(config_seed, *tags, t)``.

    The repr of ``(*tags, t)`` is the tags' part, built once per cell, then
    ``repr(t)`` and the closing parenthesis, so every digest hashes the same
    bytes as ``_trial_seed``'s.
    """
    head = ("(" + "".join(f"{tag!r}, " for tag in tags)).encode()
    tail = b")" if tags else b",)"  # a one-element tuple's repr is "(t,)"
    low, sha256 = config_seed & 0xFFFFFFFFFFFFFFFF, hashlib.sha256

    def trial_seed(t) -> list:
        digest = sha256(head + repr(t).encode() + tail).digest()
        return [low, int.from_bytes(digest[:8], "big")]

    return trial_seed


@dataclass
class _Run:
    """What the cells of one ``run_experiment`` call share: the config, the
    topology, the oracle, each parsed spec, each cell's placed commands
    and one memo (every cell's ``SimulationRun.memo``)."""

    config: ExperimentConfig
    topology: CityTopology
    sro: SroHandle
    policies: dict = field(default_factory=dict)  # spec -> OrderingPolicy
    placed: dict = field(default_factory=dict)  # a cell's commands -> ``_placed`` of them
    memo: dict = field(default_factory=dict)


def _run_for(config: ExperimentConfig) -> _Run:
    """A fresh ``_Run`` for ``config``: its topology and seeded oracle (f the
    largest that n >= 3f + 1 allows), with nothing stamped or revealed
    yet."""
    topology = resolve_topology(config.topology)
    n = topology.n_nodes
    rng_seed = hashlib.sha256(b"sro" + config.seed.to_bytes(8, "big", signed=True)).digest()
    sro = sro_init(SroConfig(n=n, f=(n - 1) // 3, backend=Backend.SEEDED_HASH), rng_seed)
    return _Run(config, topology, sro)


def _placed(commands) -> list:
    """A cell's template invocations, one per (label, invoke_us, city)
    triple, each with its label's bytes as its command id."""
    return [
        PlacedInvocation(Invocation(label.encode(), t_us), city)
        for label, t_us, city in commands
    ]


_HONEST = AdversaryPlan()  # the plan of every cell that has none; never changed


def _cell(run: _Run, spec, tags, commands, plan=_HONEST):
    """One table cell as ``trial_orders``' arguments: its ``SimulationRun``
    (``_placed(commands)``, which each trial renames),
    ``run.config.trials``, its ``CommandIds`` and its trial seed.  The
    adversary ``plan``, keyed by the template ids, applies only under the
    median-timestamp policies; the baselines run honest.  The spec is
    parsed, and the commands placed, on their first cell in the run.
    """
    config = run.config
    policy = run.policies.get(spec)
    if policy is None:
        policy = run.policies[spec] = OrderingPolicy.parse(spec)
    placed = run.placed.get(commands)
    if placed is None:
        placed = run.placed[commands] = _placed(commands)
    sim = SimulationRun(
        topology=run.topology, policy=policy, delta_net_us=config.delta_net_ms * US_PER_MS,
        slot_interval_us=config.slot_ms * US_PER_MS, invocations=placed,
        sro=run.sro, adversary=plan if policy.median_timestamps else _HONEST,
        memo=run.memo,
    )
    trial_ids = CommandIds(tags, [label for label, _, _ in commands])
    return sim, config.trials, trial_ids, _cell_trial_seed(config.seed, tags)


def _count_orders(run: _Run, spec, tags, commands, plan=_HONEST) -> Counter:
    """The ledger orders of one table cell's trials, counted, each as the
    tuple of its commands' indices in ledger order."""
    return Counter(trial_orders(*_cell(run, spec, tags, commands, plan)))


def _geo_pairs(config: ExperimentConfig):
    """Each (city_a, city_b, spec, trials with A first) of a geo_bias run."""
    if len(config.origins) < 2:
        raise ConfigError("geo_bias needs at least two origin cities")
    run = _run_for(config)
    t0 = config.slot_ms * US_PER_MS // 2  # mid-slot, away from boundaries
    for pi, (city_a, city_b) in enumerate(combinations(config.origins, 2)):
        for spec in config.policies:
            counts = _count_orders(
                run, spec, ("geo", pi, spec),
                (("a", t0, city_a), ("b", t0, city_b)),
            )
            yield city_a, city_b, spec, counts[0, 1]


def run_geo_bias(config: ExperimentConfig) -> TableResult:
    """Pr[A first] - Pr[B first] for simultaneous invocations per city pair."""
    result = TableResult(header=("city_a", "city_b", "policy", "pr_a_first", "diff", "trials"))
    n = config.trials
    for city_a, city_b, spec, a_first in _geo_pairs(config):
        result.rows.append(
            (city_a, city_b, spec, _fmt_prob(a_first / n), _fmt_prob((2 * a_first - n) / n), n)
        )
    return result


def run_tradeoff_curve(config: ExperimentConfig) -> TableResult:
    """Pr[early sender first] as its head start grows.

    The disadvantaged city (higher median latency to the quorum) invokes
    ``gap`` ms before the advantaged city; the curve must reach 1.0 once
    the gap clears the policy's inversion horizon.
    """
    if len(config.origins) != 2:
        raise ConfigError("tradeoff_curve needs exactly two origin cities")
    if not config.gaps_ms:
        raise ConfigError("tradeoff_curve needs a gap sweep")
    run = _run_for(config)
    t0 = config.slot_ms * US_PER_MS // 2
    slow, fast = sorted(
        config.origins,
        key=lambda city: quorum_median(run.topology.delays_from(city), run.sro.config.f),
        reverse=True,
    )
    result = TableResult(
        header=("gap_ms", "policy", "early_city", "pr_early_first", "trials")
    )
    for spec in config.policies:
        for gap_ms in config.gaps_ms:
            counts = _count_orders(
                run, spec, ("gap", spec, gap_ms),
                (("early", t0, slow), ("late", t0 + gap_ms * US_PER_MS, fast)),
            )
            pr_early = _fmt_prob(counts[0, 1] / config.trials)
            result.rows.append((gap_ms, spec, slow, pr_early, config.trials))
    return result


def _colluder_ids(config: ExperimentConfig, sro: SroHandle):
    n, f = sro.config.n, sro.config.f
    count = f if config.colluders == "max" else int(config.colluders)
    if count > f:
        raise ConfigError(f"colluders must be in [0, f={f}]")
    return tuple(range(n - count, n))


def run_sandwich(config: ExperimentConfig) -> TableResult:
    """Permutation frequencies and attacker profit for the bracketing attack.

    Victim invokes from origins[0], the attacker's two commands from
    origins[1].  Colluding nodes misreport timestamps around the victim for
    the median-timestamp policies; the leader/receive baselines run honest.
    """
    if len(config.origins) != 2:
        raise ConfigError("sandwich needs (victim_city, attacker_city) origins")
    if len(config.offsets_ms) != 2:
        raise ConfigError("sandwich needs two offsets_ms, one per attacker command")
    victim_city, attacker_city = config.origins
    run = _run_for(config)
    colluders = _colluder_ids(config, run.sro)
    t0 = config.slot_ms * US_PER_MS // 2
    buy_us, sell_us = (t0 + ms * US_PER_MS for ms in config.offsets_ms)
    commands = (
        (attacks.VICTIM, t0, victim_city),
        (attacks.ATTACKER_BUY, buy_us, attacker_city),
        (attacks.ATTACKER_SELL, sell_us, attacker_city),
    )
    result = TableResult(
        header=("policy", "order", "frequency", "victim_usd", "attacker_usd")
    )
    victim, *attackers = [(p.invocation, p.origin_city) for p in _placed(commands)]
    plan = private_relay_placement(
        victim, attackers, colluders, run.topology,
        config.delta_net_ms * US_PER_MS, run.sro.config.f,
    )
    table = attacks.default_payoff_table()
    n = config.trials
    index = {label: i for i, (label, _, _) in enumerate(commands)}
    indices = {order: tuple(index[label] for label in order) for order in attacks.PERMUTATIONS}
    # each order's text and payoffs, formatted once per run: (order, victim, attacker)
    texts = {
        order: ("-".join(order), *(_fmt_usd(usd) for usd in table[order]))
        for order in indices
    }
    for spec in config.policies:
        counts = _count_orders(run, spec, ("sand", spec), commands, plan)
        expected = attacks.expected_attacker_profit(
            table, {order: Fraction(counts[key], n) for order, key in indices.items()}
        )
        for order, key in indices.items():
            order_text, victim_usd, attacker_usd = texts[order]
            result.rows.append(
                (spec, order_text, _fmt_prob(counts[key] / n), victim_usd, attacker_usd)
            )
        result.rows.append((spec, "expected", "1.000000", "", _fmt_usd(expected)))
    return result


def run_liquidation(config: ExperimentConfig) -> TableResult:
    """Expected liquidation payout per client when only the first wins."""
    if len(config.origins) != 2:
        raise ConfigError("liquidation needs exactly two origin cities")
    result = TableResult(header=("policy", "city", "pr_first", "expected_usd"))
    n, prize = config.trials, config.prize_usd
    for city_a, city_b, spec, a_first in _geo_pairs(config):
        for city, first in ((city_a, a_first), (city_b, n - a_first)):
            result.rows.append((spec, city, _fmt_prob(first / n), _fmt_usd(first * prize / n)))
    return result


def run_bounds_table(config: ExperimentConfig) -> TableResult:
    """Closed-form equality/linearizability figures over (n, alpha) grid."""
    delta_net_us = config.delta_net_ms * US_PER_MS
    result = TableResult(
        header=("n", "alpha", "epsilon", "lower", "upper", "delta_us")
    )
    for n in config.bounds_n:
        for alpha_text in config.alphas:
            alpha = parse_alpha(alpha_text)
            eps = analysis.epsilon_general(n, alpha)
            lower, upper = analysis.order_prob_bounds(n, alpha)
            delta_noise_us = int(delta_net_us / alpha)
            delta = analysis.delta_linearizability(delta_net_us, delta_noise_us)
            result.rows.append(
                (n, str(alpha), _fmt_prob(eps), _fmt_prob(lower), _fmt_prob(upper), delta)
            )
    return result


RUNNERS = {
    "geo_bias": run_geo_bias,
    "tradeoff_curve": run_tradeoff_curve,
    "sandwich": run_sandwich,
    "liquidation": run_liquidation,
    "bounds_table": run_bounds_table,
}


def run_experiment(config: ExperimentConfig) -> TableResult:
    return RUNNERS[config.scenario](config)

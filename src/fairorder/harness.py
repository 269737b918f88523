"""Experiment runner: deterministic configs in, CSV tables out.

A config file is line-oriented ``key = value`` text, one experiment per
file; an unknown key is an error, and so is a key its scenario never reads
(a config built in code keeps such fields at their defaults, unread).  A
negative ``prize_usd`` is an error.  Scenario kinds: geo_bias,
tradeoff_curve, sandwich, liquidation, bounds_table.  Every run is fully
determined by (config, seed): reruns produce byte-identical output files.

Policy specs are strings, read by ``consensus.OrderingPolicy.parse``:
``pompe``, ``receive``, ``leader:<period_ms>``, ``bercow:<noise_ms>``.
``policies``, ``alphas`` and ``bounds_n`` must each list at least one entry,
every ``alphas`` entry must lie in (0, 1], the range
``analysis.order_prob_bounds`` accepts, and every ``bounds_n`` entry must
lie in [1, ``MAX_BOUNDS_N``].  No entry may repeat, as parsed, in
``policies``, ``alphas``, ``bounds_n``, ``gaps_ms`` or a geo_bias run's
``origins``.  An alpha is an exact ratio, never a float.  A config is
frozen: it parses each spec and alpha once, when it is built, and keeps
the results (``parsed_policies``, ``parsed_alphas``); no run parses them
again.

Each scenario is one entry of one table, ``_SCENARIOS``: a cells
function, a table function and the config-file keys it reads.
``count_trials`` builds a config's one ``consensus.SimulationRun``
(``_run_for``), whose receive times, stamps, slot seeds and leader
generator its cells share; the cells function lists them as
``Cell(tags, policy, placed, plan)`` records, each cell's (label,
invoke_us, city) commands placed once (``_placed``), and ``_count_cells``
counts them all over a trial range with one ``consensus.orders_per_cell``
call.  A closed-form table (bounds_table) has no cells function and
counts nothing.  The tags -- ``("geo", pair_index, spec)``,
``("gap", spec, gap_ms)`` or ``("sand", spec)`` -- fix trial t's command
ids, ``CommandIds(tags, labels)(t)``, and under the leader policy the
seed its rotation is drawn from (``_cell_trial_seed``, built for leader
cells only); changing either changes the CSVs.  A count c of n trials is
printed as ``c / n``, which is correctly rounded and so prints as
``Fraction(c, n)`` does.  The bundled topology and the sandwich payoff
table are built once per process.
"""

from __future__ import annotations

import csv
import io
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from typing import NamedTuple

from . import analysis, attacks
from .adversary import private_relay_placement
from .consensus import (
    OrderingPolicy, PolicyKind, SimulationRun, assigned_timestamps, orders_per_cell
)
from .domain import US_PER_MS, CommandIds, ContractError, Invocation, exact_ratio, sha256
from .netmodel import CityTopology, bundled_topology, load_topology
from .sro import Backend, SroConfig, SroHandle

TOPOLOGY_DIR_ENV = "FAIRORDER_TOPOLOGY_DIR"

# From n = 14 on, every probability a bounds table prints is 0.000000 at any
# alpha <= 1 (the largest, upper at alpha = 1, is (2^n - n) / n! = 1.9e-7 at
# n = 14), so a larger n adds no figure; a huge one would run for minutes.
MAX_BOUNDS_N = 40


class ConfigError(ValueError):
    """Bad experiment configuration."""


@dataclass(frozen=True)
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
    parsed_policies: tuple = field(init=False, repr=False, compare=False)
    parsed_alphas: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; pick from {tuple(_SCENARIOS)}")
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
        if self.prize_usd < 0:
            raise ConfigError(f"prize_usd must be >= 0, got {self.prize_usd}")
        if any(gap < 0 for gap in self.gaps_ms):
            raise ConfigError(f"gaps_ms entries must be >= 0, got {self.gaps_ms}")
        if self.gaps_ms and list(self.gaps_ms) != sorted(self.gaps_ms):
            raise ConfigError("gap sweep must be monotone")
        if self.colluders != "max" and not str(self.colluders).isdecimal():
            raise ConfigError(f"colluders must be a node count or 'max', got {self.colluders!r}")
        for key in ("policies", "alphas", "bounds_n"):
            if not getattr(self, key):
                raise ConfigError(f"{key} must list at least one entry")
        outside = [n for n in self.bounds_n if not 1 <= n <= MAX_BOUNDS_N]
        if outside:
            raise ConfigError(f"bounds_n entries must be in [1, {MAX_BOUNDS_N}], got {outside}")
        parsed = tuple(OrderingPolicy.parse(spec) for spec in self.policies)
        object.__setattr__(self, "parsed_policies", parsed)
        object.__setattr__(self, "parsed_alphas", tuple(parse_alpha(a) for a in self.alphas))
        outside = [str(a) for a in self.parsed_alphas if not 0 < a <= 1]
        if outside:  # the range analysis.order_prob_bounds accepts
            raise ConfigError(f"alphas entries must be in (0, 1], got {outside}")
        for key, values in (
            ("policies", self.parsed_policies), ("alphas", self.parsed_alphas),
            ("bounds_n", self.bounds_n), ("gaps_ms", self.gaps_ms),
            ("origins", self.origins if self.scenario == "geo_bias" else ()),
        ):
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} must not repeat an entry, got {getattr(self, key)}")


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    for lineno, raw in enumerate(lines, start=1):
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
        config = ExperimentConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for key, lineno in seen.items():
        if key not in ("scenario", "output", *_SCENARIOS[config.scenario][2]):
            raise ConfigError(
                f"{path}:{lineno}: the {config.scenario} scenario never reads {key!r}"
            )
    return config


def parse_alpha(text) -> Fraction:
    """An exact ratio such as ``1/5`` or ``0.2`` (``domain.exact_ratio``);
    anything else, a float included, is a ``ConfigError``."""
    try:
        return exact_ratio(text, "alpha")
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc


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


def _cell_trial_seed(config_seed: int, tags: tuple):
    """One cell's trial seeds: trial t's is [the config seed mod 2^64, the
    first 8 bytes, big-endian, of the SHA-256 of ``repr((*tags, t))``].
    (``hash()`` is salted per process; a digest keeps trial streams stable
    across runs.)  The repr's tags part is built once per cell.
    """
    head = ("(" + "".join(f"{tag!r}, " for tag in tags)).encode()
    tail = b")" if tags else b",)"  # a one-element tuple's repr is "(t,)"
    low = config_seed & 0xFFFFFFFFFFFFFFFF

    def trial_seed(t) -> list:
        digest = sha256(head + repr(t).encode() + tail).digest()
        return [low, int.from_bytes(digest[:8], "big")]

    return trial_seed


def _run_for(config: ExperimentConfig) -> SimulationRun:
    """``config``'s network: its topology, delta_net, slot interval and
    seeded oracle (f the largest that n >= 3f + 1 allows)."""
    topology = resolve_topology(config.topology)
    n = topology.n_nodes
    rng_seed = sha256(b"sro" + config.seed.to_bytes(8, "big", signed=True)).digest()
    sro = SroHandle(SroConfig(n=n, f=(n - 1) // 3, backend=Backend.SEEDED_HASH), rng_seed)
    return SimulationRun(
        topology, config.delta_net_ms * US_PER_MS, config.slot_ms * US_PER_MS, sro
    )


def _placed(commands) -> list:
    """A cell's template invocations, one per (label, invoke_us, city)
    triple, each sent from its city with its label's bytes as its command
    id."""
    return [Invocation(label.encode(), t_us, city) for label, t_us, city in commands]


class Cell(NamedTuple):
    """One table cell: its tags, which fix its trials' command ids and,
    under ``leader``, their seeds; its policy; its template invocations
    (``_placed``); and its adversary plan, ``{}`` for an honest cell."""

    tags: tuple
    policy: OrderingPolicy
    placed: list
    plan: dict


def _count_cells(run, config, cells, trials: range) -> list:
    """Each cell's ledger orders over ``trials`` on ``run``, counted, each
    order as the tuple of its commands' indices in ledger order, from one
    ``orders_per_cell`` call.  Trial t's ids are ``CommandIds(tags,
    template ids)(t)``.  Only a leader cell, the one policy that draws from
    them, gets trial seeds.
    """
    args = [
        (
            cell.policy, cell.placed, cell.plan,
            CommandIds(cell.tags, [inv.command_id for inv in cell.placed]),
            _cell_trial_seed(config.seed, cell.tags)
            if cell.policy.kind is PolicyKind.LEADER_ROTATION else None,
        )
        for cell in cells
    ]
    return [Counter(orders) for orders in orders_per_cell(run, args, trials)]


def _geo_cells(config: ExperimentConfig, run: SimulationRun) -> list:
    """A geo_bias or liquidation run's cells: each pair of origin cities
    invoking at once, mid-slot, under each policy; a liquidation has one
    pair."""
    if config.scenario == "liquidation" and len(config.origins) != 2:
        raise ConfigError("liquidation needs exactly two origin cities")
    if len(config.origins) < 2:
        raise ConfigError("geo_bias needs at least two origin cities")
    t0 = config.slot_ms * US_PER_MS // 2  # mid-slot, away from boundaries
    cells = []
    for pi, (city_a, city_b) in enumerate(combinations(config.origins, 2)):
        placed = _placed((("a", t0, city_a), ("b", t0, city_b)))
        cells += (
            Cell(("geo", pi, spec), policy, placed, {})
            for spec, policy in zip(config.policies, config.parsed_policies)
        )
    return cells


def _geo_bias_table(config: ExperimentConfig, counted) -> TableResult:
    result = TableResult(header=("city_a", "city_b", "policy", "pr_a_first", "diff", "trials"))
    n = config.trials
    for cell, count in counted:
        city_a, city_b = (inv.origin_city for inv in cell.placed)
        a_first = count[0, 1]
        pr_a, diff = _fmt_prob(a_first / n), _fmt_prob((2 * a_first - n) / n)
        result.rows.append((city_a, city_b, cell.tags[2], pr_a, diff, n))
    return result


def _tradeoff_cells(config: ExperimentConfig, run: SimulationRun) -> list:
    """A tradeoff_curve run's cells: the slow city, whose honest stamp
    for one invoke time is the later (the first origin on a tie), invokes
    ``gap`` ms before the fast one, for each policy and gap."""
    if len(config.origins) != 2:
        raise ConfigError("tradeoff_curve needs exactly two origin cities")
    if not config.gaps_ms:
        raise ConfigError("tradeoff_curve needs a gap sweep")
    t0 = config.slot_ms * US_PER_MS // 2
    slow, fast = sorted(
        config.origins,
        key=lambda city: assigned_timestamps(run, [Invocation(b"early", t0, city)], {})[0],
        reverse=True,
    )
    placed = [
        (gap_ms, _placed((("early", t0, slow), ("late", t0 + gap_ms * US_PER_MS, fast))))
        for gap_ms in config.gaps_ms
    ]
    return [
        Cell(("gap", spec, gap_ms), policy, commands, {})
        for spec, policy in zip(config.policies, config.parsed_policies)
        for gap_ms, commands in placed
    ]


def _tradeoff_table(config: ExperimentConfig, counted) -> TableResult:
    result = TableResult(header=("gap_ms", "policy", "early_city", "pr_early_first", "trials"))
    for cell, count in counted:
        _, spec, gap_ms = cell.tags
        pr_early = _fmt_prob(count[0, 1] / config.trials)
        result.rows.append((gap_ms, spec, cell.placed[0].origin_city, pr_early, config.trials))
    return result


def _colluder_ids(config: ExperimentConfig, sro: SroHandle):
    n, f = sro.config.n, sro.config.f
    count = f if config.colluders == "max" else int(config.colluders)
    if count > f:
        raise ConfigError(f"colluders must be in [0, f={f}]")
    return tuple(range(n - count, n))


# the labels of a sandwich cell's commands, in their order in the cell
_SANDWICH_LABELS = (attacks.VICTIM, attacks.ATTACKER_BUY, attacks.ATTACKER_SELL)


def _sandwich_cells(config: ExperimentConfig, run: SimulationRun) -> list:
    """A sandwich run's cells, one per policy: the victim invokes
    from origins[0], the attacker's two commands from origins[1].
    Colluding nodes misreport timestamps around the victim under the
    median-timestamp policies; the leader/receive baselines run honest."""
    if len(config.origins) != 2:
        raise ConfigError("sandwich needs (victim_city, attacker_city) origins")
    if len(config.offsets_ms) != 2:
        raise ConfigError("sandwich needs two offsets_ms, one per attacker command")
    victim_city, attacker_city = config.origins
    colluders = _colluder_ids(config, run.sro)
    t0 = config.slot_ms * US_PER_MS // 2
    buy_us, sell_us = (t0 + ms * US_PER_MS for ms in config.offsets_ms)
    placed = _placed(zip(
        _SANDWICH_LABELS, (t0, buy_us, sell_us), (victim_city, attacker_city, attacker_city)
    ))
    victim, *attackers = placed
    plan = private_relay_placement(victim, attackers, colluders, run)
    return [
        Cell(("sand", spec), policy, placed, plan if policy.kind.median_timestamps else {})
        for spec, policy in zip(config.policies, config.parsed_policies)
    ]


def _sandwich_table(config: ExperimentConfig, counted) -> TableResult:
    result = TableResult(
        header=("policy", "order", "frequency", "victim_usd", "attacker_usd")
    )
    table = attacks.payoff_table()
    n = config.trials
    index = {label: i for i, label in enumerate(_SANDWICH_LABELS)}
    indices = {order: tuple(index[label] for label in order) for order in attacks.PERMUTATIONS}
    # each order's text and payoffs, formatted once per table: (order, victim, attacker)
    texts = {
        order: ("-".join(order), *(_fmt_usd(usd) for usd in table[order]))
        for order in indices
    }
    for cell, count in counted:
        spec = cell.tags[1]
        per_order = {order: count[key] for order, key in indices.items()}
        expected = attacks.expected_attacker_profit(table, per_order, n)
        for order, c in per_order.items():
            order_text, victim_usd, attacker_usd = texts[order]
            result.rows.append((spec, order_text, _fmt_prob(c / n), victim_usd, attacker_usd))
        result.rows.append((spec, "expected", "1.000000", "", _fmt_usd(expected)))
    return result


def _liquidation_table(config: ExperimentConfig, counted) -> TableResult:
    result = TableResult(header=("policy", "city", "pr_first", "expected_usd"))
    n, prize = config.trials, config.prize_usd
    for cell, count in counted:
        a_first = count[0, 1]
        for inv, first in zip(cell.placed, (a_first, n - a_first)):
            result.rows.append(
                (cell.tags[2], inv.origin_city, _fmt_prob(first / n), _fmt_usd(first * prize / n))
            )
    return result


def _bounds_table(config: ExperimentConfig, counted) -> TableResult:
    delta_net_us = config.delta_net_ms * US_PER_MS
    result = TableResult(
        header=("n", "alpha", "epsilon", "lower", "upper", "delta_us")
    )
    for n in config.bounds_n:
        for alpha in config.parsed_alphas:
            eps = analysis.epsilon_general(n, alpha)
            lower, upper = analysis.order_prob_bounds(n, alpha)
            delta_noise_us = int(delta_net_us / alpha)
            delta = analysis.delta_linearizability(delta_net_us, delta_noise_us)
            result.rows.append(
                (n, str(alpha), _fmt_prob(eps), _fmt_prob(lower), _fmt_prob(upper), delta)
            )
    return result


# the config-file keys every simulated scenario reads
_RUN_KEYS = ("topology", "policies", "dnet_ms", "slot_ms", "trials", "seed", "origins")

# scenario -> (its cells, from (config, run), or None for a closed-form
# table, which counts no trials; its table, from (config, [(cell, counts)]);
# the config-file keys it reads besides scenario and output)
_SCENARIOS = {
    # Pr[A first] - Pr[B first] for simultaneous invocations per city pair
    "geo_bias": (_geo_cells, _geo_bias_table, _RUN_KEYS),
    # Pr[early sender first] as its head start grows; the curve must reach
    # 1.0 once the gap clears the policy's inversion horizon
    "tradeoff_curve": (_tradeoff_cells, _tradeoff_table, (*_RUN_KEYS, "gaps_ms")),
    # permutation frequencies and attacker profit for the bracketing attack
    "sandwich": (_sandwich_cells, _sandwich_table, (*_RUN_KEYS, "colluders", "offsets_ms")),
    # expected liquidation payout per client when only the first wins
    "liquidation": (_geo_cells, _liquidation_table, (*_RUN_KEYS, "prize_usd")),
    # closed-form equality/linearizability figures over the (n, alpha) grid
    "bounds_table": (None, _bounds_table, ("dnet_ms", "bounds_n", "alphas")),
}


def count_trials(config: ExperimentConfig, start: int, stop: int) -> list:
    """Each of ``config``'s cells with its counted orders over trials
    [start, stop), as (``Cell``, ``Counter``) pairs in the order its table
    lists them; none for a closed-form table.  Trial t's order does not
    depend on the range, so the counts of disjoint ranges add up to the
    count of their union, whichever process made each."""
    cells_for = _SCENARIOS[config.scenario][0]
    if cells_for is None:
        return []
    run = _run_for(config)
    cells = cells_for(config, run)
    return list(zip(cells, _count_cells(run, config, cells, range(start, stop))))


def tabulate(config: ExperimentConfig, counted) -> TableResult:
    """``config``'s table from its cells' counts over all its trials, as
    ``count_trials`` pairs them.  It is a ``ContractError`` unless the
    counted cells' tags are, in order, those of every cell the table lists
    (none for a closed-form table), each cell's counts sum to
    ``config.trials``, no count is negative and every order counted is one
    its cell can produce, a permutation of its command indices."""
    cells_for, table = _SCENARIOS[config.scenario][:2]
    cells = cells_for(config, _run_for(config)) if cells_for else []
    if [cell.tags for cell, _ in counted] != [cell.tags for cell in cells]:
        raise ContractError(
            f"counts for {len(counted)} cells, not the {len(cells)} cells the"
            f" {config.scenario} table lists, in its order"
        )
    for cell, (_, counts) in zip(cells, counted):
        for order, k in counts.items():
            if k < 0:
                raise ContractError(f"cell {cell.tags} counts order {order} {k} times")
        if (total := counts.total()) != config.trials:
            raise ContractError(f"cell {cell.tags} counts {total} trials, not {config.trials}")
        if stray := counts.keys() - set(permutations(range(len(cell.placed)))):
            raise ContractError(f"cell {cell.tags} counts orders it cannot produce: {stray}")
    return table(config, counted)


def run_experiment(config: ExperimentConfig) -> TableResult:
    """``config``'s table, its trials counted in this process.  The counts
    are ``count_trials``' own, every cell over every trial, so they need
    none of ``tabulate``'s checks, and no second run is built."""
    return _SCENARIOS[config.scenario][1](config, count_trials(config, 0, config.trials))

"""Every committed ``pompe`` and ``bercow`` row against its exact value.

Under ``pompe`` and ``bercow:<w>`` a cell's commands get integer assigned
timestamps (µs) and independent integer noise, uniform on {0, ..., w-1}
(none under ``pompe``); commands whose noised stamps tie are ordered by a
hash of the trial's ids, so uniformly at random.  Add an independent
U[0, 1) to each noised stamp: the noise becomes continuous U[0, w), and the
fractional parts order exactly the tied commands, uniformly.  So Pr[an
order] is ``order_prob_integrate(stamps, w, order)``, with w = 1 µs under
``pompe``.  Two idealizations remain: the hash is taken as a random oracle,
and the 64-bit scaling of the noise is off by at most 2^-64.
``test_discrete_twin.py`` checks the equivalence itself.

The stamps come from ``tests/reference.py`` (``run_slotted``), which
restates the stamping rule, not from the engine.  On the bundled topology
no committed origin's (f+1)-th and (f+2)-th smallest reports differ, so
one more cell, on a four-node topology built here, is fenced from the
engine's own counts: there a stamp one report off would reverse the order.

A row whose exact value is 0 or 1 is deterministic and must print exactly
what that value prints.  Any other row counts independent trials, so it
must lie within ``SIGMAS`` standard errors of the exact value, plus half a
unit in the last printed place: the binomial standard error
sqrt(p (1 - p) / trials) at the committed trials for a probability (twice
that for geo_bias's diff, ``prize_usd`` times it for a liquidation payout),
and the multinomial sqrt(Var[profit] / trials) for sandwich's expected
attacker profit.  The bound is fixed in advance, not fitted to the rows.
"""

import csv
from importlib import resources
from math import sqrt
from pathlib import Path

import pytest

from fairorder.adversary import private_relay_placement
from fairorder.analysis import order_prob_integrate
from fairorder.attacks import ATTACKER_BUY, ATTACKER_SELL, VICTIM, sandwich_profits
from fairorder.consensus import OrderingPolicy, SimulationRun, orders_per_cell
from fairorder.domain import CommandIds, Invocation
from fairorder.harness import parse_config
from fairorder.netmodel import bundled_topology, parse_topology
from fairorder.sro import Backend, SroConfig, SroHandle
from reference import run_slotted

RESULTS = Path(__file__).resolve().parent.parent / "results"
SIGMAS = 4
US_PER_MS = 1000
PROB_PLACES, USD_PLACES = 6, 2


def committed(name):
    """The bundled config of ``name`` and its committed CSV rows."""
    cfg = resources.files("fairorder.data") / "configs" / f"{name}.cfg"
    with resources.as_file(cfg) as path:
        config = parse_config(path)
    with open(RESULTS / f"{name}.csv", newline="", encoding="utf-8") as fh:
        return config, list(csv.DictReader(fh))


def network(config) -> SimulationRun:
    """The config's network, f the largest that n >= 3f + 1 allows.  The
    oracle's seed moves only the noise draws, never a stamp."""
    topology = bundled_topology()
    n = topology.n_nodes
    sro = SroHandle(SroConfig(n, (n - 1) // 3, Backend.SEEDED_HASH), bytes(32))
    return SimulationRun(
        topology, config.delta_net_ms * US_PER_MS, config.slot_ms * US_PER_MS, sro
    )


def median_policy(spec) -> bool:
    return spec == "pompe" or spec.startswith("bercow:")


def exact_cell(run, spec, invocations, plan=None):
    """``order -> Pr[order]`` for one cell: the reference's assigned
    stamps, integrated at the policy's noise width (1 µs under pompe)."""
    policy = OrderingPolicy.parse(spec)
    slotted = run_slotted(run, policy, invocations, plan or {})
    ats = [slotted.commands[inv.command_id].assigned_ts for inv in invocations]
    width = max(policy.param_us, 1)
    return lambda order: order_prob_integrate(ats, width, order)


class Fence:
    """Checks printed values against exact ones and keeps each row's pull."""

    def __init__(self):
        self.failures, self.pulls, self.deterministic = [], [], 0

    def check(self, where, printed, value, sigma, places):
        """``printed`` against the exact ``value``: equal as printed when
        ``sigma`` is 0, else within ``SIGMAS`` sigma plus half a unit in
        the last place."""
        if sigma == 0:
            self.deterministic += 1
            if printed != f"{float(value):.{places}f}":
                self.failures.append(f"{where}: printed {printed}, exactly {float(value)}")
            return
        off = abs(float(printed) - float(value))
        self.pulls.append(off / sigma)
        if off > SIGMAS * sigma + 0.5 * 10**-places:
            self.failures.append(
                f"{where}: printed {printed}, exactly {float(value):.7f}, {off / sigma:.2f} sigma"
            )

    def binomial(self, where, printed, p, trials, scale=1, places=PROB_PLACES):
        sigma = scale * sqrt(p * (1 - p) / trials)
        self.check(where, printed, scale * p, sigma, places)


def fence_geo_bias(fence):
    config, rows = committed("geo_bias")
    run = network(config)
    t0 = config.slot_ms * US_PER_MS // 2
    for row in filter(lambda r: median_policy(r["policy"]), rows):
        pair = [Invocation(b"a", t0, row["city_a"]), Invocation(b"b", t0, row["city_b"])]
        p = exact_cell(run, row["policy"], pair)((0, 1))
        trials = int(row["trials"])
        assert trials == config.trials
        where = f"geo_bias {row['city_a']}-{row['city_b']} {row['policy']}"
        fence.binomial(where, row["pr_a_first"], p, trials)
        fence.check(f"{where} diff", row["diff"], 2 * p - 1,
                    2 * sqrt(p * (1 - p) / trials), PROB_PLACES)


def fence_tradeoff_curve(fence):
    config, rows = committed("tradeoff_curve")
    run = network(config)
    t0 = config.slot_ms * US_PER_MS // 2
    for row in filter(lambda r: median_policy(r["policy"]), rows):
        (late_city,) = set(config.origins) - {row["early_city"]}
        gap_us = int(row["gap_ms"]) * US_PER_MS
        commands = [Invocation(b"early", t0, row["early_city"]),
                    Invocation(b"late", t0 + gap_us, late_city)]
        p = exact_cell(run, row["policy"], commands)((0, 1))
        assert int(row["trials"]) == config.trials
        where = f"tradeoff_curve gap {row['gap_ms']} {row['policy']}"
        fence.binomial(where, row["pr_early_first"], p, config.trials)


def fence_sandwich(fence):
    config, rows = committed("sandwich")
    run = network(config)
    topology, f = run.topology, run.sro.config.f
    count = f if config.colluders == "max" else int(config.colluders)
    colluders = range(topology.n_nodes - count, topology.n_nodes)
    t0 = config.slot_ms * US_PER_MS // 2
    victim_city, attacker_city = config.origins
    buy_ms, sell_ms = config.offsets_ms
    labels = (VICTIM, ATTACKER_BUY, ATTACKER_SELL)
    victim, buy, sell = (
        Invocation(label.encode(), t0 + ms * US_PER_MS, city)
        for label, ms, city in zip(labels, (0, buy_ms, sell_ms),
                                   (victim_city, attacker_city, attacker_city))
    )
    plan = private_relay_placement(victim, [buy, sell], colluders, run)
    cells = {}
    for row in filter(lambda r: median_policy(r["policy"]), rows):
        cells.setdefault(row["policy"], []).append(row)
    for spec, cell_rows in cells.items():
        pr = exact_cell(run, spec, [victim, buy, sell], plan)
        *order_rows, expected = cell_rows
        profit = {}
        for row in order_rows:
            order = tuple(row["order"].split("-"))
            p = pr(tuple(labels.index(label) for label in order))
            profit[order] = (p, sandwich_profits(order)[1])
            fence.binomial(f"sandwich {spec} {row['order']}", row["frequency"], p, config.trials)
        assert len(profit) == 6 and expected["order"] == "expected"
        assert sum(p for p, _ in profit.values()) == 1
        mean = sum(p * usd for p, usd in profit.values())
        variance = sum(p * usd**2 for p, usd in profit.values()) - mean**2
        fence.check(f"sandwich {spec} expected", expected["attacker_usd"], mean,
                    sqrt(variance / config.trials), USD_PLACES)


def fence_liquidation(fence):
    config, rows = committed("liquidation")
    run = network(config)
    t0 = config.slot_ms * US_PER_MS // 2
    city_a, city_b = config.origins
    pair = [Invocation(b"a", t0, city_a), Invocation(b"b", t0, city_b)]
    for row_a, row_b in zip(rows[::2], rows[1::2]):
        spec = row_a["policy"]
        assert row_b["policy"] == spec and (row_a["city"], row_b["city"]) == (city_a, city_b)
        if not median_policy(spec):
            continue
        p = exact_cell(run, spec, pair)((0, 1))
        for row, first in ((row_a, p), (row_b, 1 - p)):
            where = f"liquidation {spec} {row['city']}"
            fence.binomial(where, row["pr_first"], first, config.trials)
            fence.binomial(f"{where} payout", row["expected_usd"], first, config.trials,
                           scale=config.prize_usd, places=USD_PLACES)


@pytest.mark.parametrize(
    "table, checks",
    [
        # geo_bias: 18 rows, each a probability and a diff; liquidation: 4
        # rows, each a probability and a payout; sandwich: 2 policies of 6
        # orders and an expected profit
        (fence_geo_bias, 36),
        (fence_tradeoff_curve, 51),
        (fence_sandwich, 14),
        (fence_liquidation, 8),
    ],
    ids=["geo_bias", "tradeoff_curve", "sandwich", "liquidation"],
)
def test_committed_rows_equal_their_exact_values(table, checks):
    # about 0.1 s for all four tables on one core of a shared 2-vCPU Xeon
    fence = Fence()
    table(fence)
    assert not fence.failures, "\n".join(fence.failures)
    assert fence.deterministic + len(fence.pulls) == checks
    print(f"{table.__name__}: {fence.deterministic} exact, {len(fence.pulls)} within "
          f"{SIGMAS} sigma, worst {max(fence.pulls, default=0):.2f} sigma")


# n = 4, f = 1: a quorum is 3 reports and its median the 2nd smallest.  From
# "west" the nodes receive at +1, +1, +10 and +100 ms, so the 2nd and 3rd
# smallest reports differ by 9 ms; from "east" at +10, +10, +1 and +50 ms.
SMALL_TOPOLOGY = """
city west 2
city east 1
city far 1
delay west east 10
delay west far 100
delay east far 50
"""
SMALL_TRIALS = 4000


def test_a_cell_whose_median_report_decides_its_order():
    # west invokes 5 ms after east: stamped at its 2nd smallest report it
    # is 4 ms ahead, at its 3rd it would be 5 ms behind.  pompe must order
    # it first in every trial; bercow:20, whose noise is wider than either
    # gap, with Pr 0.68 against 0.28 for the 3rd report
    topology = parse_topology(SMALL_TOPOLOGY)
    sro = SroHandle(SroConfig(4, 1, Backend.SEEDED_HASH), bytes(32))
    run = SimulationRun(topology, 300 * US_PER_MS, 1500 * US_PER_MS, sro)
    reports = sorted(topology.delays_from("west"))
    assert reports[1] != reports[2]  # the (f+1)-th and (f+2)-th smallest
    t0 = 750 * US_PER_MS
    pair = [Invocation(b"w", t0 + 5 * US_PER_MS, "west"), Invocation(b"e", t0, "east")]
    fence = Fence()
    for spec in ("pompe", "bercow:20"):
        cell = (OrderingPolicy.parse(spec), pair, {}, CommandIds(("small", spec), "we"), None)
        (orders,) = orders_per_cell(run, [cell], SMALL_TRIALS)
        west_first = sum(order == (0, 1) for order in orders)
        p = exact_cell(run, spec, pair)((0, 1))
        fence.binomial(f"small {spec}", f"{west_first / SMALL_TRIALS:.6f}", p, SMALL_TRIALS)
    assert not fence.failures, "\n".join(fence.failures)
    assert (fence.deterministic, len(fence.pulls)) == (1, 1)

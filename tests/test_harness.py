import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from fairorder import adversary, attacks, consensus, domain, harness
from fairorder.adversary import private_relay_placement
from fairorder.analysis import epsilon_general
from fairorder.cli import main
from fairorder.consensus import (
    OrderingPolicy,
    PolicyKind,
    SimulationRun,
)
from fairorder.domain import (
    US_PER_MS,
    CommandIds,
    ContractError,
    Invocation,
    encode_id_part,
    quorum_median,
)
from fairorder.harness import (
    Cell,
    ConfigError,
    ExperimentConfig,
    TableResult,
    _cell_trial_seed,
    _colluder_ids,
    _count_cells,
    _fmt_prob,
    _fmt_usd,
    _placed,
    _run_for,
    count_trials,
    emit_csv,
    parse_config,
    resolve_topology,
    run_experiment,
    tabulate,
)
from fairorder.sro import SroHandle, sign_slot
from one_cell import trial_orders
from reference import (
    make_command_id,
    order_leader_rotation,
    order_receive_all_correct,
    run_slotted,
    trial_seed,
)

CONFIG_DIR = resources.files("fairorder.data") / "configs"


def small(**kw):
    base = dict(
        scenario="geo_bias",
        policies=("pompe", "bercow:1500"),
        origins=("washington", "tokyo"),
        trials=150,
        seed=99,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_bundled_configs_parse(self, tmp_path):
        for name in ("geo_bias", "tradeoff_curve", "sandwich", "liquidation", "bounds_table"):
            text = (CONFIG_DIR / f"{name}.cfg").read_text()
            path = tmp_path / f"{name}.cfg"
            path.write_text(text)
            config = parse_config(path)
            assert config.scenario == name.replace("tradeoff_curve", "tradeoff_curve")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="quantum")

    @pytest.mark.parametrize(
        "field, value, key",
        [("delta_net_ms", 0, "dnet_ms"), ("slot_ms", 0, "slot_ms"), ("gaps_ms", (-1, 0), "gaps_ms")],
    )
    def test_delay_bounds_must_hold(self, field, value, key):
        with pytest.raises(ConfigError, match=key):
            small(**{field: value})

    @pytest.mark.parametrize("key", ["policies", "alphas", "bounds_n"])
    def test_empty_list_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            small(**{key: ()})

    def test_negative_prize_rejected(self):
        with pytest.raises(ConfigError, match="prize_usd must be >= 0, got -1"):
            small(scenario="liquidation", prize_usd=-1)
        assert small(scenario="liquidation", prize_usd=0).prize_usd == 0

    @pytest.mark.parametrize("scenario, line", [
        ("geo_bias", "gaps_ms = 0,50"),
        ("liquidation", "offsets_ms = 1,25"),
        ("sandwich", "prize_usd = 5"),
        ("tradeoff_curve", "colluders = max"),
        ("bounds_table", "seed = 3"),
    ])
    def test_file_key_the_scenario_never_reads(self, tmp_path, scenario, line):
        path = tmp_path / "unread.cfg"
        path.write_text(f"scenario = {scenario}\n# a comment\n{line}\n")
        key = line.partition(" ")[0]
        message = f"unread.cfg:3: the {scenario} scenario never reads '{key}'"
        with pytest.raises(ConfigError, match=message):
            parse_config(path)

    def test_config_in_code_keeps_unread_defaults(self):
        # only a key written in a file is checked against its scenario
        config = small(gaps_ms=(0, 50), offsets_ms=(2, 3), prize_usd=7)
        assert (config.gaps_ms, config.offsets_ms, config.prize_usd) == ((0, 50), (2, 3), 7)

    def test_every_scenario_reads_only_config_keys(self):
        for scenario, (_, _, keys) in harness._SCENARIOS.items():
            assert set(keys) <= set(harness.CONFIG_KEYS) - {"scenario", "output"}, scenario

    @pytest.mark.parametrize("key, line", [
        ("policies", "scenario = geo_bias\npolicies = pompe,receive,pompe"),
        ("policies", "scenario = sandwich\npolicies = bercow:300,bercow:0300"),
        ("origins", "scenario = geo_bias\norigins = washington,washington,tokyo"),
        ("origins", "scenario = geo_bias\norigins = london,london"),
        ("gaps_ms", "scenario = tradeoff_curve\ngaps_ms = 0,0,5"),
        ("alphas", "scenario = bounds_table\nalphas = 1/5,0.2"),
        ("bounds_n", "scenario = bounds_table\nbounds_n = 2,3,2"),
    ])
    def test_repeated_entries_rejected(self, tmp_path, key, line):
        # a repeat would print its rows twice; policies and alphas compare
        # as parsed
        path = tmp_path / "repeat.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=f"{key} must not repeat an entry"):
            parse_config(path)

    def test_only_geo_bias_refuses_a_repeated_origin(self):
        for scenario in ("tradeoff_curve", "sandwich", "liquidation"):
            assert small(scenario=scenario, origins=("london", "london")).origins

    def test_alpha_is_an_exact_ratio(self):
        # a float in a config built in code is refused, not read as the
        # binary fraction nearest it; text is read as written
        with pytest.raises(ConfigError, match="pass alpha as"):
            ExperimentConfig(scenario="bounds_table", alphas=(0.2,), bounds_n=(2,))
        with pytest.raises(ConfigError, match="expected alpha as an exact ratio"):
            ExperimentConfig(scenario="bounds_table", alphas=("1/0",), bounds_n=(2,))
        config = ExperimentConfig(scenario="bounds_table", alphas=("0.2",), bounds_n=(2,))
        assert config.parsed_alphas == (Fraction(1, 5),)
        assert run_experiment(config).rows == [(2, "1/5", "0.360000", "0.320000", "0.680000",
                                                1_800_000)]

    def test_gap_sweep_must_be_monotone(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="tradeoff_curve", gaps_ms=(5, 1))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("scenario geo_bias\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_policy_parsing(self):
        assert OrderingPolicy.parse("pompe").kind.value == "pompe"
        assert OrderingPolicy.parse("bercow:1500").param_us == 1_500_000
        assert OrderingPolicy.parse("leader:500").param_us == 500_000
        with pytest.raises(ContractError):
            OrderingPolicy.parse("bercow")
        with pytest.raises(ContractError):
            OrderingPolicy.parse("anarchy")

    def test_each_value_is_parsed_once(self, monkeypatch):
        # a config parses each spec and alpha when it is built, also through
        # replace, and keeps them out of init, repr and compare; a run
        # parses none of them again
        calls = Counter()
        parse_spec, parse_alpha = OrderingPolicy.parse, harness.parse_alpha

        def parsing_spec(cls, spec):
            calls[spec] += 1
            return parse_spec(spec)

        def parsing_alpha(text):
            calls[text] += 1
            return parse_alpha(text)

        monkeypatch.setattr(OrderingPolicy, "parse", classmethod(parsing_spec))
        monkeypatch.setattr(harness, "parse_alpha", parsing_alpha)
        for name in ("geo_bias", "tradeoff_curve", "sandwich", "liquidation", "bounds_table"):
            calls.clear()
            config = parse_config(CONFIG_DIR / f"{name}.cfg")
            values = (*config.policies, *config.alphas)
            assert calls == Counter(values)
            config = replace(config, trials=2)
            assert calls == Counter(values * 2)
            calls.clear()
            run_experiment(config)
            assert not calls, name
        parsed = [f for f in fields(config) if f.name.startswith("parsed_")]
        assert [(f.init, f.repr, f.compare) for f in parsed] == [(False, False, False)] * 2
        with pytest.raises(FrozenInstanceError):  # a spec cannot change under its parse
            config.policies = ("receive",)

    def test_topology_env_dir(self, tmp_path, monkeypatch):
        (tmp_path / "tiny.topo").write_text("city a 4\n")
        monkeypatch.setenv("FAIRORDER_TOPOLOGY_DIR", str(tmp_path))
        assert resolve_topology("tiny.topo").n_nodes == 4


class TestEmit:
    def test_byte_stable_outputs(self, tmp_path):
        config = small(trials=60)
        text1 = run_experiment(config).to_csv_text()
        text2 = run_experiment(config).to_csv_text()
        assert text1 == text2
        out = tmp_path / "geo.csv"
        emit_csv(run_experiment(config), out)
        assert out.read_text() == text1

    def test_empty_result_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_csv(TableResult(header=("a", "b")), out)
        assert out.read_text() == "a,b\n"

    def test_io_error_carries_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        target = blocker / "file.csv"
        with pytest.raises(OSError, match="blocker"):
            emit_csv(TableResult(header=("a",)), str(target))


class TestGeoBias:
    def test_row_count_structure(self):
        config = small(origins=("washington", "london", "tokyo"), trials=40)
        result = run_experiment(config)
        assert len(result.rows) == 3 * len(config.policies)  # pairs x policies

    def test_deterministic_policies_give_diff_one(self):
        config = small(policies=("pompe", "receive"), trials=40)
        for row in run_experiment(config).rows:
            assert row[3] == "1.000000"
            assert row[4] == "1.000000"

    def test_same_city_pair_unbiased(self):
        # a geo_bias run refuses a repeated origin; a liquidation's one pair,
        # counted as geo_bias counts it, may race from one city
        config = small(
            scenario="liquidation", policies=("bercow:1500",), origins=("london", "london"),
            trials=4000,
        )
        first, _ = run_experiment(config).rows
        assert abs(2 * float(first[2]) - 1) < 0.05

    def test_bercow_diff_within_epsilon_bound(self):
        config = small(policies=("bercow:1500",), trials=400)
        (row,) = run_experiment(config).rows
        bound = float(epsilon_general(2, Fraction(300, 1500)))
        sigma = 2 * (0.25 / config.trials) ** 0.5
        assert abs(float(row[4])) <= bound + 4 * sigma

    def test_needs_two_origins(self):
        with pytest.raises(ConfigError):
            run_experiment(small(origins=("london",)))


class TestTradeoff:
    def test_curve_reaches_one_past_horizon(self):
        config = small(
            scenario="tradeoff_curve",
            policies=("bercow:1500",),
            gaps_ms=(0, 1801),
            trials=150,
        )
        rows = run_experiment(config).rows
        by_gap = {row[0]: float(row[3]) for row in rows}
        assert by_gap[1801] == 1.0
        assert 0.3 < by_gap[0] < 0.7

    def test_early_city_is_disadvantaged_one(self):
        config = small(
            scenario="tradeoff_curve", policies=("pompe",), gaps_ms=(0,), trials=10
        )
        rows = run_experiment(config).rows
        assert rows[0][2] == "tokyo"

    def test_needs_gaps(self):
        with pytest.raises(ConfigError):
            run_experiment(small(scenario="tradeoff_curve", gaps_ms=()))

    @pytest.mark.parametrize("origins", [("far", "near"), ("near", "far")])
    def test_clamped_stamps_keep_the_origins_order(self, tmp_path, origins):
        # Both origins' quorum medians, 250 and 200 ms, exceed delta_net, so
        # both stamps clamp to t0 + 100 ms and the early city is the first
        # origin in either order: the ranking is the engine's stamp rule.
        path = tmp_path / "clamped.topo"
        path.write_text(
            "city far 1\ncity near 1\ncity hub 2\n"
            "delay far near 250\ndelay far hub 300\ndelay near hub 200\n"
        )
        topology = resolve_topology(str(path))
        medians = [quorum_median(topology.delays_from(city), 1) for city in ("far", "near")]
        assert medians == [250 * US_PER_MS, 200 * US_PER_MS]
        config = small(
            scenario="tradeoff_curve", topology=str(path), delta_net_ms=100, origins=origins,
            policies=("pompe",), gaps_ms=(0,), trials=10,
        )
        (row,) = run_experiment(config).rows
        assert row[2] == origins[0]

    def test_narrow_noise_has_short_horizon(self):
        # With noise width equal to the delay bound, the slower city's head
        # start guarantees first place well before 600 ms (the washington vs
        # tokyo quorum medians sit 70 ms apart, so the horizon is 370 ms).
        config = small(
            scenario="tradeoff_curve",
            policies=("bercow:300",),
            gaps_ms=(370, 600),
            trials=300,
        )
        rows = run_experiment(config).rows
        assert all(float(row[3]) == 1.0 for row in rows)

    def test_wide_noise_keeps_outcome_uncertain_at_400ms(self):
        # Same setup at five times the noise: a 400 ms head start still only
        # wins about 70% of the time.
        config = small(
            scenario="tradeoff_curve",
            policies=("bercow:1500",),
            gaps_ms=(400,),
            trials=1200,
        )
        (row,) = run_experiment(config).rows
        assert 0.62 < float(row[3]) < 0.77


class TestSandwich:
    def test_pompe_with_relay_always_wins(self):
        config = small(
            scenario="sandwich", policies=("pompe",),
            origins=("munich", "london"), trials=60, colluders="max",
        )
        rows = run_experiment(config).rows
        freq = {row[1]: float(row[2]) for row in rows if row[1] != "expected"}
        assert freq["i2-i1-i3"] == 1.0
        expected = [row for row in rows if row[1] == "expected"][0]
        assert float(expected[4]) == 800.0

    def test_bercow_with_relay_caps_profit(self):
        config = small(
            scenario="sandwich", policies=("bercow:1500",),
            origins=("munich", "london"), trials=400, colluders="max",
        )
        rows = run_experiment(config).rows
        expected = [row for row in rows if row[1] == "expected"][0]
        assert float(expected[4]) < 0.35 * 800

    def test_negative_seed(self):
        # The CSV written before the slotted cells were batched.
        config = small(
            scenario="sandwich", policies=("bercow:1500",),
            origins=("munich", "london"), trials=40, colluders="max", seed=-1,
        )
        assert run_experiment(config).to_csv_text().splitlines() == [
            "policy,order,frequency,victim_usd,attacker_usd",
            "bercow:1500,i1-i2-i3,0.325000,300.00,0.00",
            "bercow:1500,i1-i3-i2,0.075000,300.00,0.00",
            "bercow:1500,i2-i1-i3,0.100000,-500.00,800.00",
            "bercow:1500,i2-i3-i1,0.200000,300.00,0.00",
            "bercow:1500,i3-i1-i2,0.100000,700.00,-400.00",
            "bercow:1500,i3-i2-i1,0.200000,300.00,0.00",
            "bercow:1500,expected,1.000000,,40.00",
        ]

    def test_payoff_table_built_once_per_process(self, monkeypatch):
        built = []
        sandwich_profits = attacks.sandwich_profits

        def counting(order):
            built.append(order)
            return sandwich_profits(order)

        monkeypatch.setattr(attacks, "sandwich_profits", counting)
        attacks.payoff_table.cache_clear()
        config = small(
            scenario="sandwich", policies=("pompe", "receive"),
            origins=("munich", "london"), trials=5,
        )
        first, second = (run_experiment(config).to_csv_text() for _ in range(2))
        assert first == second
        assert len(built) == len(attacks.PERMUTATIONS)
        table = attacks.payoff_table()
        assert dict(table) == {order: sandwich_profits(order) for order in attacks.PERMUTATIONS}
        with pytest.raises(TypeError):
            table[attacks.PERMUTATIONS[0]] = (0, 0)

    def test_colluder_count_validated(self):
        config = small(scenario="sandwich", origins=("munich", "london"), colluders="99")
        with pytest.raises(ConfigError):
            run_experiment(config)


def cell_orders(run, config, spec, tags, commands, plan=None):
    """``trial_orders`` on one table cell, with the ids and trial seeds that
    ``_count_orders`` gives it."""
    labels = [label for label, _, _ in commands]
    return trial_orders(
        run, OrderingPolicy.parse(spec), _placed(commands), plan or {}, config.trials,
        CommandIds(tags, labels), _cell_trial_seed(config.seed, tags),
    )


def counted(run, config, spec, tags, commands, plan=None) -> Counter:
    """``_count_cells`` on one table cell given as the runners list it."""
    cell = Cell(tags, OrderingPolicy.parse(spec), _placed(commands), plan or {})
    (counts,) = _count_cells(run, config, [cell], range(config.trials))
    return counts


def labelled(counts, commands) -> Counter:
    """``_count_cells``' counts with each order as the tuple of its labels."""
    labels = [label for label, _, _ in commands]
    return Counter({tuple(labels[i] for i in order): n for order, n in counts.items()})


def assert_engine_matches_per_trial(
    run, config, spec, tags, commands, reference_orders, plan=None
):
    """Trial t of ``trial_orders``, on the cell the harness builds, gives the
    reference's order of trial t, for each of the config's trials."""
    labels = [label for label, _, _ in commands]
    engine = cell_orders(run, config, spec, tags, commands, plan)
    assert [tuple(labels[i] for i in order) for order in engine] == reference_orders, commands


def per_trial_orders(config, topology, sro, spec, tags, commands, colluders):
    """One ``run_slotted`` per trial, each with its own adversary plan.

    The reference for the slotted path of ``trial_orders``: each trial's
    order of labels, and the decided slot indices of every trial's run.
    """
    policy = OrderingPolicy.parse(spec)
    delta_net_us = config.delta_net_ms * US_PER_MS
    network = SimulationRun(topology, delta_net_us, config.slot_ms * US_PER_MS, sro)
    orders, decided_slots = [], set()
    for trial in range(config.trials):
        labels = {make_command_id(*tags, trial, label): label for label, _, _ in commands}
        placed = [Invocation(cid, t_us, city) for cid, (_, t_us, city) in zip(labels, commands)]
        plan = {}
        if colluders:
            victim, *attackers = placed
            plan = private_relay_placement(victim, attackers, colluders, network)
        result = run_slotted(network, policy, placed, plan)
        orders.append(tuple(labels[cid] for cid in result.ledger.entries))
        decided_slots.update(slot.index for slot in result.slots if slot.decided_commands)
    return orders, decided_slots


class TestSlottedEngine:
    @pytest.mark.parametrize("spec", ["pompe", "bercow:300", "bercow:1500", "bercow:5000"])
    @pytest.mark.parametrize("n_commands, colluders", [(2, "0"), (3, "max")])
    def test_counts_equal_per_trial_runs(self, spec, n_commands, colluders):
        # One command is invoked more than dnet before a slot boundary and
        # one at or after it, so every cell decides commands in two slots.
        rnd = random.Random(f"{spec}/{n_commands}")
        config = small(scenario="sandwich", trials=60, colluders=colluders)
        run = _run_for(config)
        topology, sro = run.topology, run.sro
        slot_us, dnet_us = config.slot_ms * US_PER_MS, config.delta_net_ms * US_PER_MS
        for cell in range(3):
            times = [
                slot_us - dnet_us - rnd.randrange(1, 100 * US_PER_MS),
                slot_us + rnd.randrange(0, 100 * US_PER_MS),
            ]
            times += [slot_us + rnd.randrange(-dnet_us, dnet_us)] * (n_commands - 2)
            rnd.shuffle(times)
            commands = tuple(
                (label, t_us, rnd.choice(topology.city_names))
                for label, t_us in zip(("v", "x", "y"), times)
            )
            tags = ("engine", spec, cell)
            colluder_ids = _colluder_ids(config, sro)
            want, decided_slots = per_trial_orders(
                config, topology, sro, spec, tags, commands, colluder_ids
            )
            victim, *attackers = _placed(commands)
            plan = private_relay_placement(victim, attackers, colluder_ids, run)
            assert_engine_matches_per_trial(run, config, spec, tags, commands, want, plan)
            got = labelled(counted(run, config, spec, tags, commands, plan), commands)
            assert got == Counter(want), commands
            assert len(decided_slots) >= 2

    def test_stamps_and_reveals_once_per_cell(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(consensus, "observe", counting("observe", consensus.observe))
        monkeypatch.setattr(SroHandle, "reveal", counting("reveal", SroHandle.reveal))
        per_trials = {}
        for trials in (5, 50):
            calls.clear()
            run_experiment(small(
                scenario="sandwich", policies=("bercow:1500",),
                origins=("munich", "london"), trials=trials, colluders="max",
            ))
            per_trials[trials] = dict(calls)
        assert per_trials[5]["reveal"] >= 1
        assert per_trials[5] == per_trials[50]

    def test_stamps_each_distinct_command_once_per_run(self, monkeypatch):
        # the median-policy cells of one run share their stamps and plan; a
        # second run stamps and plans again
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(consensus, "observe", counting("stamp", consensus.observe))
        monkeypatch.setattr(
            harness, "private_relay_placement", counting("plan", private_relay_placement)
        )
        sandwich = small(
            scenario="sandwich", policies=("pompe", "bercow:300", "bercow:1500"),
            origins=("munich", "london"), trials=5, colluders="max",
        )
        first = run_experiment(sandwich).to_csv_text()
        assert calls == {"stamp": 3, "plan": 1}
        assert run_experiment(sandwich).to_csv_text() == first
        assert calls == {"stamp": 6, "plan": 2}
        calls.clear()
        cities = ("washington", "london", "munich", "tokyo")
        run_experiment(small(policies=("pompe", "bercow:300", "bercow:1500"), origins=cities))
        assert calls == {"stamp": 4}  # 6 pairs x 3 policies x 2 commands, 4 distinct


    def test_certifies_and_reveals_each_distinct_slot_once_per_run(self, monkeypatch):
        # the median-policy cells of one run share each decided slot's seed;
        # a second run certifies and reveals again
        calls, decided = Counter(), set()
        stamp = consensus.assigned_timestamps

        def recording(run, invocations, plan):
            assigned = stamp(run, invocations, plan)
            decided.update(ats // run.slot_interval_us for ats in assigned)
            return assigned

        def counting(name):
            fn = getattr(SroHandle, name)

            def wrapper(self, k_or_req, *args):
                calls[name, getattr(k_or_req, "k", k_or_req)] += 1
                return fn(self, k_or_req, *args)
            return wrapper

        monkeypatch.setattr(consensus, "assigned_timestamps", recording)
        for name in ("reveal", "quorum_signatures", "signatures_valid"):
            monkeypatch.setattr(SroHandle, name, counting(name))
        config = small(
            policies=("pompe", "bercow:300", "bercow:1500"), slot_ms=100, trials=5,
            origins=("washington", "london", "munich", "tokyo"),
        )
        first = run_experiment(config).to_csv_text()
        once = Counter(
            {(name, k): 1 for name in ("reveal", "quorum_signatures", "signatures_valid")
             for k in decided}
        )
        assert len(decided) > 1 and calls == once
        assert run_experiment(config).to_csv_text() == first
        assert calls == once + once


def per_trial_baseline_orders(config, topology, spec, tags, commands):
    """One ``order_leader_rotation`` (with the trial's own rng) or
    ``order_receive_all_correct`` per trial: the reference for the baseline
    path of ``trial_orders``, each trial's order of labels."""
    policy = OrderingPolicy.parse(spec)
    delta_net_us = config.delta_net_ms * US_PER_MS
    orders = []
    for trial in range(config.trials):
        labels = {make_command_id(*tags, trial, label): label for label, _, _ in commands}
        placed = [Invocation(cid, t_us, city) for cid, (_, t_us, city) in zip(labels, commands)]
        if policy.kind is PolicyKind.LEADER_ROTATION:
            rng = np.random.default_rng(trial_seed(config.seed, *tags, trial))
            ledger = order_leader_rotation(placed, topology, policy.param_us, delta_net_us, rng)
        else:
            ledger = order_receive_all_correct(placed, topology, delta_net_us)
        orders.append(tuple(labels[cid] for cid in ledger.entries))
    return orders


class TestBaselineEngine:
    @pytest.mark.parametrize("spec", ["receive", "leader:300", "leader:1500", "leader:5000"])
    def test_counts_equal_per_trial_runs(self, spec):
        rnd = random.Random(spec)
        config = small(trials=60)
        run = _run_for(config)
        topology, sro = run.topology, run.sro
        period_us = int(spec.partition(":")[2] or 1500) * US_PER_MS
        dnet_us = config.delta_net_ms * US_PER_MS
        # same city, same time: equal receive times, so only tie keys decide
        cells = [(("a", 700 * US_PER_MS, "tokyo"), ("b", 700 * US_PER_MS, "tokyo"))]
        for _ in range(4):
            # invoked within dnet of each other: the leader and the phase
            # decide who goes first
            t = rnd.randrange(0, 3 * period_us)
            cells.append(tuple(
                (label, t + rnd.randrange(0, dnet_us), rnd.choice(topology.city_names))
                for label in "vxy"[: rnd.choice((2, 3))]
            ))
        # more than a period apart: invoked in different leader periods
        t = rnd.randrange(0, period_us)
        cells.append((
            ("v", t, rnd.choice(topology.city_names)),
            ("x", t + period_us + rnd.randrange(1, period_us), rnd.choice(topology.city_names)),
        ))
        wants = []
        for cell, commands in enumerate(cells):
            tags = ("baseline", spec, cell)
            wants.append(per_trial_baseline_orders(config, topology, spec, tags, commands))
            assert_engine_matches_per_trial(run, config, spec, tags, commands, wants[-1])
            got = labelled(counted(run, config, spec, tags, commands), commands)
            assert got == Counter(wants[-1]), commands
        assert set(wants[0]) == {("a", "b"), ("b", "a")}

    def test_leader_cells_of_a_run_can_interleave(self):
        # the cells of one run draw from one scratch generator, and each
        # trial sets its own state first, so streams taken in turns give
        # the orders each gives alone
        config = small(policies=("leader:300",), trials=40)
        t0 = config.slot_ms * US_PER_MS // 2
        cells = [
            ("leader:300", ("turns", i), (("a", t0, "washington"), ("b", t0 + i, city)))
            for i, city in enumerate(("tokyo", "london", "munich"))
        ]
        alone = [list(cell_orders(_run_for(config), config, *cell)) for cell in cells]
        run = _run_for(config)
        in_turns = zip(*(cell_orders(run, config, *cell) for cell in cells))
        assert [list(orders) for orders in zip(*in_turns)] == alone
        assert all(len(set(orders)) == 2 for orders in alone)

    @pytest.mark.parametrize("spec", ["leader:1500", "receive"])
    def test_observes_once_per_cell(self, spec, monkeypatch):
        calls = Counter()
        observe = consensus.observe

        def counting(*args, **kwargs):
            calls["observe"] += 1
            return observe(*args, **kwargs)

        monkeypatch.setattr(consensus, "observe", counting)
        per_trials = {}
        for trials in (5, 50):
            calls.clear()
            run_experiment(small(policies=(spec,), trials=trials))
            per_trials[trials] = calls["observe"]
        assert per_trials[5] == per_trials[50] == 2  # one pair of cities, one cell


def same_city_pair(spec):
    """Five trials of one cell whose two commands leave tokyo at once: a
    liquidation's pair, with geo_bias's tags (geo_bias refuses a repeated
    origin)."""
    return small(scenario="liquidation", policies=(spec,), origins=("tokyo", "tokyo"), trials=5)


class TestLazyIds:
    @pytest.mark.parametrize(
        "spec", ["pompe", "bercow:300", "bercow:1500", "receive", "leader:1500"]
    )
    def test_tie_cell_shows_both_orders(self, spec):
        # same city, same instant: the id-free key prefix ties (under bercow,
        # up to the id-keyed noise), so the ids decide every trial
        config = small(trials=80)
        run = _run_for(config)
        topology, sro = run.topology, run.sro
        commands = (("a", 700 * US_PER_MS, "tokyo"), ("b", 700 * US_PER_MS, "tokyo"))
        tags = ("tie", spec)
        if OrderingPolicy.parse(spec).kind.median_timestamps:
            want, _ = per_trial_orders(config, topology, sro, spec, tags, commands, ())
        else:
            want = per_trial_baseline_orders(config, topology, spec, tags, commands)
        assert_engine_matches_per_trial(run, config, spec, tags, commands, want)
        got = labelled(counted(run, config, spec, tags, commands), commands)
        assert got == Counter(want)
        assert set(got) == {("a", "b"), ("b", "a")}

    @pytest.mark.parametrize("spec", ["pompe", "receive"])
    def test_tie_free_cell_derives_no_ids_per_trial(self, spec, monkeypatch):
        derived = Counter()

        class Counting(CommandIds):
            def __call__(self, trial):
                derived[trial] += len(self.labels)
                return super().__call__(trial)

        monkeypatch.setattr(harness, "CommandIds", Counting)
        per_trials = {}
        for trials in (5, 50):
            derived.clear()
            run_experiment(small(policies=(spec,), trials=trials))
            per_trials[trials] = dict(derived)
        # the id count is checked on the labels: no trial derives its ids
        assert per_trials[5] == per_trials[50] == {}
        # a same-city pair ties, and then every trial derives its two ids
        run_experiment(same_city_pair(spec))
        assert derived == Counter(dict.fromkeys(range(5), 2))

    @pytest.mark.parametrize("spec", ["pompe", "receive", "leader:1500"])
    def test_a_cell_hashes_its_tags_only_to_derive_an_id(self, spec, monkeypatch):
        hashed = Counter()
        sha256 = domain.sha256

        def counting(data=b""):
            hashed[data] += 1
            return sha256(data)

        monkeypatch.setattr(domain, "sha256", counting)
        run_experiment(small(policies=(spec,), trials=5))
        assert not hashed  # no trial ties, so no id is derived
        # a same-city pair ties, and its one cell hashes its tags once
        run_experiment(same_city_pair(spec))
        tags = b"".join(encode_id_part(tag) for tag in ("geo", 0, spec))
        assert hashed[tags] == 1

    @pytest.mark.parametrize("spec", ["bercow:300", "bercow:1500", "bercow:5000"])
    def test_no_inversion_past_the_horizon(self, spec):
        # acceptance criterion 4 through the package: the slowest city's
        # command, invoked dnet + noise width + 1 µs before the fastest
        # city's, is first in every trial
        config = small(scenario="tradeoff_curve", trials=200)
        run = _run_for(config)
        topology, sro = run.topology, run.sro

        def median_delay(city):
            return quorum_median(topology.delays_from(city), sro.config.f)

        slow = max(topology.city_names, key=median_delay)
        fast = min(topology.city_names, key=median_delay)
        assert median_delay(slow) > median_delay(fast)
        gap_us = config.delta_net_ms * US_PER_MS + OrderingPolicy.parse(spec).param_us + 1
        t0 = config.slot_ms * US_PER_MS // 2
        counts = counted(
            run, config, spec, ("horizon", spec),
            (("early", t0, slow), ("late", t0 + gap_us, fast)),
        )
        assert counts == Counter({(0, 1): config.trials})  # early, then late


class TestDisjointRanges:
    @pytest.mark.parametrize("spec", ["bercow:300", "bercow:1500"])
    @pytest.mark.parametrize("gap", ["w", "w-1"])
    def test_a_cell_samples_only_where_ranges_overlap(self, spec, gap, monkeypatch):
        # two tokyo commands have stamps exactly as far apart as their
        # invocations: w apart, every trial's noised timestamps keep the
        # stamps' order; w - 1 apart, each trial derives its noise
        config = small(trials=40)
        run = _run_for(config)
        width_us = OrderingPolicy.parse(spec).param_us
        gap_us = width_us if gap == "w" else width_us - 1
        t0 = config.slot_ms * US_PER_MS // 2
        commands = (("early", t0, "tokyo"), ("late", t0 + gap_us, "tokyo"))
        tags = ("disjoint", spec, gap)
        early, late = consensus.assigned_timestamps(run, _placed(commands), {})
        assert late - early == gap_us
        want, _ = per_trial_orders(config, run.topology, run.sro, spec, tags, commands, ())
        derived, noised = Counter(), []

        class Counting(CommandIds):
            def __call__(self, trial):
                derived[trial] += len(self.labels)
                return super().__call__(trial)

        kernel = consensus._noised_prefixes

        def counting(*args):
            for trial in kernel(*args):
                noised.append(trial)
                yield trial

        monkeypatch.setattr(harness, "CommandIds", Counting)
        monkeypatch.setattr(consensus, "_noised_prefixes", counting)
        got = labelled(counted(run, config, spec, tags, commands), commands)
        assert got == Counter(want)
        assert not derived  # no trial ties
        if gap == "w":
            assert noised == [] and got == Counter({("early", "late"): config.trials})
        else:
            assert len(noised) == config.trials


class TestIntegerRatios:
    """The runners print each count c of n trials from ints: ``c / n`` is
    correctly rounded, so it is the float, and prints the text, of the
    ``Fraction`` the runners once printed."""

    def test_every_count_up_to_1000_trials(self):
        # Pr[first], the geo_bias diff and the liquidation payout at the
        # bundled prize; equal floats print equal text in every format
        for n in range(1, 1001):
            counts = range(n + 1)
            assert [c / n for c in counts] == [float(Fraction(c, n)) for c in counts]
            assert [(2 * c - n) / n for c in counts] == [
                float(Fraction(2 * c - n, n)) for c in counts
            ]
            assert [c * 200_000 / n for c in counts] == [
                float(Fraction(c * 200_000, n)) for c in counts
            ]

    @pytest.mark.parametrize("n", [4_000, 10_000, 30_000])
    def test_sampled_counts_at_the_bundled_trial_counts(self, n):
        rnd = random.Random(n)
        for c in [0, 1, n // 2, n - 1, n] + [rnd.randrange(n + 1) for _ in range(2000)]:
            p = Fraction(c, n)
            assert _fmt_prob(c / n) == _fmt_prob(p)
            assert _fmt_prob((2 * c - n) / n) == _fmt_prob(2 * p - 1)
            assert _fmt_usd(c * 200_000 / n) == _fmt_usd(p * 200_000)


# tag tuples whose reprs a per-cell trial seed must rebuild byte for byte
SEED_TAGS = {
    "one-tag": ("geo",),
    "int-tags": (3, 0, 2**63 - 1),
    "negative-ints": ("gap", -1, -(2**63)),
    "quotes": ("it's", 'say "hi"', "both ' and \"", "back\\slash"),
    "non-ascii": ("zürich", "東京", "\u2028", "\x00 \n"),
    "harness": ("geo", 5, "leader:1500"),
    "empty": (),
}


@pytest.mark.parametrize("tags", SEED_TAGS.values(), ids=SEED_TAGS)
def test_cell_trial_seed_is_trial_seed(tags):
    seeds = []
    for config_seed in (0, 20240601, -1, 2**63 - 1, -(2**63)):
        cell_seed = _cell_trial_seed(config_seed, tags)
        for t in (0, 1, 9, 10, 12_345, 2**32, 2**63 - 1):
            assert cell_seed(t) == trial_seed(config_seed, *tags, t)
            seeds.append(cell_seed(t))
    # the engine seeds leader trials from numpy's 4-word pool (128 bits)
    # alone, so a wider harness seed fails here, not in a run
    assert all(len(seed) == 2 and all(0 <= word < 2**64 for word in seed) for seed in seeds)
    want = [np.random.PCG64(np.random.SeedSequence(seed)).state["state"] for seed in seeds]
    assert consensus._pcg64_states(seeds) == [(s["state"], s["inc"]) for s in want]


def test_geo_bias_run_shares_its_setup(monkeypatch):
    # call counts, not timings: one run observes each distinct command
    # once, takes each one's median receive time once, parses no spec (the
    # config parsed them when it was built), seeds all its leader cells in
    # one pass and makes one scratch generator
    cities = ("washington", "london", "munich", "tokyo")
    config = small(
        policies=("pompe", "receive", "leader:1500", "bercow:300", "bercow:1500"),
        origins=cities, trials=5,
    )
    observed, calls, medians, command_of = Counter(), Counter(), Counter(), {}
    observe, parse, seed = consensus.observe, OrderingPolicy.parse, consensus._pcg64_states

    def observing(inv, topology, delta_net_us):
        observed[inv.origin_city, inv.invoke_time] += 1
        times = observe(inv, topology, delta_net_us)
        command_of[tuple(times)] = inv.origin_city, inv.invoke_time
        return times

    def sorting(values, **kwargs):
        # consensus sorts a command's receive times only to take their median
        if isinstance(values, tuple) and values in command_of:
            medians[command_of[values]] += 1
        return sorted(values, **kwargs)

    def parsing(cls, spec):
        calls[spec] += 1
        return parse(spec)

    def seeding(seeds):
        calls["seeding passes"] += 1
        return seed(seeds)

    def bit_generator(seed):
        calls["generators"] += 1
        return pcg64(seed)

    pcg64 = np.random.PCG64
    monkeypatch.setattr(consensus, "observe", observing)
    monkeypatch.setattr(OrderingPolicy, "parse", classmethod(parsing))
    monkeypatch.setattr(consensus, "_pcg64_states", seeding)
    monkeypatch.setattr(np.random, "PCG64", bit_generator)
    monkeypatch.setattr(consensus, "sorted", sorting, raising=False)
    assert len(run_experiment(config).rows) == 6 * 5
    t0 = config.slot_ms * US_PER_MS // 2
    assert observed == Counter({(city, t0): 1 for city in cities})
    assert medians == observed  # 6 receive cells of 2 commands, 4 distinct
    assert calls == Counter({"seeding passes": 1, "generators": 1})


def test_geo_bias_run_builds_only_what_its_policies_read(monkeypatch):
    # call counts, not timings: trial seeds are built for the 6 leader
    # cells only, and SHA-512 noise states for the 12 bercow cells only
    config = replace(parse_config(CONFIG_DIR / "geo_bias.cfg"), trials=5)
    seeded, noised, cell = [], Counter(), [None]
    cell_trial_seed, orders, sha512 = (
        harness._cell_trial_seed, consensus._cell_orders, consensus.sha512
    )

    def seeding(config_seed, tags):
        seeded.append(tags)
        return cell_trial_seed(config_seed, tags)

    def ordering(run, policy, *args):
        cell[0] = policy.kind.value
        return orders(run, policy, *args)

    def hashing(data=b"", **kwargs):
        if data.startswith(b"noise"):
            noised[cell[0]] += 1
        return sha512(data, **kwargs)

    monkeypatch.setattr(harness, "_cell_trial_seed", seeding)
    monkeypatch.setattr(consensus, "_cell_orders", ordering)
    monkeypatch.setattr(consensus, "sha512", hashing)
    rows = run_experiment(config).rows
    assert len(rows) == 6 * len(config.policies)
    assert sorted(seeded) == [("geo", pair, "leader:1500") for pair in range(6)]
    assert set(noised) == {"bercow"}


SIMULATED = ("geo_bias", "tradeoff_curve", "sandwich", "liquidation")


def bundled(name, trials):
    return replace(parse_config(CONFIG_DIR / f"{name}.cfg"), trials=trials)


@pytest.mark.parametrize("name", SIMULATED)
def test_counts_over_any_partition_add_up_to_the_serial_counts(name, monkeypatch):
    # a trial's order does not depend on the range that counts it, so each
    # cell's counts over the parts of a partition sum to its serial count,
    # also where a count seeds its range in several passes
    config = bundled(name, 13)
    serial = count_trials(config, 0, 13)
    monkeypatch.setattr(consensus, "_PASS_SEEDS", 20)
    assert count_trials(config, 0, 13) == serial
    monkeypatch.undo()
    cells, counts = zip(*serial)
    assert [sum(count.values()) for count in counts] == [13] * len(cells)
    assert tabulate(config, serial).to_csv_text() == run_experiment(config).to_csv_text()
    rnd = random.Random(name)
    partitions = [(1,), (6, 7), (1, 2, 3, 12), tuple(sorted(rnd.sample(range(1, 13), 4)))]
    for cuts in partitions:
        bounds = (0, *cuts, 13)
        parts = [count_trials(config, start, stop) for start, stop in zip(bounds, bounds[1:])]
        assert all([cell for cell, _ in part] == list(cells) for part in parts), cuts
        summed = [sum((count for _, count in pairs), Counter()) for pairs in zip(*parts)]
        assert summed == list(counts), cuts


@pytest.mark.parametrize("name, leader_cells", [
    ("geo_bias", 6), ("tradeoff_curve", 17), ("liquidation", 0), ("sandwich", 0),
])
def test_a_bundled_run_seeds_in_one_pass(name, leader_cells, monkeypatch):
    # every leader cell's trials are seeded by one _pcg64_states call per
    # block of up to _PASS_SEEDS leader trials, and a run without leader
    # cells makes no call
    passes = []
    seed = consensus._pcg64_states

    def seeding(seeds):
        seeds = list(seeds)
        passes.append(len(seeds))
        return seed(seeds)

    monkeypatch.setattr(consensus, "_pcg64_states", seeding)
    run_experiment(bundled(name, 5))
    assert passes == ([5 * leader_cells] if leader_cells else [])


@pytest.mark.parametrize("name, cells, slotted, passes", [
    ("geo_bias", 30, 18, [1020] + [30] * 6),
    ("tradeoff_curve", 85, 51, [1020] + [140] * 17),
])
def test_a_count_sets_each_cell_up_once(name, cells, slotted, passes, monkeypatch):
    # call counts, not timings: at 200 trials the call's pass seeds the
    # first 1024 // (leader cells) trials of the 6 and 17 leader cells
    # (170 and 60), each cell's stream seeds the rest in one pass of its
    # own, and each cell's set-up (stamps, reveals, noise states, the
    # leader command list) is still made once per count, not once per pass
    calls, sizes = Counter(), []
    cell_orders, slotted_prefixes, seed = (
        consensus._cell_orders, consensus._slotted_prefixes, consensus._pcg64_states
    )

    def setting_up(*args):
        calls["cells"] += 1
        return cell_orders(*args)

    def stamping(*args):
        calls["slotted"] += 1
        return slotted_prefixes(*args)

    def seeding(seeds):
        seeds = list(seeds)
        sizes.append(len(seeds))
        return seed(seeds)

    monkeypatch.setattr(consensus, "_cell_orders", setting_up)
    monkeypatch.setattr(consensus, "_slotted_prefixes", stamping)
    monkeypatch.setattr(consensus, "_pcg64_states", seeding)
    run_experiment(bundled(name, 200))
    assert calls == Counter(cells=cells, slotted=slotted)
    assert sizes == passes


@pytest.mark.parametrize("name", SIMULATED)
def test_a_table_needs_every_trial_counted(name):
    # counts over 4 of 10 trials would print as if they were all 10
    config = bundled(name, 10)
    with pytest.raises(ContractError, match="counts 4 trials, not 10"):
        tabulate(config, count_trials(config, 0, 4))


def test_a_table_counts_only_orders_its_cells_can_produce():
    # two counts summing to the trials, one of them of no permutation of a
    # pair, printed tokyo first with probability 1.000000
    config = bundled("liquidation", 10)
    counted = [(cell, Counter({(1, 0): 3, (7, 7): 7})) for cell, _ in count_trials(config, 0, 1)]
    with pytest.raises(ContractError, match=r"cannot produce: \{\(7, 7\)\}"):
        tabulate(config, counted)
    for order in ((0, 1, 2), (0,), (0, 0)):
        counted = [(cell, Counter({(0, 1): 9, order: 1})) for cell, _ in counted]
        with pytest.raises(ContractError, match="cannot produce"):
            tabulate(config, counted)
    counted = [(cell, Counter({(0, 1): 9, (1, 0): 1})) for cell, _ in counted]
    assert len(tabulate(config, counted).rows) == 2 * len(counted)


def test_a_table_rejects_negative_counts():
    # counts summing to the trials with one of them negative printed
    # washington first with probability 1.100000 and tokyo with -0.100000
    config = bundled("liquidation", 10)
    counted = [(cell, Counter({(0, 1): 11, (1, 0): -1})) for cell, _ in count_trials(config, 0, 1)]
    with pytest.raises(ContractError, match=r"cell \(.*\) counts order \(1, 0\) -1 times"):
        tabulate(config, counted)


def test_a_table_needs_every_cell_counted_in_its_order():
    # counts for no cells, or for 3 of geo_bias's 30, printed a header alone
    # or 3 rows
    config = bundled("geo_bias", 10)
    with pytest.raises(ContractError, match="counts for 0 cells, not the 30 cells"):
        tabulate(config, [])
    with pytest.raises(ContractError, match="counts for 3 cells, not the 30 cells"):
        tabulate(config, count_trials(config, 0, 10)[:3])


@pytest.mark.parametrize("name", SIMULATED)
def test_a_table_rejects_counts_for_other_cells(name):
    config = bundled(name, 5)
    counted = count_trials(config, 0, 5)
    for wrong in (counted[:1], counted[1:], counted[::-1], counted + counted[:1]):
        with pytest.raises(ContractError, match=f"the {len(counted)} cells the {name} table"):
            tabulate(config, wrong)
    with pytest.raises(ContractError, match="not the 0 cells the bounds_table table"):
        tabulate(bundled("bounds_table", 5), counted)


def test_run_experiment_builds_its_run_once(monkeypatch):
    # the table's cell check reuses the cells it counted
    runs = []
    run_for = harness._run_for

    def building(config):
        runs.append(config.scenario)
        return run_for(config)

    monkeypatch.setattr(harness, "_run_for", building)
    for name in (*SIMULATED, "bounds_table"):
        run_experiment(bundled(name, 3))
    assert runs == list(SIMULATED)


def test_importing_the_harness_loads_no_process_pool():
    # the pool is the script's: importing it costs the harness's users time
    code = (
        "import sys, fairorder.harness; print(sorted(m for m in sys.modules"
        " if m.partition('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_sandwich_run_does_its_fixed_work_once(monkeypatch):
    # call counts, not timings: the key ceremony is one SHAKE-256 call, the
    # relay placement clamps each attacker command's report once, and the
    # run's one reveal makes and checks one certificate of n - f tags
    config = replace(parse_config(CONFIG_DIR / "sandwich.cfg"), trials=20)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "SroHandle", counted("SroHandle", harness.SroHandle))
    monkeypatch.setattr(hashlib, "shake_256", counted("shake_256", hashlib.shake_256))
    clamp = counted("clamp_to_window", adversary.clamp_to_window)
    monkeypatch.setattr(adversary, "clamp_to_window", clamp)
    monkeypatch.setattr(consensus, "clamp_to_window", clamp)
    monkeypatch.setattr("fairorder.sro.sign_slot", counted("sign_slot", sign_slot))
    assert len(run_experiment(config).rows) == 7 * len(config.policies)
    n, f = 80, 26
    assert calls == Counter(SroHandle=1, shake_256=1, clamp_to_window=2, sign_slot=2 * (n - f))


class TestLiquidation:
    def test_fair_split_under_noise(self):
        config = small(
            scenario="liquidation", policies=("bercow:1500",), trials=2500,
        )
        rows = run_experiment(config).rows
        assert len(rows) == 2
        for row in rows:
            assert abs(float(row[3]) - 100_000) < 12_000

    def test_payouts_are_exact_shares_of_the_prize(self):
        # a bercow cell that splits 7 trials: each payout is count * prize /
        # trials to the cent, not the prize times a 6-decimal probability
        config = small(scenario="liquidation", policies=("bercow:1500",), trials=7)
        t0 = config.slot_ms * US_PER_MS // 2
        counts = counted(
            _run_for(config), config, "bercow:1500", ("geo", 0, "bercow:1500"),
            (("a", t0, "washington"), ("b", t0, "tokyo")),
        )
        assert 0 < counts[0, 1] < config.trials
        rows = run_experiment(config).rows
        for row, count in zip(rows, (counts[0, 1], counts[1, 0]), strict=True):
            assert Fraction(row[3]) == round(Fraction(count * config.prize_usd, config.trials), 2)

    def test_biased_split_under_median(self):
        config = small(scenario="liquidation", policies=("pompe",), trials=10)
        rows = run_experiment(config).rows
        values = {row[1]: float(row[3]) for row in rows}
        assert values["washington"] == 200_000.0
        assert values["tokyo"] == 0.0


def simulate(tmp_path, text: str, *flags) -> int:
    """``fairorder simulate``'s exit code on a config file holding ``text``."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return main(["simulate", str(cfg), *flags])


class TestCli:
    def test_simulate_bundled_config(self, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(
            "scenario = geo_bias\npolicies = pompe\ntrials = 20\n"
            "origins = washington,tokyo\nseed = 7\n"
            f"output = {tmp_path}/out.csv\n"
        )
        assert main(["simulate", str(cfg)]) == 0
        assert (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [["bounds", "--n", "2", "--alpha", "1/5"], ["attack", "sandwich", "--policy", "pompe"]],
        ids=["bounds", "attack-sandwich"],
    )
    def test_removed_subcommands_are_usage_errors(self, argv, capsys):
        # every table comes from a config file through `simulate`
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_bounds_cli(self, tmp_path, capsys):
        assert simulate(tmp_path, "scenario = bounds_table\nbounds_n = 3\nalphas = 1/5\n") == 0
        assert "0.198667" in capsys.readouterr().out

    def test_bounds_curve(self, tmp_path, capsys):
        # a sweep of alpha over (0, 1) is a list of alphas
        alphas = ",".join(str(Fraction(i, 20)) for i in range(1, 20))
        assert simulate(tmp_path, f"scenario = bounds_table\nbounds_n = 2\nalphas = {alphas}\n") == 0
        assert len(capsys.readouterr().out.splitlines()) == 20

    @pytest.mark.parametrize(
        "n, alpha, row",
        [
            # one command has one order, so its bounds have no spread
            ("1", "1/5", "1,1/5,0.000000,1.000000,1.000000,1800000"),
            ("40", "1", "40,1,0.000000,0.000000,0.000000,600000"),  # the largest n
        ],
        ids=["single-command", "largest-n"],
    )
    def test_bounds_cli_row(self, tmp_path, capsys, n, alpha, row):
        assert simulate(tmp_path, f"scenario = bounds_table\nbounds_n = {n}\nalphas = {alpha}\n") == 0
        assert capsys.readouterr().out.splitlines()[1] == row

    def test_bounds_cli_is_the_bounds_table(self, tmp_path, capsys):
        out = tmp_path / "bounds_table.csv"
        bundled = resources.files("fairorder.data") / "configs" / "bounds_table.cfg"
        with resources.as_file(bundled) as cfg:
            assert main(["simulate", str(cfg), "--output", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        committed = Path(__file__).resolve().parent.parent / "results" / "bounds_table.csv"
        assert out.read_bytes() == committed.read_bytes()

    def test_bounds_dnoise_sets_alpha(self, tmp_path, capsys):
        # alpha = dnet / dnoise may be written as that ratio, read exactly
        text = "scenario = bounds_table\ndnet_ms = 300\nbounds_n = 3\nalphas = 300/1500\n"
        assert simulate(tmp_path, text) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["n,alpha,epsilon,lower,upper,delta_us",
                         "3,1/5,0.198667,0.085333,0.284000,1800000"]

    def test_attack_cli(self, tmp_path):
        out = tmp_path / "sandwich.csv"
        text = ("scenario = sandwich\npolicies = bercow:1500\ndnet_ms = 300\n"
                "trials = 50\norigins = munich,london\ncolluders = max\n")
        assert simulate(tmp_path, text, "--output", str(out)) == 0
        assert out.read_text().startswith("policy,order,frequency")

    @pytest.mark.parametrize("policy", ["pompe", "bercow", "leader", "receive"])
    def test_attack_cli_negative_seed(self, tmp_path, policy, capsys):
        spec = {"bercow": "bercow:1500", "leader": "leader:1500"}.get(policy, policy)
        text = (f"scenario = sandwich\npolicies = {spec}\ntrials = 5\nseed = -1\n"
                "origins = munich,london\n")
        assert simulate(tmp_path, text) == 0
        assert capsys.readouterr().out.startswith("policy,order,frequency")

    def test_sro_demo_both_backends(self, capsys):
        assert main(["sro-demo", "--backend", "seeded", "--k", "3"]) == 0
        assert main(
            ["sro-demo", "--backend", "threshold", "--n", "4", "--f", "1",
             "--k", "3", "--test-field", "101"]
        ) == 0
        assert "verified  True" in capsys.readouterr().out

    def test_missing_config_is_config_error(self, capsys):
        assert main(["simulate", "/does/not/exist.cfg"]) == 4
        assert "category=io" in capsys.readouterr().err

    def test_an_empty_internal_error_names_its_type(self, tmp_path, monkeypatch, capsys):
        def out_of_memory(config):
            raise MemoryError()

        monkeypatch.setattr("fairorder.cli.run_experiment", out_of_memory)
        assert simulate(tmp_path, "scenario = bounds_table\nbounds_n = 2\nalphas = 1/5\n") == 1
        assert capsys.readouterr().err == "error category=internal: MemoryError\n"

    def test_bad_alpha_is_config_error(self, tmp_path, capsys):
        # an alpha outside (0, 1] is rejected as the config is read, and the
        # error names the file as every other bad value's does
        for alpha in ("3", "0", "-1/5"):
            text = f"scenario = bounds_table\nbounds_n = 2\nalphas = {alpha}\n"
            assert simulate(tmp_path, text) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error category=config: {tmp_path / 'run.cfg'}: ")
            assert "(0, 1]" in err
            with pytest.raises(ConfigError, match=r"alphas entries must be in \(0, 1\]"):
                parse_config(tmp_path / "run.cfg")  # never a config that cannot run

    @pytest.mark.parametrize(
        "text, message",
        [
            ("scenario = geo_bias\npolicies = pompe\norigins = tokyo\n",
             "geo_bias needs at least two origin cities"),
            ("scenario = sandwich\npolicies = pompe\norigins = munich,london\ncolluders = 30\n",
             "colluders must be in [0, f=26]"),
        ],
        ids=["one-origin", "colluders-past-f"],
    )
    def test_run_time_config_error_names_the_file(self, tmp_path, capsys, text, message):
        # values only the run can check (the topology's f, a scenario's
        # origin count) are reported with the file, as parse errors are
        assert simulate(tmp_path, text) == 3
        path = tmp_path / "run.cfg"
        assert capsys.readouterr().err == f"error category=config: {path}: {message}\n"

    @pytest.mark.parametrize(
        "config_line",
        [
            "scenario = bounds_table\nalphas = 1/5/2",
            "scenario = sandwich\npolicies = pompe\ncolluders = lots",
            "scenario = geo_bias\npolicies = bercow:abc",
            "scenario = sandwich\ncolluders = lots",
            "scenario = bounds_table\nalphas = abc",
            "scenario = sandwich\noffsets_ms = 1",
            "scenario = geo_bias\ntrails = 2",
            "scenario = geo_bias\ndnet_ms = -5",
            "scenario = tradeoff_curve\ngaps_ms = -500,0",
            "scenario = tradeoff_curve\ngaps_ms = 0,10000000000000000000",
            "scenario = geo_bias\npolicies = receive\nslot_ms = 0",
            "scenario = sandwich\npolicies = pompe\ndnet_ms = 0",
            "scenario = bounds_table\ndnet_ms = -3",
            "scenario = bounds_table\nalphas = 300/0",
            "scenario = geo_bias\ntrials = 3",
            f"scenario = sandwich\nseed = {2**63}",
            "scenario = sandwich\npolicies = pompe\nseed = 99999999999999999999",
            "scenario = geo_bias\npolicies = pompe:300",
            "scenario = geo_bias\npolicies = receive:7",
            "scenario = geo_bias\npolicies = leader",
            "scenario = geo_bias\npolicies = bercow",
            "scenario = geo_bias\npolicies = bercow:0",
            "scenario = geo_bias\npolicies = leader:0",
            "scenario = geo_bias\npolicies = anarchy",
            "scenario = geo_bias\npolicies =",
            "scenario = sandwich\npolicies =",
            "scenario = bounds_table\nalphas =",
            "scenario = bounds_table\nbounds_n =",
            "scenario = bounds_table\nbounds_n = 41",
            "scenario = bounds_table\nbounds_n = 1000000",
            "scenario = bounds_table\nbounds_n = 0",
            "scenario = bounds_table\nbounds_n = 2,1000000",
            "scenario = sandwich\npolicies = receive\nslot_ms = 100000000000000000",
            "scenario = sandwich\npolicies = bercow:1500\nslot_ms = 100000000000000000",
            "scenario = geo_bias\npolicies = receive\nslot_ms = 100000000000000000",
            "scenario = geo_bias\npolicies = leader:1500\nslot_ms = 100000000000000000",
            "scenario = tradeoff_curve\npolicies = receive\ngaps_ms = 0,9300000000000000",
            "scenario = liquidation\nprize_usd = -1",
            "scenario = geo_bias\ngaps_ms = 0,50",
            "scenario = liquidation\noffsets_ms = 1,25",
            "scenario = geo_bias\npolicies = pompe,pompe",
            "scenario = geo_bias\npolicies = bercow:300,bercow:0300",
            "scenario = geo_bias\norigins = washington,washington,tokyo",
            "scenario = geo_bias\norigins = london,london",
            "scenario = tradeoff_curve\ngaps_ms = 0,0,5",
            "scenario = bounds_table\nalphas = 1/5,0.2",
            "scenario = bounds_table\nbounds_n = 2,3,2",
        ],
        ids=["alpha", "attack-colluders", "policy-arg", "colluders", "alphas",
             "one-offset", "unknown-key", "dnet", "negative-gap", "gap-past-int64", "slot",
             "attack-dnet", "bounds-dnet", "bounds-dnoise-zero", "duplicate-key", "seed", "attack-seed",
             "pompe-arg", "receive-arg", "bare-leader", "bare-bercow", "bercow-zero",
             "leader-zero", "unknown-policy", "no-policies", "no-sandwich-policies",
             "no-alphas", "no-bounds-n", "bounds-n-41", "bounds-n-million", "bounds-n-zero",
             "config-bounds-n-million", "attack-receive-past-63-bits",
             "attack-bercow-past-63-bits", "receive-past-63-bits", "leader-past-63-bits",
             "receive-gap-past-63-bits", "negative-prize", "geo-bias-gaps",
             "liquidation-offsets", "repeated-policy", "repeated-parsed-policy",
             "repeated-origin", "same-city-pair", "repeated-gap", "repeated-alpha",
             "repeated-bounds-n"],
    )
    def test_bad_input_is_config_error(self, tmp_path, capsys, config_line):
        if "bounds_table" in config_line:  # it reads neither key, so either would be the error
            extra = ""
        else:
            origins = "" if "origins" in config_line else "origins = munich,london\n"
            extra = f"trials = 2\n{origins}"
        assert simulate(tmp_path, f"{config_line}\n{extra}output = {tmp_path}/out.csv\n") == 3
        assert "error category=config" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("bad", ["config-origins", "topology-city"])
    def test_non_utf8_file_is_config_error(self, tmp_path, capsys, bad):
        # byte 0xff never occurs in UTF-8; the error names the file
        topology = tmp_path / "cities.topo"
        city = b"l\xffondon" if bad == "topology-city" else b"london"
        topology.write_bytes(b"city munich 3\ncity " + city + b" 1\ndelay munich london 10\n")
        origins = b"munich,l\xffondon" if bad == "config-origins" else b"munich,london"
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(
            b"scenario = geo_bias\ntrials = 2\norigins = " + origins
            + f"\ntopology = {topology}\noutput = {tmp_path}/out.csv\n".encode()
        )
        assert main(["simulate", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "error category=config" in err and "not UTF-8" in err
        assert str(cfg if bad == "config-origins" else topology) in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("ms, code", [("9223372036854775", 0), ("9223372036854776", 3)])
    def test_leader_period_fits_63_bits(self, tmp_path, capsys, ms, code):
        # the largest period in whole ms whose µs value fits in 63 bits runs;
        # the next is rejected before numpy draws a phase from it
        cfg = tmp_path / "leader.cfg"
        cfg.write_text(
            f"scenario = geo_bias\npolicies = leader:{ms}\ntrials = 2\n"
            "origins = munich,london\n"
        )
        assert main(["simulate", str(cfg)]) == code
        # a sandwich whose leader rotates once per slot
        text = (f"scenario = sandwich\npolicies = leader:{ms}\nslot_ms = {ms}\ntrials = 2\n"
                "origins = munich,london\n")
        assert simulate(tmp_path, text) == code
        err = capsys.readouterr().err
        assert ("error category=config" in err) == bool(code)



def test_run_experiment_dispatch():
    result = run_experiment(
        ExperimentConfig(scenario="bounds_table", bounds_n=(2,), alphas=("1/5",))
    )
    assert result.rows[0][0] == 2


def test_runs_share_one_bundled_topology(monkeypatch):
    resolved = []

    def recording(name):
        resolved.append(resolve_topology(name))
        return resolved[-1]

    monkeypatch.setattr(harness, "resolve_topology", recording)
    config = small(policies=("pompe", "receive", "leader:1500", "bercow:1500"), trials=20)
    first, second = (run_experiment(config).to_csv_text() for _ in range(2))
    assert first == second
    assert len(resolved) == 2 and resolved[0] is resolved[1]

import hashlib
import random
import warnings
from collections import Counter
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairorder import consensus
from fairorder.adversary import QUORUM_LOW, CommandPlan
from fairorder.consensus import (
    OrderingPolicy,
    PolicyKind,
    SimulationRun,
    orders_per_cell,
)
from fairorder.domain import (
    MAX_TIMESTAMP,
    CommandIds,
    ContractError,
    Invocation,
    quorum_median,
)
from fairorder.netmodel import CityTopology, bundled_topology, observe, parse_topology
from fairorder.sro import Backend, RevealRequest, SroConfig, SroHandle, sro_init
from one_cell import trial_orders
from reference import (
    all_correct_precedence,
    make_command_id,
    noise,
    order_leader_rotation,
    order_receive_all_correct,
    run_slotted,
    trial_seed,
)

DNET = 300_000
SLOT = 1_500_000
SEED = bytes(range(32))
POMPE = OrderingPolicy(PolicyKind.POMPE_MEDIAN)
BERCOW = OrderingPolicy(PolicyKind.BERCOW_NOISE, SLOT)


def inv(label, t, city):
    return Invocation(make_command_id(label), t, city)


def small_topology(n=4):
    return CityTopology(cities=(("solo", n),), latency_us={})


def sro_for(topology, f):
    return sro_init(SroConfig(n=topology.n_nodes, f=f, backend=Backend.SEEDED_HASH), SEED)


def no_seed(trial):
    raise AssertionError("only leader rotation draws from a trial seed")


class Cell(NamedTuple):
    """A cell's ``trial_orders`` arguments before its trial count: the run,
    and the policy, invocations and plan ordered on it; also the arguments
    of the reference's ``run_slotted``."""

    run: SimulationRun
    policy: OrderingPolicy
    invocations: list
    plan: dict


def cell_for(placed, policy, topology=None, f=1, adversary=None, dnet=DNET):
    topology = topology or small_topology()
    run = SimulationRun(topology, dnet, SLOT, sro_for(topology, f))
    return Cell(run, policy, placed, adversary or {})


class TestPolicyRegistry:
    @pytest.mark.parametrize("spec, kind, param_us", [
        ("pompe", PolicyKind.POMPE_MEDIAN, 0),
        ("receive", PolicyKind.RECEIVE_ORDER, 0),
        ("leader:1500", PolicyKind.LEADER_ROTATION, 1_500_000),
        ("bercow:300", PolicyKind.BERCOW_NOISE, 300_000),
        ("bercow:1500", PolicyKind.BERCOW_NOISE, 1_500_000),
    ])
    def test_documented_specs_parse(self, spec, kind, param_us):
        assert OrderingPolicy.parse(spec) == OrderingPolicy(kind, param_us)

    @pytest.mark.parametrize("spec", ["pompe:", "leader:", "leader:-5", ""])
    def test_other_specs_rejected(self, spec):
        # the config-file spellings are rows of the CLI's bad-input test
        with pytest.raises(ContractError):
            OrderingPolicy.parse(spec)

    @pytest.mark.parametrize("kind, param_us", [
        (PolicyKind.POMPE_MEDIAN, 5),
        (PolicyKind.RECEIVE_ORDER, 5),
        (PolicyKind.BERCOW_NOISE, 0),
        (PolicyKind.LEADER_ROTATION, -1),
    ])
    def test_parameter_rule(self, kind, param_us):
        with pytest.raises(ContractError):
            OrderingPolicy(kind, param_us)


class TestRunSlotted:
    def test_single_command_stable_in_its_slot(self):
        placed = [inv("a", 700_000, "solo")]
        result = run_slotted(*cell_for(placed, POMPE))
        assert result.ledger.entries == [placed[0].command_id]
        cmd = result.commands[placed[0].command_id]
        assert result.emission_slot[cmd.command_id] == 0
        assert result.ledger.stable_watermark > cmd.modified_ts

    def test_no_noise_orders_by_invoke_time(self):
        for seed in range(10):
            placed = [
                inv(("late", seed), 200_000, "solo"),
                inv(("early", seed), 100_000, "solo"),
            ]
            result = run_slotted(*cell_for(placed, POMPE))
            assert result.ledger.entries == [
                placed[1].command_id,
                placed[0].command_id,
            ]

    def test_noise_delays_emission_to_later_slot(self):
        # Park a command near its slot's end so its noised timestamp crosses
        # the boundary; it must surface only when a slot covering the noised
        # value decides.
        policy = BERCOW
        for trial in range(50):
            placed = [inv(("edge", trial), 1_400_000, "solo")]
            result = run_slotted(*cell_for(placed, policy))
            cmd = result.commands[placed[0].command_id]
            assert result.slots[0].decided_commands[0].command_id == cmd.command_id
            emitted_at = result.emission_slot[cmd.command_id]
            assert emitted_at == cmd.modified_ts // SLOT
            if cmd.modified_ts >= SLOT:
                assert emitted_at > 0
                break
        else:
            pytest.fail("no trial pushed the command across the slot boundary")

    def test_noise_in_range_and_platform_stable(self):
        seed = hashlib.sha512(b"slot-seed").digest()
        values = [noise(seed, make_command_id("c", i), 1000) for i in range(500)]
        assert all(0 <= v < 1000 for v in values)
        assert values == [noise(seed, make_command_id("c", i), 1000) for i in range(500)]
        assert noise(seed, b"x", 0) == 0

    def test_ledger_sorted_by_modified_then_tie(self):
        placed = [inv(("m", i), 100_000 + 40_000 * i, "solo") for i in range(12)]
        result = run_slotted(*cell_for(placed, BERCOW))
        cmds = [result.commands[c] for c in result.ledger.entries]
        for a, b in zip(cmds, cmds[1:]):
            assert a.modified_ts <= b.modified_ts
        slots_emitted = [result.emission_slot[c] for c in result.ledger.entries]
        assert slots_emitted == sorted(slots_emitted)

    def test_replay_is_deterministic(self):
        placed = [inv(("r", i), 100_000 * (i + 1), "solo") for i in range(6)]
        a = run_slotted(*cell_for(placed, BERCOW))
        b = run_slotted(*cell_for(placed, BERCOW))
        assert a.ledger.entries == b.ledger.entries
        assert a.ledger.stable_watermark == b.ledger.stable_watermark

    def test_consistency_unrelated_invocation_preserves_order(self):
        policy = BERCOW
        for trial in range(50):
            base = [
                inv(("c1", trial), 500_000, "solo"),
                inv(("c2", trial), 500_000, "solo"),
            ]
            extra = base + [inv(("other", trial), 600_000, "solo")]
            small = run_slotted(*cell_for(base, policy))
            big = run_slotted(*cell_for(extra, policy))
            pair = {base[0].command_id, base[1].command_id}
            assert [c for c in small.ledger.entries if c in pair] == [
                c for c in big.ledger.entries if c in pair
            ]

    def test_certificate_has_quorum_signatures(self):
        placed = [inv("cert", 100_000, "solo")]
        result = run_slotted(*cell_for(placed, POMPE))
        slot = result.slots[0]
        assert len(slot.decision_certificate) == 3  # n - f for n=4, f=1

    def test_empty_invocations_rejected(self):
        with pytest.raises(ContractError, match="no invocations"):
            trial_orders(*cell_for([], POMPE), 1, CommandIds((), ()), no_seed)

    def test_command_before_first_slot_rejected(self):
        # two of the three quorum reports sit below 0, so the median does
        cmd = inv("early", 100_000, "solo")
        plan = {cmd.command_id: CommandPlan(reports=((0, -2), (1, -1)))}
        cell = cell_for([cmd], POMPE, adversary=plan)
        with pytest.raises(ContractError, match="precedes the first slot"):
            Counter(trial_orders(*cell, 1, CommandIds((), "a"), no_seed))
        with pytest.raises(ContractError, match="precedes the first slot"):
            run_slotted(*cell)

    @pytest.mark.parametrize("node", [4, 1000, -1, "0"])
    def test_lie_from_a_node_that_does_not_exist_rejected(self, node):
        # n = 4: a report from outside nodes 0..3 would replace none of theirs
        cmd = inv("lied about", 100_000, "solo")
        plan = {cmd.command_id: CommandPlan(reports=((0, 1), (node, 2)))}
        cell = cell_for([cmd], POMPE, adversary=plan)
        with pytest.raises(ContractError, match="lying node"):
            Counter(trial_orders(*cell, 1, CommandIds((), "a"), no_seed))

    def test_sro_shape_mismatch_rejected(self):
        topology = small_topology()
        with pytest.raises(ContractError):
            SimulationRun(
                topology, DNET, SLOT,
                sro_init(SroConfig(n=7, f=2, backend=Backend.SEEDED_HASH), SEED),
            )

    @pytest.mark.parametrize("dnet", [-1, -5_000])
    def test_negative_delta_net_rejected(self, dnet):
        # a negative window would stamp a command before its invocation
        with pytest.raises(ContractError, match="delta_net must be >= 0"):
            cell_for([inv("a", 1_000_000, "solo")], POMPE, dnet=dnet)

    def test_zero_delta_net_allowed(self):
        placed = [inv("a", 1_000_000, "solo")]
        result = run_slotted(*cell_for(placed, POMPE, dnet=0))
        assert result.commands[placed[0].command_id].assigned_ts == 1_000_000

    def test_noise_independent_of_assigned_rank(self):
        # Rank correlation between assigned timestamps and noise draws stays
        # near zero: the seed exists only after the slot's content is fixed.
        handle = sro_for(small_topology(), 1)
        slot_seed = handle.reveal(RevealRequest(0, handle.quorum_signatures(0)))
        rng = np.random.default_rng(0)
        ats = rng.integers(0, SLOT, size=100_000)
        drawn = np.array(
            [noise(slot_seed, make_command_id("n", i), SLOT) for i in range(100_000)]
        )
        rho = np.corrcoef(np.argsort(np.argsort(ats)), np.argsort(np.argsort(drawn)))[0, 1]
        assert abs(rho) < 0.02

    def test_adversarial_runs_never_invert_far_pairs(self):
        # Falsification attempt on the linearizability horizon, end to end.
        policy = BERCOW
        delta = DNET + SLOT
        for trial in range(30):
            early = inv(("e", trial), 100_000, "solo")
            late = inv(("l", trial), 100_000 + delta + 1, "solo")
            plan = {
                early.command_id: CommandPlan(ats=early.invoke_time + DNET),
                late.command_id: CommandPlan(ats=late.invoke_time),
            }
            placed = [early, late]
            result = run_slotted(*cell_for(placed, policy, adversary=plan))
            assert result.ledger.entries[0] == early.command_id

    def test_ats_override_clamped_to_window(self):
        cmd = inv("clamp", 100_000, "solo")
        plan = {cmd.command_id: CommandPlan(ats=10**9)}
        placed = [cmd]
        result = run_slotted(*cell_for(placed, POMPE, adversary=plan))
        assert result.commands[cmd.command_id].assigned_ts == 100_000 + DNET

    def test_engine_clamps_ats_to_both_ends_of_the_window(self):
        # an override past the window's end stamps T + delta_net, one
        # before its start stamps T
        cmd = inv("clamp", 100_000, "solo")
        topology = small_topology()
        run = SimulationRun(topology, DNET, SLOT, sro_for(topology, 1))
        for ats, want in ((10**9, 100_000 + DNET), (0, 100_000)):
            plan = {cmd.command_id: CommandPlan(ats=ats)}
            assert consensus.assigned_timestamps(run, [cmd], plan) == [want]


class TestCountSlottedOrders:
    def test_equals_run_slotted_on_renamed_runs(self):
        # Every plan kind, and commands decided in slots 0 and 1: the counts
        # are those of run_slotted on each renamed run.
        topology = bundled_topology()
        f = (topology.n_nodes - 1) // 3
        placed = [
            inv("x", 1_100_000, "tokyo"), inv("y", 1_250_000, "london"),
            inv("z", 1_550_000, "washington"),
        ]
        plan = {
            placed[0].command_id: CommandPlan(ats=1_390_000),
            placed[1].command_id: CommandPlan(reports=((0, 1_250_000),), bias="high"),
        }
        cell = cell_for(placed, BERCOW, topology=topology, f=f, adversary=plan)
        trial_ids = [[make_command_id("t", t, i) for i in range(3)] for t in range(200)]
        want = Counter()
        for ids in trial_ids:
            rename = {c.command_id: cid for c, cid in zip(placed, ids)}
            renamed = cell._replace(
                invocations=[replace(p, command_id=cid) for p, cid in zip(placed, ids)],
                plan={rename[c]: entry for c, entry in plan.items()},
            )
            result = run_slotted(*renamed)
            assert len({slot.index for slot in result.slots if slot.decided_commands}) == 2
            want[tuple(ids.index(cid) for cid in result.ledger.entries)] += 1
        assert len(want) > 1
        got = trial_orders(*cell, len(trial_ids), CommandIds(("t",), range(3)), no_seed)
        assert Counter(got) == want

    def test_noise_ties_take_the_full_key(self):
        # a 2 µs noise width: about half the trials tie on modified_ts, and
        # those are ordered by the tie keys, as in run_slotted
        placed = [inv(label, 100_000, "solo") for label in "ab"]
        cell = cell_for(placed, OrderingPolicy(PolicyKind.BERCOW_NOISE, 2))
        trial_ids = [[make_command_id("w", t, i) for i in range(2)] for t in range(200)]
        want = Counter()
        for ids in trial_ids:
            renamed = cell._replace(
                invocations=[replace(p, command_id=cid) for p, cid in zip(placed, ids)]
            )
            want[tuple(ids.index(cid) for cid in run_slotted(*renamed).ledger.entries)] += 1
        assert set(want) == {(0, 1), (1, 0)}
        got = trial_orders(*cell, len(trial_ids), CommandIds(("w",), range(2)), no_seed)
        assert Counter(got) == want

    def test_one_microsecond_noise_ties_every_trial(self):
        # width 1: every noise is 0, so two commands from one city at one
        # instant tie in every trial, and each trial takes the full key
        topology = bundled_topology()
        placed = [inv(label, 700_000, "tokyo") for label in "ab"]
        cell = cell_for(
            placed, OrderingPolicy(PolicyKind.BERCOW_NOISE, 1),
            topology=topology, f=(topology.n_nodes - 1) // 3,
        )
        trial_ids = [[make_command_id("one", t, i) for i in range(2)] for t in range(100)]
        want = []
        for ids in trial_ids:
            renamed = cell._replace(
                invocations=[replace(p, command_id=cid) for p, cid in zip(placed, ids)]
            )
            want.append(tuple(ids.index(cid) for cid in run_slotted(*renamed).ledger.entries))
        got = trial_orders(*cell, len(trial_ids), CommandIds(("one",), range(2)), no_seed)
        assert list(got) == want
        assert set(want) == {(0, 1), (1, 0)}

    @pytest.mark.parametrize("width_us", [1, SLOT])
    def test_each_trial_asks_for_its_ids_once(self, width_us):
        # at width 1 every trial ties and sorts by the full key, on the ids
        # it drew its noise from: each id costs one copy of the tags' state
        class CountingState:
            def __init__(self, state):
                self.state, self.copies = state, 0

            def copy(self):
                self.copies += 1
                return self.state.copy()

        trial_ids = CommandIds(("once",), range(2))
        trial_ids.prefix = CountingState(trial_ids.prefix)
        placed = [inv(label, 100_000, "solo") for label in "ab"]
        cell = cell_for(placed, OrderingPolicy(PolicyKind.BERCOW_NOISE, width_us))
        Counter(trial_orders(*cell, 50, trial_ids, no_seed))
        assert trial_ids.prefix.copies == 50 * 2

    def test_rejects_noise_that_could_overflow(self):
        # ats fits in 63 bits, ats + the largest noise a trial can draw does not
        t = MAX_TIMESTAMP - DNET - SLOT
        placed = [inv("a", t, "solo")]
        Counter(trial_orders(*cell_for(placed, POMPE), 1, CommandIds((), "a"), no_seed))
        wide = OrderingPolicy(PolicyKind.BERCOW_NOISE, 2 * SLOT)
        with pytest.raises(ContractError, match="overflow"):
            Counter(trial_orders(*cell_for(placed, wide), 1, CommandIds((), "a"), no_seed))


STAMPED = b"stamped"
LOW = {STAMPED: CommandPlan(bias="low")}
# Each changes one part of a command's stamp key on one run, and so its
# assigned timestamp.
STAMP_VARIANTS = {
    "city": dict(city="london"),
    "invoke_time": dict(t=900_000),
    "quorum_bias": dict(plan={STAMPED: CommandPlan(bias="high")}),
    "node_overrides": dict(plan={
        STAMPED: CommandPlan(reports=tuple((node, 700_000) for node in range(26)), bias="low")
    }),
    "ats_override": dict(plan={STAMPED: CommandPlan(bias="low", ats=700_000)}),
}
# Each is a different network, on which the command gets another stamp.
RUN_VARIANTS = {
    "delta_net": dict(dnet=100_000),
    "quorum_size": dict(f=10),
}


def stamp_run(dnet=DNET, f=26):
    topology = bundled_topology()
    return SimulationRun(topology, dnet, SLOT, sro_for(topology, f))


def stamp(run, city="tokyo", t=700_000, plan=LOW):
    """The run's assigned timestamp for the one command ``STAMPED``."""
    placed = [Invocation(STAMPED, t, city)]
    (ats,) = consensus.assigned_timestamps(run, placed, plan)
    return ats


def reference_stamp(run, city="tokyo", t=700_000, plan=LOW):
    placed = [Invocation(STAMPED, t, city)]
    return run_slotted(run, POMPE, placed, plan).commands[STAMPED].assigned_ts


class TestStampMemo:
    @pytest.mark.parametrize("part", sorted(STAMP_VARIANTS))
    def test_a_different_stamp_is_not_shared(self, part):
        # the cells of one run share its stamps; a command that differs in
        # one part of its key gets its own stamp, as on a fresh run
        variant = STAMP_VARIANTS[part]
        fresh = stamp(stamp_run(), **variant)
        assert fresh != stamp(stamp_run()) == 815_000
        run = stamp_run()
        stamp(run)
        assert stamp(run, **variant) == fresh
        assert len(run._stamps) == 2

    @pytest.mark.parametrize("part", sorted(RUN_VARIANTS))
    def test_each_run_stamps_on_its_own_network(self, part):
        # delta_net and f belong to the run: each run stamps as the
        # reference does on its network, whichever run stamped first, and a
        # run remade by ``replace`` keeps nothing of the run it came from
        base, other = stamp_run(), stamp_run(**RUN_VARIANTS[part])
        want = [reference_stamp(base), reference_stamp(other)]
        assert want[0] == 815_000 != want[1]
        assert [stamp(base), stamp(other)] == want
        assert stamp(replace(base, delta_net_us=other.delta_net_us, sro=other.sro)) == want[1]
        assert [stamp(stamp_run(**RUN_VARIANTS[part])), stamp(stamp_run())] == want[::-1]

    def test_unknown_quorum_bias_rejected(self):
        plan = {STAMPED: CommandPlan(bias="middle")}
        with pytest.raises(ContractError, match="unknown quorum bias 'middle'"):
            stamp(stamp_run(), plan=plan)

    @pytest.mark.parametrize(
        "entry, message",
        [
            (CommandPlan(reports=((80, 700_000),)), "lying node 80"),
            (CommandPlan(bias="middle"), "unknown quorum bias 'middle'"),
        ],
        ids=["node-n", "middle"],
    )
    def test_a_bad_entry_raises_on_every_call(self, entry, message):
        # n = 80: the entry is checked whenever it is stamped, also after the
        # run has stamped the same command honestly, and is never kept
        run = stamp_run()
        honest = stamp(run, plan={})
        for _ in range(2):
            with pytest.raises(ContractError, match=message):
                stamp(run, plan={STAMPED: entry})
        assert list(run._stamps.values()) == [honest]

    def test_equal_entries_share_one_stamp(self):
        # the key holds the entry's value: equal entries are one stamp, and a
        # command the plan leaves out is stamped as under an empty entry
        def lying():  # a new entry, equal to the last
            return CommandPlan(tuple((node, 700_000) for node in range(26)), QUORUM_LOW)

        run = stamp_run()
        first = stamp(run, plan={STAMPED: lying()})
        assert stamp(run, plan={STAMPED: lying()}) == first
        honest = stamp(run, plan={})
        assert stamp(run, plan={STAMPED: CommandPlan()}) == honest
        assert len(run._stamps) == 2

    def test_entries_of_commands_not_ordered_are_never_read(self):
        # bad entries for other commands raise nothing and change no stamp
        run = stamp_run()
        plan = {
            b"other": CommandPlan(reports=((80, 700_000),), bias="middle"),
            b"another": CommandPlan(ats=-1),
        }
        assert stamp(run, plan=plan) == stamp(run, plan={}) == 815_000
        assert len(run._stamps) == 1

    def test_an_equal_stamp_is_shared(self):
        # honest and low-biased clients pick the same quorum, but the bias
        # is part of the key
        run = stamp_run()
        first = stamp(run)
        assert stamp(run) == first
        assert stamp(run, plan={}) == first
        assert len(run._stamps) == 2

    def test_each_run_reveals_with_its_own_oracle(self):
        # a run keeps a slot's seed under k alone, which is safe because its
        # oracle is fixed: runs with different oracles never share a seed
        placed = [inv(label, 100_000, "solo") for label in "ab"]
        oracles = [
            sro_init(SroConfig(n=4, f=1, backend=Backend.SEEDED_HASH), bytes([i]) * 32)
            for i in range(2)
        ]
        ids = CommandIds(("oracles",), "ab")
        runs = [SimulationRun(small_topology(), DNET, SLOT, sro) for sro in oracles]

        def orders(run):
            return list(trial_orders(run, BERCOW, placed, {}, 50, ids, no_seed))

        want = [orders(run) for run in runs]
        assert want[0] != want[1]
        for run, sro, orders_alone in zip(runs, oracles, want):
            assert orders(run) == orders_alone  # a second cell reuses the run's seed
            assert run._seeds == {0: sro.reveal(RevealRequest(0, sro.quorum_signatures(0)))}
        assert orders(replace(runs[0], sro=oracles[1])) == want[1]

    def test_commands_with_one_key_share_one_stamp(self):
        topology = bundled_topology()
        dnet = 200_000  # tokyo's and canberra's farthest nodes are clamped
        placed = [
            inv(label, 700_000, city)
            for label, city in (("t", "tokyo"), ("c", "canberra"), ("again", "tokyo"))
        ]
        want = [quorum_median(observe(p, topology, dnet), 26) for p in placed]
        run, plan = cell_for(placed, POMPE, topology=topology, f=26, dnet=dnet).run, LOW
        assert consensus.assigned_timestamps(run, placed, plan) == want
        assert len(run._stamps) == 2  # one tokyo stamp for two commands
        assert consensus.assigned_timestamps(run, placed, plan) == want


# Two networks with the same city names: five nodes in ``a`` and two in
# ``b``, 10 or 200 ms apart.  With f = 2 a quorum of five takes three ``a``
# nodes, so a ``b`` command's stamp is its invoke time plus the delay.
TWO_CITY_STAMPS = {10: 1_010_000, 200: 1_200_000}


@pytest.mark.parametrize("first", sorted(TWO_CITY_STAMPS))
def test_a_run_never_takes_another_topologys_stamp(first):
    # each run stamps as the reference does on its own topology, whichever
    # run stamped first, and so does a run remade onto the other topology
    placed = [inv("b", 1_000_000, "b")]
    plan = {}

    def run_on(delay_ms):
        topology = parse_topology(f"city a 5\ncity b 2\ndelay a b {delay_ms}\n")
        return SimulationRun(topology, DNET, SLOT, sro_for(topology, 2))

    def stamp_of(run):
        (got,) = consensus.assigned_timestamps(run, placed, plan)
        (cmd,) = run_slotted(run, POMPE, placed, plan).commands.values()
        assert got == cmd.assigned_ts
        return got

    delays = sorted(TWO_CITY_STAMPS, key=lambda delay: delay != first)
    runs = [run_on(delay) for delay in delays]
    assert [stamp_of(run) for run in runs] == [TWO_CITY_STAMPS[delay] for delay in delays]
    moved = replace(runs[0], topology=runs[1].topology)
    assert stamp_of(moved) == TWO_CITY_STAMPS[delays[1]]


class TestCountBaselineOrders:
    def test_leader_draws_are_numpys_permutation_then_integers(self, monkeypatch):
        # The committed leader rows rest on these draws: trial t's schedule is
        # default_rng(trial_seed(t)).permutation(n) and its phase the next
        # integers(0, period), so a numpy that changes either fails here.
        drawn = []
        rotation = consensus._rotation

        def recording(*args, **kwargs):
            drawn.append(rotation(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(consensus, "_rotation", recording)
        rnd = random.Random(50)
        seeds = [[rnd.getrandbits(64), rnd.getrandbits(64)] for _ in range(50)]
        placed = [
            inv("a", 100_000, "tokyo"),
            inv("b", 100_000, "washington"),
        ]
        topology = bundled_topology()
        cell = cell_for(
            placed, OrderingPolicy(PolicyKind.LEADER_ROTATION, SLOT),
            topology=topology, f=(topology.n_nodes - 1) // 3,
        )
        Counter(trial_orders(*cell, len(seeds), CommandIds((), "ab"), seeds.__getitem__))
        want = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            want.append((rng.permutation(80).tolist(), int(rng.integers(0, SLOT))))
        assert drawn == want


U64 = 2**64 - 1
# Trial seeds of at most 4 entropy words (numpy reads each int as its uint32
# words, lowest first, at least one) that differ from the usual
# [config seed, digest64]
EDGE_SEEDS = {
    "config-seed-0": trial_seed(0, "geo", 0, "leader:1500", 0),  # one word for 0
    "negative-config-seed": trial_seed(-1, "geo", 0, "leader:1500", 0),  # masked to 64 bits
    "most-negative-config-seed": trial_seed(-(2**63), "geo", 0, "leader:1500", 0),
    "digest-below-2^32": [20240601, 5],
    "both-below-2^32": [7, 2**32 - 1],
    "zeros": [0, 0],
    "all-ones": [U64, U64],
    "bare-128-bits": 2**128 - 1,  # a full pool from one int
    "bare-int": U64,
    "bare-zero": 0,
    "no-words": [],
}
# Trial seeds past numpy's 4-word pool (128 bits), which the engine rejects
LONG_SEEDS = {
    "five-words": [1, 2, 3, 4, 5],
    "six-words": [U64, U64, U64],
    "seven-words": [2**224 - 1],
    "bare-2^128": 2**128,
}


def entropy_word_count(seed) -> int:
    """The number of uint32 entropy words numpy reads from a seed."""
    return sum(max(-(-part.bit_length() // 32), 1) for part in (
        (seed,) if isinstance(seed, int) else seed
    ))


def leader_cell(period=SLOT, n=80):
    """A leader cell of two commands invoked at 100 ms: from tokyo and
    washington on the bundled topology (80 nodes), or else from one city of
    ``n`` nodes."""
    topology = bundled_topology() if n == 80 else small_topology(n)
    cities = ("tokyo", "washington") if n == 80 else ("solo", "solo")
    placed = [inv(label, 100_000, city) for label, city in zip("ab", cities)]
    return cell_for(
        placed, OrderingPolicy(PolicyKind.LEADER_ROTATION, period),
        topology=topology, f=(topology.n_nodes - 1) // 3,
    )


def leader_draws(seeds, monkeypatch, period=SLOT, n=80):
    """Each trial's (schedule, phase) in one ``leader_cell`` of
    ``trial_orders`` whose trial t is seeded by ``seeds[t]``."""
    drawn = []
    rotation = consensus._rotation

    def recording(*args):
        drawn.append(rotation(*args))
        return drawn[-1]

    monkeypatch.setattr(consensus, "_rotation", recording)
    cell = leader_cell(period, n)
    Counter(trial_orders(*cell, len(seeds), CommandIds((), "ab"), seeds.__getitem__))
    return drawn


def numpy_state(seed):
    state = np.random.PCG64(np.random.SeedSequence(seed)).state["state"]
    return state["state"], state["inc"]


def numpy_draws(seed, period=SLOT, n=80):
    rng = np.random.default_rng(seed)
    return rng.permutation(n).tolist(), int(rng.integers(0, period))


@pytest.fixture(scope="module")
def harness_shaped_seeds():
    """10^4 trial seeds as the harness makes them, over five config seeds."""
    return [
        trial_seed(config_seed, "geo", pair, "leader:1500", t)
        for config_seed in (20240601, 1, -7, 2**63 - 1, -(2**63))
        for pair in range(4)
        for t in range(500)
    ]


class TestBulkSeeding:
    """``_pcg64_states`` restates numpy's SeedSequence and PCG64 seeding, so
    a numpy release that changed either, or the ``Generator`` draws made
    from a state, fails here."""

    def test_states_equal_numpys_for_harness_seeds(self, harness_shaped_seeds):
        seeds = harness_shaped_seeds
        assert len(seeds) == 10**4 and len({tuple(s) for s in seeds}) == 10**4
        assert consensus._pcg64_states(seeds) == [numpy_state(s) for s in seeds]

    def test_draws_equal_default_rngs_for_harness_seeds(self, harness_shaped_seeds, monkeypatch):
        seeds = harness_shaped_seeds
        assert leader_draws(seeds, monkeypatch) == [numpy_draws(s) for s in seeds]

    @pytest.mark.parametrize("seed", EDGE_SEEDS.values(), ids=EDGE_SEEDS)
    def test_edge_seed_alone(self, seed, monkeypatch):
        # a cell of one trial: a group of one lane
        assert consensus._pcg64_states([seed]) == [numpy_state(seed)]
        assert leader_draws([seed], monkeypatch, period=7) == [numpy_draws(seed, period=7)]

    def test_cell_mixing_word_counts(self, monkeypatch):
        rnd = random.Random(16)
        seeds = [[rnd.getrandbits(64), rnd.getrandbits(64)] for _ in range(40)]
        seeds += list(EDGE_SEEDS.values()) * 3
        rnd.shuffle(seeds)
        assert consensus._pcg64_states(seeds) == [numpy_state(s) for s in seeds]
        assert leader_draws(seeds, monkeypatch) == [numpy_draws(s) for s in seeds]

    def test_leader_cell_never_calls_default_rng(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the leader path seeds in bulk")

        seeds = [[5, t] for t in range(30)]
        want = [numpy_draws(s) for s in seeds]
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert leader_draws(seeds, monkeypatch) == want

    @pytest.mark.parametrize("period", [1, 7, SLOT, 2**32 + 5])  # the last takes
    @pytest.mark.parametrize("n", [1, 2, 3, 80])  # numpy's 64-bit bounded path
    def test_draws_equal_permutation_then_integers(self, n, period, monkeypatch):
        # a schedule is a list shuffle: a numpy whose list and array
        # shuffles drew differently would fail here
        rnd = random.Random(n * period)
        seeds = [[rnd.getrandbits(64), rnd.getrandbits(64)] for _ in range(40)]
        seeds += list(EDGE_SEEDS.values())
        want = [numpy_draws(s, period, n) for s in seeds]
        assert leader_draws(seeds, monkeypatch, period, n) == want

    def test_a_trial_sets_one_state_and_draws_one_shuffle_and_one_integer(self):
        # the floor of a leader trial: every draw is numpy's, and a trial
        # calls nothing else of the generator, through the run's slot
        calls = Counter()

        class Recording:
            """A Generator that counts each method looked up on it."""

            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                calls[name] += 1
                return getattr(self._rng, name)

        class RecordingBitGenerator:
            """A bit generator that counts each state set on it."""

            def __init__(self, bit_generator):
                self._bit_generator = bit_generator

            @property
            def state(self):
                return self._bit_generator.state

            @state.setter
            def state(self, value):
                calls["state"] += 1
                self._bit_generator.state = value

        rng = np.random.Generator(np.random.PCG64(0))
        proxy = Recording(rng)
        proxy.bit_generator = RecordingBitGenerator(rng.bit_generator)
        seeds = [[9, t] for t in range(25)]
        cell = leader_cell()
        cell.run.__dict__["_leader_rng"] = proxy  # the cached_property's slot
        got = Counter(trial_orders(*cell, len(seeds), CommandIds((), "ab"), seeds.__getitem__))
        fresh = leader_cell()
        assert got == Counter(trial_orders(
            *fresh, len(seeds), CommandIds((), "ab"), seeds.__getitem__
        ))
        trials = len(seeds)
        assert calls == {"state": trials, "shuffle": trials, "integers": trials}

    @pytest.mark.parametrize("seed", [-1, [3, -1], [-(2**64)]])
    def test_negative_entropy_rejected(self, seed):
        with pytest.raises(ValueError):
            np.random.SeedSequence(seed)
        with pytest.raises(ContractError, match="non-negative"):
            consensus._pcg64_states([[1, 2], seed])

    @pytest.mark.parametrize("seed", LONG_SEEDS.values(), ids=LONG_SEEDS)
    def test_seed_over_128_bits_rejected(self, seed, monkeypatch):
        # numpy seeds it, but the engine restates only the 4-word pool
        assert entropy_word_count(seed) > 4
        np.random.SeedSequence(seed)
        with pytest.raises(ContractError, match="128 bits"):
            consensus._pcg64_states([[1, 2], seed])
        # the call rejects a cell's first trials; the iterator its later ones
        with pytest.raises(ContractError, match="128 bits"):
            trial_orders(*leader_cell(), 3, CommandIds((), "ab"), lambda t: seed)
        monkeypatch.setattr(consensus, "_PASS_SEEDS", 2)
        orders = trial_orders(
            *leader_cell(), 5, CommandIds((), "ab"), lambda t: [7, t] if t < 2 else seed
        )
        assert len([next(orders), next(orders)]) == 2
        with pytest.raises(ContractError, match="128 bits"):
            next(orders)


def mixed_word_seeds():
    """Seeds of 0 to 4 entropy words, interleaved, so one pass pads pools
    of every fill."""
    rnd = random.Random(31)
    seeds = [
        [rnd.getrandbits(32) | 1 << 31 for _ in range(words)]
        for _ in range(12)
        for words in range(5)
    ]
    assert {entropy_word_count(s) for s in seeds} == {0, 1, 2, 3, 4}
    return seeds


class TestArraySeeding:
    """The seeding pass's uint32 arrays wrap as numpy's own SeedSequence
    does, with no overflow warning, from one column to a full pass."""

    @pytest.mark.parametrize("seeds", [
        pytest.param([[20240601, 2**63 + 5]], id="one-seed"),
        pytest.param(mixed_word_seeds(), id="0-to-4-words"),
        pytest.param(
            [trial_seed(20240601, "geo", 0, "leader:1500", t) for t in range(1024)],
            id="1024-seeds",
        ),
    ])
    def test_pass_equals_numpys_states_without_warnings(self, seeds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = consensus._pcg64_states(seeds)
        assert got == [numpy_state(s) for s in seeds]


    def test_one_generate_state_per_pass(self, monkeypatch):
        # every word count shares the pass's one (4, seeds) array
        shapes = []
        generate = consensus._generate_state

        def recording(pool):
            shapes.append(pool.shape)
            return generate(pool)

        monkeypatch.setattr(consensus, "_generate_state", recording)
        seeds = mixed_word_seeds() + list(EDGE_SEEDS.values())
        assert consensus._pcg64_states(seeds) == [numpy_state(s) for s in seeds]
        assert shapes == [(4, len(seeds))]


ALL_POLICIES = (
    POMPE,
    BERCOW,
    OrderingPolicy(PolicyKind.LEADER_ROTATION, SLOT),
    OrderingPolicy(PolicyKind.RECEIVE_ORDER),
)


def policy_id(policy):
    return policy.kind.value


# one cell per policy kind: tie-free under pompe and receive, a tie in every
# trial under a 1 µs bercow noise, and a rotation drawn per trial under leader
STABLE_CELLS = {
    "pompe": (POMPE, ("washington", "tokyo")),
    "bercow": (OrderingPolicy(PolicyKind.BERCOW_NOISE, 1), ("tokyo", "tokyo")),
    "leader": (OrderingPolicy(PolicyKind.LEADER_ROTATION, SLOT), ("washington", "tokyo")),
    "receive": (OrderingPolicy(PolicyKind.RECEIVE_ORDER), ("washington", "tokyo")),
}


class TestCountOrders:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=policy_id)
    def test_one_id_per_invocation(self, policy):
        # checked on trial 0 even where no tie ever asks for this cell's ids
        placed = [inv("a", 100_000, "solo")]
        with pytest.raises(ContractError, match="1 invocations"):
            Counter(trial_orders(
                *cell_for(placed, policy), 1, CommandIds((), "ab"), lambda t: [0, 0]
            ))

    @pytest.mark.parametrize(
        "trials", [0, -5, range(3, 3), range(-1, 2), range(0, 6, 2)], ids=repr
    )
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=policy_id)
    def test_rejects_fewer_than_one_trial(self, policy, trials):
        placed = [inv(label, 100_000, "solo") for label in "ab"]
        with pytest.raises(ContractError, match="trials must be >= 1"):
            Counter(trial_orders(
                *cell_for(placed, policy), trials, CommandIds((), "ab"), lambda t: [0, 0]
            ))

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=policy_id)
    def test_validation_is_eager(self, policy):
        # the call itself raises, with nothing taken from the stream; a
        # generator function would raise only on the first next()
        placed = [inv(label, 100_000, "solo") for label in "ab"]
        cell = cell_for(placed, policy)
        with pytest.raises(ContractError, match="trials must be >= 1"):
            trial_orders(*cell, 0, CommandIds((), "ab"), lambda t: [0, t])
        with pytest.raises(ContractError, match="3 command labels for 2 invocations"):
            trial_orders(*cell, 1, CommandIds((), "abc"), lambda t: [0, t])

    def test_overflow_check_is_eager(self):
        placed = [inv("a", MAX_TIMESTAMP - DNET - SLOT, "solo")]
        wide = OrderingPolicy(PolicyKind.BERCOW_NOISE, 2 * SLOT)
        with pytest.raises(ContractError, match="overflow"):
            trial_orders(*cell_for(placed, wide), 1, CommandIds((), "a"), no_seed)

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=policy_id)
    def test_setup_runs_on_the_call(self, policy, monkeypatch):
        # the slot seeds are revealed, and a leader cell's trial seeds read,
        # when the stream is made, not when its first trial is taken
        reveals = []
        reveal = SroHandle.reveal

        def counting(*args):
            reveals.append(args)
            return reveal(*args)

        monkeypatch.setattr(SroHandle, "reveal", counting)
        placed = [inv(label, 100_000, "solo") for label in "ab"]
        cell = cell_for(placed, policy)
        if policy.kind is PolicyKind.LEADER_ROTATION:
            with pytest.raises(ContractError, match="non-negative"):
                trial_orders(*cell, 3, CommandIds((), "ab"), lambda t: [1, t - 1])
        trial_orders(*cell, 3, CommandIds((), "ab"), lambda t: [0, t])
        assert len(reveals) == (1 if policy.kind.median_timestamps else 0)

    def test_disjoint_bercow_cell_reveals_on_the_call(self, monkeypatch):
        # noise ranges a width apart give one order and no per-trial work,
        # but the slots that decide the stamps are still revealed up front
        reveals = []
        reveal = SroHandle.reveal

        def counting(handle, request):
            reveals.append(request.k)
            return reveal(handle, request)

        monkeypatch.setattr(SroHandle, "reveal", counting)
        placed = [
            inv("a", 100_000, "solo"),
            inv("b", 100_000 + SLOT, "solo"),
        ]
        cell = cell_for(placed, BERCOW)
        stamps = consensus.assigned_timestamps(cell.run, cell.invocations, cell.plan)
        assert stamps[1] - stamps[0] == BERCOW.param_us
        orders = trial_orders(*cell, 3, CommandIds((), "ab"), no_seed)
        assert sorted(reveals) == sorted({ats // SLOT for ats in stamps})
        assert list(orders) == [(0, 1)] * 3

    @pytest.mark.parametrize("kind", STABLE_CELLS)
    def test_trial_order_does_not_depend_on_the_trial_count(self, kind):
        policy, cities = STABLE_CELLS[kind]
        topology = bundled_topology()
        placed = [inv(label, 100_000, c) for label, c in zip("ab", cities)]
        cell = cell_for(placed, policy, topology=topology, f=(topology.n_nodes - 1) // 3)
        ids, seeds = CommandIds(("stable",), "ab"), partial(trial_seed, 7, "stable")
        short, full = (list(trial_orders(*cell, trials, ids, seeds)) for trials in (7, 60))
        assert len(full) == 60 and short == full[:7]
        # nor on the trial its range starts at
        assert list(trial_orders(*cell, range(7, 60), ids, seeds)) == full[7:]
        # the leader and the tied bercow cell vary by trial; pompe and receive do not
        assert len(set(full)) == (2 if kind in ("bercow", "leader") else 1)

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=policy_id)
    def test_every_policy_rejects_a_window_past_63_bits(self, policy):
        # a command's receive times lie in [t, t + dnet]: under every policy
        # that window must fit in 63 bits, and the check is eager
        ids = CommandIds((), "a")
        late = cell_for([inv("a", MAX_TIMESTAMP - DNET + 1, "solo")], policy)
        with pytest.raises(ContractError, match="overflow"):
            trial_orders(*late, 2, ids, lambda t: [0, t])
        if policy is not BERCOW:  # whose noise could still overflow
            edge = cell_for([inv("a", MAX_TIMESTAMP - DNET, "solo")], policy)
            assert list(trial_orders(*edge, 2, ids, lambda t: [0, t])) == [(0,)] * 2

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=policy_id)
    def test_every_policy_rejects_an_empty_run(self, policy):
        with pytest.raises(ContractError, match="no invocations"):
            trial_orders(*cell_for([], policy), 1, CommandIds((), ()), lambda t: [0, t])

    @pytest.mark.parametrize("policy", ALL_POLICIES[2:], ids=policy_id)
    def test_baselines_reject_an_adversary_plan(self, policy):
        cmd = inv("a", 100_000, "solo")
        plan = {cmd.command_id: CommandPlan(ats=100_000)}
        cell = cell_for([cmd], policy, adversary=plan)
        with pytest.raises(ContractError, match="no adversary plan"):
            trial_orders(*cell, 1, CommandIds((), "a"), lambda t: [0, t])


class TestLeaderRotation:
    def test_single_node_is_receive_order(self):
        topology = small_topology(n=1)
        placed = [inv(("lr", i), 100_000 * (i + 1), "solo") for i in range(5)]
        ledger = order_leader_rotation(
            placed, topology, SLOT, DNET, np.random.default_rng(0), schedule=[0], phase_us=0
        )
        assert ledger.entries == [p.command_id for p in placed]

    def test_leader_proximity_wins(self):
        topology = parse_topology("city a 1\ncity b 1\ndelay a b 50\n")
        cmd_a, cmd_b = inv("A", 100_000, "a"), inv("B", 100_000, "b")
        placed = [cmd_a, cmd_b]
        ledger = order_leader_rotation(
            placed, topology, SLOT, DNET, np.random.default_rng(0), schedule=[0, 1], phase_us=0
        )
        assert ledger.entries[0] == cmd_a.command_id  # node 0 sits in city a

    def test_rejects_bad_period(self):
        with pytest.raises(ContractError):
            order_leader_rotation([], small_topology(), 0, DNET, np.random.default_rng(0))

    def test_geo_bias_large_and_positive(self):
        topology = bundled_topology()
        wins_w = 0
        trials = 1500
        for t in range(trials):
            w, tk = inv(("w", t), 100_000, "washington"), inv(("t", t), 100_000, "tokyo")
            placed = [w, tk]
            ledger = order_leader_rotation(
                placed, topology, SLOT, DNET, np.random.default_rng(t)
            )
            wins_w += ledger.entries[0] == w.command_id
        diff = 2 * wins_w / trials - 1
        assert diff > 0.5


class TestReceiveOrder:
    def test_far_apart_is_invocation_order(self):
        topology = bundled_topology()
        placed = [
            inv("first", 0, "tokyo"),
            inv("second", 10 * DNET, "washington"),
        ]
        ledger = order_receive_all_correct(placed, topology, DNET)
        assert ledger.entries == [p.command_id for p in placed]

    def test_four_city_deterministic_order(self):
        topology = bundled_topology()
        cities = ("washington", "london", "munich", "tokyo")
        placed = [inv(c, 100_000, c) for c in cities]
        ledger = order_receive_all_correct(placed, topology, DNET)
        assert ledger.entries == [p.command_id for p in placed]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2**31))
    def test_precedence_is_strict_partial_order(self, n_cmds, n_nodes, seed):
        rng = np.random.default_rng(seed)
        receive = {
            f"c{i}": list(rng.integers(0, 1000, size=n_nodes)) for i in range(n_cmds)
        }
        pairs = all_correct_precedence(receive)
        for a, b in pairs:
            assert (b, a) not in pairs
            assert a != b
            for c, d in pairs:
                if b == c:
                    assert (a, d) in pairs

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 2 * DNET), st.sampled_from(bundled_topology().city_names)),
        min_size=2, max_size=5,
    ))
    def test_engine_order_extends_all_correct_precedence(self, invocations):
        # a command every node received first has every order statistic of
        # its receive times smaller, so the median order extends the relation
        topology = bundled_topology()
        placed = [inv(("r", i), t, city) for i, (t, city) in enumerate(invocations)]
        cell = cell_for(placed, OrderingPolicy(PolicyKind.RECEIVE_ORDER), topology=topology,
                      f=(topology.n_nodes - 1) // 3)
        (order,) = trial_orders(*cell, 1, CommandIds((), range(len(placed))), no_seed)
        position = {command: at for at, command in enumerate(order)}
        receive = {i: observe(p, topology, DNET) for i, p in enumerate(placed)}
        for a, b in all_correct_precedence(receive):
            assert position[a] < position[b]


class TestOrdersPerCell:
    """``orders_per_cell`` is ``trial_orders`` for each of a run's cells:
    one order iterator per cell, the leader cells' first trials seeded in
    one pass on the call and the rest in passes of each cell's own."""

    def cells(self):
        """One run's cells: leader cells whose trial seeds have one, two,
        three and four entropy words, between a pompe and a tied bercow
        cell, and their trial_orders arguments after the trial count."""
        topology = bundled_topology()
        run = SimulationRun(
            topology, DNET, SLOT, sro_for(topology, (topology.n_nodes - 1) // 3)
        )
        placed = [inv(label, 100_000, c) for label, c in zip("ab", ("tokyo", "washington"))]
        leader = OrderingPolicy(PolicyKind.LEADER_ROTATION, SLOT)
        seeds = [
            lambda t: t, lambda t: [7, t], lambda t: [2**64 - 1, t, 3], lambda t: [1, 2, 3, t]
        ]
        cells = [(POMPE, placed, {}, CommandIds(("pompe",), "ab"), None)]
        cells += [
            (leader, placed, {}, CommandIds(("leader", i), "ab"), seed)
            for i, seed in enumerate(seeds)
        ]
        tied = [inv(label, 100_000, "tokyo") for label in "ab"]
        tie = OrderingPolicy(PolicyKind.BERCOW_NOISE, 1)
        cells.append((tie, tied, {}, CommandIds(("tied",), "ab"), None))
        return run, cells

    @pytest.mark.parametrize("trials", [range(40), range(13, 53)], ids=repr)
    def test_equals_each_cell_alone(self, trials, monkeypatch):
        run, cells = self.cells()
        alone = [list(trial_orders(run, *cell[:3], trials, *cell[3:])) for cell in cells]
        passes = []
        seed = consensus._pcg64_states

        def seeding(seeds):
            seeds = list(seeds)
            passes.append(len(seeds))
            return seed(seeds)

        monkeypatch.setattr(consensus, "_pcg64_states", seeding)
        together = [list(stream) for stream in orders_per_cell(*self.cells(), trials)]
        assert together == alone
        assert passes == [4 * len(trials)]  # one pass, four leader cells' trials
        assert all(len(set(orders)) == 2 for orders in together[1:])  # they vary

    @pytest.mark.parametrize("reading", ["reversed", "interleaved"])
    def test_any_reading_order_gives_the_same_orders(self, reading, monkeypatch):
        # at 8 seeds a pass, the call's pass seeds trials 0 and 1 of each of
        # the 4 leader cells and each leader stream seeds its other 38
        # trials in passes of 8, 8, 8, 8 and 6, as it reaches them
        monkeypatch.setattr(consensus, "_PASS_SEEDS", 8)
        in_turn = [list(stream) for stream in orders_per_cell(*self.cells(), 40)]
        passes = []
        seed = consensus._pcg64_states

        def seeding(seeds):
            seeds = list(seeds)
            # the test's leader cells' seeds have 1, 2, 3 and 4 entries
            passes.append(({len(s) if isinstance(s, list) else 1 for s in seeds}, len(seeds)))
            return seed(seeds)

        monkeypatch.setattr(consensus, "_pcg64_states", seeding)
        streams = orders_per_cell(*self.cells(), 40)
        if reading == "reversed":
            got = [list(stream) for stream in reversed(streams)][::-1]
        else:  # one trial of each cell in turn
            got = [list(orders) for orders in zip(*zip(*streams))]
        assert got == in_turn
        first, *later = passes
        assert first == ({1, 2, 3, 4}, 4 * 2)
        assert sorted(size for _, size in later) == sorted([8, 8, 8, 8, 6] * 4)
        assert all(len(entries) == 1 for entries, _ in later)  # one cell a pass

    @pytest.mark.parametrize("spec", ["bercow:1500", "leader:1500", "receive"])
    def test_a_cell_repeats_no_command_id_or_label(self, spec):
        # two equal labels gave two commands the same ids, so the same noise
        # and tie key: every trial kept them in list order
        run, _ = self.cells()
        policy = OrderingPolicy.parse(spec)
        twins = [inv("a", 750_000, "tokyo"), inv("b", 750_000, "tokyo")]
        seed = partial(trial_seed, 0, "twins")
        with pytest.raises(ContractError, match="repeats a command id or a command label"):
            orders_per_cell(run, [(policy, twins, {}, CommandIds((), "aa"), seed)], 10)
        with pytest.raises(ContractError, match="repeats a command id or a command label"):
            orders_per_cell(run, [(policy, twins[:1] * 2, {}, CommandIds((), "ab"), seed)], 10)
        orders = Counter(trial_orders(run, policy, twins, {}, 2000, CommandIds((), "ab"), seed))
        assert set(orders) == {(0, 1), (1, 0)}  # distinct labels: either order

    def test_checks_stamps_and_seeds_on_the_call(self):
        # nothing is taken from a stream: every cell's setup is eager
        run, cells = self.cells()
        bad_seed = cells[2][:4] + (lambda t: [1, t - 1],)
        with pytest.raises(ContractError, match="non-negative"):
            orders_per_cell(run, cells[:2] + [bad_seed], range(3))
        with pytest.raises(ContractError, match="trials must be >= 1"):
            orders_per_cell(run, cells, range(0))
        far = [inv("a", MAX_TIMESTAMP, "tokyo")]
        with pytest.raises(ContractError, match="overflow"):
            orders_per_cell(run, cells + [(POMPE, far, {}, CommandIds((), "a"), None)], 3)

"""The ordering policies under comparison, and the one engine that runs them.

``PolicyKind`` defines each policy once, and ``OrderingPolicy.parse``
reads a spec -- ``pompe``, ``receive``, ``leader:<ms>`` or ``bercow:<ms>``.

A ``SimulationRun`` is one network: topology, delta_net, slot interval and
oracle.  A cell is a policy ordering some invocations on a run, under an
adversary plan.  ``orders_per_cell`` gives, for each cell of a run, the
ledger order of each of a range of trials, in trial order, from one call
that sets each cell up once, as one order iterator per cell.  Trials
differ only in their command ids and, under leader rotation, in the
rotation drawn.
The one engine serves every policy:

* ``pompe`` and ``bercow`` (median timestamps, idealized per-slot
  agreement): a command's assigned timestamp is the median of its 2f+1
  quorum (``assigned_timestamps``, which an adversary also predicts with),
  and slot k = ats // interval decides it.  Its seed is revealed once n - f
  nodes have signed k.
  Under ``bercow`` each command then adds uniform noise keyed by the seed
  and its own id, so its position cannot depend on other commands or on
  anything the nodes chose before the seed existed.
* ``leader`` (rotating leader): each period's leader proposes, in its own
  receive order, what it has received by the period's end.  A trial's
  schedule and phase are numpy's draws from the PCG64 state
  ``default_rng`` gives its seed.  States are seeded in passes that
  restate numpy's ``SeedSequence`` on uint32 arrays, one column per seed,
  so numpy's own wraparound does its arithmetic.
* ``receive`` (all-correct receive order): a command precedes another if
  every node received it first; median receive time extends that relation.

Every ledger is a sort by one key rule, ``_key``: (id-free prefix, tie key,
command id).  The prefix is the modified timestamp under the median
policies, (period, leader's receive time) under leader rotation and the
median receive time under receive ordering.  (Under slot-by-slot
agreement, a command decided in slot k_d is emitted by slot
floor(modified_ts / interval) >= k_d, and each slot emits its ripe keys
sorted, after every earlier slot's smaller ones.)  What the ids do not affect is
computed once per cell, or once per run where cells share it, and a
trial's ids are asked for only when they can change its order.  One loop,
``_orders``, turns each trial's prefixes into its order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import repeat

import numpy as np

from .domain import (
    MAX_TIMESTAMP,
    QUORUM_HIGH,
    QUORUM_LOW,
    US_PER_MS,
    CommandPlan,
    ContractError,
    Invocation,
    clamp_to_window,
    encode_id_part,
    quorum_median,
    sha512,
    tie_break_key,
)
from .netmodel import CityTopology, observe
from .sro import RevealRequest, SroHandle


class PolicyKind(Enum):
    """Each ordering policy: its spec name, its one parameter (None if it
    takes none; ms in a spec, µs in an ``OrderingPolicy``), and whether it
    orders by quorum median timestamps, the only ordering an adversary plan
    acts on."""

    POMPE_MEDIAN = ("pompe", None, True)
    BERCOW_NOISE = ("bercow", "noise width", True)
    LEADER_ROTATION = ("leader", "rotation period", False)
    RECEIVE_ORDER = ("receive", None, False)

    def __new__(cls, spec_name, param, median_timestamps):
        kind = object.__new__(cls)
        kind._value_ = spec_name
        kind.param = param
        kind.median_timestamps = median_timestamps
        return kind


POLICY_NAMES = tuple(kind.value for kind in PolicyKind)


@dataclass(frozen=True)
class OrderingPolicy:
    kind: PolicyKind
    param_us: int = 0  # 0 for a kind that takes no parameter

    def __post_init__(self):
        if self.kind.param is None and self.param_us != 0:
            raise ContractError(f"the {self.kind.value} policy takes no parameter")
        if self.kind.param is not None and not 0 < self.param_us <= MAX_TIMESTAMP:
            raise ContractError(f"{self.kind.param} must be in (0, {MAX_TIMESTAMP}] µs")

    @classmethod
    def parse(cls, spec: str) -> OrderingPolicy:
        """A policy from its spec; the parameter is in whole milliseconds."""
        name, colon, arg = spec.partition(":")
        kind = PolicyKind(name) if name in POLICY_NAMES else None
        well_formed = kind is not None and (arg.isdecimal() if kind.param else not colon)
        if not well_formed:
            grammar = ", ".join(k.value + (":<ms>" if k.param else "") for k in PolicyKind)
            raise ContractError(f"policy {spec!r}: write one of {grammar}")
        return cls(kind, int(arg) * US_PER_MS if kind.param else 0)


@dataclass(frozen=True, eq=False)
class SimulationRun:
    """One network: its topology, delta_net, slot interval and secret
    random oracle, whose f fixes every quorum.  Each cell ordered on it
    (``orders_per_cell``) reuses what the run has computed: receive times
    and their medians, keyed by (origin city, invoke time); assigned
    timestamps, keyed by those and the command's plan entry
    (``assigned_timestamps``); revealed slot seeds, keyed by k; and the
    scratch generator of leader trials, built on first use.  A run is
    frozen, and ``replace`` makes a new one with none of these, so no value
    outlives the network it was computed on."""

    topology: CityTopology
    delta_net_us: int
    slot_interval_us: int
    sro: SroHandle
    _receive: dict = field(default_factory=dict, init=False, repr=False)
    _medians: dict = field(default_factory=dict, init=False, repr=False)
    _stamps: dict = field(default_factory=dict, init=False, repr=False)
    _seeds: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.delta_net_us < 0:
            raise ContractError(f"delta_net must be >= 0, got {self.delta_net_us}")
        if self.slot_interval_us <= 0:
            raise ContractError("slot interval must be positive")
        if self.sro.config.n != self.topology.n_nodes:
            raise ContractError("oracle was initialized for a different node count")

    @cached_property
    def _leader_rng(self):
        # seeded with a fixed seed, never drawn from before a state is set
        return np.random.Generator(np.random.PCG64(0))


_HONEST_ENTRY = CommandPlan()  # the entry of every command a plan leaves out


def _receive_times(run: SimulationRun, inv: Invocation) -> tuple:
    """``observe``'s receive times for one invocation, kept by the run.

    Every policy reads a command's receive times first, so this is where
    its window [invoke time, invoke time + delta_net], which holds them,
    must fit in 63 bits.
    """
    key = (inv.origin_city, inv.invoke_time)
    times = run._receive.get(key)
    if times is None:
        if inv.invoke_time + run.delta_net_us > MAX_TIMESTAMP:
            raise ContractError(
                f"timestamp overflow (must fit in 63 bits): invoked at {inv.invoke_time} µs"
            )
        times = run._receive[key] = tuple(observe(inv, run.topology, run.delta_net_us))
    return times


def assigned_timestamps(run: SimulationRun, invocations, plan) -> list:
    """Each invocation's assigned timestamp, in order.

    ``plan`` maps a command id to its ``CommandPlan``; only the entries of
    ``invocations`` are read.  Per invocation: the nodes observe it, its
    colluders' reports replace theirs, the median of the quorum its client
    picks (``quorum_median``, late under a "high" bias) becomes the
    assigned timestamp unless the entry's ``ats`` overrides it, and the
    result must not precede the first slot, which starts at 0.  On one run
    a stamp depends only on the command's origin city, invoke time and plan
    entry, and the run keeps it under exactly that key.  An unknown bias,
    or a lie from a node outside [0, n), which would replace no report, is
    rejected when the stamp is computed; a bad entry is never kept, so it
    is rejected on every call.
    """
    f, n = run.sro.config.f, run.topology.n_nodes
    assigned = []
    for inv in invocations:
        entry = plan.get(inv.command_id, _HONEST_ENTRY)
        key = (inv.origin_city, inv.invoke_time, entry)
        ats = run._stamps.get(key)
        if ats is None:
            if entry.bias not in (None, QUORUM_LOW, QUORUM_HIGH):
                raise ContractError(f"unknown quorum bias {entry.bias!r}")
            reports = list(_receive_times(run, inv))
            for node, ts in entry.reports:
                if not (isinstance(node, int) and 0 <= node < n):
                    raise ContractError(f"lying node {node!r} is not a node id in [0, {n})")
                reports[node] = ts
            ats = quorum_median(reports, f, high=entry.bias == QUORUM_HIGH)
            if entry.ats is not None:
                ats = clamp_to_window(entry.ats, inv.invoke_time, run.delta_net_us)
            if ats < 0:
                raise ContractError(f"assigned timestamp {ats} precedes the first slot at 0")
            run._stamps[key] = ats
        assigned.append(ats)
    return assigned


def _key(prefix, tie_seed: bytes, command_id: bytes):
    """A command's ledger sort key under every policy: (id-free prefix, tie
    key, command id).  Only the prefix differs between policies."""
    return (prefix, tie_break_key(tie_seed, command_id), command_id)


_LEADER_TIE_SEED = b"leader"
_RECEIVE_TIE_SEED = b"receive"


def _rotation(rng, nodes: list, rotation_period_us: int):
    """The leader schedule, then the rotation phase, drawn from ``rng``: the
    schedule shuffles a copy of ``nodes`` (0..n-1), and numpy's list
    ``shuffle`` makes ``permutation(n)``'s draws without its array."""
    schedule = nodes.copy()
    rng.shuffle(schedule)
    return schedule, int(rng.integers(0, rotation_period_us))


def _slotted_prefixes(run: SimulationRun, width_us: int, invocations, plan):
    """A cell's setup under ``pompe`` and ``bercow`` (noise width
    ``width_us``, 0 under ``pompe``).

    Each command's tie seed is the revealed seed of the slot that decides
    it; its key prefix is its modified_ts, the assigned timestamp under
    ``pompe`` and that plus the trial's noise under ``bercow``.  Returns the
    tie seeds, the assigned timestamps, and under ``bercow`` each command's
    noise hash state, keyed by its slot's seed, which a trial extends by
    the command's id (None under ``pompe``, which draws no noise).  A cell
    whose noised timestamps could overflow 63 bits is rejected on the
    largest noise a trial can draw, even if no trial's do.  A slot's
    certificate is built and checked in ``reveal`` only on its first use in
    the run.  The empty slots a slot-by-slot run walks until the last
    emission are neither certified nor revealed: no key depends on their
    seeds.
    """
    assigned = assigned_timestamps(run, invocations, plan)
    if max(assigned) + max(width_us - 1, 0) > MAX_TIMESTAMP:
        raise ContractError("timestamp overflow (must fit in 63 bits)")
    slots = [ats // run.slot_interval_us for ats in assigned]
    for k in slots:
        if k not in run._seeds:
            run._seeds[k] = run.sro.reveal(RevealRequest(k, run.sro.quorum_signatures(k)))
    seeds = [run._seeds[k] for k in slots]
    noise = [sha512(b"noise" + seed) for seed in seeds] if width_us else None
    return [seed[:32] for seed in seeds], assigned, noise


# numpy's SeedSequence (a pool of 4 uint32 words) and PCG64 seeding constants
_POOL_WORDS = 4
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_OTHER_WORDS = [np.array([d for d in range(_POOL_WORDS) if d != s]) for s in range(_POOL_WORDS)]


def _hash_constants(init: int, mult: int, steps: int) -> tuple:
    """The xor and multiplier columns of ``steps`` ``hashmix`` steps, read-only
    (steps, 1) uint32 arrays: a step xors the value with the constant,
    multiplies the constant by ``mult`` and the value by that."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, np.uint32)[:, None]
    column.flags.writeable = False
    return column[:-1], column[1:]


# mix_entropy's 16 steps (one per pool word, then 3 per word into the
# others) and the output hash's 8, one per uint32 word of the 4 uint64s
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_WORDS * _POOL_WORDS)
_OUTPUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_WORDS)


def _hashmix(value, xor, mult):
    """numpy's ``hashmix``, one step per row of ``xor`` and ``mult``."""
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    """numpy's ``mix``: MIX_MULT_L * x - MIX_MULT_R * y, then a shift-xor."""
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ r >> 16


def _entropy_words(seed) -> bytes:
    """numpy's 4-word pool of a seed (a non-negative int or a sequence of
    them), little-endian: each int gives its uint32 words from the lowest,
    at least one, and zeros fill the pool, which numpy hashes as it hashes
    a missing word.  A seed of more than 4 words (128 bits) is rejected."""
    words = b""
    for part in (seed,) if isinstance(seed, int) else seed:
        if part < 0:
            raise ContractError(f"a trial seed must be non-negative, got {part}")
        words += part.to_bytes(((part.bit_length() + 31) >> 5 or 1) << 2, "little")
    if len(words) > 4 * _POOL_WORDS:
        raise ContractError(f"a trial seed must have at most 4 words (128 bits), got {seed!r}")
    return words.ljust(4 * _POOL_WORDS, b"\0")


def _pcg64_states(seeds) -> list:
    """``np.random.PCG64(seed).state``'s (state, inc) for every seed at once:
    one ``_generate_state`` on the seeds' pools, a column each, then PCG64's
    seeding in Python ints: ``inc`` is (the second 128 bits << 1) | 1, and
    two LCG steps from 0 add the first 128 bits after the first step."""
    pools = np.frombuffer(b"".join(map(_entropy_words, seeds)), "<u4")
    out = []
    for state_hi, state_lo, inc_hi, inc_lo in zip(
        *_generate_state(pools.reshape(-1, _POOL_WORDS).T).tolist()
    ):
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        out.append(((((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return out


def _generate_state(pool):
    """numpy's ``SeedSequence(seed).generate_state(4, uint64)`` for each
    column of ``pool``, a (4, seeds) uint32 array of pools, as a (4, seeds)
    uint64 array: ``mix_entropy`` into the pool, then the output hash, each
    step on all seeds at once in numpy's own uint32 wraparound."""
    xor, mult = _MIX_HASH
    pool = _hashmix(pool, xor[:_POOL_WORDS], mult[:_POOL_WORDS])
    for src, dst in enumerate(_OTHER_WORDS):
        step = slice(_POOL_WORDS + 3 * src, _POOL_WORDS + 3 * src + 3)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[step], mult[step]))
    state = _hashmix(np.concatenate((pool, pool)), *_OUTPUT_HASH).astype(np.uint64)
    return state[0::2] | state[1::2] << np.uint64(32)  # uint64 word k: words 2k, 2k + 1


def _receive_prefixes(run: SimulationRun, invocations):
    """A cell's setup under ``receive``: the tie seeds and each
    command's median receive time (the upper median for an even n), kept
    by the run next to its receive times."""
    medians = []
    for inv in invocations:
        key = (inv.origin_city, inv.invoke_time)
        if key not in run._medians:
            run._medians[key] = sorted(_receive_times(run, inv))[run.topology.n_nodes // 2]
        medians.append(run._medians[key])
    return [_RECEIVE_TIE_SEED] * len(medians), medians


def _leader_prefixes(run: SimulationRun, period_us: int, invocations):
    """A cell's setup under ``leader``: the tie seeds, and the function
    that draws each trial as its (prefixes, None).

    Each trial's PCG64 (state, inc), seeded in bulk by ``_pcg64_states``
    and given to that function in trial order, is set, through one reused
    dict, on the run's scratch generator before the trial's draws, which
    numpy makes: the schedule and phase ``default_rng`` of the trial's seed
    would draw (``_rotation``).  Period p's leader is ``schedule[p % n]``.
    A command's prefix is (p, leader's receive time) for the first period
    p, from the one it was invoked in, whose leader received it before the
    period ended.
    """
    commands = [(_receive_times(run, inv), inv.invoke_time) for inv in invocations]
    n = run.topology.n_nodes
    nodes = list(range(n))
    rng = run._leader_rng
    bit_generator = rng.bit_generator
    new_state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    pcg = new_state["state"]

    def draws(states):
        for pcg["state"], pcg["inc"] in states:
            bit_generator.state = new_state
            schedule, phase = _rotation(rng, nodes, period_us)
            prefix = []
            for times, invoke_time in commands:
                p = (invoke_time - phase) // period_us
                while (received := times[schedule[p % n]]) >= phase + (p + 1) * period_us:
                    p += 1
                prefix.append((p, received))
            yield prefix, None

    return [_LEADER_TIE_SEED] * len(commands), draws


_NOISE_WORD = struct.Struct(">Q").unpack_from  # a digest's first 64 bits, big-endian


def _noised_prefixes(assigned, noise_states, width_us, trial_ids, trials: range):
    """The ``bercow`` kernel: per trial, one pass over the commands that
    derives each id and its noise, yielding the trial's prefixes and ids.

    The trial is encoded once, and each id is derived inline exactly as
    ``trial_ids(t)`` derives it.  A command's noise is uniform in [0, width):
    the first 64 bits of SHA-512("noise" || slot seed || command id), scaled
    exactly, so the bias is at most 2^-64 and the draw is the same on every
    platform.  Its key prefix is its assigned timestamp plus that noise.
    Per trial and command that is two hash copies, updates and digests,
    nothing more: the ``copy`` methods of the tags' state and of each
    command's noise state are bound once per cell.
    """
    copy_id = trial_ids.prefix.copy
    commands = tuple(zip(assigned, [state.copy for state in noise_states], trial_ids.labels))
    for t in trials:
        trial = encode_id_part(t)
        prefix, ids = [], []
        for ats, copy_noise, label in commands:
            h = copy_id()
            h.update(trial + label)
            cid = h.digest()
            ids.append(cid)
            h = copy_noise()
            h.update(cid)
            prefix.append(ats + ((_NOISE_WORD(h.digest())[0] * width_us) >> 64))
        yield prefix, ids


def _orders(tie_seeds, per_trial, trial_ids, trials: range):
    """The one per-trial loop: each trial's (prefixes, ids) in, its order
    out.  Only a trial whose prefixes tie sorts by the full ``_key``, on the
    ids its setup derived or, if it derived none, on ``trial_ids(t)``."""
    indices = range(len(tie_seeds))
    for t, (prefix, ids) in zip(trials, per_trial):
        if len(set(prefix)) < len(prefix):
            prefix = [
                _key(p, seed, cid)
                for p, seed, cid in zip(prefix, tie_seeds, ids or trial_ids(t))
            ]
        yield tuple(sorted(indices, key=prefix.__getitem__))


def _trial_range(trials) -> range:
    """``trials`` as a range: a count n is trials [0, n); a range must be
    consecutive trials from 0 up and hold at least one."""
    span = range(trials) if isinstance(trials, int) else trials
    if not span or span.start < 0 or span.step != 1:
        raise ContractError(f"trials must be >= 1, from trial 0 up; got {trials!r}")
    return span


def _cell_orders(run, policy, invocations, plan, trial_ids, trials: range, states):
    """One checked cell's setup (stamps, reveals, ``bercow`` noise states or
    the leader command list), made once, and its iterator of orders over
    ``trials``; ``states`` gives, under ``leader``, its trials' PCG64
    (state, inc) pairs in trial order (None otherwise).

    Outside ``leader``, every trial's prefix for a command lies in
    [p, p + max(w, 1)), where p is its fixed prefix and w the ``bercow``
    noise width (0 otherwise).  If those ranges are pairwise disjoint, every
    trial has the fixed prefixes' order, repeated with no per-trial work.
    """
    kind, width = policy.kind, policy.param_us
    if kind is PolicyKind.LEADER_ROTATION:
        tie_seeds, draws = _leader_prefixes(run, width, invocations)
        return _orders(tie_seeds, draws(states), trial_ids, trials)
    if kind.median_timestamps:
        tie_seeds, prefixes, noise_states = _slotted_prefixes(run, width, invocations, plan)
    else:
        tie_seeds, prefixes = _receive_prefixes(run, invocations)
    span = max(width, 1)  # the width of every trial's prefix range
    order = tuple(sorted(range(len(prefixes)), key=prefixes.__getitem__))
    if all(prefixes[b] - prefixes[a] >= span for a, b in zip(order, order[1:])):
        return repeat(order, len(trials))
    if kind is PolicyKind.BERCOW_NOISE:
        per_trial = _noised_prefixes(prefixes, noise_states, width, trial_ids, trials)
    else:
        per_trial = repeat((prefixes, None), len(trials))
    return _orders(tie_seeds, per_trial, trial_ids, trials)


# Leader trial seeds per seeding pass.  A pass works on uint32 arrays with a
# column per seed, and an iterator holds each state of its pass (about 150
# bytes) until its trial is drawn, so this bounds what an iterator holds.
_PASS_SEEDS = 1024


def _leader_states(first: list, trial_seed, rest: range):
    """A leader cell's PCG64 states in trial order: ``first``, from the
    call's pass, then those of ``rest``, seeded in the cell's own passes of
    up to ``_PASS_SEEDS`` trials, each as the iterator reaches it."""
    yield from first
    for start in range(0, len(rest), _PASS_SEEDS):
        yield from _pcg64_states(map(trial_seed, rest[start : start + _PASS_SEEDS]))


def orders_per_cell(run: SimulationRun, cells, trials) -> list:
    """Each trial's ledger order, in trial order, for each cell of a run:
    a list with one order iterator per cell, in cell order.

    A cell is (policy, invocations, plan, trial_ids, trial_seed): ``policy``
    ordering ``invocations`` (template ``Invocation``s, each carrying its
    origin city) on ``run`` under the adversary ``plan``, a mapping from
    template command id to ``CommandPlan`` that only the median-timestamp
    policies take non-empty.  ``trials`` is a count n, for trials 0..n-1,
    or a range of consecutive trials.  Trial t renames the invocations to
    ``trial_ids(t)``, one distinct ``CommandIds`` label per invocation: two
    commands with one id would share every trial's noise and tie key, and
    so always keep their list order.  Under ``leader`` trial t draws its
    schedule and phase as ``np.random.default_rng(trial_seed(t))`` would (a
    seed is a non-negative int or a sequence of them, of at most 4 uint32
    words, 128 bits); no other policy calls ``trial_seed``.  An order is a
    tuple of indices into ``invocations``, and trial t's depends neither on
    the range nor on the call's other cells nor on the order in which the
    iterators are read, so counts over disjoint ranges add up to the count
    over their union.

    The call checks and sets up every cell once, eagerly, and seeds the
    first ``_PASS_SEEDS`` // (leader cells) trials (at least one) of every
    leader cell in one ``_pcg64_states`` pass (none without leader cells),
    so a bad trial seed fails it.  Each seed is a column of its own in the pass, so every state is
    the one a call with that cell alone would give.  A leader iterator
    seeds its later trials in passes of its own, of up to ``_PASS_SEEDS``,
    as it reaches them, so what the iterators hold stays bounded in any
    reading order.  A trial's noise, draws and sort happen as its iterator
    yields it.
    """
    trials = _trial_range(trials)
    cells = list(cells)
    for policy, invocations, plan, trial_ids, _ in cells:
        if not invocations:
            raise ContractError("no invocations to order")
        if len(trial_ids.labels) != len(invocations):
            raise ContractError(
                f"{len(trial_ids.labels)} command labels for {len(invocations)} invocations"
            )
        ids = {inv.command_id for inv in invocations}
        if len(ids) < len(invocations) or len(set(trial_ids.labels)) < len(invocations):
            raise ContractError("a cell repeats a command id or a command label")
        if plan and not policy.kind.median_timestamps:
            raise ContractError(f"the {policy.kind.value} baseline takes no adversary plan")
    leader = PolicyKind.LEADER_ROTATION
    seeds = [trial_seed for policy, *_, trial_seed in cells if policy.kind is leader]
    head = trials[: max(_PASS_SEEDS // max(len(seeds), 1), 1)]
    first = iter(
        _pcg64_states(trial_seed(t) for trial_seed in seeds for t in head) if seeds else ()
    )
    return [
        _cell_orders(
            run, policy, invocations, plan, trial_ids, trials,
            _leader_states([next(first) for _ in head], trial_seed, trials[len(head) :])
            if policy.kind is leader else None,
        )
        for policy, invocations, plan, trial_ids, trial_seed in cells
    ]

"""Per-trial reference orderings, written from the paper's definitions.

The tests compare the package's one ordering engine,
``fairorder.consensus.orders_per_cell``, with these trial by trial: each
reference builds one trial's ledger from scratch, with public ``domain``,
``netmodel`` and ``sro`` calls only, and the engine's stream must give the
same order for every trial.  The per-slot
records ``TimestampedCommand`` and ``Slot`` live here, with the checks
their fields must pass, and so does the all-correct precedence that the
receive baseline's median order extends.
The spec constants and rules -- receive times, the median, the window
clamp, command ids, the harness's trial seeds, noise and tie keys -- are
restated here, not imported: this module imports no package function, so
a change to the engine's rules shows up as a disagreement instead of
being shared by both sides.

It also restates the exact order-probability integral in ``Fraction``
arithmetic, in the stamps' own units, as a check on the package's
integer integrator.
"""

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise

from fairorder.domain import QUORUM_HIGH, ContractError, Invocation
from fairorder.sro import RevealRequest

NOISE_PREFIX = b"noise"
SLOT_TIE_SEED_BYTES = 32  # a slot's tie keys are keyed by its seed's first 32 bytes
LEADER_TIE_SEED = b"leader"
RECEIVE_TIE_SEED = b"receive"
MAX_TIMESTAMP = 2**63 - 1  # a timestamp and its noise fit in 63 bits


def make_command_id(*parts) -> bytes:
    """The SHA-256 of the parts, each as its 4-byte big-endian length and
    its bytes: an int is 8 bytes two's complement, a str its UTF-8, and a
    tuple its own id (nested labels are a test convenience)."""
    encoded = b""
    for part in parts:
        if isinstance(part, tuple):
            part = make_command_id(*part)
        elif isinstance(part, int):
            part = part.to_bytes(8, "big", signed=True)
        elif isinstance(part, str):
            part = part.encode()
        encoded += len(part).to_bytes(4, "big") + part
    return hashlib.sha256(encoded).digest()


def trial_seed(config_seed: int, *tags) -> list:
    """The seed a harness cell's leader trial draws its rotation from, for
    tags (*cell tags, trial): [the config seed mod 2^64, the first 8 bytes,
    big-endian, of the SHA-256 of the tags' repr]."""
    digest = hashlib.sha256(repr(tags).encode()).digest()
    return [config_seed & 0xFFFFFFFFFFFFFFFF, int.from_bytes(digest[:8], "big")]


def tie_break_key(tie_seed: bytes, command_id: bytes) -> bytes:
    """SHA-256(tie seed || command id): equal keys sort by a hash, not by
    arrival."""
    return hashlib.sha256(tie_seed + command_id).digest()


def clamp_to_window(ats: int, invoke_time: int, delta_net_us: int) -> int:
    """A timestamp moved into its command's window [T, T + delta_net]."""
    return min(max(ats, invoke_time), invoke_time + delta_net_us)


def median(timestamps) -> int:
    """The middle value of an odd number of timestamps: with 2f+1 of them,
    the (f+1)-th smallest."""
    ordered = sorted(timestamps)
    if len(ordered) % 2 == 0:
        raise ContractError(f"median of {len(ordered)} timestamps: need an odd count")
    return ordered[len(ordered) // 2]


@dataclass(frozen=True)
class TimestampedCommand:
    """An invocation bound to its quorum timestamps, noise, and sort key."""

    invocation: Invocation
    node_timestamps: tuple  # ((node_id, ts_us), ...), exactly 2f+1 entries
    assigned_ts: int
    noise: int
    modified_ts: int

    def __post_init__(self):
        values = [ts for _, ts in self.node_timestamps]
        if median(values) != self.assigned_ts:
            raise ContractError("assigned_ts is not the median of node_timestamps")
        if self.noise < 0:
            raise ContractError("noise must be >= 0")
        if self.modified_ts != self.assigned_ts + self.noise:
            raise ContractError("modified_ts != assigned_ts + noise")
        if self.modified_ts > MAX_TIMESTAMP:
            raise ContractError("timestamp overflow (must fit in 63 bits)")

    @property
    def command_id(self) -> bytes:
        return self.invocation.command_id


@dataclass(frozen=True)
class Slot:
    """One consensus decision: a time interval and the commands assigned to it."""

    index: int
    interval_start: int
    interval_end: int
    decided_commands: tuple = ()
    decision_certificate: frozenset = frozenset()  # {(node_id, signature_bytes)}

    def __post_init__(self):
        if self.interval_end <= self.interval_start:
            raise ContractError("slot interval must be nonempty")
        for cmd in self.decided_commands:
            if not (self.interval_start <= cmd.assigned_ts < self.interval_end):
                raise ContractError("decided command outside slot interval")
        ids = {node for node, _ in self.decision_certificate}
        if len(ids) != len(self.decision_certificate):
            raise ContractError("duplicate node in decision certificate")


@dataclass
class Ledger:
    """Final output order: command ids, stable up to the watermark."""

    entries: list = field(default_factory=list)
    stable_watermark: int = 0


@dataclass
class SlottedRun:
    ledger: Ledger
    commands: dict  # command_id -> TimestampedCommand
    slots: list  # every slot walked, in index order
    emission_slot: dict  # command_id -> index of the slot that emitted it


def noise(slot_seed: bytes, command_id: bytes, width_us: int) -> int:
    """Uniform integer in [0, width): the first 64 bits of
    SHA-512("noise" || slot seed || command id), scaled exactly."""
    digest = hashlib.sha512(NOISE_PREFIX + slot_seed + command_id).digest()
    return (int.from_bytes(digest[:8], "big") * width_us) >> 64


def _received(inv, topology, delta_net_us) -> list:
    """Node i's receive time: T + its one-way delay from the origin city,
    at most T + delta_net."""
    t = inv.invoke_time
    return [t + min(d, delta_net_us) for d in topology.delays_from(inv.origin_city)]


def run_slotted(run, policy, invocations, plan) -> SlottedRun:
    """Per-slot agreement under the median policies (noise width 0 is
    ``pompe``): ``policy`` ordering ``invocations`` on the network ``run``
    (its topology, delta_net, slot interval and oracle) under ``plan``, a
    mapping from command id to its ``CommandPlan``.

    A command's assigned timestamp is the median of its client's 2f+1
    quorum (the earliest responders, or the highest under a "high" bias),
    after colluders' reports and the entry's timestamp override; slot
    ats // interval decides it.  Slots are walked in order from the first
    decided one: each gathers its certificate, then reveals its seed, then
    noises the commands it decided.  A command is emitted by the first slot
    whose interval end exceeds its noised timestamp, and a slot emits its
    ripe commands by (noised timestamp, tie key, id).
    """
    interval, size = run.slot_interval_us, 2 * run.sro.config.f + 1
    by_slot = {}
    for inv in invocations:
        entry = plan.get(inv.command_id)
        lies = dict(entry.reports) if entry is not None else {}
        stamps = sorted(
            (lies.get(node, ts), node)
            for node, ts in enumerate(_received(inv, run.topology, run.delta_net_us))
        )
        high = entry is not None and entry.bias == QUORUM_HIGH
        chosen = stamps[-size:] if high else stamps[:size]
        quorum = tuple((node, ts) for ts, node in chosen)
        ats = median(ts for ts, _ in chosen)
        if entry is not None and entry.ats is not None:
            ats = clamp_to_window(entry.ats, inv.invoke_time, run.delta_net_us)
            quorum = tuple((node, ats) for node, _ in quorum)
        if ats < 0:
            raise ContractError(f"assigned timestamp {ats} precedes the first slot")
        by_slot.setdefault(ats // interval, []).append((inv, quorum, ats))

    out = SlottedRun(Ledger(), {}, [], {})
    pending = []  # (noised timestamp, tie key, id) of decided, unemitted commands
    k, last = min(by_slot), max(by_slot)
    while k <= last or pending:
        end = (k + 1) * interval
        certificate = run.sro.quorum_signatures(k)
        seed = run.sro.reveal(RevealRequest(k, certificate))
        decided = []
        for inv, quorum, ats in by_slot.get(k, ()):
            drawn = noise(seed, inv.command_id, policy.param_us)
            cmd = TimestampedCommand(inv, quorum, ats, drawn, ats + drawn)
            decided.append(cmd)
            out.commands[inv.command_id] = cmd
            tie = tie_break_key(seed[:SLOT_TIE_SEED_BYTES], inv.command_id)
            pending.append((cmd.modified_ts, tie, inv.command_id))
            last = max(last, cmd.modified_ts // interval)
        out.slots.append(Slot(k, k * interval, end, tuple(decided), certificate))
        for _, _, command_id in sorted(key for key in pending if key[0] < end):
            out.ledger.entries.append(command_id)
            out.emission_slot[command_id] = k
        pending = [key for key in pending if key[0] >= end]
        out.ledger.stable_watermark = end
        k += 1
    return out


def order_leader_rotation(
    invocations, topology, rotation_period_us, delta_net_us, rng,
    schedule=None, phase_us=None,
) -> Ledger:
    """Rotating-leader baseline: in each period its leader proposes, in its
    own receive order, every command it has received by the period's end
    that no earlier leader proposed.

    Period p is [phase + p*period, phase + (p+1)*period) and its leader is
    ``schedule[p % n]``.  The schedule (a permutation of the n nodes) and
    then the phase are drawn from ``rng`` unless given.
    """
    if rotation_period_us <= 0:
        raise ContractError("rotation period must be positive")
    if schedule is None:
        schedule = rng.permutation(topology.n_nodes).tolist()
    if phase_us is None:
        phase_us = int(rng.integers(0, rotation_period_us))
    unproposed = {inv.command_id: _received(inv, topology, delta_net_us) for inv in invocations}
    period = min((inv.invoke_time - phase_us) // rotation_period_us for inv in invocations)
    ledger = Ledger()
    while unproposed:
        leader = schedule[period % len(schedule)]
        end = phase_us + (period + 1) * rotation_period_us
        batch = sorted(
            (times[leader], tie_break_key(LEADER_TIE_SEED, cid), cid)
            for cid, times in unproposed.items()
            if times[leader] < end
        )
        for *_, cid in batch:
            ledger.entries.append(cid)
            del unproposed[cid]
        ledger.stable_watermark = end
        period += 1
    return ledger


def all_correct_precedence(receive: dict):
    """Pairs (a, b) such that every node received a strictly before b."""
    return {
        (a, b)
        for a, times_a in receive.items()
        for b, times_b in receive.items()
        if a != b and all(ra < rb for ra, rb in zip(times_a, times_b))
    }


def order_receive_all_correct(invocations, topology, delta_net_us) -> Ledger:
    """All-correct receive-order baseline.

    A linear extension of "every node received a before b": commands in
    order of their median receive time (with n nodes, the (n//2 + 1)-th
    smallest), exact ties broken by the seeded hash.  The median order
    extends the relation, since a command that every node received first
    has every order statistic strictly smaller; that is asserted.
    """
    received = {inv.command_id: _received(inv, topology, delta_net_us) for inv in invocations}
    ordered = [cid for *_, cid in sorted(
        (sorted(times)[len(times) // 2], tie_break_key(RECEIVE_TIE_SEED, cid), cid)
        for cid, times in received.items()
    )]
    for a, b in all_correct_precedence(received):
        assert ordered.index(a) < ordered.index(b)
    return Ledger(ordered, max(max(times) for times in received.values()) + 1)


def _poly_value(coeffs, x):
    return sum(c * x**k for k, c in enumerate(coeffs))


def order_prob_integrate(ats, width, target_order) -> Fraction:
    """Pr[stamps ``ats`` (ints, ``Fraction``s or ratio strings), each plus
    independent uniform noise on [0, ``width``], are strictly increasing
    along ``target_order``], integrated exactly.

    F_0 is 1 from the least stamp on.  For the j-th command in the order,
    with noise interval [a, a + width], F_j(t) is the integral over
    (-inf, t] of F_{j-1} / width on that interval; the answer is F_n's
    total.  A function is (breakpoints, one polynomial per span between
    them, the constant past the last), 0 before the first.
    """
    stamps = [Fraction(x) for x in ats]
    width = Fraction(width)
    xs, cs, after = [min(stamps)], [], Fraction(1)
    for i in target_order:
        lo, hi = stamps[i], stamps[i] + width
        cuts = [lo, *sorted(x for x in xs if lo < x < hi), hi]
        pieces = [(Fraction(0),), *cs, (after,)]
        total, out = Fraction(0), []
        for x0, x1 in pairwise(cuts):
            piece = pieces[sum(x <= x0 for x in xs)]
            anti = [Fraction(0), *(c / (width * (k + 1)) for k, c in enumerate(piece))]
            anti[0] = total - _poly_value(anti, x0)
            out.append(anti)
            total = _poly_value(anti, x1)
        xs, cs, after = cuts, out, total
    return after

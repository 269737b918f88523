"""Adversarial timestamp assignment: optimal order-biasing strategies and
the private-relay sandwich placement.

The interval model lets the adversary pick any assigned timestamp in
[T, T + delta_net] for a command sent at T; it can never leave that window,
because a quorum median is always bracketed by correct nodes' timestamps.
``assign_worst_case_permutation`` additionally observes each noised
timestamp right after placing a command and adapts later placements, which
is exactly the strategy attaining the upper probability bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domain import ContractError
from .netmodel import observe

FAVOR_FIRST = "favor_first"
FAVOR_SECOND = "favor_second"
QUORUM_LOW = "low"
QUORUM_HIGH = "high"
# How far below and above the victim's predicted timestamp the colluders
# place the two attacker commands, µs.
RELAY_MARGIN_US = 1000


@dataclass(frozen=True)
class AdversaryPlan:
    """Per-command manipulations applied inside a simulation run.

    ats_overrides: command_id -> assigned timestamp (interval model; clamped
      into the command's legal window at application time).
    node_overrides: (command_id, node_id) -> reported timestamp (mechanism
      model: colluding nodes lie, honest nodes report normally).
    quorum_bias: command_id -> "low" | "high"; the command's client picks
      the quorum that pushes its median down or up.
    """

    ats_overrides: dict = field(default_factory=dict)
    node_overrides: dict = field(default_factory=dict)
    quorum_bias: dict = field(default_factory=dict)


def clamp_to_window(ats: int, invoke_time: int, delta_net_us: int) -> int:
    return min(max(ats, invoke_time), invoke_time + delta_net_us)


def assign_worst_case_pair(t_us: int, delta_net_us: int, favored: str):
    """Timestamps that minimize the disfavored command's chance of being first.

    The disfavored command is pushed to the end of the window, the favored
    one to the start.
    """
    if delta_net_us < 0:
        raise ContractError("delta_net must be >= 0")
    if favored == FAVOR_FIRST:
        return (t_us, t_us + delta_net_us)
    if favored == FAVOR_SECOND:
        return (t_us + delta_net_us, t_us)
    raise ContractError(f"favored must be {FAVOR_FIRST!r} or {FAVOR_SECOND!r}")


def assign_lower_bound_strategy(t_us: int, delta_net_us: int, target_order):
    """Maximally hostile non-adaptive placement against a target order.

    The order's first command is delayed to the window end, the last sits at
    the window start, and everything in between is delayed too; the target
    order then requires every noised timestamp to fall in the shrunken
    overlap, which happens with the minimum achievable probability.
    """
    n = len(target_order)
    if n < 1:
        raise ContractError("target order must be nonempty")
    if n == 1:
        return [t_us]
    return [t_us + delta_net_us] * (n - 1) + [t_us]


def assign_worst_case_permutation(
    t_us: int, delta_net_us: int, delta_noise_us: int, target_order, noises
):
    """Adaptive placement maximizing a target order's probability.

    ``noises[i]`` is the noise that will be added to the i-th command of
    ``target_order``; the adversary learns each noised timestamp as soon as
    it has fixed that command's assigned timestamp.  The first command goes
    at the window start; while the observed noised value stays inside the
    window the next command is pinned exactly at it, and once a value
    escapes, all later commands are pushed to the window end.
    """
    if delta_noise_us <= delta_net_us:
        raise ContractError("noise width must exceed the assignment window")
    if len(noises) != len(target_order):
        raise ContractError("need one observed noise per command")
    ats = []
    window_end = t_us + delta_net_us
    place_at = t_us
    chained = True
    for eta in noises:
        if not (0 <= eta < delta_noise_us):
            raise ContractError("noise outside [0, delta_noise)")
        a = place_at if chained else window_end
        ats.append(a)
        if chained:
            noised = a + eta
            if noised > window_end:
                chained = False
            else:
                place_at = noised
    return ats


def private_relay_placement(
    victim,
    attacker_cmds,
    colluders,
    topology,
    delta_net_us: int,
    f: int,
) -> AdversaryPlan:
    """Colluding nodes straddle the victim's predicted assigned timestamp.

    ``victim`` and the two entries of ``attacker_cmds`` are
    (invocation, origin_city) pairs; the first attacker command is placed
    just below the victim's timestamp and the second just above, while the
    attacker's client biases its quorums accordingly.  With no colluders
    the plan is empty and a run behaves exactly as an honest one.
    """
    colluders = tuple(colluders)
    if len(colluders) > f:
        raise ContractError(f"at most f={f} colluders, got {len(colluders)}")
    if len(set(colluders)) != len(colluders):
        raise ContractError("duplicate colluder node ids")
    if not colluders:
        return AdversaryPlan()
    victim_inv, victim_city = victim
    stamps = observe(victim_inv, victim_city, topology, delta_net_us)
    quorum = sorted(ts for _, ts in stamps)[: 2 * f + 1]
    predicted = quorum[len(quorum) // 2]
    (early_inv, _), (late_inv, _) = attacker_cmds
    node_overrides = {}
    for node_id in colluders:
        node_overrides[(early_inv.command_id, node_id)] = clamp_to_window(
            predicted - RELAY_MARGIN_US, early_inv.invoke_time, delta_net_us
        )
        node_overrides[(late_inv.command_id, node_id)] = clamp_to_window(
            predicted + RELAY_MARGIN_US, late_inv.invoke_time, delta_net_us
        )
    return AdversaryPlan(
        node_overrides=node_overrides,
        quorum_bias={
            early_inv.command_id: QUORUM_LOW,
            late_inv.command_id: QUORUM_HIGH,
        },
    )

"""Adversary plans the simulator applies, and the private-relay sandwich placement.

A plan maps a command id to its ``CommandPlan``; a command the plan leaves
out is stamped honestly.  The interval model lets the adversary pick any
assigned timestamp in [T, T + delta_net] for a command sent at T; it can
never leave that window, because a quorum median is always bracketed by
correct nodes' timestamps.  The strategies that attain the paper's
probability bounds (the hostile fixed placement and the adaptive chain)
live in ``fairorder.analysis``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import ContractError, quorum_median
from .netmodel import observe

QUORUM_LOW = "low"
QUORUM_HIGH = "high"
# How far below and above the victim's predicted timestamp the colluders
# place the two attacker commands, µs.
RELAY_MARGIN_US = 1000


@dataclass(frozen=True)
class CommandPlan:
    """What the adversary does to one command's stamp.

    reports: the colluders' (node id, reported timestamp) pairs (mechanism
      model: colluding nodes lie, honest nodes report normally).
    bias: None, "low" or "high"; the command's client picks the quorum that
      pushes its median down or up.
    ats: the assigned timestamp (interval model; clamped into the command's
      legal window at application time), or None.
    """

    reports: tuple = ()
    bias: str | None = None
    ats: int | None = None


def clamp_to_window(ats: int, invoke_time: int, delta_net_us: int) -> int:
    return min(max(ats, invoke_time), invoke_time + delta_net_us)


def private_relay_placement(
    victim,
    attacker_cmds,
    colluders,
    topology,
    delta_net_us: int,
    f: int,
) -> dict:
    """Colluding nodes straddle the victim's predicted assigned timestamp.

    ``victim`` and the two entries of ``attacker_cmds`` are invocations,
    each sent from its origin city; the first attacker command is placed
    just below the victim's timestamp and the second just above, while the
    attacker's client biases its quorums accordingly.  Returns the plan:
    the two attacker commands' ``CommandPlan``s.  Each placement is clamped
    into its command's window once and every colluder reports it.  With no
    colluders the plan is empty and a run behaves exactly as an honest one.
    """
    colluders = tuple(colluders)
    if len(colluders) > f:
        raise ContractError(f"at most f={f} colluders, got {len(colluders)}")
    if len(set(colluders)) != len(colluders):
        raise ContractError("duplicate colluder node ids")
    n = topology.n_nodes
    outside = [c for c in colluders if not 0 <= c < n]
    if outside:
        # stamping reads reports only from nodes 0..n-1, so these would lie to no one
        raise ContractError(f"colluder node ids must be in [0, {n}), got {outside}")
    if not colluders:
        return {}
    predicted = quorum_median(observe(victim, topology, delta_net_us), f)
    early_inv, late_inv = attacker_cmds
    plan = {}
    for inv, target, bias in (
        (early_inv, predicted - RELAY_MARGIN_US, QUORUM_LOW),
        (late_inv, predicted + RELAY_MARGIN_US, QUORUM_HIGH),
    ):
        report = clamp_to_window(target, inv.invoke_time, delta_net_us)
        plan[inv.command_id] = CommandPlan(tuple((node, report) for node in colluders), bias)
    return plan

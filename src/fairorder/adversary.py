"""The private-relay sandwich placement, and the adversary plan it returns.

A plan maps a command id to its ``domain.CommandPlan``; a command the plan
leaves out is stamped honestly.  The interval model lets the adversary pick
any assigned timestamp in [T, T + delta_net] for a command sent at T; it can
never leave that window, because a quorum median is always bracketed by
correct nodes' timestamps.  The placement predicts a stamp by the engine's
one rule, ``consensus.assigned_timestamps``.  The strategies that attain the
paper's probability bounds live in ``fairorder.analysis``.
"""

from __future__ import annotations

from .consensus import SimulationRun, assigned_timestamps
from .domain import QUORUM_HIGH, QUORUM_LOW, CommandPlan, ContractError, clamp_to_window

# How far below and above the victim's predicted timestamp the colluders
# place the two attacker commands, µs.
RELAY_MARGIN_US = 1000


def private_relay_placement(victim, attacker_cmds, colluders, run: SimulationRun) -> dict:
    """Colluding nodes straddle the victim's honest stamp on ``run``.

    ``victim`` and the two entries of ``attacker_cmds`` are invocations,
    each sent from its origin city.  The victim's stamp is predicted by
    ``assigned_timestamps``, whose memo entry the victim's cells reuse; the
    first attacker command is placed just below it and the second just
    above, while the attacker's client biases its quorums accordingly.
    Returns the plan: the two attacker commands' ``CommandPlan``s, each
    placement clamped into its command's window once and reported by every
    colluder.  With no colluders the plan is empty and a run is honest.
    """
    colluders = tuple(colluders)
    n, f, delta_net_us = run.topology.n_nodes, run.sro.config.f, run.delta_net_us
    if len(colluders) > f:
        raise ContractError(f"at most f={f} colluders, got {len(colluders)}")
    if len(set(colluders)) != len(colluders):
        raise ContractError("duplicate colluder node ids")
    outside = [c for c in colluders if not 0 <= c < n]
    if outside:
        # stamping reads reports only from nodes 0..n-1, so these would lie to no one
        raise ContractError(f"colluder node ids must be in [0, {n}), got {outside}")
    if not colluders:
        return {}
    (predicted,) = assigned_timestamps(run, [victim], {})
    early_inv, late_inv = attacker_cmds
    plan = {}
    for inv, target, bias in (
        (early_inv, predicted - RELAY_MARGIN_US, QUORUM_LOW),
        (late_inv, predicted + RELAY_MARGIN_US, QUORUM_HIGH),
    ):
        report = clamp_to_window(target, inv.invoke_time, delta_net_us)
        plan[inv.command_id] = CommandPlan(tuple((node, report) for node in colluders), bias)
    return plan

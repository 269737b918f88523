"""Ordered consensus with equal opportunity: simulator, oracle, analysis."""

from .analysis import (
    delta_linearizability,
    epsilon_general,
    epsilon_pair,
    order_prob_bounds,
    order_prob_integrate,
    order_prob_monte_carlo,
)
from .consensus import (
    OrderingPolicy,
    PlacedInvocation,
    PolicyKind,
    SimulationRun,
    order_leader_rotation,
    order_receive_all_correct,
    run_slotted,
)
from .domain import Invocation, Ledger, Slot, TimestampedCommand, median_timestamp
from .netmodel import CityTopology, bundled_topology, load_topology, observe
from .sro import Backend, RevealRequest, SroConfig, sro_init, verify

__all__ = [
    "Backend",
    "CityTopology",
    "Invocation",
    "Ledger",
    "OrderingPolicy",
    "PlacedInvocation",
    "PolicyKind",
    "RevealRequest",
    "SimulationRun",
    "Slot",
    "SroConfig",
    "TimestampedCommand",
    "bundled_topology",
    "delta_linearizability",
    "epsilon_general",
    "epsilon_pair",
    "load_topology",
    "median_timestamp",
    "observe",
    "order_leader_rotation",
    "order_prob_bounds",
    "order_prob_integrate",
    "order_prob_monte_carlo",
    "order_receive_all_correct",
    "run_slotted",
    "sro_init",
    "verify",
]

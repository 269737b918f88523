"""Ordered consensus with equal opportunity: simulator, oracle, analysis."""

from .analysis import (
    delta_linearizability,
    epsilon_general,
    order_prob_bounds,
    order_prob_integrate,
    order_prob_monte_carlo,
)
from .consensus import OrderingPolicy, PolicyKind, SimulationRun
from .domain import Invocation, quorum_median
from .netmodel import CityTopology, bundled_topology, load_topology, observe
from .sro import Backend, RevealRequest, SroConfig, sro_init, verify

__all__ = [
    "Backend",
    "CityTopology",
    "Invocation",
    "OrderingPolicy",
    "PolicyKind",
    "RevealRequest",
    "SimulationRun",
    "SroConfig",
    "bundled_topology",
    "delta_linearizability",
    "epsilon_general",
    "load_topology",
    "observe",
    "order_prob_bounds",
    "order_prob_integrate",
    "order_prob_monte_carlo",
    "quorum_median",
    "sro_init",
    "verify",
]

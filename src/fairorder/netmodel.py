"""Geo-distributed latency model: city topology, per-node receive timestamps.

A topology file is line-oriented plain text::

    city <name> <node_count>
    delay <cityA> <cityB> <one_way_ms>

Delays are one-way; a missing (A, B) entry falls back to (B, A).  Each
ordered pair may appear once, and never as (A, A): nodes within one city
are ``INTRA_CITY_US`` apart.  The bundled ``ethereum80.topo`` replicates
the public distribution of Ethereum nodes over 80 simulated nodes with
representative inter-city delays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import chain, repeat
from types import MappingProxyType

from .domain import MAX_NODES, US_PER_MS

INTRA_CITY_US = US_PER_MS  # one-way delay between two nodes of one city


class TopologyError(ValueError):
    """Malformed or inconsistent topology input."""


@dataclass(frozen=True)
class CityTopology:
    """Cities, their node counts and the one-way delays between them.

    Every pair of cities must resolve to a delay, directly or by the
    symmetric fallback: the per-origin delay table is built at construction,
    which rejects a missing pair.  Immutable: ``latency_us`` is a read-only
    copy of the mapping passed in, and nothing changes after construction,
    so one instance can be shared by every run in a process
    (``bundled_topology`` does).
    """

    cities: tuple  # ((name, node_count), ...)
    latency_us: dict  # (cityA, cityB) -> one-way delay, µs; read-only after init

    def __post_init__(self):
        object.__setattr__(self, "latency_us", MappingProxyType(dict(self.latency_us)))
        if not self.cities:
            raise TopologyError("topology needs at least one city")
        names = [name for name, _ in self.cities]
        if len(names) != len(set(names)):
            raise TopologyError("duplicate city names")
        for (name, count) in self.cities:
            if count <= 0:
                raise TopologyError(f"city {name} has nonpositive node count")
        known = {name for name, _ in self.cities}
        for pair, d in self.latency_us.items():
            if d < 0:
                raise TopologyError(f"negative latency for {pair}")
            for city in pair:
                if city not in known:
                    raise TopologyError(f"delay entry references unknown city {city!r}")
        object.__setattr__(self, "_n_nodes", sum(count for _, count in self.cities))
        if self._n_nodes > MAX_NODES:
            raise TopologyError(f"{self._n_nodes} nodes, more than MAX_NODES = {MAX_NODES}")
        object.__setattr__(self, "_city_names", tuple(names))
        # one lookup per (origin, city) pair, repeated for the city's nodes
        object.__setattr__(self, "_delays", {
            origin: tuple(chain.from_iterable(
                repeat(self.delay_us(origin, city), count) for city, count in self.cities
            ))
            for origin in names
        })

    @property
    def n_nodes(self) -> int:
        return self._n_nodes

    @property
    def city_names(self) -> tuple:
        return self._city_names

    def delay_us(self, a: str, b: str) -> int:
        if a not in self.city_names or b not in self.city_names:
            raise TopologyError(f"unknown city in pair ({a}, {b})")
        if a == b:
            return INTRA_CITY_US
        d = self.latency_us.get((a, b))
        if d is None:
            d = self.latency_us.get((b, a))
        if d is None:
            raise TopologyError(f"no delay entry for ({a}, {b})")
        return d

    def delays_from(self, origin: str) -> tuple:
        """Per-node one-way delay from an origin city, µs."""
        delays = self._delays.get(origin)
        if delays is None:
            raise TopologyError(f"unknown origin city {origin!r}")
        return delays


def observe(invocation, topology: CityTopology, delta_net_us: int) -> list:
    """Per-node receive timestamps for one invocation: a fresh list whose
    i-th entry is node i's.

    Each node sees T + delay(origin, node), where T is the invocation's
    invoke time and origin its origin city, clamped into [T, T + delta_net]:
    after stabilization every correct node's timestamp lies in that window,
    and the clamp enforces it.  Every delay is >= 0, so the lower bound
    never binds, and the clamped nodes are exactly those whose
    ``delays_from(origin)`` delay exceeds delta_net.
    """
    t = invocation.invoke_time
    delays = topology.delays_from(invocation.origin_city)
    return [t + (d if d < delta_net_us else delta_net_us) for d in delays]


def parse_topology(text: str, source: str = "<string>") -> CityTopology:
    cities = []
    latency = {}
    defined = {}  # (cityA, cityB) -> line number of its delay entry
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "city" and len(parts) == 3:
                cities.append((parts[1], int(parts[2])))
            elif parts[0] == "delay" and len(parts) == 4:
                pair = (parts[1], parts[2])
                ms = float(parts[3])
                if not math.isfinite(ms):
                    raise TopologyError(f"non-finite latency {parts[3]!r}")
                if ms < 0:
                    raise TopologyError("negative latency")
                if pair[0] == pair[1]:
                    raise TopologyError(f"self-delay for {pair[0]!r}; a city uses INTRA_CITY_US")
                first = defined.setdefault(pair, lineno)
                if first != lineno:
                    raise TopologyError(f"delay {pair} repeats its definition on line {first}")
                latency[pair] = int(round(ms * US_PER_MS))
            else:
                raise TopologyError(f"unrecognized line {line!r}")
        except (ValueError, IndexError) as exc:
            raise TopologyError(f"{source}:{lineno}: {exc}") from exc
    for (a, b), d in latency.items():
        back = latency.get((b, a))
        if back is not None and back != d:
            # imported only here: it costs a process about 0.5 MB, and the
            # bundled topology and most others are symmetric
            import logging

            logging.getLogger(__name__).warning(
                "asymmetric delay %s<->%s: %d vs %d µs", a, b, d, back
            )
    return CityTopology(cities=tuple(cities), latency_us=latency)


def load_topology(path) -> CityTopology:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise TopologyError(f"{path}: not UTF-8 text ({exc})") from exc
    return parse_topology(text, source=str(path))


@lru_cache(maxsize=None)
def bundled_topology() -> CityTopology:
    """The 80-node topology shipped in ``fairorder.data``, parsed once per process."""
    name = "ethereum80.topo"
    text = resources.files("fairorder.data").joinpath(name).read_text(encoding="utf-8")
    return parse_topology(text, source=name)

import copy
import logging
import re
from types import MappingProxyType

import pytest

from fairorder.cli import main
from fairorder.domain import MAX_NODES, Invocation
from fairorder.netmodel import (
    INTRA_CITY_US,
    CityTopology,
    TopologyError,
    bundled_topology,
    observe,
    parse_topology,
)
from reference import make_command_id

DNET = 300_000


def inv(city, t=1_000_000):
    return Invocation(make_command_id("inv", t), t, city)


def two_city(delay_ms=50):
    return CityTopology(
        cities=(("alpha", 2), ("beta", 1)),
        latency_us={("alpha", "beta"): delay_ms * 1000},
    )


def clamped(t, delays, dnet):
    """Node i's receive time written from the model: T + delay, clamped
    into [T, T + delta_net]."""
    return [min(max(t + d, t), t + dnet) for d in delays]


def attributes(topology):
    """A deep copy of every attribute of ``topology``."""
    return {
        name: copy.deepcopy(dict(value) if isinstance(value, MappingProxyType) else value)
        for name, value in vars(topology).items()
    }


class TestBundled:
    def test_eighty_nodes(self):
        assert bundled_topology().n_nodes == 80

    def test_max_delay_is_canberra_oulu(self):
        topo = bundled_topology()
        cities = topo.city_names
        assert max(topo.delay_us(a, b) for a in cities for b in cities) == 296_000
        assert topo.delay_us("canberra", "oulu") == 296_000
        assert topo.delay_us("oulu", "canberra") == 296_000

    def test_all_observations_within_delta_net(self):
        topo = bundled_topology()
        for city in topo.city_names:
            stamps = observe(inv(city), topo, DNET)
            assert len(stamps) == 80
            for ts in stamps:
                assert 1_000_000 <= ts <= 1_000_000 + DNET


class TestObserve:
    def test_zero_latency_all_equal_invoke_time(self):
        # a zero delay, or a zero window, puts a node at the invoke time
        topo = CityTopology(cities=(("only", 1), ("twin", 3)), latency_us={("only", "twin"): 0})
        assert observe(inv("only", 77), topo, DNET) == [77 + INTRA_CITY_US, 77, 77, 77]
        assert observe(inv("only", 77), topo, 0) == [77, 77, 77, 77]

    def test_unknown_city(self):
        with pytest.raises(TopologyError):
            observe(inv("atlantis"), two_city(), DNET)

    def test_is_clamped_base_delay(self):
        topo = bundled_topology()
        t = 1_000_000
        for dnet in (50_000, 300_000):
            for city in topo.city_names:
                got = observe(inv(city, t), topo, dnet)
                assert got == clamped(t, topo.delays_from(city), dnet)
                assert all(type(ts) is int for ts in got)


class TestReceiveMemo:
    """``observe`` keeps no memo: it computes each call's receive times from
    the topology's fixed delay table and leaves the topology as it was."""

    def test_repeat_is_an_equal_fresh_list(self):
        topo = two_city()
        first = observe(inv("beta", 0), topo, DNET)
        second = observe(inv("beta", 0), topo, DNET)
        assert first == second and first is not second
        second[0] = -1
        second.append(9)
        assert observe(inv("beta", 0), topo, DNET) == first

    def test_invoke_times_and_windows_do_not_collide(self):
        topo = two_city(delay_ms=500)
        cases = [(t, dnet) for t in (0, 7) for dnet in (DNET, 600_000)] * 2  # each case twice
        for t, dnet in cases:
            want = clamped(t, topo.delays_from("beta"), dnet)
            assert observe(inv("beta", t), topo, dnet) == want

    def test_observe_leaves_the_topology_unchanged(self):
        topo = bundled_topology()
        before = attributes(topo)
        for t in range(1_000):
            observe(Invocation(b"x", 1_000_000 + t, "tokyo"), topo, DNET)
        assert attributes(topo) == before


class TestShared:
    def test_topology_is_read_only(self):
        latency = {("alpha", "beta"): 50_000}
        topo = CityTopology(cities=(("alpha", 2), ("beta", 1)), latency_us=latency)
        latency[("alpha", "beta")] = 1  # the topology holds its own copy
        assert topo.delay_us("alpha", "beta") == 50_000
        with pytest.raises(TypeError):
            topo.latency_us[("alpha", "beta")] = 1
        with pytest.raises(TypeError):
            bundled_topology().latency_us[("canberra", "oulu")] = 0

    def test_bundled_is_parsed_once(self):
        assert bundled_topology() is bundled_topology()


ASYMMETRIC = CityTopology(
    cities=(("a", 2), ("b", 1), ("c", 3)),
    # b -> a differs from a -> b; c -> a and b -> c take the fallback
    latency_us={("a", "b"): 5_000, ("b", "a"): 9_000, ("a", "c"): 7_000, ("c", "b"): 2_000},
)


class TestDelayTable:
    @pytest.mark.parametrize("topology", [bundled_topology(), ASYMMETRIC],
                             ids=["bundled", "asymmetric"])
    def test_node_i_gets_its_citys_delay(self, topology):
        city_of_node = [name for name, count in topology.cities for _ in range(count)]
        assert len(city_of_node) == topology.n_nodes
        for origin in topology.city_names:
            delays = topology.delays_from(origin)
            assert len(delays) == topology.n_nodes
            for i, city in enumerate(city_of_node):
                assert delays[i] == topology.delay_us(origin, city), (origin, i)

    def test_asymmetric_rows(self):
        assert ASYMMETRIC.delays_from("a") == (1_000, 1_000, 5_000, 7_000, 7_000, 7_000)
        assert ASYMMETRIC.delays_from("b") == (9_000, 9_000, 1_000, 2_000, 2_000, 2_000)
        assert ASYMMETRIC.delays_from("c") == (7_000, 7_000, 2_000, 1_000, 1_000, 1_000)


class TestParsing:
    def test_minimal_roundtrip(self):
        topo = parse_topology("city a 2\ncity b 1\ndelay a b 10\n")
        assert topo.n_nodes == 3
        assert topo.delay_us("b", "a") == 10_000  # symmetric fallback

    def test_empty_city_list(self):
        with pytest.raises(TopologyError):
            parse_topology("delay a b 10\n")

    def test_single_city_all_intra(self):
        topo = parse_topology("city solo 5\n")
        assert all(d == INTRA_CITY_US for d in topo.delays_from("solo"))

    def test_negative_latency(self):
        with pytest.raises(TopologyError):
            parse_topology("city a 1\ncity b 1\ndelay a b -4\n")

    def test_malformed_line(self):
        with pytest.raises(TopologyError):
            parse_topology("city a 1\nwat is this\n")

    def test_missing_pair(self):
        with pytest.raises(TopologyError):
            parse_topology("city a 1\ncity b 1\n")

    @pytest.mark.parametrize("count", [MAX_NODES + 1, 2**40])
    def test_node_count_past_the_bound_rejected(self, count):
        # rejected before the per-node delay tables are built
        with pytest.raises(TopologyError, match=f"{count} nodes, more than MAX_NODES"):
            CityTopology(cities=(("a", count),), latency_us={})
        assert CityTopology(cities=(("a", MAX_NODES),), latency_us={}).n_nodes == MAX_NODES

    def test_node_count_past_the_bound_exits_3(self, tmp_path, capsys):
        text = "city a 1000000000\ncity b 1\ndelay a b 10\n"
        assert_rejected(text, "1000000001 nodes, more than MAX_NODES = 65536", tmp_path, capsys)

    def test_city_of_zero_nodes_rejected(self, tmp_path, capsys):
        text = "city a 0\ncity b 1\ndelay a b 10\n"
        assert_rejected(text, "city a has nonpositive node count", tmp_path, capsys)

    def test_missing_pair_rejected_at_construction(self):
        with pytest.raises(TopologyError, match=re.escape("no delay entry for (a, c)")):
            CityTopology(cities=(("a", 1), ("b", 1), ("c", 1)), latency_us={("a", "b"): 5_000})

    def test_unknown_city_in_delay(self):
        with pytest.raises(TopologyError):
            parse_topology("city a 1\ndelay a ghost 5\n")

    def test_duplicate_city(self):
        with pytest.raises(TopologyError):
            parse_topology("city a 1\ncity a 2\n")

    def test_asymmetry_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="fairorder.netmodel"):
            parse_topology("city a 1\ncity b 1\ndelay a b 5\ndelay b a 9\n")
        assert any("asymmetric" in rec.message for rec in caplog.records)

    def test_comments_and_blanks(self):
        topo = parse_topology("# hi\n\ncity a 1  # trailing\ncity b 1\ndelay a b 3\n")
        assert topo.n_nodes == 2

    @pytest.mark.parametrize(
        "delay_line, message",
        [
            ("delay a a 500", "x.topo:4: self-delay"),
            ("delay a b 7", "x.topo:4: delay ('a', 'b') repeats its definition on line 3"),
        ],
        ids=["self-delay", "repeated-pair"],
    )
    def test_ignored_delay_line_rejected(self, tmp_path, capsys, delay_line, message):
        text = f"city a 1\ncity b 1\ndelay a b 5\n{delay_line}\n"
        assert_rejected(text, message, tmp_path, capsys)

    @pytest.mark.parametrize("ms", ["inf", "1e400"])
    def test_non_finite_delay_rejected(self, tmp_path, capsys, ms):
        text = f"city a 1\ncity b 1\ndelay a b {ms}\n"
        assert_rejected(text, f"x.topo:3: non-finite latency '{ms}'", tmp_path, capsys)


def assert_rejected(text, message, tmp_path, capsys):
    """The parser raises ``message`` and ``fairorder simulate`` exits 3."""
    with pytest.raises(TopologyError, match=re.escape(message)):
        parse_topology(text, source="x.topo")
    topo = tmp_path / "x.topo"
    topo.write_text(text)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scenario = geo_bias\ntopology = {topo}\ntrials = 2\norigins = a,b\n")
    assert main(["simulate", str(cfg)]) == 3
    assert "error category=config" in capsys.readouterr().err

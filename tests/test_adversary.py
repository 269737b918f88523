import pytest

from fairorder.adversary import QUORUM_HIGH, QUORUM_LOW, CommandPlan, private_relay_placement
from fairorder.consensus import SimulationRun
from fairorder.domain import ContractError, Invocation
from fairorder.netmodel import bundled_topology
from fairorder.sro import Backend, SroConfig, SroHandle
from reference import make_command_id

DNET = 300_000


def inv(label, city, t=0):
    return Invocation(make_command_id(label), t, city)


class TestPrivateRelay:
    def setup_method(self):
        topology = bundled_topology()
        self.f = (topology.n_nodes - 1) // 3
        sro = SroHandle(SroConfig(topology.n_nodes, self.f, Backend.SEEDED_HASH), bytes(32))
        self.run = SimulationRun(topology, DNET, 1_500_000, sro)
        self.victim = inv("victim", "munich")
        self.legs = (inv("buy", "london"), inv("sell", "london"))

    def test_zero_colluders_is_honest(self):
        plan = private_relay_placement(self.victim, self.legs, (), self.run)
        assert plan == {}

    def test_too_many_colluders(self):
        with pytest.raises(ContractError):
            private_relay_placement(self.victim, self.legs, range(self.f + 1), self.run)

    def test_duplicate_colluders(self):
        with pytest.raises(ContractError):
            private_relay_placement(self.victim, self.legs, (1, 1), self.run)

    @pytest.mark.parametrize("colluders", [(1000, 1001, -5), (0, 80), (-1,)])
    def test_colluders_outside_the_nodes(self, colluders):
        # stamping reads reports only from nodes 0..n-1 (n = 80 here), so an
        # out-of-range colluder would be dropped without a word
        with pytest.raises(ContractError, match=r"\[0, 80\)"):
            private_relay_placement(self.victim, self.legs, colluders, self.run)

    def test_straddles_victim_quorum_median(self):
        colluders = tuple(range(80 - self.f, 80))
        plan = private_relay_placement(self.victim, self.legs, colluders, self.run)
        predicted = 95_000  # munich quorum median on the bundled matrix
        buy_id, sell_id = self.legs[0].command_id, self.legs[1].command_id
        assert plan == {
            buy_id: CommandPlan(tuple((node, predicted - 1000) for node in colluders), QUORUM_LOW),
            sell_id: CommandPlan(tuple((node, predicted + 1000) for node in colluders), QUORUM_HIGH),
        }

    def test_overrides_respect_window(self):
        colluders = (0, 1, 2)
        plan = private_relay_placement(self.victim, self.legs, colluders, self.run)
        for cmd_id, entry in plan.items():
            invocation = next(i for i in self.legs if i.command_id == cmd_id)
            for _, ts in entry.reports:
                assert invocation.invoke_time <= ts <= invocation.invoke_time + DNET

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairorder.adversary import (
    FAVOR_FIRST,
    FAVOR_SECOND,
    QUORUM_HIGH,
    QUORUM_LOW,
    AdversaryPlan,
    assign_lower_bound_strategy,
    assign_worst_case_pair,
    assign_worst_case_permutation,
    private_relay_placement,
)
from fairorder.analysis import order_prob_bounds
from fairorder.domain import ContractError, Invocation, make_command_id
from fairorder.netmodel import bundled_topology

DNET = 300_000
DNOISE = 1_500_000


def inv(label, t=0):
    return Invocation(make_command_id(label), b"", t)


class TestWorstCasePair:
    def test_favor_second(self):
        assert assign_worst_case_pair(0, DNET, FAVOR_SECOND) == (DNET, 0)

    def test_favor_first(self):
        assert assign_worst_case_pair(10, DNET, FAVOR_FIRST) == (10, 10 + DNET)

    def test_no_room(self):
        assert assign_worst_case_pair(7, 0, FAVOR_SECOND) == (7, 7)

    def test_unknown_target(self):
        with pytest.raises(ContractError):
            assign_worst_case_pair(0, DNET, "favor_nobody")

    def test_monte_carlo_matches_closed_form(self):
        # Pr[c1 before c2] under the hostile pair assignment is (1-a)^2 / 2.
        rng = np.random.default_rng(5)
        for alpha, want in ((1.0, 0.0), (0.5, 0.125)):
            dnoise = int(DNET / alpha)
            ats = assign_worst_case_pair(0, DNET, FAVOR_SECOND)
            noise = rng.integers(0, dnoise, size=(300_000, 2))
            wins = np.count_nonzero(ats[0] + noise[:, 0] < ats[1] + noise[:, 1])
            est = wins / 300_000
            assert abs(est - want) < 0.003


class TestLowerBound:
    def test_base_case(self):
        assert assign_lower_bound_strategy(5, DNET, ["only"]) == [5]

    def test_three_commands(self):
        assert assign_lower_bound_strategy(0, DNET, list("abc")) == [DNET, DNET, 0]

    def test_zero_window_uniform(self):
        # With no assignment room every order is equally likely.
        rng = np.random.default_rng(6)
        ats = assign_lower_bound_strategy(0, 0, list("abc"))
        noise = rng.random((120_000, 3))
        modified = np.asarray(ats) + noise
        hits = np.all(np.diff(modified, axis=1) > 0, axis=1)
        assert abs(hits.mean() - 1 / 6) < 0.005


class TestAdaptivePermutation:
    def test_requires_noise_margin(self):
        with pytest.raises(ContractError):
            assign_worst_case_permutation(0, DNET, DNET, ["a"], [0])

    def test_single_command(self):
        assert assign_worst_case_permutation(0, DNET, DNOISE, ["a"], [7]) == [0]

    def test_chain_follows_observed_values(self):
        # Small noise keeps the chain inside the window: each command sits
        # exactly on the previous noised timestamp.
        ats = assign_worst_case_permutation(0, DNET, DNOISE, list("abc"), [100, 50, 9])
        assert ats == [0, 100, 150]

    def test_escape_pins_to_window_end(self):
        ats = assign_worst_case_permutation(0, DNET, DNOISE, list("abc"), [DNET + 1, 5, 5])
        assert ats == [0, DNET, DNET]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, DNOISE - 1), min_size=1, max_size=5))
    def test_assignments_stay_in_window(self, noises):
        ats = assign_worst_case_permutation(0, DNET, DNOISE, list(range(len(noises))), noises)
        assert all(0 <= a <= DNET for a in ats)

    def test_probability_matches_upper_bound(self):
        rng = np.random.default_rng(7)
        trials = 300_000
        n = 3
        noises = rng.integers(0, DNOISE, size=(trials, n))
        wins = 0
        for row in noises:
            ats = assign_worst_case_permutation(0, DNET, DNOISE, range(n), list(row))
            modified = [a + e for a, e in zip(ats, row)]
            wins += modified[0] < modified[1] < modified[2]
        upper = float(order_prob_bounds(n, Fraction(DNET, DNOISE))[1])
        se = (upper * (1 - upper) / trials) ** 0.5
        assert abs(wins / trials - upper) < 4 * se


class TestPrivateRelay:
    def setup_method(self):
        self.topology = bundled_topology()
        self.f = (self.topology.n_nodes - 1) // 3
        self.victim = (inv("victim"), "munich")
        self.legs = ((inv("buy"), "london"), (inv("sell"), "london"))

    def test_zero_colluders_is_honest(self):
        plan = private_relay_placement(
            self.victim, self.legs, (), self.topology, DNET, self.f
        )
        assert plan == AdversaryPlan()

    def test_too_many_colluders(self):
        with pytest.raises(ContractError):
            private_relay_placement(
                self.victim, self.legs, range(self.f + 1), self.topology, DNET, self.f
            )

    def test_duplicate_colluders(self):
        with pytest.raises(ContractError):
            private_relay_placement(
                self.victim, self.legs, (1, 1), self.topology, DNET, self.f
            )

    def test_straddles_victim_quorum_median(self):
        colluders = tuple(range(80 - self.f, 80))
        plan = private_relay_placement(
            self.victim, self.legs, colluders, self.topology, DNET, self.f
        )
        predicted = 95_000  # munich quorum median on the bundled matrix
        buy_id, sell_id = self.legs[0][0].command_id, self.legs[1][0].command_id
        for node in colluders:
            assert plan.node_overrides[(buy_id, node)] == predicted - 1000
            assert plan.node_overrides[(sell_id, node)] == predicted + 1000
        assert plan.quorum_bias == {buy_id: QUORUM_LOW, sell_id: QUORUM_HIGH}

    def test_overrides_respect_window(self):
        colluders = (0, 1, 2)
        plan = private_relay_placement(
            self.victim, self.legs, colluders, self.topology, DNET, self.f
        )
        for (cmd_id, _), ts in plan.node_overrides.items():
            invocation = next(
                i for i, _ in (self.legs[0], self.legs[1]) if i.command_id == cmd_id
            )
            assert invocation.invoke_time <= ts <= invocation.invoke_time + DNET

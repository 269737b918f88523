import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairorder.attacks import (
    PERMUTATIONS,
    AmmPool,
    SandwichScenario,
    default_scenario,
    expected_attacker_profit,
    payoff_table,
    sandwich_profits,
    swap_buy_a,
    swap_sell_a,
)
from fairorder.domain import ContractError

amounts = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(30))

FIG_PAYOFFS = {
    ("i2", "i1", "i3"): (-500, 800),
    ("i3", "i1", "i2"): (700, -400),
}


class TestPool:
    def test_worked_example_first_leg(self):
        pool, cost = swap_buy_a(AmmPool(75, 24), 15)
        assert (pool.reserve_a, pool.reserve_b) == (60, 30)
        assert cost == 6

    def test_worked_example_second_leg(self):
        pool, cost = swap_buy_a(AmmPool(60, 30), 15)
        assert (pool.reserve_a, pool.reserve_b) == (45, 40)
        assert cost == 10

    def test_zero_swap(self):
        pool, cost = swap_buy_a(AmmPool(75, 24), 0)
        assert pool == AmmPool(75, 24)
        assert cost == 0

    def test_drain_rejected(self):
        with pytest.raises(ContractError):
            swap_buy_a(AmmPool(75, 24), 75)

    def test_floats_rejected(self):
        with pytest.raises(ContractError):
            AmmPool(75.0, 24)
        with pytest.raises(ContractError):
            swap_buy_a(AmmPool(75, 24), 1.5)

    @settings(max_examples=200)
    @given(amounts, amounts)
    def test_constant_product_exact(self, x, y):
        pool = AmmPool(Fraction(75), Fraction(24))
        k = pool.k_const
        pool, _ = swap_buy_a(pool, min(x, pool.reserve_a - Fraction(1, 100)))
        assert pool.k_const == k
        pool, _ = swap_sell_a(pool, y)
        assert pool.k_const == k

    @settings(max_examples=200)
    @given(amounts)
    def test_round_trip_restores_pool(self, x):
        pool = AmmPool(Fraction(75), Fraction(24))
        x = min(x, pool.reserve_a - Fraction(1, 100))
        mid, cost = swap_buy_a(pool, x)
        back, payout = swap_sell_a(mid, x)
        assert back == pool
        assert payout == cost


class TestSandwich:
    def test_payoff_table_exact(self):
        table = payoff_table(default_scenario())
        for order in PERMUTATIONS:
            want = FIG_PAYOFFS.get(order, (300, 0))
            assert table[order] == want

    def test_bad_permutation(self):
        with pytest.raises(ContractError):
            sandwich_profits(default_scenario(), ("i1", "i1", "i3"))

    def test_point_mass_expected_profit(self):
        probs = {o: (1 if o == ("i2", "i1", "i3") else 0) for o in PERMUTATIONS}
        assert expected_attacker_profit(payoff_table(default_scenario()), probs) == 800

    def test_uniform_expected_profit(self):
        probs = {o: Fraction(1, 6) for o in PERMUTATIONS}
        assert expected_attacker_profit(payoff_table(default_scenario()), probs) == Fraction(400, 6)

    def test_bound_extremes_cap_profit(self):
        # Worst case allowed by the n=3 bounds at alpha = 1/5: winning order
        # at the upper bound, losing order at the lower bound.
        from fairorder.analysis import order_prob_bounds

        lower, upper = order_prob_bounds(3, Fraction(1, 5))
        rest = (1 - upper - lower) / 4
        probs = {o: rest for o in PERMUTATIONS}
        probs[("i2", "i1", "i3")] = upper
        probs[("i3", "i1", "i2")] = lower
        value = expected_attacker_profit(payoff_table(default_scenario()), probs)
        assert value == upper * 800 - lower * 400
        assert value < Fraction(200)

    def test_expected_profit_equals_the_fraction_sum(self):
        # the int-ratio sum gives the exact Fraction of the per-order
        # Fraction sum, for count vectors as the sandwich runner passes them
        # (zeros included) and for tables with fractional payoffs
        def fraction_sum(table, probs):
            acc = Fraction(0)
            for order, prob in probs.items():
                acc += Fraction(prob) * table[tuple(order)][1]
            return acc

        odd = SandwichScenario(
            pool=AmmPool(Fraction(75), Fraction(24)), victim_buy_a=Fraction(7),
            price_a=Fraction(101, 3), price_b=Fraction(200), attacker_buy_a=Fraction(11, 2),
        )
        tables = (payoff_table(default_scenario()), payoff_table(odd))
        assert any(v.denominator > 1 for _, v in tables[1].values())
        rnd = random.Random(22)
        for case in range(400):
            counts = [rnd.choice((0, 0, 1, rnd.randrange(10**6))) for _ in PERMUTATIONS]
            counts[rnd.randrange(6)] += 1  # at least one trial
            probs = {o: Fraction(c, sum(counts)) for o, c in zip(PERMUTATIONS, counts)}
            table = tables[case % 2]
            got = expected_attacker_profit(table, probs)
            assert type(got) is Fraction and got == fraction_sum(table, probs), counts

    def test_malformed_distribution(self):
        probs = {o: Fraction(1, 2) for o in PERMUTATIONS}
        with pytest.raises(ContractError):
            expected_attacker_profit(payoff_table(default_scenario()), probs)

    def test_scenario_validates_amounts(self):
        with pytest.raises(ContractError):
            SandwichScenario(
                pool=AmmPool(75, 24), victim_buy_a=Fraction(80),
                price_a=Fraction(100), price_b=Fraction(200),
                attacker_buy_a=Fraction(15),
            )

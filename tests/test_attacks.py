import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairorder.attacks import (
    PERMUTATIONS,
    AmmPool,
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

    def test_unreadable_amounts_are_contract_errors(self):
        # not a bare ValueError from Fraction: the one exact-ratio rule
        with pytest.raises(ContractError, match="expected reserve_a as an exact ratio"):
            AmmPool("x", 1)
        with pytest.raises(ContractError, match="expected amount_a as"):
            swap_sell_a(AmmPool(75, 24), None)
        assert AmmPool("75", "24/1") == AmmPool(75, 24)

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
        table = payoff_table()
        for order in PERMUTATIONS:
            want = FIG_PAYOFFS.get(order, (300, 0))
            assert table[order] == want

    def test_bad_permutation(self):
        with pytest.raises(ContractError):
            sandwich_profits(("i1", "i1", "i3"))

    def test_point_mass_expected_profit(self):
        counts = {o: (1 if o == ("i2", "i1", "i3") else 0) for o in PERMUTATIONS}
        assert expected_attacker_profit(payoff_table(), counts, 1) == 800

    def test_uniform_expected_profit(self):
        counts = dict.fromkeys(PERMUTATIONS, 1)
        assert expected_attacker_profit(payoff_table(), counts, 6) == Fraction(400, 6)

    def test_bound_extremes_cap_profit(self):
        # Worst case allowed by the n=3 bounds at alpha = 1/5: winning order
        # at the upper bound, losing order at the lower bound.
        from fairorder.analysis import order_prob_bounds

        lower, upper = order_prob_bounds(3, Fraction(1, 5))
        rest = (1 - upper - lower) / 4
        probs = {o: rest for o in PERMUTATIONS}
        probs[("i2", "i1", "i3")] = upper
        probs[("i3", "i1", "i2")] = lower
        # the same distribution as counts over the least common denominator
        trials = math.lcm(*(p.denominator for p in probs.values()))
        counts = {o: int(p * trials) for o, p in probs.items()}
        value = expected_attacker_profit(payoff_table(), counts, trials)
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

        # the worked pool with a 7 A victim buy, 11/2 A attacker legs and A
        # marked at $101/3
        flat = (Fraction(-13181, 51), 0)
        odd = dict.fromkeys(PERMUTATIONS, flat)
        odd["i2", "i1", "i3"] = (Fraction(-143647, 417), Fraction(203280, 2363))
        odd["i3", "i1", "i2"] = (Fraction(-643211, 3381), Fraction(-1306800, 19159))
        tables = (payoff_table(), odd)
        assert any(v.denominator > 1 for _, v in tables[1].values())
        rnd = random.Random(22)
        for case in range(400):
            counts = [rnd.choice((0, 0, 1, rnd.randrange(10**6))) for _ in PERMUTATIONS]
            counts[rnd.randrange(6)] += 1  # at least one trial
            probs = {o: Fraction(c, sum(counts)) for o, c in zip(PERMUTATIONS, counts)}
            table = tables[case % 2]
            got = expected_attacker_profit(table, dict(zip(PERMUTATIONS, counts)), sum(counts))
            assert type(got) is Fraction and got == fraction_sum(table, probs), counts

    def test_malformed_distribution(self):
        counts = dict.fromkeys(PERMUTATIONS, 1)
        with pytest.raises(ContractError, match="sum to 6, not 3"):
            expected_attacker_profit(payoff_table(), counts, 3)
        counts["i1", "i1", "i3"] = 1
        with pytest.raises(ContractError, match="unknown permutation"):
            expected_attacker_profit(payoff_table(), counts, 7)

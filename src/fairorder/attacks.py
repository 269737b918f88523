"""Economic attack scenarios over a constant-product pool.

All token amounts are exact rationals, so the product invariant holds to
equality after any swap sequence; dollar P&L is exact too and only rounded
to cents for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from types import MappingProxyType

from .domain import ContractError

VICTIM = "i1"
ATTACKER_BUY = "i2"
ATTACKER_SELL = "i3"
PERMUTATIONS = tuple(permutations((VICTIM, ATTACKER_BUY, ATTACKER_SELL)))


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise ContractError("token amounts must be exact rationals, not floats")
    return Fraction(x)


@dataclass(frozen=True)
class AmmPool:
    reserve_a: Fraction
    reserve_b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "reserve_a", _frac(self.reserve_a))
        object.__setattr__(self, "reserve_b", _frac(self.reserve_b))
        if self.reserve_a <= 0 or self.reserve_b <= 0:
            raise ContractError("pool reserves must be positive")

    @property
    def k_const(self) -> Fraction:
        return self.reserve_a * self.reserve_b


def swap_buy_a(pool: AmmPool, amount_a) -> tuple:
    """Take amount_a of token A out; returns (new_pool, cost in token B)."""
    amount_a = _frac(amount_a)
    if amount_a < 0 or amount_a >= pool.reserve_a:
        raise ContractError("buy amount must be in [0, reserve_a)")
    if amount_a == 0:
        return pool, Fraction(0)
    new_a = pool.reserve_a - amount_a
    new_b = pool.k_const / new_a
    return AmmPool(new_a, new_b), new_b - pool.reserve_b


def swap_sell_a(pool: AmmPool, amount_a) -> tuple:
    """Put amount_a of token A in; returns (new_pool, payout in token B)."""
    amount_a = _frac(amount_a)
    if amount_a < 0:
        raise ContractError("sell amount must be >= 0")
    if amount_a == 0:
        return pool, Fraction(0)
    new_a = pool.reserve_a + amount_a
    new_b = pool.k_const / new_a
    return AmmPool(new_a, new_b), pool.reserve_b - new_b


@dataclass(frozen=True)
class SandwichScenario:
    """Victim buys A; attacker brackets with its own buy and sell.

    The attacker's sell closes whatever its buy opened; if the sell lands
    first, it is served from pre-held inventory of the same size.  Prices
    are fixed dollar marks used for P&L only.
    """

    pool: AmmPool
    victim_buy_a: Fraction
    price_a: Fraction
    price_b: Fraction
    attacker_buy_a: Fraction

    def __post_init__(self):
        for amount in (self.victim_buy_a, self.attacker_buy_a):
            if _frac(amount) <= 0 or _frac(amount) >= self.pool.reserve_a:
                raise ContractError("swap amounts must be in (0, reserve_a)")


def default_scenario() -> SandwichScenario:
    """The worked example: pool (75, 24), both parties buy 15 A, prices $100/$200."""
    return SandwichScenario(
        pool=AmmPool(Fraction(75), Fraction(24)),
        victim_buy_a=Fraction(15),
        price_a=Fraction(100),
        price_b=Fraction(200),
        attacker_buy_a=Fraction(15),
    )


def sandwich_profits(scenario: SandwichScenario, order) -> tuple:
    """(victim_usd, attacker_usd) for one execution order of (i1, i2, i3).

    Victim P&L: dollar value of tokens bought minus dollars paid.  Attacker
    P&L: net token-B flow at the fixed price; its token-A position is flat
    because the sell leg always moves exactly what the buy leg moves.
    """
    if sorted(order) != sorted((VICTIM, ATTACKER_BUY, ATTACKER_SELL)):
        raise ContractError(f"order must be a permutation of i1, i2, i3, got {order!r}")
    pool = scenario.pool
    victim_cost = None
    attacker_flow = Fraction(0)
    for label in order:
        if label == VICTIM:
            pool, cost = swap_buy_a(pool, scenario.victim_buy_a)
            victim_cost = cost
        elif label == ATTACKER_BUY:
            pool, cost = swap_buy_a(pool, scenario.attacker_buy_a)
            attacker_flow -= cost
        else:
            pool, payout = swap_sell_a(pool, scenario.attacker_buy_a)
            attacker_flow += payout
    victim_usd = scenario.victim_buy_a * scenario.price_a - victim_cost * scenario.price_b
    attacker_usd = attacker_flow * scenario.price_b
    return victim_usd, attacker_usd


def payoff_table(scenario: SandwichScenario) -> dict:
    """Exact (victim, attacker) P&L for all six execution orders."""
    return {order: sandwich_profits(scenario, order) for order in PERMUTATIONS}


@lru_cache(maxsize=None)
def default_payoff_table() -> MappingProxyType:
    """``payoff_table(default_scenario())``, built once per process.

    Read-only, so every run in a process can share it.
    """
    return MappingProxyType(payoff_table(default_scenario()))


def _ratio(x) -> tuple:
    """x's (numerator, denominator), building no ``Fraction`` for an int or
    a ``Fraction``."""
    return (x if isinstance(x, (int, Fraction)) else Fraction(x)).as_integer_ratio()


def expected_attacker_profit(table: dict, permutation_probs) -> Fraction:
    """Expected attacker P&L under a distribution over execution orders.

    ``table`` is a scenario's ``payoff_table``, or ``default_payoff_table()``
    for the worked example; a caller weighing several distributions builds
    it once.  The sum is exact and runs over ints: the probabilities are
    put over their least common denominator, the payoffs over theirs, and
    only the result is a ``Fraction``.
    """
    ratios = [_ratio(p) for p in permutation_probs.values()]
    den = math.lcm(*(d for _, d in ratios))
    weights = [num * (den // d) for num, d in ratios]  # each probability is weight / den
    total = sum(weights)
    if abs(total - den) * 10**9 > den:
        raise ContractError(f"permutation probabilities sum to {total / den}, not 1")
    payoffs = []
    for order in permutation_probs:
        key = tuple(order)
        if key not in table:
            raise ContractError(f"unknown permutation {order!r}")
        payoffs.append(_ratio(table[key][1]))
    pay_den = math.lcm(*(d for _, d in payoffs))
    acc = sum(w * num * (pay_den // d) for w, (num, d) in zip(weights, payoffs))
    return Fraction(acc, den * pay_den)

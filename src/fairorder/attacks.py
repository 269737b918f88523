"""The sandwich attack's worked example over a constant-product pool.

All token amounts are exact rationals (``domain.exact_ratio``), so the
product invariant holds to equality after any swap sequence; dollar P&L is
exact too and only rounded to cents for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from types import MappingProxyType

from .domain import ContractError, exact_ratio

VICTIM = "i1"
ATTACKER_BUY = "i2"
ATTACKER_SELL = "i3"
PERMUTATIONS = tuple(permutations((VICTIM, ATTACKER_BUY, ATTACKER_SELL)))


@dataclass(frozen=True)
class AmmPool:
    reserve_a: Fraction
    reserve_b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "reserve_a", exact_ratio(self.reserve_a, "reserve_a"))
        object.__setattr__(self, "reserve_b", exact_ratio(self.reserve_b, "reserve_b"))
        if self.reserve_a <= 0 or self.reserve_b <= 0:
            raise ContractError("pool reserves must be positive")

    @property
    def k_const(self) -> Fraction:
        return self.reserve_a * self.reserve_b


def swap_buy_a(pool: AmmPool, amount_a) -> tuple:
    """Take amount_a of token A out; returns (new_pool, cost in token B)."""
    amount_a = exact_ratio(amount_a, "amount_a")
    if amount_a < 0 or amount_a >= pool.reserve_a:
        raise ContractError("buy amount must be in [0, reserve_a)")
    if amount_a == 0:
        return pool, Fraction(0)
    new_a = pool.reserve_a - amount_a
    new_b = pool.k_const / new_a
    return AmmPool(new_a, new_b), new_b - pool.reserve_b


def swap_sell_a(pool: AmmPool, amount_a) -> tuple:
    """Put amount_a of token A in; returns (new_pool, payout in token B)."""
    amount_a = exact_ratio(amount_a, "amount_a")
    if amount_a < 0:
        raise ContractError("sell amount must be >= 0")
    if amount_a == 0:
        return pool, Fraction(0)
    new_a = pool.reserve_a + amount_a
    new_b = pool.k_const / new_a
    return AmmPool(new_a, new_b), pool.reserve_b - new_b


# The worked example: a pool of 75 A and 24 B; the victim and the attacker
# each buy 15 A (if the attacker's sell lands first, it is served from
# pre-held inventory of the same size); fixed dollar marks, for P&L only.
POOL = AmmPool(Fraction(75), Fraction(24))
VICTIM_BUY_A = ATTACKER_BUY_A = Fraction(15)
PRICE_A, PRICE_B = Fraction(100), Fraction(200)


def sandwich_profits(order) -> tuple:
    """(victim_usd, attacker_usd) for one execution order of (i1, i2, i3)
    in the worked example.

    Victim P&L: dollar value of tokens bought minus dollars paid.  Attacker
    P&L: net token-B flow at the fixed price; its token-A position is flat
    because the sell leg always moves exactly what the buy leg moves.
    """
    if sorted(order) != sorted((VICTIM, ATTACKER_BUY, ATTACKER_SELL)):
        raise ContractError(f"order must be a permutation of i1, i2, i3, got {order!r}")
    pool = POOL
    victim_cost = None
    attacker_flow = Fraction(0)
    for label in order:
        if label == VICTIM:
            pool, victim_cost = swap_buy_a(pool, VICTIM_BUY_A)
        elif label == ATTACKER_BUY:
            pool, cost = swap_buy_a(pool, ATTACKER_BUY_A)
            attacker_flow -= cost
        else:
            pool, payout = swap_sell_a(pool, ATTACKER_BUY_A)
            attacker_flow += payout
    return VICTIM_BUY_A * PRICE_A - victim_cost * PRICE_B, attacker_flow * PRICE_B


@lru_cache(maxsize=None)
def payoff_table() -> MappingProxyType:
    """Exact (victim, attacker) P&L of the worked example for all six
    execution orders, built once per process and read-only, so every run
    in a process can share it."""
    return MappingProxyType({order: sandwich_profits(order) for order in PERMUTATIONS})


def expected_attacker_profit(table: dict, counts, trials: int) -> Fraction:
    """Expected attacker P&L over ``trials`` trials, ``counts[order]`` of
    which executed in each order.

    ``table`` maps each execution order to its (victim, attacker) P&L, as
    ``payoff_table()`` does for the worked example.  The counts must sum to
    ``trials``.  The sum is exact and runs over ints: the payoffs are put
    over their least common denominator, and only the result is a
    ``Fraction``.
    """
    if sum(counts.values()) != trials:
        raise ContractError(f"order counts sum to {sum(counts.values())}, not {trials}")
    payoffs = []
    for order in counts:
        key = tuple(order)
        if key not in table:
            raise ContractError(f"unknown permutation {order!r}")
        payoffs.append(table[key][1].as_integer_ratio())
    den = math.lcm(*(d for _, d in payoffs))
    acc = sum(c * num * (den // d) for c, (num, d) in zip(counts.values(), payoffs))
    return Fraction(acc, trials * den)

"""The integrator is the exact value of a discrete engine cell.

An engine cell under ``pompe`` or ``bercow`` adds to each command's integer
assigned timestamp (µs) an integer noise drawn uniformly from {0, ..., w-1},
and orders commands whose noised stamps tie uniformly at random.  This
module weighs every noise tuple in {0, ..., w-1}^n, giving each tie group
of r commands 1/r! for each of its r! orders, and requires the probability
of a target order to equal ``order_prob_integrate(ats, w, order)`` exactly,
as a ``Fraction``.  ``test_exact_values.py`` rests on this equivalence.

The placements are integer stamps inside a window of width at most w
(alpha <= 1), that is in {0, ..., w}^n: all of them for w <= 5, and at
w = 10, 15 and 20 a fixed sample that includes the lower-bound placement.
The whole module runs in 1-2 s on one core of a shared 2-vCPU Xeon.
"""

from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np
import pytest

from fairorder.analysis import order_prob_integrate


def discrete_probs(placements, w, order) -> list:
    """For each placement (a row of integer stamps), Pr[the noised stamps
    come out in ``order``] when each command adds an integer noise uniform
    on {0, ..., w-1} and each tie group of r commands takes each of its r!
    orders with weight 1/r!, as exact ``Fraction``s."""
    placements = np.asarray(placements, dtype=np.int64)
    n = placements.shape[1]
    noise = np.indices((w,) * n).reshape(n, -1)  # every noise tuple, one per column
    # stamps along the target order: (command position, placement, noise tuple)
    along = placements.T[list(order), :, None] + noise[list(order), None, :]
    # n! / (the product of r! over the tie groups), an integer, or 0 when
    # the order is not consistent with the stamps: the k-th command of a
    # tie run divides by k
    weight = np.full(along.shape[1:], factorial(n), dtype=np.int64)
    run = np.ones(along.shape[1:], dtype=np.int64)
    for prev, cur in zip(along, along[1:]):
        run = np.where(cur == prev, run + 1, 1)
        weight = np.where(cur < prev, 0, weight // run)
    return [Fraction(int(total), factorial(n) * w**n) for total in weight.sum(axis=1)]


def lower_bound_placement(n, d) -> tuple:
    """The first n - 1 commands of the target order 0, ..., n-1 at the
    window's end d, the last at its start."""
    return (d,) * (n - 1) + (0,)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
def test_every_placement_at_small_widths(n, w):
    placements = list(product(range(w + 1), repeat=n))
    order = tuple(range(n))
    got = discrete_probs(placements, w, order)
    for ats, p in zip(placements, got):
        assert p == order_prob_integrate(ats, w, order), ats


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("w", [10, 15, 20])
def test_sampled_placements_at_wider_noise(n, w):
    rng = np.random.default_rng(1000 * n + w)
    sample = [
        lower_bound_placement(n, w // 5),  # alpha = 1/5
        lower_bound_placement(n, w),  # alpha = 1
        (0,) * n,  # every command at once
        *(tuple(rng.integers(0, w + 1, n).tolist()) for _ in range(5)),
    ]
    for order in (tuple(range(n)), tuple(range(n))[::-1]):
        got = discrete_probs(sample, w, order)
        for ats, p in zip(sample, got):
            assert p == order_prob_integrate(ats, w, order), (ats, order)
    # the lower-bound placement attains (1 - alpha)^n / n!, exactly
    for d in (w // 5, w):
        (p,) = discrete_probs([lower_bound_placement(n, d)], w, tuple(range(n)))
        assert p == (1 - Fraction(d, w)) ** n / factorial(n)

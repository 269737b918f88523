"""Closed-form ordering-equality bounds and the numeric oracles that check them.

For n commands invoked simultaneously, with assigned timestamps confined to
a window of width ``delta_net`` and independent uniform noise of width
``delta_noise`` added to each (``alpha = delta_net / delta_noise``):

* any fixed output order has probability at least ``(1-alpha)^n / n!`` and
  at most ``((1+alpha)^n - n*alpha^n) / n!``;
* the spread between those bounds is the equality parameter
  ``epsilon(n) = ((1+alpha)^n - (1-alpha)^n - n*alpha^n) / n!`` for n >= 2,
  and 0 for one command, whose one order always happens;
* commands invoked more than ``delta_net + delta_noise`` apart can never be
  inverted.

Closed forms use exact rational arithmetic on exact ratios
(``domain.exact_ratio``).  Two independent oracles check them, one per kind
of placement: an exact piecewise-polynomial integrator for fixed timestamp
assignments, and vectorized Monte Carlo for the two strategies that attain
the bounds, including the adaptive one.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from math import factorial, gcd, lcm, sqrt
from typing import NamedTuple

import numpy as np

from .domain import ContractError, exact_ratio


def _check_alpha(alpha: Fraction):
    if not 0 < alpha <= 1:
        raise ContractError(f"alpha must be in (0, 1], got {alpha}")


def _target_order(target_order, n: int) -> tuple:
    """``target_order`` (default 0, 1, ..., n-1), checked to be a
    permutation of the n command indices."""
    if target_order is None:
        return tuple(range(n))
    if sorted(target_order) != list(range(n)):
        raise ContractError("target_order must be a permutation of command indices")
    return tuple(target_order)


def order_prob_bounds(n: int, alpha) -> tuple:
    """(lower, upper) probability of any fixed order of n simultaneous commands.

    A single command's only order always happens, so n = 1 returns (1, 1).
    """
    if n < 1:
        raise ContractError("n must be >= 1")
    a = exact_ratio(alpha, "alpha")
    _check_alpha(a)
    if n == 1:
        return Fraction(1), Fraction(1)
    lower = Fraction((1 - a) ** n, factorial(n))
    upper = Fraction((1 + a) ** n - n * a**n, factorial(n))
    return lower, upper


def epsilon_general(n: int, alpha) -> Fraction:
    """Worst-case probability spread across output orders of n simultaneous
    commands: upper - lower of ``order_prob_bounds``, so 0 at n = 1."""
    lower, upper = order_prob_bounds(n, alpha)
    return upper - lower


def delta_linearizability(delta_net_us: int, delta_noise_us: int) -> int:
    """Invocation-time gap beyond which inversion is impossible."""
    if delta_net_us < 0 or delta_noise_us < 0:
        raise ContractError("delta parameters must be >= 0")
    return delta_net_us + delta_noise_us


# --- exact integrator ------------------------------------------------------
#
# Ints throughout.  Stamps in noise widths are scaled by L, the lcm of their
# denominators, so breakpoints are ints and a noise interval is [y, y + L].
# A piecewise polynomial in the scaled variable is 0 below xs[0], cs[i] on
# [xs[i], xs[i+1]] and `after` from the last breakpoint on, all over one
# common denominator `den`.  Integrands carry after == 0; cumulative
# integrals carry their total.  Each integration multiplies den by
# L * lcm(1..d+1), d the integrand's largest degree.
class _Piecewise(NamedTuple):
    xs: tuple  # int breakpoints
    cs: tuple  # int coefficient tuples, lowest degree first
    after: int
    den: int

    def restrict(self, lo, hi) -> "_Piecewise":
        """This function as an integrand on [lo, hi], cut at lo, at each
        breakpoint in (lo, hi) and at hi: each span between cuts lies in the
        one piece its start falls in (0 before ``xs``, ``after`` past it)."""
        cuts = (lo, *(x for x in self.xs if lo < x < hi), hi)
        pieces = ((0,), *self.cs, (self.after,))
        cs = tuple(pieces[bisect_right(self.xs, u)] for u in cuts[:-1])
        return _Piecewise(cuts, cs, 0, self.den)

    def cumulative(self, scale: int) -> "_Piecewise":
        """u -> integral of this integrand over (-inf, u], divided by
        ``scale``: the antiderivative's coefficient k+1 is c_k * m/(k+1) over
        den * scale * m, m = lcm(1..d+1); shifts and totals by Horner's rule."""
        m = lcm(*range(1, max(map(len, self.cs)) + 1))
        acc, out = 0, []
        for x0, x1, c in zip(self.xs, self.xs[1:], self.cs):
            anti = [ck * (m // k) for k, ck in enumerate(c, 1)]  # u^1, u^2, ...
            v0 = v1 = 0
            for ck in reversed(anti):
                v0 = v0 * x0 + ck
                v1 = v1 * x1 + ck
            shift = acc - v0 * x0
            out.append((shift, *anti))
            acc = v1 * x1 + shift
        return _Piecewise(self.xs, tuple(out), acc, self.den * scale * m)


def order_prob_integrate(ats, delta_noise, target_order=None) -> Fraction:
    """Exact probability that fixed assigned timestamps yield a target order.

    ``ats[i]`` is command i's assigned timestamp; each command independently
    adds uniform noise of width ``delta_noise``.  Returns the probability
    that the noised timestamps are strictly increasing along
    ``target_order`` (default: 0, 1, ..., n-1).  Each step along the
    target order restricts the running cumulative to one command's noise
    interval and integrates it again, so there are at most 2n breakpoints
    and the degree is at most n.  The timestamps and the width are exact
    ratios (``domain.exact_ratio``).  After those checks the integration
    runs on ints over one common denominator; the result is its one ``Fraction``.
    """
    a = [exact_ratio(x, "ats") for x in ats]
    n = len(a)
    if n < 1:
        raise ContractError("integrator needs n >= 1 commands")
    dn = exact_ratio(delta_noise, "delta_noise")
    if dn <= 0:
        raise ContractError("delta_noise must be positive")
    target_order = _target_order(target_order, n)
    # stamp i in noise widths is num/den; scaled by L it is num * L // den
    ratios = [(x.numerator * dn.denominator, x.denominator * dn.numerator) for x in a]
    scale = lcm(*(den // gcd(num, den) for num, den in ratios))
    ys = [num * scale // den for num, den in ratios]
    h = _Piecewise((min(ys),), (), 1, 1)  # the unit step: 1 on every noise interval
    for idx in target_order:
        h = h.restrict(ys[idx], ys[idx] + scale).cumulative(scale)
    return Fraction(h.after, h.den)


# --- Monte Carlo -----------------------------------------------------------

LOWER_BOUND = "lower_bound"
ADAPTIVE_UPPER = "adaptive_upper"

# Rows per block: a block's arrays (2^14 doubles per command) stay in cache,
# where whole (trials, n) arrays sent every pass out to memory.
_CHUNK = 1 << 14
# At most this many threads count blocks at once, each holding about 1 MiB of
# block arrays at n = 4, so an estimate's memory stays bounded whatever the
# host's CPU count.
_MAX_THREADS = 4


def _simulate_fixed(ats_norm, target_order, trials, rng) -> np.ndarray:
    # command-major: each comparison below reads two contiguous rows
    modified = rng.random((trials, len(ats_norm))).T.copy()
    modified += np.asarray(ats_norm, dtype=float)[:, None]
    hits = np.ones(trials, dtype=bool)
    for a, b in zip(target_order, target_order[1:]):
        hits &= modified[b] > modified[a]
    return hits


def _simulate_adaptive_upper(n, alpha, trials, rng) -> np.ndarray:
    """Adversary places each command after observing the previous noised value.

    The first command in the target order gets the earliest possible
    timestamp; while each observed noised value stays inside the assignment
    window the next command is pinned exactly at it, and once a value
    escapes the window every later command is pushed to the window's end.
    """
    noise = rng.random((trials, n)).T.copy()
    t_prev = noise[0]  # the first command sits at 0
    chained = t_prev <= alpha
    ok = np.ones(trials, dtype=bool)
    for t_i in noise[1:]:
        # a chained command sits on the previous noised value, which is <=
        # alpha; once escaped, t_prev is the escaping value (> alpha) or
        # fl(u + alpha) >= alpha, so this equals np.where(chained, t_prev, alpha)
        t_i += np.minimum(t_prev, alpha)
        ok &= chained | (t_i > t_prev)
        chained &= t_i <= alpha
        t_prev = t_i
    return ok


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _count_hits(simulate, n, trials, rng) -> int:
    """Hits over ``trials`` rows in blocks of ``_CHUNK`` rows, counted by
    min(usable CPUs, ``_MAX_THREADS``, blocks) threads, the calling thread
    one of them.

    Each thread takes the next uncounted block and draws it from its own
    copy of ``rng``'s bit generator, advanced to the block's first row, so
    every row gets the draws a serial pass gives it, whichever thread counts
    it.  Handing out one block at a time keeps every thread busy to the end,
    also when one CPU runs slower than another.  Afterwards ``rng`` holds
    the state a serial pass leaves, including the buffered 32-bit value
    (``has_uint32``, ``uinteger``).
    """
    threads = min(_usable_cpus(), _MAX_THREADS, -(-trials // _CHUNK))
    bitgen = rng.bit_generator
    state = bitgen.state
    starts = iter(range(0, trials, _CHUNK))
    lock = threading.Lock()
    counts, errors = [], []

    def count():
        try:
            copy = type(bitgen)(0)
            copy.state = state
            gen = np.random.Generator(copy)
            drawn = 0  # rows the copy has moved past
            while not errors:
                with lock:
                    start = next(starts, None)
                if start is None:
                    return
                copy.advance((start - drawn) * n)
                rows = min(_CHUNK, trials - start)
                counts.append(int(np.count_nonzero(simulate(rows, gen))))
                drawn = start + rows
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    started = []
    try:
        for _ in range(threads - 1):
            thread = threading.Thread(target=count)
            thread.start()
            started.append(thread)
        count()
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    # advance() drops the buffered 32-bit value, which drawing doubles keeps
    bitgen.advance(trials * n)
    end = bitgen.state
    end.update(has_uint32=state["has_uint32"], uinteger=state["uinteger"])
    bitgen.state = end
    return sum(counts)


def order_prob_monte_carlo(strategy, n, alpha, target_order, trials, rng):
    """Binomial estimate (value, stderr) of Pr[target order] under a strategy.

    ``strategy`` is ``LOWER_BOUND`` (the target order's first n - 1
    commands at the window end, its last at the start) or
    ``ADAPTIVE_UPPER`` (the adaptive chain); anything else is a
    ``ContractError``.  A fixed placement's exact value is
    ``order_prob_integrate``'s.  ``alpha`` is a float or, as for the closed
    forms, an exact ratio such as ``"1/5"``.  Like the closed forms, it
    rejects an unparsable alpha, alpha outside (0, 1], n < 1 and a
    ``target_order`` that is not a permutation of ``range(n)``.

    Trials are drawn and tested in blocks of ``_CHUNK`` rows, so memory is
    O(``_CHUNK`` * n) per thread however many trials run.  The blocks take
    consecutive ``rng.random((rows, n))`` draws, which equal one
    ``rng.random((trials, n))`` draw row for row, so the estimate does not
    depend on the block size.  ``rng`` must be a ``Generator`` over ``PCG64``
    or ``PCG64DXSM``, the bit generators whose ``advance(k)`` skips exactly
    k doubles; any other rng, a duck type too, is a ``ContractError``.  The
    blocks are counted by one thread per usable CPU (up to ``_MAX_THREADS``),
    each drawing a block from its own copy of the bit generator jumped ahead
    to the block's first row (``advance``).  Each row still gets the same
    draws, and ``rng`` ends in the state a serial pass leaves, so neither
    the estimate nor the generator's end state depends on the CPU count.
    """
    if trials < 1000:
        raise ContractError("need at least 1000 trials for a usable estimate")
    if n < 1:
        raise ContractError("n must be >= 1")
    target_order = _target_order(target_order, n)
    alpha = alpha if isinstance(alpha, float) else float(exact_ratio(alpha, "alpha"))
    _check_alpha(alpha)
    # PCG64's and PCG64DXSM's advance(k) skips exactly k doubles of random();
    # Philox's counts 4-word counter blocks, and MT19937 and SFC64 have none
    jumpable = (np.random.PCG64, np.random.PCG64DXSM)
    if type(rng) is not np.random.Generator or type(rng.bit_generator) not in jumpable:
        raise ContractError("rng must be a numpy Generator over PCG64 or PCG64DXSM")
    if strategy == LOWER_BOUND:
        ats = [alpha] * n
        ats[target_order[-1]] = 0.0
        simulate = partial(_simulate_fixed, ats, target_order)
    elif strategy == ADAPTIVE_UPPER:
        simulate = partial(_simulate_adaptive_upper, n, alpha)
    else:
        raise ContractError(f"unknown strategy {strategy!r}")
    hits = _count_hits(simulate, n, trials, rng)
    p = hits / trials
    return p, sqrt(max(p * (1 - p), 1e-12) / trials)

import sys
import threading
import tracemalloc
from fractions import Fraction
from functools import partial
from importlib import resources
from itertools import permutations
from math import factorial, sqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairorder import analysis
from fairorder.analysis import (
    ADAPTIVE_UPPER,
    LOWER_BOUND,
    _CHUNK,
    _block_arrays,
    _simulate_adaptive_upper,
    _simulate_fixed,
    delta_linearizability,
    epsilon_general,
    order_prob_bounds,
    order_prob_integrate,
    order_prob_monte_carlo,
)
from fairorder.domain import ContractError
from fairorder.harness import parse_config

import reference

rationals = st.fractions(min_value=Fraction(1, 1000), max_value=1)
# noise widths from 10^-9 to 10^6, as ints or Fractions
widths = st.one_of(
    st.integers(1, 10**6),
    st.fractions(min_value=Fraction(1, 10**9), max_value=10**6, max_denominator=10**9),
)
# a stamp as the integrator takes it: an int, a Fraction or a ratio string
stamp_forms = st.sampled_from((round, Fraction, str))


def work_for(draws):
    """The work arrays ``_count_hits`` gives a kernel for a block of ``draws``."""
    return _block_arrays(*draws.shape)[1]


@st.composite
def placements(draw, max_n=8):
    """(stamps, width, target order) for 1..max_n commands, each stamp
    within two noise widths of 0 so that the noise intervals overlap."""
    n = draw(st.integers(1, max_n))
    width = draw(widths)
    offsets = draw(st.lists(st.fractions(-2, 2, max_denominator=15), min_size=n, max_size=n))
    stamps = [draw(stamp_forms)(r * width) for r in offsets]
    return stamps, width, draw(st.permutations(range(n)))


class TestClosedForms:
    def test_pair_values(self):
        assert epsilon_general(2, 1) == 1
        assert epsilon_general(2, Fraction(1, 5)) == Fraction(9, 25)
        assert epsilon_general(2, Fraction(1, 10**9)) < Fraction(1, 10**8)

    def test_pair_rejects_out_of_range(self):
        for bad in (0, 2, Fraction(-1, 2)):
            with pytest.raises(ContractError):
                epsilon_general(2, bad)
        with pytest.raises(ContractError):
            epsilon_general(2, 0.2)  # floats are not exact

    def test_general_examples(self):
        assert epsilon_general(3, Fraction(1, 5)) == Fraction(1192, 6000)
        assert epsilon_general(2, 1) == 1

    @settings(max_examples=100)
    @given(rationals)
    def test_general_reduces_to_pair(self, alpha):
        # the two-command spread is 1 - (1 - alpha)^2
        assert epsilon_general(2, alpha) == 1 - (1 - alpha) ** 2

    def test_bounds_examples(self):
        lower, upper = order_prob_bounds(3, Fraction(1, 5))
        assert lower == Fraction(512, 6000)
        assert upper == Fraction(1704, 6000)
        assert upper - lower == epsilon_general(3, Fraction(1, 5))

    def test_bounds_single_command(self):
        assert order_prob_bounds(1, Fraction(1, 2)) == (1, 1)

    def test_epsilon_is_the_spread_of_the_bounds(self):
        # one formula: epsilon is upper - lower at every n, so 0 for one
        # command, and for n >= 2 the paper's closed form
        cfg = resources.files("fairorder.data") / "configs" / "bounds_table.cfg"
        with resources.as_file(cfg) as path:
            alphas = [Fraction(a) for a in parse_config(path).alphas]
        assert len(alphas) == 4
        for alpha in alphas:
            assert epsilon_general(1, alpha) == 0
            for n in range(1, 9):
                lower, upper = order_prob_bounds(n, alpha)
                assert epsilon_general(n, alpha) == upper - lower
                if n >= 2:
                    closed = (1 + alpha) ** n - (1 - alpha) ** n - n * alpha**n
                    assert epsilon_general(n, alpha) == closed / factorial(n)

    def test_bounds_converge_to_uniform(self):
        tiny = Fraction(1, 10**9)
        for n in (2, 3, 4):
            lower, upper = order_prob_bounds(n, tiny)
            assert abs(lower - Fraction(1, factorial(n))) < Fraction(1, 10**7)
            assert abs(upper - Fraction(1, factorial(n))) < Fraction(1, 10**7)

    def test_delta(self):
        assert delta_linearizability(300_000, 0) == 300_000
        assert delta_linearizability(300_000, 1_500_000) == 1_800_000
        with pytest.raises(ContractError):
            delta_linearizability(-1, 0)

    def test_monotone_in_alpha_and_n(self):
        grid = [Fraction(1, 10), Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)]
        for n in (2, 3, 4):
            values = [epsilon_general(n, a) for a in grid]
            assert all(x < y for x, y in zip(values, values[1:]))
        for a in grid:
            # the guarantee weakens with n relative to the 1/n! base rate:
            # the unnormalized spread epsilon * n! grows with n
            values = [epsilon_general(n, a) * factorial(n) for n in (2, 3, 4, 5)]
            assert all(x < y for x, y in zip(values, values[1:]))

    def test_asymptotic_two_n_alpha(self):
        alpha = Fraction(1, 10_000)
        for n in (2, 3, 5):
            ratio = epsilon_general(n, alpha) * factorial(n) / (2 * n * alpha)
            assert Fraction(99, 100) <= ratio <= Fraction(101, 100)


class TestIntegrator:
    def test_reproduces_pair_closed_form(self):
        for alpha in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2)):
            got = order_prob_integrate([alpha, 0], 1, (0, 1))
            assert got == Fraction(1, 2) * (1 - alpha) ** 2

    def test_symmetry(self):
        assert order_prob_integrate([0, 0], 1) == Fraction(1, 2)
        assert order_prob_integrate([0, 0, 0], 1) == Fraction(1, 6)
        assert order_prob_integrate([0, 0, 0, 0], 1) == Fraction(1, 24)

    def test_orders_partition_probability_one(self):
        ats = [Fraction(1, 7), Fraction(2, 7), 0]
        total = sum(order_prob_integrate(ats, 1, p) for p in permutations(range(3)))
        assert total == 1

    @settings(max_examples=150, deadline=None)
    @given(placements())
    def test_equals_the_fraction_reference(self, placement):
        stamps, width, order = placement
        got = order_prob_integrate(stamps, width, order)
        assert type(got) is Fraction
        assert got == reference.order_prob_integrate(stamps, width, order)

    @settings(max_examples=25, deadline=None)
    @given(placements(max_n=6))
    def test_the_orders_of_any_placement_sum_to_one(self, placement):
        stamps, width, _ = placement
        orders = permutations(range(len(stamps)))
        assert sum(order_prob_integrate(stamps, width, order) for order in orders) == 1

    @settings(max_examples=60, deadline=None)
    @given(placements(max_n=6), st.fractions(-(10**6), 10**6, max_denominator=10**6))
    def test_a_common_offset_changes_no_value(self, placement, offset):
        stamps, width, order = placement
        shifted = [Fraction(x) + offset for x in stamps]
        assert order_prob_integrate(shifted, width, order) == order_prob_integrate(
            stamps, width, order
        )

    @settings(max_examples=60, deadline=None)
    @given(placements(max_n=6), st.fractions(Fraction(1, 10**6), 10**6, max_denominator=10**6))
    def test_scaling_stamps_and_width_together_changes_no_value(self, placement, factor):
        stamps, width, order = placement
        scaled = [Fraction(x) * factor for x in stamps]
        assert order_prob_integrate(scaled, width * factor, order) == order_prob_integrate(
            stamps, width, order
        )

    @given(placements(max_n=1))
    def test_one_command_is_certain(self, placement):
        stamps, width, order = placement
        assert order_prob_integrate(stamps, width, order) == 1

    def test_microsecond_units(self):
        got = order_prob_integrate([300_000, 0], 1_500_000, (0, 1))
        assert got == Fraction(1, 2) * Fraction(4, 5) ** 2

    def test_exact_beyond_four_commands(self):
        # n - 1 commands pushed to their window's end, the last at its start:
        # the lower bound (1 - alpha)^n / n!, exactly
        for n in range(5, 9):
            for alpha in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2)):
                ats = [alpha] * (n - 1) + [Fraction(0)]
                assert order_prob_integrate(ats, 1) == (1 - alpha) ** n / factorial(n)
        with pytest.raises(ContractError):
            order_prob_integrate([], 1)

    def test_rejects_floats_and_bad_orders(self):
        with pytest.raises(ContractError):
            order_prob_integrate([0.2, 0], 1)
        with pytest.raises(ContractError, match="expected ats as"):
            order_prob_integrate(["x"], 1)
        with pytest.raises(ContractError):
            order_prob_integrate([0, 0], 1, (0, 0))

    def test_inexact_ratio_errors_name_the_parameter(self):
        with pytest.raises(ContractError, match="pass delta_noise as"):
            order_prob_integrate([0, 0], 0.5)
        with pytest.raises(ContractError, match="expected delta_noise as"):
            order_prob_integrate([0, 0], "abc")
        with pytest.raises(ContractError, match="pass alpha as"):
            order_prob_bounds(2, 0.5)
        with pytest.raises(ContractError, match="expected alpha as"):
            order_prob_bounds(2, "abc")

    def test_bound_sandwich_on_random_assignments(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            for alpha in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)):
                lower, upper = order_prob_bounds(n, alpha)
                for _ in range(8):
                    ats = [alpha * Fraction(int(rng.integers(0, 21)), 20) for _ in range(n)]
                    prob = order_prob_integrate(ats, 1, tuple(range(n)))
                    assert lower <= prob <= upper

    def test_lower_bound_assignment_is_tight_exactly(self):
        for n in (2, 3, 4):
            alpha = Fraction(1, 5)
            ats = [alpha] * (n - 1) + [Fraction(0)]
            prob = order_prob_integrate(ats, 1, tuple(range(n)))
            assert prob == order_prob_bounds(n, alpha)[0]


class TestMonteCarlo:
    def test_requires_enough_trials(self):
        with pytest.raises(ContractError):
            order_prob_monte_carlo(LOWER_BOUND, 2, 0.2, (0, 1), 10, np.random.default_rng(0))

    def test_fixed_assignment_matches_integrator(self):
        # the lower-bound placement for target (2, 0, 1) at alpha = 1/2:
        # command 1, last in the target, at the window's start, 0 and 2 at
        # its end
        rng = np.random.default_rng(2)
        half = Fraction(1, 2)
        exact = float(order_prob_integrate([half, 0, half], 1, (2, 0, 1)))
        est, se = order_prob_monte_carlo(LOWER_BOUND, 3, 0.5, (2, 0, 1), 200_000, rng)
        assert abs(est - exact) < 4 * se

    def test_adaptive_reaches_upper_bound(self):
        rng = np.random.default_rng(3)
        upper = float(order_prob_bounds(3, Fraction(1, 5))[1])
        est, se = order_prob_monte_carlo(ADAPTIVE_UPPER, 3, 0.2, (0, 1, 2), 400_000, rng)
        assert abs(est - upper) < 4 * se

    def test_lower_strategy_reaches_lower_bound(self):
        rng = np.random.default_rng(4)
        lower = float(order_prob_bounds(3, Fraction(1, 5))[0])
        est, se = order_prob_monte_carlo(LOWER_BOUND, 3, 0.2, (0, 1, 2), 400_000, rng)
        assert abs(est - lower) < 4 * se

    def test_lower_strategy_follows_target_order(self):
        rng = np.random.default_rng(5)
        lower = float(order_prob_bounds(3, Fraction(1, 5))[0])
        est, se = order_prob_monte_carlo(LOWER_BOUND, 3, 0.2, (2, 0, 1), 400_000, rng)
        assert abs(est - lower) < 4 * se

    def test_one_command_always_hits(self):
        # one command's one order always happens, and both strategies draw
        # one double per row, as one serial draw of that many would
        trials = 3 * _CHUNK + 5
        serial = np.random.default_rng(8)
        serial.random(trials)
        for strategy in (LOWER_BOUND, ADAPTIVE_UPPER):
            rng = np.random.default_rng(8)
            estimate, _ = order_prob_monte_carlo(strategy, 1, 0.2, (0,), trials, rng)
            assert estimate == 1.0
            assert rng.bit_generator.state == serial.bit_generator.state

    def test_adaptive_chain_then_window_end(self):
        # Row 0 stays in the window: each command sits on the previous noised
        # value.  Rows 1-2 escape at once (0.21 > alpha), so later commands go
        # to the window end, 0.2: 0.205 lands before 0.21, 0.22 after it.
        # Row 3 climbs the chain to 0.10 + 0.15 = 0.25 and escapes there, so
        # the last command, at 0.2 + 0.01, lands before it.
        rows = np.array(
            [[0.10, 0.05, 0.009], [0.21, 0.005, 0.5], [0.21, 0.02, 0.5], [0.10, 0.15, 0.01]]
        )
        hits = _simulate_adaptive_upper(0.2, rows, work_for(rows))
        assert hits.tolist() == [True, False, True, False]

    def test_adaptive_chain_boundaries(self):
        # every value is exact in binary, so each row sits on a boundary:
        # 0.25 = alpha stays chained and a zero draw while chained counts;
        # 0.125 + 0.125 reaches alpha exactly and stays chained; an escaped
        # command at 0.25 + 0.25 ties the previous value, which is not later
        rows = [[0.25, 0.0, 0.125], [0.125, 0.125, 0.0], [0.5, 0.25, 0.5]]
        blocks = [np.array([row]) for row in rows]
        hits = [
            _simulate_adaptive_upper(0.25, block, work_for(block)).tolist() for block in blocks
        ]
        assert hits == [[True], [True], [False]]
        assert [block[0].tolist() for block in blocks] == rows  # draws left as drawn

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fixed_hits_equal_diff_formulation(self, n):
        def diff_reference(ats_norm, target_order, noise):
            modified = noise + np.asarray(ats_norm, dtype=float)
            ordered = modified[:, list(target_order)]
            return np.all(np.diff(ordered, axis=1) > 0, axis=1)

        pick = np.random.default_rng(n)
        for case in range(20):
            ats = pick.random(n) * pick.choice([0.0, 0.25, 1.0])
            order = tuple(pick.permutation(n).tolist())
            noise = np.random.default_rng(case).random((2000, n))
            # the same noise on a grid of quarters: many exact ties
            for draws in (noise, np.floor(noise * 4) / 4):
                got = _simulate_fixed(ats, order, draws, work_for(draws))
                want = diff_reference(ats, order, draws)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "kernel",
        [
            partial(_simulate_fixed, (0.2, 0.0, 0.2), (2, 0, 1)),
            partial(_simulate_adaptive_upper, 0.2),
        ],
        ids=["fixed", "adaptive"],
    )
    def test_one_set_of_arrays_serves_a_full_then_a_ragged_block(self, kernel):
        # as in _count_hits: one thread's arrays hold a full block, then the
        # shorter last one in their first rows, over the full block's stale tail
        full = np.random.default_rng(10).random((64, 3))
        ragged = np.random.default_rng(11).random((37, 3))
        draws, work = _block_arrays(64, 3)
        for block in (full, ragged):
            draws[: len(block)] = block
            hits = kernel(draws[: len(block)], work)
            # each block's own hits, as from arrays made for it alone
            assert hits.tolist() == kernel(block, work_for(block)).tolist()
            assert draws[: len(block)].tolist() == block.tolist()  # draws left as drawn
        assert draws[37:].tolist() == full[37:].tolist()

    @pytest.mark.parametrize(
        "strategy, n, alpha, target",
        [
            (LOWER_BOUND, 3, 0.2, (0, 0, 1)),
            (ADAPTIVE_UPPER, 3, 0.2, (5, 7)),
            (ADAPTIVE_UPPER, 3, 1.7, (0, 1, 2)),
            (LOWER_BOUND, 3, 0.2, (0, 1)),
            (LOWER_BOUND, 0, 0.2, ()),
            (LOWER_BOUND, 2, 0.0, (0, 1)),
        ],
        ids=[
            "repeated-index", "indices-out-of-range", "alpha-above-one",
            "short-target", "no-commands", "alpha-zero",
        ],
    )
    def test_rejects_what_the_closed_forms_reject(self, strategy, n, alpha, target):
        with pytest.raises(ContractError):
            order_prob_monte_carlo(strategy, n, alpha, target, 1000, np.random.default_rng(0))

    def test_unknown_strategy(self):
        # a fixed placement's exact value is the integrator's, so the
        # estimator takes no tuple of timestamps
        for strategy in ("telepathy", (0.0, 0.0), [0.2, 0.0]):
            with pytest.raises(ContractError, match="unknown strategy"):
                order_prob_monte_carlo(strategy, 2, 0.2, (0, 1), 1000, np.random.default_rng(0))

    def test_alpha_as_ratio_text(self):
        # the closed forms take "1/5"; so does the estimator, as the same ratio
        def estimate(alpha):
            return order_prob_monte_carlo(
                LOWER_BOUND, 2, alpha, (0, 1), 1000, np.random.default_rng(7)
            )

        assert estimate("1/5") == estimate(Fraction(1, 5))
        with pytest.raises(ContractError):
            estimate("abc")

    @pytest.mark.parametrize("trials", [1000, 2 * _CHUNK, 2 * _CHUNK + 7])
    def test_blocks_equal_one_whole_array_draw(self, trials):
        # The estimator before it drew in blocks: one (trials, n) draw and
        # one pass over it.  Blocks take consecutive draws from the same
        # stream, so each estimate must be equal, not merely close.
        def whole_array(strategy, n, alpha, target, seed):
            noise = np.random.default_rng(seed).random((trials, n))
            hits = np.ones(trials, dtype=bool)
            if strategy == ADAPTIVE_UPPER:
                t_prev = np.zeros(trials)
                chained = np.ones(trials, dtype=bool)
                t_cur = np.zeros(trials)
                for i in range(n):
                    t_i = np.where(chained, t_cur, alpha) + noise[:, i]
                    hits &= chained | (t_i > t_prev)
                    escaped = chained & (t_i > alpha)
                    t_cur = np.where(chained, t_i, t_cur)
                    chained &= ~escaped
                    t_prev = t_i
            else:
                ats = [alpha] * n
                ats[target[-1]] = 0.0
                modified = noise + np.asarray(ats)
                for a, b in zip(target, target[1:]):
                    hits &= modified[:, b] > modified[:, a]
            p = float(np.count_nonzero(hits)) / trials
            return p, sqrt(max(p * (1 - p), 1e-12) / trials)

        for n in (2, 3, 4):
            target = tuple(range(n))[1:] + (0,)
            for strategy in (LOWER_BOUND, ADAPTIVE_UPPER):
                for seed in (0, 1, 2):
                    got = order_prob_monte_carlo(
                        strategy, n, 0.2, target, trials, np.random.default_rng(seed)
                    )
                    assert got == whole_array(strategy, n, 0.2, target, seed)

    @pytest.mark.parametrize("strategy", [LOWER_BOUND, ADAPTIVE_UPPER])
    def test_memory_does_not_grow_with_trials(self, strategy):
        # 10^6 trials at n = 4 peaked at 32 MiB (LOWER_BOUND) and 72 MiB
        # (ADAPTIVE_UPPER) as whole arrays; in blocks, at 1.7 and 1.0 MiB.
        tracemalloc.start()
        try:
            order_prob_monte_carlo(
                strategy, 4, 0.2, (0, 1, 2, 3), 10**6, np.random.default_rng(0)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestThreadedBlocks:
    """Blocks counted by one thread per usable CPU, each from a jumped copy."""

    @staticmethod
    def spy_threads(monkeypatch, cpus):
        """Patch the CPU count; return the list of threads the calls start."""
        started = []

        class Thread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        spy = SimpleNamespace(Thread=Thread, Lock=threading.Lock)
        monkeypatch.setattr(analysis, "threading", spy)
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        return started

    @staticmethod
    def primed(bit_generator, seed):
        # a 32-bit draw leaves half of a 64-bit word buffered (has_uint32 set)
        rng = np.random.Generator(bit_generator(seed))
        rng.integers(0, 2**32, dtype=np.uint32)
        return rng

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
    @pytest.mark.parametrize("trials", [1000, _CHUNK, 3 * _CHUNK + 7, 8 * _CHUNK])
    def test_threads_equal_one_thread(self, monkeypatch, bit_generator, trials):
        def finish(rng):
            state = rng.bit_generator.state
            assert state["has_uint32"] == 1
            return state, (rng.integers(0, 2**32, dtype=np.uint32), rng.random(5).tolist())

        # the reference: each call's rows as one whole-array draw from the
        # rng itself, no blocks and no jumped copies
        serial = self.primed(bit_generator, trials)
        ats, order = (0.2, 0.0, 0.2, 0.2), (3, 0, 2, 1)

        def whole_array(simulate, *args):
            draws = serial.random((trials, 4))
            return np.count_nonzero(simulate(*args, draws, work_for(draws)))

        want = [
            whole_array(_simulate_fixed, ats, order),
            whole_array(_simulate_adaptive_upper, 0.2),
            whole_array(_simulate_fixed, ats, order),
        ]
        want_state, want_after = finish(serial)
        blocks = -(-trials // _CHUNK)
        for cpus in (1, 2, 3, 4):
            started = self.spy_threads(monkeypatch, cpus)
            rng = self.primed(bit_generator, trials)
            for strategy, hits in zip((LOWER_BOUND, ADAPTIVE_UPPER, LOWER_BOUND), want):
                got = order_prob_monte_carlo(strategy, 4, 0.2, (3, 0, 2, 1), trials, rng)
                assert got[0] == hits / trials
                assert 1 + len(started) == min(cpus, blocks)
                started.clear()
            assert finish(rng) == (want_state, want_after)

    def test_threads_capped_and_switching_often(self, monkeypatch):
        # more threads than this host may have cores, switching every 10 µs
        def run(cpus):
            started = self.spy_threads(monkeypatch, cpus)
            rng = np.random.default_rng(0)
            got = order_prob_monte_carlo(ADAPTIVE_UPPER, 2, 0.2, (0, 1), 10**6, rng)
            return got, rng.random(5).tolist(), 1 + len(started)

        one = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            many = run(64)
        finally:
            sys.setswitchinterval(interval)
        assert many[:2] == one[:2]
        assert many[2] == analysis._MAX_THREADS

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_each_thread_draws_every_block_into_one_array(self, monkeypatch, cpus):
        # ten blocks, the last one ragged: every block a thread counts is
        # drawn into that thread's one array, which the calling thread made
        trials = 9 * _CHUNK + 7
        estimate = partial(order_prob_monte_carlo, LOWER_BOUND, 4, 0.2, (3, 0, 2, 1), trials)
        want = estimate(np.random.default_rng(6))
        original = analysis._simulate_fixed
        drawn = {}  # thread -> the draws of every block it counted, kept alive

        def simulate(ats, order, draws, *rest):
            drawn.setdefault(threading.get_ident(), []).append(draws)
            return original(ats, order, draws, *rest)

        monkeypatch.setattr(analysis, "_simulate_fixed", simulate)
        started = self.spy_threads(monkeypatch, cpus)
        assert estimate(np.random.default_rng(6)) == want
        assert 1 + len(started) == cpus
        blocks = [block for blocks in drawn.values() for block in blocks]
        assert sorted(map(len, blocks)) == [7] + [_CHUNK] * 9
        assert max(map(len, drawn.values())) > 1
        for first, *rest in drawn.values():
            assert all(np.shares_memory(first, block) for block in rest)

    @pytest.mark.parametrize(
        "make_rng",
        [
            lambda: np.random.Generator(np.random.Philox(9)),
            lambda: np.random.Generator(np.random.MT19937(9)),
            lambda: np.random.Generator(np.random.SFC64(9)),
        ],
        ids=["Philox", "MT19937", "SFC64"],
    )
    def test_other_bit_generators_rejected(self, monkeypatch, make_rng):
        # Philox.advance counts 4-word counter blocks, not doubles; the others
        # have no advance
        started = self.spy_threads(monkeypatch, 4)
        rng = make_rng()
        with pytest.raises(ContractError, match="PCG64 or PCG64DXSM"):
            order_prob_monte_carlo(ADAPTIVE_UPPER, 3, 0.2, (0, 1, 2), 4 * _CHUNK, rng)
        assert started == []
        assert rng.random(5).tolist() == make_rng().random(5).tolist()  # nothing drawn

    def test_duck_typed_rngs_rejected(self, monkeypatch):
        class CoarseRng:  # a duck type: random(shape) and no bit generator
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def random(self, shape):
                return np.floor(self.rng.random(shape) * 4) / 4

        class RowsRng:  # a duck type that wraps a PCG64 Generator
            def __init__(self, seed):
                self.bit_generator = np.random.PCG64(seed)
                self.rng = np.random.Generator(self.bit_generator)

            def random(self, shape):
                return self.rng.random(shape)[::-1]

        started = self.spy_threads(monkeypatch, 4)
        for make_rng in (CoarseRng, RowsRng):
            rng = make_rng(1)
            with pytest.raises(ContractError, match="PCG64 or PCG64DXSM"):
                order_prob_monte_carlo(LOWER_BOUND, 2, 0.2, (0, 1), 4 * _CHUNK + 3, rng)
            assert rng.rng.random(5).tolist() == make_rng(1).rng.random(5).tolist()
        assert started == []

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_error_reaches_caller_and_no_thread_outlives(self, monkeypatch, failing):
        original = analysis._simulate_fixed
        caller = threading.get_ident()
        failed = threading.Event()

        def simulate(*args, **kwargs):
            if (threading.get_ident() == caller) == (failing == "caller"):
                failed.set()
                raise RuntimeError(f"{failing} failed")
            # no block is counted before a failing thread has drawn one
            assert failed.wait(timeout=30), "no failing thread drew a block"
            return original(*args, **kwargs)

        monkeypatch.setattr(analysis, "_simulate_fixed", simulate)
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 4)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            order_prob_monte_carlo(LOWER_BOUND, 4, 0.2, (0, 1, 2, 3), 10**6, np.random.default_rng(0))
        assert set(threading.enumerate()) == before

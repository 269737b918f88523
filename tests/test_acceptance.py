"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to see
them live) and asserts both the stated tolerance and the runtime budget.
"""

import itertools
import time
from fractions import Fraction
from math import factorial

import numpy as np

from fairorder.analysis import (
    ADAPTIVE_UPPER,
    LOWER_BOUND,
    epsilon_general,
    order_prob_bounds,
    order_prob_integrate,
    order_prob_monte_carlo,
)
from fairorder.attacks import PERMUTATIONS, payoff_table
from fairorder.harness import ExperimentConfig, run_experiment
from fairorder.sro import (
    Backend,
    InsufficientValidShares,
    RevealRequest,
    Share,
    SroConfig,
    combine_shares,
    share_is_valid,
    sro_init,
    verify,
)

DNET_US = 300_000
DNOISE_US = 1_500_000
SEED = bytes(range(32))


def report(name, ok, detail, budget_s, elapsed_s):
    status = "PASS" if ok and elapsed_s < budget_s else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed_s:.2f}s / budget {budget_s:.0f}s)")
    assert ok, detail
    assert elapsed_s < budget_s, f"runtime {elapsed_s:.2f}s over budget {budget_s}s"


def test_criterion_1_integrator_matches_pair_closed_form():
    t0 = time.time()
    failures = []
    for alpha in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2)):
        got = order_prob_integrate([alpha, Fraction(0)], 1, (0, 1))
        want = Fraction(1, 2) * (1 - alpha) ** 2
        if got != want:
            failures.append((alpha, got, want))
    report(
        "criterion 1 (exact integrator vs pair closed form)",
        not failures,
        failures or "exact equality at alpha in {1/10, 1/5, 1/2}",
        1.0,
        time.time() - t0,
    )


def _mc_tightness(strategy, bound_index):
    rng = np.random.default_rng(2024)
    trials = 1_000_000
    worst = []
    for n, alpha in itertools.product((2, 3), (Fraction(1, 5), Fraction(1, 2))):
        target = float(order_prob_bounds(n, alpha)[bound_index])
        est, se = order_prob_monte_carlo(
            strategy, n, float(alpha), tuple(range(n)), trials, rng
        )
        pull = abs(est - target) / max(se, 1e-9)
        worst.append((f"n={n} a={alpha}", est, target, pull))
    bad = [w for w in worst if w[3] >= 4]
    detail = "; ".join(f"{tag} est={est:.5f} want={tgt:.5f} ({pull:.1f}σ)" for tag, est, tgt, pull in worst)
    return bad, detail


def test_criterion_2_adaptive_strategy_attains_upper_bound():
    t0 = time.time()
    bad, detail = _mc_tightness(ADAPTIVE_UPPER, 1)
    report(
        "criterion 2 (adaptive upper-bound tightness, 1e6 trials)",
        not bad,
        detail,
        120.0,
        time.time() - t0,
    )


def test_criterion_3_hostile_assignment_attains_lower_bound():
    t0 = time.time()
    bad, detail = _mc_tightness(LOWER_BOUND, 0)
    report(
        "criterion 3 (lower-bound tightness, 1e6 trials)",
        not bad,
        detail,
        120.0,
        time.time() - t0,
    )


def test_criterion_4_no_inversion_past_linearizability_horizon():
    t0 = time.time()
    trials = 1_000_000
    gap = DNET_US + DNOISE_US + 1
    rng = np.random.default_rng(7)
    # Adversary maximizes inversion odds: earlier command pushed to its
    # window's end, later command pinned to its window's start.
    early_modified = DNET_US + rng.integers(0, DNOISE_US, size=trials)
    late_modified = gap + rng.integers(0, DNOISE_US, size=trials)
    inversions = int(np.count_nonzero(late_modified < early_modified))
    ties = int(np.count_nonzero(late_modified == early_modified))
    report(
        "criterion 4 (zero inversions at gap = dnet + dnoise + 1µs)",
        inversions == 0 and ties == 0,
        f"{inversions} inversions, {ties} ties over {trials} adversarial trials",
        120.0,
        time.time() - t0,
    )


GEO_CITIES = ("washington", "london", "munich", "tokyo")


def _joint_four_city_orders():
    """Ledger order of four simultaneous invocations under each baseline."""
    from fairorder.consensus import OrderingPolicy, SimulationRun
    from fairorder.domain import CommandIds, Invocation
    from fairorder.netmodel import bundled_topology
    from one_cell import trial_orders

    topology = bundled_topology()
    f = (topology.n_nodes - 1) // 3
    ids = CommandIds(("joint",), GEO_CITIES)
    placed = [Invocation(cid, 750_000, c) for cid, c in zip(ids(0), GEO_CITIES)]
    sro = sro_init(SroConfig(n=topology.n_nodes, f=f, backend=Backend.SEEDED_HASH), SEED)
    run = SimulationRun(topology, DNET_US, 1_500_000, sro)
    orders = []
    for policy in (OrderingPolicy.parse("pompe"), OrderingPolicy.parse("receive")):
        (order,) = trial_orders(run, policy, placed, {}, 1, ids, lambda t: 0)
        orders.append(tuple(GEO_CITIES[i] for i in order))
    return tuple(orders)


def test_criterion_5_geo_bias_reproduction():
    t0 = time.time()
    median_order, receive_order = _joint_four_city_orders()
    joint_ok = median_order == receive_order == GEO_CITIES
    deterministic = ExperimentConfig(
        scenario="geo_bias",
        policies=("pompe", "receive"),
        origins=GEO_CITIES,
        trials=300,
        seed=501,
    )
    det_rows = run_experiment(deterministic).rows
    det_ok = joint_ok and all(row[4] == "1.000000" for row in det_rows)
    noised = ExperimentConfig(
        scenario="geo_bias",
        policies=("bercow:1500",),
        origins=GEO_CITIES,
        trials=10_000,
        seed=502,
    )
    noise_rows = run_experiment(noised).rows
    worst = max(abs(float(row[4])) for row in noise_rows)
    report(
        "criterion 5 (geo bias: deterministic baselines vs noised median)",
        det_ok and worst <= 0.15,
        f"joint order {'-'.join(c[0].upper() for c in median_order)} deterministic: {det_ok}; "
        f"worst noised pairwise diff {worst:.3f} <= 0.15",
        300.0,
        time.time() - t0,
    )


def test_criterion_6_sandwich_mitigation():
    t0 = time.time()
    table = payoff_table()
    fig_expected = {
        ("i2", "i1", "i3"): (-500, 800),
        ("i3", "i1", "i2"): (700, -400),
    }
    table_ok = all(
        table[order] == fig_expected.get(order, (300, 0)) for order in PERMUTATIONS
    )

    def expected_profit(policy, seed):
        config = ExperimentConfig(
            scenario="sandwich",
            policies=(policy,),
            origins=("munich", "london"),
            trials=10_000,
            seed=seed,
            colluders="max",
        )
        rows = run_experiment(config).rows
        return float(next(row[4] for row in rows if row[1] == "expected"))

    pompe_profit = expected_profit("pompe", 601)
    bercow_profit = expected_profit("bercow:1500", 602)
    ratio = bercow_profit / pompe_profit
    report(
        "criterion 6 (payoff table exact; relay profit under noised median)",
        table_ok and ratio <= 0.35,
        f"table exact: {table_ok}; profit {bercow_profit:.2f} vs {pompe_profit:.2f} "
        f"(ratio {ratio:.2f} <= 0.35)",
        300.0,
        time.time() - t0,
    )


def test_criterion_7_sro_contract_suite():
    t0 = time.time()
    problems = []

    # Uniqueness: every quorum subset combines to the same value (n up to 7).
    for n, f, p in ((4, 1, 101), (7, 2, 53)):
        handle = sro_init(
            SroConfig(n=n, f=f, backend=Backend.THRESHOLD_DPRF, test_field=p), SEED
        )
        shares = [node.produce_share(1) for node in handle.nodes]
        values = {
            combine_shares(handle.verification_key.group, subset)
            for subset in itertools.combinations(shares, handle.config.quorum)
        }
        if len(values) != 1:
            problems.append(f"uniqueness broke at n={n}")

    # Secrecy: f observed shares leave the secret uniform (exhaustive, p=101).
    p = 101
    handle = sro_init(
        SroConfig(n=4, f=1, backend=Backend.THRESHOLD_DPRF, test_field=p), SEED
    )
    observed = handle.nodes[0].produce_share(0)
    counts = [0] * p
    for c1 in range(p):
        for c2 in range(p):
            counts[(observed.value - c1 - c2) % p] += 1
    if set(counts) != {p}:
        problems.append("secrecy enumeration not uniform")

    # Validity: proofs verify; random single-byte tampering always rejected.
    seeded = sro_init(SroConfig(n=4, f=1, backend=Backend.SEEDED_HASH), SEED)
    rng = np.random.default_rng(77)
    for case in range(1000):
        k = int(rng.integers(0, 2**32))
        value = seeded.reveal(RevealRequest(k, seeded.quorum_signatures(k)))
        proof = seeded.generate_proof(k)
        if not verify(seeded.verification_key, k, proof, value):
            problems.append(f"verify failed at k={k}")
            break
        pos = int(rng.integers(0, len(value)))
        bit = 1 << int(rng.integers(0, 8))
        tampered = value[:pos] + bytes([value[pos] ^ bit]) + value[pos + 1 :]
        if verify(seeded.verification_key, k, proof, tampered):
            problems.append(f"tampered value accepted at k={k}")
            break

    # Tampered threshold shares are rejected, and too many lying nodes
    # leave the oracle unable to reveal at all.
    tamper_handle = sro_init(
        SroConfig(n=4, f=1, backend=Backend.THRESHOLD_DPRF, test_field=101), SEED
    )
    share = tamper_handle.nodes[0].produce_share(5)
    bad = Share(share.node_id, (share.value + 1) % 101)
    if share_is_valid(tamper_handle.verification_key, 5, bad):
        problems.append("tampered share accepted")

    class Liar:
        def __init__(self, node_id):
            self.node_id = node_id

        def produce_share(self, k):
            return Share(self.node_id, 1)

    tamper_handle.nodes[0] = Liar(1)
    tamper_handle.nodes[1] = Liar(2)
    try:
        tamper_handle.reveal(RevealRequest(6, tamper_handle.quorum_signatures(6)))
        problems.append("reveal succeeded despite > f invalid shares")
    except InsufficientValidShares:
        pass

    # Randomness: chi-square over the bytes of 10^4 reveals at alpha=0.001.
    from scipy import stats

    counts = [0] * 256
    for k in range(10_000):
        for byte in seeded.reveal(RevealRequest(k, seeded.quorum_signatures(k))):
            counts[byte] += 1
    _, pvalue = stats.chisquare(counts)
    if pvalue <= 0.001:
        problems.append(f"chi-square uniformity rejected (p={pvalue:.5f})")

    report(
        "criterion 7 (SRO contract suite)",
        not problems,
        problems or f"uniqueness+secrecy+validity+randomness ok (chi2 p={pvalue:.3f})",
        60.0,
        time.time() - t0,
    )


def test_criterion_8_small_alpha_asymptotics():
    t0 = time.time()
    alpha = Fraction(1, 10_000)
    ratios = {}
    ok = True
    for n in (2, 3, 5):
        ratio = epsilon_general(n, alpha) * factorial(n) / (2 * n * alpha)
        ratios[n] = float(ratio)
        ok &= Fraction(99, 100) <= ratio <= Fraction(101, 100)
    report(
        "criterion 8 (epsilon ~ 2n*alpha as alpha -> 0)",
        ok,
        "; ".join(f"n={n}: ratio={r:.6f}" for n, r in ratios.items()),
        1.0,
        time.time() - t0,
    )

"""End-to-end acceptance gate.

One test per numbered criterion; each reports a single pass/fail line
via the ``acceptance_report`` fixture, echoed in the terminal summary.
The heavy Monte-Carlo suites are computed once in session-scoped
fixtures and shared between the criteria that consume them.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as scipy_stats

from liarsim.adversary import StrategyA, StrategyB
from liarsim.channels import NO_FAULTS, FaultModel
from liarsim.cli import main as cli_main
from liarsim.distribute_test import (
    DirectionPolicy,
    DistributionPlan,
    make_verified_pool,
    run_distribute_and_test,
)
from liarsim.liar_protocol import VerdictValue, generate_lists, run_liar_protocol
from liarsim.oracle import Assignment, rejection_lower_bound, round_distribution
from liarsim.qstate import (
    COMPUTATIONAL,
    MeasurementDirection,
    apply_bilateral,
    fidelity,
    make_singlet,
    random_unitary,
)
from liarsim.runner import TrialConfig, run_trials
from reference_checks import incompatible_positions, stage2_mismatches, too_short_tail
from sampling import sample_along

BALANCED_INDICES = (3, 5, 6, 9, 10, 12)  # four-bit patterns with two 0s
UNIT = 1.0 / (2.0 * math.sqrt(3.0))
FOUR_QUBIT_COEFFS = {3: 2, 5: -1, 6: -1, 9: -1, 10: -1, 12: 2}
PATTERN_PROBS = {3: 1 / 3, 12: 1 / 3, 5: 1 / 12, 6: 1 / 12, 9: 1 / 12, 10: 1 / 12}

CONSISTENT = VerdictValue.CONSISTENT
A_IS_LIAR = VerdictValue.A_IS_LIAR
B_IS_LIAR = VerdictValue.B_IS_LIAR
B_REJECTED = VerdictValue.B_REJECTED_AT_STEP_III


def fresh_lists(length, stream):
    return generate_lists(make_verified_pool(length), stream)


def random_direction(stream):
    theta = math.acos(stream.uniform(-1.0, 1.0))
    phi = stream.uniform(0.0, 2.0 * math.pi) % (2.0 * math.pi)
    return MeasurementDirection(theta, phi)


@pytest.fixture(scope="session")
def honest_suite():
    """10^4 honest trials at L = 256 (criteria 6 and 9)."""
    stream = np.random.default_rng(61001)
    counts = Counter()
    checks = Counter()  # the check behind each verdict that is not CONSISTENT
    delivered_intact = 0
    for _ in range(10_000):
        lists = fresh_lists(256, stream)
        result = run_liar_protocol(
            lists, StrategyA.honest(), StrategyB.honest(), rng=stream
        )
        counts[result.verdict.value] += 1
        if result.verdict.value is not CONSISTENT:
            checks[result.verdict.check] += 1
        if result.delivered_message == result.a_action.m_AB:
            delivered_intact += 1
    return {
        "trials": 10_000, "counts": counts, "checks": checks,
        "delivered_intact": delivered_intact,
    }


@pytest.fixture(scope="session")
def split_suite():
    """10^4 trials per fabrication count n = 1..8 at L = 64 (criteria 7, 9)."""
    stream = np.random.default_rng(72001)
    started = time.perf_counter()
    per_n = {}
    for n in range(1, 9):
        counts = Counter()
        fabricated_total = fabricated_passed = 0
        for _ in range(10_000):
            lists = fresh_lists(64, stream)
            result = run_liar_protocol(
                lists, StrategyA.split_message(n), StrategyB.honest(), rng=stream
            )
            counts[result.verdict.value] += 1
            fabricated = result.a_action.fabricated_positions
            bad = incompatible_positions(
                fabricated, lists.b_bits, result.a_action.m_AB
            )
            fabricated_total += len(fabricated)
            fabricated_passed += len(fabricated) - len(bad)
        per_n[n] = {
            "counts": counts,
            "fabricated_total": fabricated_total,
            "fabricated_passed": fabricated_passed,
        }
    return {"per_n": per_n, "elapsed": time.perf_counter() - started}


@pytest.fixture(scope="session")
def flipforge_suite():
    """10^4 trials of honest A vs flip-and-forge B at L = 256 (criteria 8, 9)."""
    stream = np.random.default_rng(83001)
    counts = Counter()
    forged_total = forged_passed = 0
    for _ in range(10_000):
        lists = fresh_lists(256, stream)
        result = run_liar_protocol(
            lists, StrategyA.honest(), StrategyB.flip_and_forge(), rng=stream
        )
        counts[result.verdict.value] += 1
        forged = result.b_action.forwarded
        bad = stage2_mismatches(forged, result.a_action.l_AC, result.b_action.m_BC)
        forged_total += len(forged)
        forged_passed += len(forged) - len(bad)
    return {
        "trials": 10_000,
        "counts": counts,
        "forged_total": forged_total,
        "forged_passed": forged_passed,
    }


def test_criterion_1_exact_state_construction(acceptance_report):
    started = time.perf_counter()
    four = make_singlet(4).amplitudes
    expected = np.zeros(16)
    for index, coeff in FOUR_QUBIT_COEFFS.items():
        expected[index] = coeff * UNIT
    sign = 1.0 if four[3].real > 0 else -1.0
    err4 = np.max(np.abs(sign * four - expected))

    two = make_singlet(2).amplitudes
    expected2 = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    sign2 = 1.0 if two[1].real > 0 else -1.0
    err2 = np.max(np.abs(sign2 * two - expected2))

    elapsed = time.perf_counter() - started
    ok = err4 <= 1e-12 and err2 <= 1e-12 and elapsed < 1.0
    acceptance_report(
        1, ok, f"amplitude error 4q={err4:.2e} 2q={err2:.2e}, {elapsed:.3f}s"
    )
    assert ok


def test_criterion_2_bilateral_invariance(acceptance_report):
    started = time.perf_counter()
    stream = np.random.default_rng(2002)
    worst = 1.0
    for n in (2, 4, 6):
        state = make_singlet(n, max_qubits=6)
        for _ in range(100):
            rotated = apply_bilateral(state, random_unitary(stream))
            worst = min(worst, fidelity(rotated, state))
    elapsed = time.perf_counter() - started
    ok = worst >= 1.0 - 1e-10 and elapsed < 5.0
    acceptance_report(2, ok, f"min fidelity {worst:.15f}, {elapsed:.2f}s")
    assert ok


def test_criterion_3_balanced_outcome_law(acceptance_report):
    started = time.perf_counter()
    stream = np.random.default_rng(3003)
    state = make_singlet(4)

    unbalanced = 0
    for _ in range(200):
        outcomes = sample_along(state, random_direction(stream), 500, stream)
        counts = np.bincount(outcomes, minlength=16)
        unbalanced += counts.sum() - counts[list(BALANCED_INDICES)].sum()

    computational = sample_along(state, COMPUTATIONAL, 100_000, stream)
    comp_counts = np.bincount(computational, minlength=16)
    observed = comp_counts[list(BALANCED_INDICES)]
    expected = np.array([PATTERN_PROBS[i] for i in BALANCED_INDICES]) * 100_000
    chi = scipy_stats.chisquare(observed, expected)

    elapsed = time.perf_counter() - started
    ok = (
        unbalanced == 0
        and comp_counts.sum() == observed.sum()
        and chi.pvalue > 0.001
        and elapsed < 30.0
    )
    acceptance_report(
        3,
        ok,
        f"unbalanced {unbalanced}/100000, chi-square p={chi.pvalue:.3f}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_4_oracle_sampler_equivalence(acceptance_report):
    stream = np.random.default_rng(4004)
    state = make_singlet(4)
    worst_tv = 0.0
    for assignment in Assignment:
        outcomes = sample_along(state, COMPUTATIONAL, 100_000, stream)
        bits = (outcomes[:, None] >> np.array([3, 2, 1, 0])) & 1
        slot_a1, slot_a2 = assignment.a_slots
        a1, a2 = bits[:, slot_a1 - 1], bits[:, slot_a2 - 1]
        lo, hi = np.minimum(a1, a2), np.maximum(a1, a2)
        b, c = bits[:, assignment.b_slot - 1], bits[:, 3]
        keys = lo * 8 + hi * 4 + b * 2 + c
        empirical = np.bincount(keys, minlength=16) / 100_000

        exact = np.zeros(16)
        for ((p_lo, p_hi), b_bit, c_bit), p in round_distribution(assignment).table.items():
            exact[p_lo * 8 + p_hi * 4 + b_bit * 2 + c_bit] = p
        worst_tv = max(worst_tv, 0.5 * np.abs(empirical - exact).sum())
    ok = worst_tv < 0.01
    acceptance_report(4, ok, f"max total-variation distance {worst_tv:.4f}")
    assert ok


def test_criterion_5_list_correlation(acceptance_report):
    stream = np.random.default_rng(5005)
    lists = fresh_lists(100_000, stream)
    violations = 0
    for m in (0, 1):
        doubles = lists.a_ones == 2 * m
        violations += int(np.sum(lists.b_bits[doubles] != 1 - m))
        violations += int(np.sum(lists.c_bits[doubles] != 1 - m))
    ok = lists.length == 100_000 and violations == 0
    acceptance_report(5, ok, f"{violations} violations across 100000 positions")
    assert ok


def test_criterion_6_completeness(acceptance_report, honest_suite):
    # Honest parties are never convicted, and every CONSISTENT trial delivers
    # m_AB. The only other ending is B's TOO_SHORT rejection of an honest claim
    # that is short by chance, P(Bin(256, 5/24) < 27) = 4.2e-6 per trial, so
    # its count is held to that exact tail by a binomial test at level 0.001.
    counts, checks = honest_suite["counts"], honest_suite["checks"]
    consistent = counts[CONSISTENT]
    intact = honest_suite["delivered_intact"]
    trials = honest_suite["trials"]
    too_short = checks["step_iii_too_short"]
    exact = too_short_tail(256)
    pvalue = scipy_stats.binomtest(too_short, trials, exact).pvalue
    ok = (
        counts[A_IS_LIAR] == counts[B_IS_LIAR] == 0
        and intact == consistent
        and consistent + too_short == trials
        and counts[B_REJECTED] == too_short
        and pvalue >= 0.001
    )
    acceptance_report(
        6, ok,
        f"CONSISTENT {consistent}/{trials}, message intact {intact}/{consistent}, "
        f"too short {too_short} (exact rate {exact:.1e}, p={pvalue:.3f})",
    )
    assert ok


def test_criterion_7_rejection_bound(acceptance_report, split_suite):
    worst_margin = math.inf
    escapes = []
    for n, data in split_suite["per_n"].items():
        bound = rejection_lower_bound(n)
        rate = data["counts"][B_REJECTED] / 10_000
        sigma = math.sqrt(bound * (1.0 - bound) / 10_000)
        worst_margin = min(worst_margin, rate - (bound - 3.0 * sigma))
        escapes.append(data["fabricated_passed"] / data["fabricated_total"])
    escape_lo, escape_hi = min(escapes), max(escapes)
    elapsed = split_suite["elapsed"]
    ok = (
        worst_margin >= 0.0
        and all(abs(e - 0.5) <= 0.02 for e in escapes)
        and elapsed < 120.0
    )
    acceptance_report(
        7,
        ok,
        f"worst bound margin {worst_margin:+.4f}, per-entry escape "
        f"{escape_lo:.3f}..{escape_hi:.3f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_8_forgery_detection(acceptance_report, flipforge_suite):
    escape = flipforge_suite["forged_passed"] / flipforge_suite["forged_total"]
    rate = flipforge_suite["counts"][B_IS_LIAR] / flipforge_suite["trials"]
    ok = abs(escape - 5 / 12) <= 0.02 and rate >= 0.999
    acceptance_report(
        8, ok, f"stage-2 escape {escape:.4f} (target 5/12), B_IS_LIAR rate {rate:.4f}"
    )
    assert ok


def test_criterion_9_soundness(
    acceptance_report, honest_suite, split_suite, flipforge_suite
):
    honest_b_convicted = sum(
        data["counts"][B_IS_LIAR] for data in split_suite["per_n"].values()
    )
    honest_a_convicted = flipforge_suite["counts"][A_IS_LIAR]
    honest_convictions = (
        honest_suite["counts"][A_IS_LIAR] + honest_suite["counts"][B_IS_LIAR]
    )
    residual = honest_suite["counts"][B_REJECTED] / honest_suite["trials"]
    ok = (
        honest_b_convicted == 0
        and honest_a_convicted == 0
        and honest_convictions == 0
        and residual < 1e-3
    )
    acceptance_report(
        9,
        ok,
        "honest convictions: "
        f"B {honest_b_convicted}, A {honest_a_convicted}, both-honest "
        f"{honest_convictions}; length residual {residual:.2e}",
    )
    assert ok


def test_criterion_10_distribute_and_test(acceptance_report):
    plan = DistributionPlan(M=66, N1=32, N2=32, L=2)
    stream = np.random.default_rng(10010)

    honest_passes = sum(
        run_distribute_and_test(plan, NO_FAULTS, stream).failure is None
        for _ in range(1000)
    )

    all_zero_failures = sum(
        run_distribute_and_test(plan, FaultModel(source_state="0000"), stream).failure is not None
        for _ in range(1000)
    )

    half_up_failures = 0
    first_round_passes = 0
    for _ in range(1000):
        outcome = run_distribute_and_test(
            plan,
            FaultModel(source_state="0011"),
            stream,
            direction_policy=DirectionPolicy.RANDOM,
        )
        half_up_failures += outcome.failure is not None
        # round 1 passed when the run went on to play a second round
        first_round_passes += outcome.failure is None or len(outcome.test_records) >= 2

    # sphere average of the per-round pass probability for |0011>:
    # p(u) = c^8 + 4 c^4 s^4 + s^8 with c^2 = (1+u)/2, s^2 = (1-u)/2
    def pass_probability(u):
        c2, s2 = (1.0 + u) / 2.0, (1.0 - u) / 2.0
        return c2**4 + 4.0 * c2**2 * s2**2 + s2**4

    mean_pass, _ = integrate.quad(pass_probability, -1.0, 1.0)
    mean_pass /= 2.0
    assert abs(mean_pass - 8 / 15) < 1e-9
    sigma = math.sqrt(mean_pass * (1.0 - mean_pass) / 1000)
    first_round_rate = first_round_passes / 1000
    oracle_consistent = abs(first_round_rate - mean_pass) <= 3.0 * sigma

    ok = (
        honest_passes == 1000
        and all_zero_failures == 1000
        and half_up_failures >= 990
        and oracle_consistent
    )
    acceptance_report(
        10,
        ok,
        f"honest {honest_passes}/1000 pass, corrupted {all_zero_failures}/1000 "
        f"and {half_up_failures}/1000 fail, first-round pass {first_round_rate:.3f} "
        f"vs {mean_pass:.3f}",
    )
    assert ok


def test_criterion_11_determinism(acceptance_report, tmp_path):
    config = TrialConfig.build(L=64, seed=47, trials=40, strategy_a="split:n=2")
    first, second = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    run_trials(config, out_path=str(first))
    run_trials(config, out_path=str(second))
    runner_identical = first.read_bytes() == second.read_bytes()

    cli_args = [
        "run", "--trials", "25", "--L", "256", "--seed", "48",
        "--strategy-b", "flipforge",
    ]
    c1, c2 = tmp_path / "c1.ndjson", tmp_path / "c2.ndjson"
    assert cli_main(cli_args + ["--out", str(c1)]) == 0
    assert cli_main(cli_args + ["--out", str(c2)]) == 0
    cli_identical = c1.read_bytes() == c2.read_bytes()

    ok = runner_identical and cli_identical
    acceptance_report(
        11,
        ok,
        f"runner files identical: {runner_identical}, cli files identical: {cli_identical}",
    )
    assert ok

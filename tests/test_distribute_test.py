import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import binomtest

from liarsim import distribute_test
from liarsim.channels import (
    NO_FAULTS,
    FaultModel,
    ProtocolViolationError,
    QuantumSystem,
)
from liarsim.distribute_test import (
    DirectionPolicy,
    DistributionPlan,
    VerifiedPool,
    _balanced_chance,
    _dense_distribute_and_test,
    _draw_subsets,
    choose_direction,
    make_verified_pool,
    run_distribute_and_test,
)
from liarsim.qstate import (
    COMPUTATIONAL, MeasurementDirection, basis_state, joint_distribution, make_singlet,
    outcome_bits,
)
from liarsim.runner import TrialConfig, resolve_sizes, run_trials
from sampling import RecordingGenerator


def rng(seed=0):
    return np.random.default_rng(seed)


class TestDistributionPlan:
    def test_arithmetic_enforced(self):
        with pytest.raises(ValueError):
            DistributionPlan(M=10, N1=3, N2=3, L=3)

    def test_positive_sizes_enforced(self):
        with pytest.raises(ValueError):
            DistributionPlan(M=5, N1=0, N2=3, L=2)

    def test_default_split(self):
        plan = DistributionPlan.default(64)
        assert (plan.M, plan.N1, plan.N2, plan.L) == (64, 16, 16, 32)

    def test_default_split_rounds_up(self):
        plan = DistributionPlan.default(10)
        assert (plan.N1, plan.N2, plan.L) == (3, 3, 4)

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 32, 255, 256])
    def test_for_pool_hits_requested_size(self, L):
        # sizes derived from the pool size alone are a default-split plan
        M, N1, N2, pool = resolve_sizes(L=L)
        plan = DistributionPlan.default(M)
        assert (plan.N1, plan.N2, plan.L) == (N1, N2, pool) == (N1, N1, L)


class TestChooseDirection:
    def test_fixed_policy(self):
        direction = choose_direction(rng(0), DirectionPolicy.FIXED)
        assert direction == COMPUTATIONAL

    def test_random_policy_varies_with_seed(self):
        d1 = choose_direction(rng(1), DirectionPolicy.RANDOM)
        d2 = choose_direction(rng(2), DirectionPolicy.RANDOM)
        assert d1 != d2

    def test_random_policy_in_range(self):
        stream = rng(3)
        for _ in range(100):
            d = choose_direction(stream)
            assert 0 <= d.theta <= np.pi
            assert 0 <= d.phi < 2 * np.pi


class TestHonestRun:
    def test_success_with_all_records_passing(self):
        outcome = run_distribute_and_test(DistributionPlan.default(64), NO_FAULTS, rng(11))
        assert outcome.failure is None
        assert outcome.test_records == range(32)
        assert len(outcome.pool) == 32

    def test_pool_systems_untouched(self):
        # the dense run itself raises if a pool system was measured or traced
        # out; the pool hands on the source it was prepared as
        for producer in (run_distribute_and_test, _dense_distribute_and_test):
            outcome = producer(DistributionPlan.default(32), NO_FAULTS, rng(5))
            assert outcome.pool.source_state == "singlet"

    def test_touched_pool_system_is_a_protocol_violation(self, monkeypatch):
        class TamperedSystem(QuantumSystem):
            def __init__(self, system_id, state):
                super().__init__(system_id, state)
                self.touch_log.append("measured before the protocol")

        monkeypatch.setattr(distribute_test, "QuantumSystem", TamperedSystem)
        with pytest.raises(ProtocolViolationError, match="touched during testing"):
            _dense_distribute_and_test(DistributionPlan.default(16), NO_FAULTS, rng(5))

    def test_tested_and_pool_ids_partition_the_batch(self):
        # the dense reference's subsets: S1's and S2's ids, each sorted, then the pool's
        plan = DistributionPlan(40, 9, 11, 20)
        tested, pool = _draw_subsets(plan, rng(7))
        s1, s2 = tested[: plan.N1].tolist(), tested[plan.N1 :].tolist()
        assert (len(s1), len(s2)) == (plan.N1, plan.N2)
        assert s1 == sorted(s1) and s2 == sorted(s2) and pool.tolist() == sorted(pool.tolist())
        assert set(tested.tolist()).isdisjoint(pool.tolist())
        assert set(tested.tolist()) | set(pool.tolist()) == set(range(1, plan.M + 1))

    def test_both_subsets_exercised(self):
        # a successful run plays every round of S1 and of S2
        plan = DistributionPlan(20, 3, 5, 12)
        for producer in (run_distribute_and_test, _dense_distribute_and_test):
            assert producer(plan, NO_FAULTS, rng(9)).test_records == range(8)

    def test_fixed_direction_policy_also_succeeds(self):
        outcome = run_distribute_and_test(
            DistributionPlan.default(32),
            NO_FAULTS,
            rng(17),
            direction_policy=DirectionPolicy.FIXED,
        )
        assert outcome.failure is None

    def test_reproducible_for_fixed_seed(self):
        fault = FaultModel(qubit_loss_prob=0.01, source_state="0011")
        for seed in range(20):
            first, second = (
                run_distribute_and_test(DistributionPlan.default(24), fault, rng(seed))
                for _ in range(2)
            )
            assert first.failure == second.failure
            assert first.test_records == second.test_records


class _ScriptedDraws:
    """Stands in for a generator: each ``geometric`` or ``random`` call
    returns the next scripted value."""

    def __init__(self, *values):
        self.values = list(values)

    def geometric(self, p):
        return self.values.pop(0)

    def random(self):
        return self.values.pop(0)


def _near(x):
    return pytest.approx(x, rel=1e-12, abs=0)


class TestDrawLayout:
    """The run draws only its first failure: one ``geometric`` per segment
    that can fail (the 3M transits, S1's rounds, S2's rounds) and one uniform
    to tell (v) from (vii) when both can happen."""

    @pytest.mark.parametrize("policy", list(DirectionPolicy))
    def test_fault_free_singlet_run_draws_nothing(self, policy):
        stream = RecordingGenerator(rng(23))
        outcome = run_distribute_and_test(DistributionPlan(20, 3, 5, 12), NO_FAULTS, stream, policy)
        assert outcome.failure is None and stream.calls == []

    @pytest.mark.parametrize("p, s1_loss", [(1e-4, 2e-4 - 1e-8), (1e-17, 2e-17)])
    def test_lossy_singlet_run_draws_one_geometric_per_segment(self, p, s1_loss):
        # S1 forwards two qubits and S2 one; a tiny p must not round to 0 in S1
        stream = RecordingGenerator(rng(0))
        fault = FaultModel(qubit_loss_prob=p)
        outcome = run_distribute_and_test(DistributionPlan(512, 128, 128, 256), fault, stream)
        assert outcome.failure is None
        assert stream.calls == [
            ("geometric", (_near(p),)), ("geometric", (_near(s1_loss),)),
            ("geometric", (_near(p),)),
        ]

    def test_product_run_without_loss_draws_no_uniform(self):
        # every failure of a lossless run is at (vii), so no uniform names it
        stream = RecordingGenerator(rng(2))
        fault = FaultModel(source_state="0011")
        outcome = run_distribute_and_test(DistributionPlan.default(12), fault, stream)
        assert outcome.failure == ("vii", None) and outcome.test_records == range(1)
        assert stream.calls == [("geometric", (_near(7 / 15),))]

    def test_lossy_product_run_draws_a_uniform_for_the_step(self):
        stream = RecordingGenerator(rng(1))
        fault = FaultModel(qubit_loss_prob=0.01, source_state="0011")
        outcome = run_distribute_and_test(DistributionPlan.default(12), fault, stream)
        assert outcome.failure == ("vii", None) and outcome.test_records == range(4)
        assert stream.calls == [
            ("geometric", (_near(0.01),)), ("geometric", (_near(1 - 0.99**2 * 8 / 15),)),
            ("geometric", (_near(1 - 0.99 * 8 / 15),)), ("random", ()),
        ]

    @pytest.mark.parametrize(
        "script, failure, played",
        [
            ((1,), ("ii", 1), 0),  # the first transit: A's first qubit of system 1
            ((3,), ("ii", 1), 0),  # B's qubit of system 1
            ((4,), ("ii", 2), 0),
            ((60,), ("ii", 20), 0),  # the last of the 3M transits
            ((61, 2, 0.0), ("v", None), 1),  # S1 round 2 loses a qubit: round 1 played
            ((61, 2, 0.999), ("vii", None), 2),  # S1 round 2 measured unbalanced
            ((61, 4, 5, 0.0), ("v", None), 7),  # S2 round 5, after S1's 3 rounds
            ((61, 4, 5, 0.999), ("vii", None), 8),
            ((61, 4, 6), None, 8),  # no failure within either subset
        ],
    )
    def test_first_failure_names_step_system_and_rounds(self, script, failure, played):
        fault = FaultModel(qubit_loss_prob=0.01, source_state="0011")
        draws = _ScriptedDraws(*script)
        outcome = run_distribute_and_test(DistributionPlan(20, 3, 5, 12), fault, draws)
        assert draws.values == []
        assert outcome.failure == failure
        assert outcome.test_records == range(played)
        assert (outcome.pool is None) is (failure is not None)


class TestCorruptedSource:
    def test_all_zero_source_fails_in_fixed_basis(self):
        outcome = run_distribute_and_test(
            DistributionPlan.default(16),
            fault=FaultModel(source_state="0000"),
            rng=rng(3),
            direction_policy=DirectionPolicy.FIXED,
        )
        assert outcome.failure is not None
        assert outcome.failure.step == "vii"
        # the very first tested system already shows four equal bits
        assert outcome.test_records == range(1)
        assert outcome.failure.system_id is None

    def test_all_zero_source_fails_with_random_directions(self):
        for seed in range(10):
            outcome = run_distribute_and_test(
                DistributionPlan.default(16),
                fault=FaultModel(source_state="0000"),
                rng=rng(seed),
            )
            assert outcome.failure is not None

    def test_balanced_product_source_evades_fixed_basis(self):
        # |0011> mimics the expected pattern in the computational basis, so
        # only the random-direction policy can expose it
        outcome = run_distribute_and_test(
            DistributionPlan.default(16),
            fault=FaultModel(source_state="0011"),
            rng=rng(19),
            direction_policy=DirectionPolicy.FIXED,
        )
        assert outcome.failure is None

    def test_balanced_product_source_caught_by_random_directions(self):
        failures = 0
        for seed in range(30):
            outcome = run_distribute_and_test(
                DistributionPlan(M=24, N1=8, N2=8, L=8),
                fault=FaultModel(source_state="0011"),
                rng=rng(100 + seed),
            )
            failures += outcome.failure is not None
        # per-round escape is 8/15, so 16 tested rounds pass all checks
        # with probability (8/15)^16 ~ 4e-5
        assert failures == 30

    def test_detection_rate_nondecreasing_in_subset_size(self):
        def detection_rate(n_tests, trials=150):
            failures = 0
            for seed in range(trials):
                outcome = run_distribute_and_test(
                    DistributionPlan(M=2 * n_tests + 2, N1=n_tests, N2=n_tests, L=2),
                    fault=FaultModel(source_state="0011"),
                    rng=rng(1000 * n_tests + seed),
                )
                failures += outcome.failure is not None
            return failures / trials

        rates = [detection_rate(n) for n in (1, 3, 8)]
        assert rates[0] <= rates[1] + 0.05
        assert rates[1] <= rates[2] + 0.05
        assert rates[2] > 0.95


class TestLossyChannel:
    def test_certain_loss_fails_receipt_check_immediately(self):
        outcome = run_distribute_and_test(
            DistributionPlan.default(8),
            fault=FaultModel(qubit_loss_prob=1.0),
            rng=rng(0),
        )
        assert outcome.failure is not None
        assert outcome.failure.step == "ii"
        assert outcome.failure.system_id == 1
        assert outcome.pool is None

    def test_any_loss_fails_at_distribution_or_forwarding(self):
        seen_steps = set()
        for seed in range(20):
            outcome = run_distribute_and_test(
                DistributionPlan.default(16),
                fault=FaultModel(qubit_loss_prob=0.02),
                rng=rng(seed),
            )
            if outcome.failure is not None:
                seen_steps.add(outcome.failure.step)
        assert seen_steps <= {"ii", "v"}
        assert seen_steps  # at 2% per qubit, 20 runs of 48+ qubits must lose some

    @pytest.mark.parametrize("producer", [run_distribute_and_test, _dense_distribute_and_test])
    def test_step_ii_abort_records_no_round(self, producer):
        plan, fault = DistributionPlan.default(8), FaultModel(qubit_loss_prob=1.0)
        outcome = producer(plan, fault, rng(0))
        assert outcome.failure == ("ii", 1)
        assert outcome.test_records == range(0)

    def test_memory_grows_with_the_pool_not_the_batch(self):
        # a million tested systems and a pool of 10: nothing is drawn or
        # held per system, so the run's peak stays far below one MiB
        plan = DistributionPlan(10**6 + 10, 500_000, 500_000, 10)
        fault = FaultModel(qubit_loss_prob=1e-9)
        tracemalloc.start()
        try:
            run_distribute_and_test(plan, fault, rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


FAULTS = {
    "singlet": FaultModel(),
    "0011": FaultModel(source_state="0011"),
    "0000": FaultModel(source_state="0000"),
    "loss-0.01": FaultModel(qubit_loss_prob=0.01),
    "loss-1": FaultModel(qubit_loss_prob=1.0),
    "loss-0.01-0011": FaultModel(qubit_loss_prob=0.01, source_state="0011"),
}

ORACLE_CASES = [
    ("singlet", DirectionPolicy.RANDOM),
    ("singlet", DirectionPolicy.FIXED),
    ("0011", DirectionPolicy.RANDOM),
    ("0011", DirectionPolicy.FIXED),
    ("0000", DirectionPolicy.RANDOM),
    ("loss-0.01", DirectionPolicy.RANDOM),
    ("loss-1", DirectionPolicy.RANDOM),
]
# loss and an unbalanced source together: both (v) and (vii) can end a round
LAW_CASES = ORACLE_CASES + [("loss-0.01-0011", DirectionPolicy.RANDOM)]

_BASIS_STATES = [format(i, "04b") for i in range(16)]
_BALANCED_ROWS = outcome_bits(4).sum(axis=1) == 2


class TestBalancedChanceMatchesDenseEngine:
    """(a) The law's b, a round's chance of two 0s and two 1s, against the
    dense engine's ``joint_distribution``: along the fixed axis, and averaged
    over uniform directions (cos theta and phi uniform) by quadrature."""

    @pytest.mark.parametrize("policy", list(DirectionPolicy))
    @pytest.mark.parametrize("state", ["singlet"] + _BASIS_STATES)
    def test_law_is_the_dense_direction_average(self, state, policy):
        source = make_singlet(4) if state == "singlet" else basis_state(state)

        def balanced(theta, phi):
            law = joint_distribution(source, MeasurementDirection(theta, phi))
            return law[_BALANCED_ROWS].sum()

        if policy is DirectionPolicy.FIXED:
            dense = balanced(0.0, 0.0)
        else:
            total, _ = integrate.dblquad(
                lambda u, phi: balanced(math.acos(u), phi), 0.0, 2.0 * math.pi, -1.0, 1.0,
                epsabs=1e-13, epsrel=1e-13,
            )
            dense = total / (4.0 * math.pi)
        assert abs(_balanced_chance(state, policy) - dense) < 1e-12

    def test_named_values(self):
        random = DirectionPolicy.RANDOM
        fixed = DirectionPolicy.FIXED
        assert _balanced_chance("singlet", random) == _balanced_chance("singlet", fixed) == 1
        assert [_balanced_chance(s, random) for s in ("0011", "0001", "0111", "0000")] == [
            8 / 15, 3 / 10, 3 / 10, 1 / 5,
        ]
        along_z = [_balanced_chance(s, fixed) for s in _BASIS_STATES]
        assert along_z == [float(s.count("1") == 2) for s in _BASIS_STATES]


_CATEGORIES = ("success", "ii", "S1-v", "S1-vii", "S2-v", "S2-vii")


def _category(outcome, plan):
    if outcome.failure is None:
        return "success"
    step = outcome.failure.step
    if step == "ii":
        return step
    # the failing round: the one after the last played at (v), the last at (vii)
    failed_round = len(outcome.test_records) + (step == "v")
    return f"{'S1' if failed_round <= plan.N1 else 'S2'}-{step}"


def _category_law(plan, fault, policy):
    """Each category's exact chance, from the independent transits and rounds."""
    p, b = fault.qubit_loss_prob, _balanced_chance(fault.source_state, policy)
    reach = (1 - p) ** (3 * plan.M)
    law = {"ii": 1 - reach}
    for subset, rounds, kept in (("S1", plan.N1, (1 - p) ** 2), ("S2", plan.N2, 1 - p)):
        passed = kept * b
        # the chance of reaching some round of this subset, summed over its rounds
        reached = reach * (rounds if passed == 1 else (1 - passed**rounds) / (1 - passed))
        law[f"{subset}-v"] = reached * (1 - kept)
        law[f"{subset}-vii"] = reached * kept * (1 - b)
        reach *= passed**rounds
    law["success"] = reach
    return law


_LAW_PLANS = {"N1=N2=3": DistributionPlan.default(12), "N1=3,N2=5": DistributionPlan(20, 3, 5, 12)}
# (producer, plans, runs per case): the dense runs take about a millisecond each
_LAW_PRODUCERS = {
    "law": (run_distribute_and_test, sorted(_LAW_PLANS), 10_000),
    "dense": (_dense_distribute_and_test, ["N1=N2=3"], 200),
}
_LAW_TESTS = [
    (name, plan, fault, policy)
    for name, (_, plans, _) in _LAW_PRODUCERS.items()
    for plan in plans
    for fault, policy in LAW_CASES
]
_LAW_TESTS = [case + (seed,) for seed, case in enumerate(_LAW_TESTS)]
# Bonferroni: every category of every test below shares one family-wise level
_LEVEL = 0.001 / (len(_LAW_TESTS) * len(_CATEGORIES))


class TestProducersMatchLaw:
    """(b) Both producers against the law: each run binned into success, a
    step-(ii) abort, or a (v) or (vii) abort in S1 or S2, and each bin's count
    held to its exact chance by a binomial test, Bonferroni-corrected to a
    family-wise level of 0.001."""

    @pytest.mark.parametrize(
        "producer, plan, fault, policy, seed", _LAW_TESTS,
        ids=[f"{name}-{plan}-{fault}-{policy.value}" for name, plan, fault, policy, _ in _LAW_TESTS],
    )
    def test_category_counts_follow_the_law(self, producer, plan, fault, policy, seed):
        run, _, runs = _LAW_PRODUCERS[producer]
        plan, stream = _LAW_PLANS[plan], rng(seed)
        counts = dict.fromkeys(_CATEGORIES, 0)
        for _ in range(runs):
            counts[_category(run(plan, FAULTS[fault], stream, policy), plan)] += 1
        law = _category_law(plan, FAULTS[fault], policy)
        assert math.isclose(sum(law.values()), 1.0, rel_tol=1e-12)
        if FAULTS[fault].source_state == "singlet":
            assert counts["S1-vii"] == counts["S2-vii"] == 0
        for category, count in counts.items():
            assert binomtest(count, runs, law[category]).pvalue >= _LEVEL, (category, counts, law)


class TestMakeVerifiedPool:
    def test_matches_success_pool_shape(self):
        pool = make_verified_pool(32)
        assert pool.source_state == "singlet"
        assert len(pool) == 32
        assert pool.system_ids.tolist() == list(range(1, 33))
        with pytest.raises(ValueError):
            pool.system_ids[0] = 2

    @pytest.mark.parametrize("policy", list(DirectionPolicy))
    @pytest.mark.parametrize("sizes", [(3, 1, 1, 1), (12, 3, 3, 6), (20, 3, 5, 12), (600, 1, 87, 512)])
    def test_fault_free_run_is_the_pool_builder(self, sizes, policy):
        # what lets a fault-free trial call make_verified_pool in its place:
        # the run draws nothing and hands on the same pool
        plan = DistributionPlan(*sizes)
        stream = RecordingGenerator(rng(3))
        pool = run_distribute_and_test(plan, NO_FAULTS, stream, policy).pool
        built = make_verified_pool(plan.L)
        assert stream.calls == []
        np.testing.assert_array_equal(pool.system_ids, built.system_ids)
        assert pool.source_state == built.source_state == "singlet"

    def test_one_pool_per_size(self):
        # the pool draws nothing, so one read-only pool serves every call
        assert make_verified_pool(32) is make_verified_pool(32)
        assert make_verified_pool(33) is not make_verified_pool(32)

    def test_len_counts_the_systems(self):
        assert len(VerifiedPool(np.array([4, 9, 11]), "singlet")) == 3

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            make_verified_pool(0)

    @pytest.mark.parametrize(
        "size", [2.5, 3.0, True, False, "4", None, np.float64(4.0)],
        ids=["float", "whole-float", "true", "false", "str", "none", "np-float64"],
    )
    def test_non_integer_size_rejected(self, size):
        # 3.0 and True equal 3 and 1, so their pools must not be served from
        # the cache either
        make_verified_pool(1)
        make_verified_pool(3)
        with pytest.raises(ValueError, match="pool size must be an integer"):
            make_verified_pool(size)

    def test_cache_holds_a_few_sizes(self):
        # a sweep over L keeps the pools of its last few sizes, not of all of them
        for L in range(16, 416, 10):
            run_trials(TrialConfig.build(L=L, trials=1))
        maxsize = make_verified_pool.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize <= 8
        assert make_verified_pool.cache_info().currsize <= maxsize
        assert make_verified_pool(64) is make_verified_pool(64)

    def test_numpy_integer_size_accepted(self):
        pool = make_verified_pool(np.int64(4))
        assert pool.system_ids.dtype == np.int64
        assert pool.system_ids.tolist() == [1, 2, 3, 4]


_FAULT_NAMES = st.sampled_from(sorted(FAULTS))
_POLICIES = st.sampled_from(list(DirectionPolicy))


class TestProducerInvariants:
    """Records check nothing when built: each producer makes the pool's ids
    read-only 1-D int64 in range, and its rounds the range of those played."""

    @staticmethod
    def assert_pool(pool, M, L, check):
        check(pool.system_ids, np.int64, 1, M, (L,))
        assert len(pool) == L

    @staticmethod
    def assert_outcome(outcome, plan):
        rounds, failure = outcome.test_records, outcome.failure
        assert type(rounds) is range and rounds.start == 0 and rounds.step == 1
        if failure is None:
            assert len(rounds) == plan.N1 + plan.N2
        elif failure.step == "ii":
            assert len(rounds) == 0 and 1 <= failure.system_id <= plan.M
        else:
            assert failure.step in ("v", "vii") and failure.system_id is None
            assert len(rounds) <= plan.N1 + plan.N2 - (failure.step == "v")

    @settings(max_examples=100, deadline=None)
    @given(L=st.integers(1, 300))
    def test_make_verified_pool(self, assert_frozen, L):
        self.assert_pool(make_verified_pool(L), L, L, assert_frozen)

    @pytest.mark.parametrize(
        "producer, most", [(run_distribute_and_test, 40), (_dense_distribute_and_test, 4)],
        ids=["law", "dense"],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), fault=_FAULT_NAMES, policy=_POLICIES, seed=st.integers(0, 2**32))
    def test_distribute_and_test(self, assert_frozen, producer, most, data, fault, policy, seed):
        N1, N2, L = (data.draw(st.integers(1, most)) for _ in range(3))
        plan = DistributionPlan(N1 + N2 + L, N1, N2, L)
        outcome = producer(plan, FAULTS[fault], rng(seed), policy)
        self.assert_outcome(outcome, plan)
        if outcome.pool is not None:
            self.assert_pool(outcome.pool, plan.M, L, assert_frozen)

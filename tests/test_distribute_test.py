import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    TestRounds,
    VerifiedPool,
    _SINGLET_CUM,
    _SINGLET_TABLE,
    _dense_distribute_and_test,
    _play_rounds,
    _rotated_probabilities,
    _round_law,
    choose_direction,
    make_verified_pool,
    run_distribute_and_test,
)
from liarsim.qstate import COMPUTATIONAL, _draw_rows, make_singlet, mark_readonly, outcome_bits
from liarsim.runner import resolve_sizes


def rng(seed=0):
    return np.random.default_rng(seed)


class _RecordingGenerator:
    """Passes each call on to ``rng`` and records its name and arguments."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def recorded(*args, **kwargs):
            self.calls.append((name, args + tuple(kwargs.values())))
            return method(*args, **kwargs)

        return recorded


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
        assert len(outcome.test_records) == 32
        assert outcome.test_records.passed.all()
        assert len(outcome.pool) == 32

    def test_pool_systems_untouched(self):
        # the run itself raises if a pool system was measured or traced
        # out; the pool hands on the source exactly as prepared
        outcome = run_distribute_and_test(DistributionPlan.default(32), NO_FAULTS, rng(5))
        assert outcome.pool.source.amplitudes is make_singlet(4).amplitudes

    def test_touched_pool_system_is_a_protocol_violation(self, monkeypatch):
        class TamperedSystem(QuantumSystem):
            def __init__(self, system_id, state):
                super().__init__(system_id, state)
                self.touch_log.append("measured before the protocol")

        monkeypatch.setattr(distribute_test, "QuantumSystem", TamperedSystem)
        with pytest.raises(ProtocolViolationError, match="touched during testing"):
            _dense_distribute_and_test(DistributionPlan.default(16), NO_FAULTS, rng(5))

    def test_pool_codes_follow_the_drawn_assignments(self):
        plan = DistributionPlan.default(40)
        codes = rng(15).integers(0, 2, size=plan.M)
        outcome = run_distribute_and_test(plan, NO_FAULTS, rng(15))
        np.testing.assert_array_equal(
            outcome.pool.codes, codes[outcome.pool.system_ids - 1]
        )

    def test_tested_and_pool_ids_partition_the_batch(self):
        plan = DistributionPlan.default(40)
        outcome = run_distribute_and_test(plan, NO_FAULTS, rng(7))
        tested = set(outcome.test_records.system_ids.tolist())
        pool = set(outcome.pool.system_ids.tolist())
        assert len(tested) == plan.N1 + plan.N2
        assert tested.isdisjoint(pool)
        assert tested | pool == set(range(1, plan.M + 1))

    def test_both_subsets_exercised(self):
        outcome = run_distribute_and_test(DistributionPlan.default(16), NO_FAULTS, rng(9))
        subsets = set(outcome.test_records.subsets.tolist())
        assert subsets == {1, 2}

    def test_subsets_drawn_after_distribution(self):
        # the permutation that picks S1 and S2 comes after every transit
        # draw of the distribution, so replaying the assignments, all 3M
        # transit uniforms and then one permutation gives the partition
        plan = DistributionPlan.default(16)
        outcome = run_distribute_and_test(plan, NO_FAULTS, rng(13))
        replay = rng(13)
        replay.integers(0, 2, size=plan.M)
        replay.random(3 * plan.M)
        order = replay.permutation(plan.M) + 1
        s1, s2 = order[: plan.N1], order[plan.N1 : plan.N1 + plan.N2]
        np.testing.assert_array_equal(
            outcome.test_records.system_ids, np.concatenate((np.sort(s1), np.sort(s2)))
        )
        np.testing.assert_array_equal(
            outcome.pool.system_ids, np.sort(order[plan.N1 + plan.N2 :])
        )

    @pytest.mark.parametrize(
        "policy, per_round", [(DirectionPolicy.RANDOM, 4), (DirectionPolicy.FIXED, 2)]
    )
    def test_successful_run_reads_four_blocks(self, policy, per_round):
        # the codes, A's and B's transit uniforms, the permutation, then one
        # block for every test round: each S1 round has two transit uniforms
        # and each S2 round one, then two direction uniforms under the random
        # policy and one uniform per measurement
        plan = DistributionPlan(20, 3, 5, 12)
        stream = _RecordingGenerator(rng(23))
        outcome = run_distribute_and_test(plan, NO_FAULTS, stream, policy)
        assert outcome.failure is None
        assert stream.calls == [
            ("integers", (0, 2, 20)),
            ("random", (60,)),
            ("permutation", (20,)),
            ("random", (3 * (2 + per_round) + 5 * (1 + per_round),)),
        ]

    def test_rounds_and_pool_share_one_permutation(self):
        # both records keep read-only views of the drawn permutation
        outcome = run_distribute_and_test(DistributionPlan(20, 3, 5, 12), NO_FAULTS, rng(4))
        tested, pool = outcome.test_records.system_ids, outcome.pool.system_ids
        assert tested.base is not None and tested.base is pool.base
        assert not tested.base.flags.writeable

    def test_fixed_direction_policy_also_succeeds(self):
        outcome = run_distribute_and_test(
            DistributionPlan.default(32),
            NO_FAULTS,
            rng(17),
            direction_policy=DirectionPolicy.FIXED,
        )
        assert outcome.failure is None

    def test_reproducible_for_fixed_seed(self, records_equal):
        results = [
            run_distribute_and_test(DistributionPlan.default(24), NO_FAULTS, rng(21))
            for _ in range(2)
        ]
        assert records_equal(results[0].test_records, results[1].test_records)
        ids = [r.pool.system_ids.tolist() for r in results]
        assert ids[0] == ids[1]


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
        assert len(outcome.test_records) == 1
        assert not outcome.test_records.passed[0]

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


class TestRoundRecord:
    def test_rounds_are_read_only_and_passed_is_derived(self):
        columns = (
            np.array([4, 9]), np.array([1, 2], np.int8), np.array([0.0, 1.0]),
            np.array([0.0, 2.0]), np.array([[0, 1, 1, 0], [0, 0, 0, 1]], np.int8),
        )
        rounds = TestRounds(*map(mark_readonly, columns))
        np.testing.assert_array_equal(rounds.passed, [True, False])
        row = (rounds.system_ids[1], rounds.subsets[1], rounds.theta[1], rounds.phi[1])
        assert row == (9, 2, 1.0, 2.0)
        assert rounds.bits[1].tolist() == [0, 0, 0, 1] and not rounds.passed[1]
        with pytest.raises(ValueError):
            rounds.bits[0, 0] = 1
        with pytest.raises(ValueError):
            rounds.passed[0] = False


FAULTS = {
    "singlet": FaultModel(),
    "0011": FaultModel(source_state="0011"),
    "0000": FaultModel(source_state="0000"),
    "loss-0.01": FaultModel(qubit_loss_prob=0.01),
    "loss-1": FaultModel(qubit_loss_prob=1.0),
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


class TestClosedFormMatchesDenseOracle:
    """The array kernel against the step-by-step run through the dense engine."""

    @pytest.mark.parametrize("fault, policy", ORACLE_CASES)
    def test_identical_outcomes_for_each_seed(self, fault, policy):
        self.assert_matches_dense(DistributionPlan.default(12), fault, policy)

    @pytest.mark.parametrize("fault, policy", ORACLE_CASES)
    def test_identical_outcomes_for_unequal_subsets(self, fault, policy):
        self.assert_matches_dense(DistributionPlan(20, 3, 5, 12), fault, policy)

    @staticmethod
    def assert_matches_dense(plan, fault, policy):
        for seed in range(100):
            fast_rng, dense_rng = rng(seed), rng(seed)
            fast = run_distribute_and_test(plan, FAULTS[fault], fast_rng, policy)
            dense = _dense_distribute_and_test(plan, FAULTS[fault], dense_rng, policy)
            assert (fast.failure is None) is (dense.failure is None)
            if fast.failure is None:
                assert dense.failure is None
                np.testing.assert_array_equal(fast.pool.system_ids, dense.pool.system_ids)
                np.testing.assert_array_equal(fast.pool.codes, dense.pool.codes)
                # the same number of draws: both streams continue in step
                assert fast_rng.random() == dense_rng.random()
            else:
                assert fast.pool is dense.pool is None
                failed = (fast.failure.step, fast.failure.system_id)
                assert failed == (dense.failure.step, dense.failure.system_id)
            fast_rounds, dense_rounds = fast.test_records, dense.test_records
            np.testing.assert_array_equal(fast_rounds.system_ids, dense_rounds.system_ids)
            np.testing.assert_array_equal(fast_rounds.subsets, dense_rounds.subsets)
            np.testing.assert_array_equal(fast_rounds.bits, dense_rounds.bits)
            # numpy's and libm's arccos may differ in the last place
            np.testing.assert_allclose(fast_rounds.theta, dense_rounds.theta, rtol=0, atol=1e-15)
            np.testing.assert_allclose(fast_rounds.phi, dense_rounds.phi, rtol=0, atol=1e-15)


class _ConstantUniforms:
    """Stands in for a generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


class TestSingletTable:
    """Singlet rounds draw from one exact table; product sources still rotate."""

    def test_table_matches_rotated_source_along_random_directions(self):
        stream = rng(31)
        worst = 0.0
        for _ in range(10):  # 10^5 directions, 10^4 at a time
            u = stream.random((10_000, 2))
            theta, phi = np.arccos(-1.0 + 2.0 * u[:, 0]), 2.0 * np.pi * u[:, 1]
            rotated = _rotated_probabilities(make_singlet(4), theta, phi)
            exact = make_singlet(4).probabilities().reshape(8, 2)
            worst = max(worst, np.abs(rotated - exact).max())
        assert worst < 1e-14

    def test_zero_probability_rows_are_unreachable(self):
        # rows 000 and 111: no uniform in [0, 1) lands between equal edges
        assert _SINGLET_CUM[0] == 0.0
        assert _SINGLET_CUM[6] == _SINGLET_CUM[7] == 1.0
        extremes = np.array([0.0, np.nextafter(1.0, 0.0)])
        np.testing.assert_array_equal(_SINGLET_TABLE.draw(extremes), [1, 6])  # 001 and 110

    @pytest.mark.parametrize("policy", list(DirectionPolicy))
    @pytest.mark.parametrize(
        "u, expected", [(0.0, [0, 0, 1, 1]), (np.nextafter(1.0, 0.0), [1, 1, 0, 0])]
    )
    def test_extreme_uniforms_give_balanced_bits(self, policy, u, expected):
        # five rounds of each subset's width: S1 forwards two qubits, S2 one
        lost, _, _, outcome = _play_rounds(
            make_singlet(4), True, 5, 5, 0.0, policy, _ConstantUniforms(u)
        )
        assert not lost.any()
        np.testing.assert_array_equal(outcome_bits(4)[outcome], [expected] * 10)

    @pytest.mark.parametrize("state", ["0011", "0110"])
    def test_product_round_draw_is_exact(self, state):
        # each round's own law, drawn at u = 0, just below 1, every edge and
        # its float neighbours, equals searchsorted on that round's CDF
        u = rng(41).random((50, 2))
        theta, phi = np.arccos(-1.0 + 2.0 * u[:, 0]), 2.0 * np.pi * u[:, 1]
        probs = _rotated_probabilities(FaultModel(source_state=state).prepare_state(), theta, phi)
        cum, c_zero = _round_law(probs)
        assert np.all(np.diff(cum, axis=1) >= 0) and np.all(cum[:, -1] == 1.0)
        np.testing.assert_array_equal(c_zero, probs[..., 0] / probs.sum(axis=2))
        rows, x = [], []
        for i, row in enumerate(cum):
            edges = np.concatenate((row, np.nextafter(row, 0.0), np.nextafter(row, 2.0)))
            edges = edges[(edges >= 0) & (edges < 1)]
            x.append(np.concatenate(([0.0, np.nextafter(1.0, 0.0)], edges)))
            rows.append(np.full(x[-1].size, i))
        rows, x = np.concatenate(rows), np.concatenate(x)
        expected = [np.searchsorted(cum[i], v, side="right") for i, v in zip(rows, x)]
        np.testing.assert_array_equal(_draw_rows(cum[rows], x), expected)

    def test_only_product_sources_rotate(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _rotated_probabilities(*args)

        monkeypatch.setattr(distribute_test, "_rotated_probabilities", counted)
        run_distribute_and_test(DistributionPlan.default(40), NO_FAULTS, rng(3))
        assert not calls
        run_distribute_and_test(DistributionPlan.default(40), FAULTS["0011"], rng(3))
        assert calls


class TestMakeVerifiedPool:
    def test_matches_success_pool_shape(self):
        pool = make_verified_pool(32, rng(2))
        assert pool.source is make_singlet(4)
        assert len(pool) == 32
        assert pool.system_ids.tolist() == list(range(1, 33))
        assert pool.codes.dtype == np.int8
        assert pool.source.amplitudes is make_singlet(4).amplitudes
        with pytest.raises(ValueError):
            pool.codes[0] = 1

    def test_assignments_can_be_pinned(self):
        # a pinned pool is built directly; the pool's own codes are one draw
        ids = np.arange(1, 5)
        pool = VerifiedPool(ids, np.zeros(4, np.int8), make_singlet(4))
        np.testing.assert_array_equal(pool.codes, [0, 0, 0, 0])
        pool = VerifiedPool(ids[:2], np.ones(2, np.int8), make_singlet(4))
        np.testing.assert_array_equal(pool.codes, [1, 1])
        drawn = make_verified_pool(4, rng(0))
        np.testing.assert_array_equal(drawn.codes, rng(0).integers(0, 2, size=4))

    def test_random_assignments_roughly_balanced(self):
        pool = make_verified_pool(2000, rng(8))
        assert 0.45 < pool.codes.mean() < 0.55

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            make_verified_pool(0, rng(0))


_FAULT_NAMES = st.sampled_from(sorted(FAULTS))
_POLICIES = st.sampled_from(list(DirectionPolicy))


class TestProducerInvariants:
    """Records check nothing when built: each producer makes every array
    1-D (the bits (n, 4)), equally long, in range, of its dtype and read-only."""

    @staticmethod
    def assert_pool(pool, M, L, check):
        check(pool.system_ids, np.int64, 1, M, (L,))
        check(pool.codes, np.int8, 0, 1, (L,))
        assert len(pool) == L

    @staticmethod
    def assert_rounds(rounds, M, check):
        n = rounds.system_ids.size
        check(rounds.system_ids, np.int64, 1, M, (n,))
        check(rounds.subsets, np.int8, 1, 2, (n,))
        check(rounds.theta, np.float64, 0.0, math.pi, (n,))
        check(rounds.phi, np.float64, 0.0, 2 * math.pi, (n,))
        check(rounds.bits, np.int8, 0, 1, (n, 4))
        assert len(rounds) == n

    @settings(max_examples=100, deadline=None)
    @given(L=st.integers(1, 300), seed=st.integers(0, 2**32))
    def test_make_verified_pool(self, assert_frozen, L, seed):
        self.assert_pool(make_verified_pool(L, rng(seed)), L, L, assert_frozen)

    @pytest.mark.parametrize(
        "producer, most", [(run_distribute_and_test, 40), (_dense_distribute_and_test, 4)],
        ids=["array", "dense"],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), fault=_FAULT_NAMES, policy=_POLICIES, seed=st.integers(0, 2**32))
    def test_distribute_and_test(self, assert_frozen, producer, most, data, fault, policy, seed):
        N1, N2, L = (data.draw(st.integers(1, most)) for _ in range(3))
        plan = DistributionPlan(N1 + N2 + L, N1, N2, L)
        outcome = producer(plan, FAULTS[fault], rng(seed), policy)
        self.assert_rounds(outcome.test_records, plan.M, assert_frozen)
        if outcome.pool is not None:
            self.assert_pool(outcome.pool, plan.M, L, assert_frozen)

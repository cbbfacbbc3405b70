import copy
import hashlib
import json
import math
import os
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import liarsim
from liarsim import adversary, distribute_test, liar_protocol, qstate, runner
from liarsim.channels import NO_FAULTS
from liarsim.cli import main as cli_main
from liarsim.runner import (
    DISTRIBUTE_FAILURE,
    TrialConfig,
    TrialResult,
    TrialStats,
    aggregate,
    format_records,
    resolve_sizes,
    run_single_trial,
    run_trials,
    summarize_to_text,
    trial_rng,
    wilson_interval,
)
from reference_checks import too_short_tail
from sampling import RecordingGenerator


class TestResolveSizes:
    def test_all_defaults(self):
        assert resolve_sizes() == (512, 128, 128, 256)

    def test_pool_only(self):
        assert resolve_sizes(L=64) == (128, 32, 32, 64)

    def test_batch_only_uses_quarter_split(self):
        assert resolve_sizes(M=100) == (100, 25, 25, 50)
        assert resolve_sizes(M=10) == (10, 3, 3, 4)

    def test_batch_and_pool(self):
        assert resolve_sizes(M=100, L=40) == (100, 30, 30, 40)
        assert resolve_sizes(M=101, L=40) == (101, 31, 30, 40)

    def test_partial_subsets(self):
        assert resolve_sizes(L=64, N1=10) == (84, 10, 10, 64)
        assert resolve_sizes(M=100, L=40, N1=45) == (100, 45, 15, 40)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(M=10, L=20),
            dict(M=10, N1=5, N2=5),
            dict(M=10, N1=4, N2=4, L=3),
            dict(L=0),
        ],
    )
    def test_inconsistent_sizes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            resolve_sizes(**kwargs)


class TestTrialConfig:
    def test_defaults_satisfy_invariant(self):
        config = TrialConfig()
        assert config.M == config.N1 + config.N2 + config.L

    def test_build_fills_sizes(self):
        config = TrialConfig.build(L=64, seed=3, trials=7)
        assert (config.M, config.N1, config.N2, config.L) == (128, 32, 32, 64)
        assert config.seed == 3 and config.trials == 7

    # the sizes are checked once, by the one plan a config keeps
    @pytest.mark.parametrize("sizes", [dict(L=64), dict(M=100), dict(M=20, N1=3, N2=5, L=12)])
    def test_build_makes_one_plan(self, sizes, monkeypatch):
        plans = []

        class CountedPlan(distribute_test.DistributionPlan):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                plans.append(super().__new__(cls, *args, **kwargs))
                return plans[-1]

        monkeypatch.setattr(runner, "DistributionPlan", CountedPlan)
        config = TrialConfig.build(**sizes)
        assert len(plans) == 1 and config.plan is plans[0]
        assert config.plan == (config.M, config.N1, config.N2, config.L)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=-1),
            dict(seed=2**64),
            dict(trials=0),
            dict(direction_policy="diagonal"),
            dict(strategy_a="bogus"),
            dict(strategy_b="split:n=3"),
            dict(qubit_loss_prob=1.5),
            dict(source_state="001"),
            dict(min_fraction=2.0),
            dict(M=100, N1=10, N2=10, L=10),
            # integer fields must be integers, so the CLI rejects them before any trial
            dict(seed=1.0),
            dict(trials=2.0),
            dict(seed=True),
            dict(trials=True),
            dict(L=256.0),
            dict(min_fraction=True),
            dict(qubit_loss_prob=False),
            # numpy's bools are no ints, but are rejected as bools are
            dict(min_fraction=np.True_),
            dict(qubit_loss_prob=np.False_),
            # an int or a Fraction beyond a float's range is out of range, not an overflow
            dict(min_fraction=10**400),
            dict(qubit_loss_prob=-(10**400)),
            dict(min_fraction=Fraction(10**400)),
            dict(qubit_loss_prob=Fraction(-(10**400))),
            # a loss probability that is no real number, and a source no name gives
            dict(qubit_loss_prob="0.1"),
            dict(qubit_loss_prob=None),
            dict(source_state=None),
            dict(source_state=1234),
            dict(source_state="2011"),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(M=512, N1=128, N2=128, L=256)
        base.update(kwargs)
        with pytest.raises(ValueError):
            TrialConfig(**base)

    # a value no float can hold, or a NaN that raises when ordered, is rejected by its
    # field's name before any conversion to float
    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_fraction", Fraction(10**400)),
            ("qubit_loss_prob", Fraction(-(10**400))),
            ("min_fraction", Decimal("NaN")),
            ("qubit_loss_prob", Decimal("sNaN")),
        ],
    )
    def test_out_of_range_probability_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a number in \\[0, 1\\]"):
            TrialConfig.build(L=16, **{field: value})

    def test_policy_member_builds_the_config_and_file_of_its_string(self, tmp_path):
        configs, files = [], []
        for policy in (distribute_test.DirectionPolicy.FIXED, "fixed"):
            config = TrialConfig.build(
                M=40, seed=5, trials=4, source_state="0011", direction_policy=policy
            )
            out = tmp_path / f"{len(files)}.ndjson"
            run_trials(config, out_path=str(out))
            configs.append(config)
            files.append(out.read_bytes())
        assert configs[0] == configs[1]
        assert configs[0].direction_policy == "fixed"
        assert configs[0].policy is distribute_test.DirectionPolicy.FIXED
        assert files[0] == files[1]

    # the given sizes are checked before the missing ones are derived from them
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(L=16.0), "L must be an integer, got 16.0"),
            (dict(M=40.0, L=16), "M must be an integer, got 40.0"),
            (dict(M=40, L=16.0), "L must be an integer, got 16.0"),
        ],
    )
    def test_build_names_the_size_that_is_not_an_integer(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            TrialConfig.build(**kwargs)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=np.int64(5)),
            dict(trials=np.int64(2)),
            dict(M=np.int64(40), L=np.uint16(16), seed=np.uint64(9), trials=np.int32(3)),
        ],
        ids=["seed", "trials", "sizes-and-seed"],
    )
    def test_numpy_integers_give_the_file_of_python_ints(self, kwargs, tmp_path):
        files = []
        for values in (kwargs, {key: int(value) for key, value in kwargs.items()}):
            out = tmp_path / f"{len(files)}.ndjson"
            run_trials(TrialConfig.build(**{"L": 16, "trials": 2, **values}), out_path=str(out))
            files.append(out.read_bytes())
        assert files[0] == files[1]

    # a real that the JSON encoder cannot write is stored as a plain float
    @pytest.mark.parametrize(
        "name, value, plain",
        [
            ("min_fraction", np.float32(0.5), 0.5),
            ("min_fraction", Fraction(1, 2), 0.5),
            ("min_fraction", Decimal("0.5"), 0.5),
            ("qubit_loss_prob", np.float32(1e-3), float(np.float32(1e-3))),
        ],
        ids=["min_fraction-float32", "min_fraction-Fraction", "min_fraction-Decimal",
             "qubit_loss_prob-float32"],
    )
    def test_real_float_fields_give_the_file_of_a_plain_float(self, name, value, plain, tmp_path):
        files = []
        for given_value in (value, plain):
            config = TrialConfig.build(L=16, trials=50, **{name: given_value})
            assert type(getattr(config, name)) is float
            out = tmp_path / f"{len(files)}.ndjson"
            run_trials(config, out_path=str(out))
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_probabilities_are_stored_as_plain_floats(self):
        config = TrialConfig.build(L=16, min_fraction=1, qubit_loss_prob=np.float64(0.0))
        assert (config.min_fraction, config.qubit_loss_prob) == (1.0, 0.0)
        assert type(config.min_fraction) is type(config.qubit_loss_prob) is float
        assert math.copysign(1.0, TrialConfig(qubit_loss_prob=-0.0).qubit_loss_prob) == 1.0

    # the summary writes each probability as its float, so equal configs write equal files
    @pytest.mark.parametrize(
        "name, values",
        [
            ("qubit_loss_prob", [0, 0.0, -0.0, np.float64(0.0), Fraction(0)]),
            ("min_fraction", [1, 1.0, np.float64(1.0), Fraction(1)]),
            ("min_fraction", [Fraction(1, 4), 0.25, np.float64(0.25)]),
        ],
        ids=["loss-0", "fraction-1", "fraction-quarter"],
    )
    def test_equal_configs_write_equal_files(self, name, values, tmp_path):
        configs, files = [], []
        for value in values:
            configs.append(TrialConfig.build(L=16, trials=3, seed=1, **{name: value}))
            out = tmp_path / f"{len(files)}.ndjson"
            run_trials(configs[-1], out_path=str(out))
            files.append(out.read_bytes())
        assert all(config == configs[0] for config in configs)
        assert len({hash(config) for config in configs}) == 1
        assert all(file == files[0] for file in files)

    # each way of building a config takes the shortcut: it is told by value
    @pytest.mark.parametrize(
        "build",
        [
            lambda: TrialConfig.build(L=64, seed=3, trials=6),
            lambda: copy.deepcopy(TrialConfig.build(L=64, seed=3, trials=6)),
            lambda: pickle.loads(pickle.dumps(TrialConfig.build(L=64, seed=3, trials=6))),
            lambda: TrialConfig.build(L=64, seed=5, trials=6)._replace(seed=3),
            lambda: TrialConfig.build(L=64, seed=3, trials=6, qubit_loss_prob=0),
        ],
        ids=["direct", "deepcopy", "pickle", "replace", "int-zero-loss"],
    )
    def test_fault_free_configs_take_the_shortcut(self, build, monkeypatch):
        expected = run_trials(TrialConfig.build(L=64, seed=3, trials=6))

        def fail(*args, **kwargs):
            raise AssertionError("a fault-free trial ran distribute-and-test")

        monkeypatch.setattr(runner, "run_distribute_and_test", fail)
        assert run_trials(build()) == expected

    def test_replaced_config_is_rebuilt_and_runs(self):
        config = TrialConfig.build(L=64, trials=3)
        replaced = config._replace(seed=5)
        assert replaced == TrialConfig.build(L=64, trials=3, seed=5)
        assert replaced.plan == config.plan and replaced.fault == config.fault
        assert run_trials(replaced) == run_trials(TrialConfig.build(L=64, trials=3, seed=5))

    # a copy is rebuilt from its fields, so a fault-free copy's fault equals
    # NO_FAULTS and its trials take the fault-free shortcut
    @pytest.mark.parametrize(
        "copy_config", [copy.deepcopy, lambda config: pickle.loads(pickle.dumps(config))],
        ids=["deepcopy", "pickle"],
    )
    def test_copy_keeps_the_fault_free_shortcut(self, copy_config, monkeypatch):
        config = TrialConfig.build(L=64, seed=3, trials=6, strategy_a="split:n=3")
        copied = copy_config(config)
        assert copied == config and type(copied) is TrialConfig
        assert copied.fault == NO_FAULTS
        assert (copied.plan, copied.thresholds, copied.strategies, copied.policy) == (
            config.plan, config.thresholds, config.strategies, config.policy
        )
        expected = run_trials(config)

        def fail(*args, **kwargs):
            raise AssertionError("a fault-free trial ran distribute-and-test")

        monkeypatch.setattr(runner, "run_distribute_and_test", fail)
        assert run_trials(copied) == expected

    def test_copy_of_a_faulty_config_keeps_its_fault(self):
        config = TrialConfig.build(M=64, qubit_loss_prob=1e-3, source_state="0011")
        copied = copy.deepcopy(config)
        assert copied == config and copied.fault == config.fault != NO_FAULTS


_RANDOM_64 =[int(x) for x in np.random.default_rng(2026).integers(0, 2**64, 6, dtype=np.uint64)]
# seeds of 1 to 5 words (2**128 and 2**130 + 7 are mixed in past the pool)
# and indices of 1 to 4 words, at each word-size boundary and at the edges
# of the 64-index blocks that are seeded together
REFERENCE_SEEDS = [
    0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**128, 2**130 + 7, *_RANDOM_64[:3]
]
REFERENCE_INDICES = [
    0, 1, 2, 63, 64, 65, 127, 128, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**100,
    *_RANDOM_64[3:],
]


def numpy_trial_rng(seed, trial_index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,)))


class TestTrialRng:
    @pytest.mark.parametrize("seed", REFERENCE_SEEDS)
    def test_matches_numpy_seed_sequence(self, seed):
        for i in REFERENCE_INDICES:
            ours, reference = trial_rng(seed, i), numpy_trial_rng(seed, i)
            assert ours.bit_generator.state == reference.bit_generator.state, (seed, i)
            np.testing.assert_array_equal(ours.random(3), reference.random(3))
            assert ours.integers(0, 2**63) == reference.integers(0, 2**63)

    def test_matches_numpy_beyond_64_bit_index_and_many_seed_words(self):
        for seed, i in [(2**224 - 1, 2**64 + 3), (_RANDOM_64[0], 2**100), (2**96, 7)]:
            assert trial_rng(seed, i).bit_generator.state == numpy_trial_rng(seed, i).bit_generator.state

    def test_block_cache_stays_bounded(self):
        runner._block_words.cache_clear()
        for seed in (3, 2**70):
            for i in range(10**4):
                trial_rng(seed, i)
        info = runner._block_words.cache_info()
        assert info.misses == 2 * math.ceil(10**4 / runner._BLOCK)
        assert info.currsize <= info.maxsize <= 8

    def test_numpy_integers_are_accepted(self):
        ours = trial_rng(np.uint64(2**64 - 1), np.int64(5))
        assert ours.bit_generator.state == numpy_trial_rng(2**64 - 1, 5).bit_generator.state

    def test_float_seed_rejected_even_when_an_equal_int_is_cached(self):
        trial_rng(1, 0)
        with pytest.raises(TypeError):
            trial_rng(1.0, 0)
        with pytest.raises(TypeError):
            trial_rng(1, 0.0)

    @pytest.mark.parametrize("seed, i", [(-1, 0), (0, -1), (-(2**40), 3)])
    def test_negative_values_rejected_like_numpy(self, seed, i):
        with pytest.raises(ValueError):
            numpy_trial_rng(seed, i)
        with pytest.raises(ValueError, match=f"got {min(seed, i)}$"):
            trial_rng(seed, i)

    def test_seed_object_serves_pcg64_only(self):
        seed_seq = trial_rng(1, 2).bit_generator.seed_seq
        np.testing.assert_array_equal(
            seed_seq.generate_state(4, np.uint64),
            np.random.SeedSequence(1, spawn_key=(2,)).generate_state(4, np.uint64),
        )
        with pytest.raises(ValueError):
            seed_seq.generate_state(8)

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random loads on the first trial, not with the package
        src = str(Path(liarsim.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = (
            "import sys, liarsim\n"
            "liarsim.TrialConfig.build(L=64, strategy_a='split:n=3', qubit_loss_prob=1e-4)\n"
            "assert 'numpy.random' not in sys.modules\n"
            "liarsim.trial_rng(1, 2)\n"
            "assert 'numpy.random' in sys.modules\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_seed_sequence_built_once_per_seed(self, monkeypatch):
        builds = []

        class CountingSeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                builds.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        runner._seed_pool.cache_clear()
        config = TrialConfig.build(L=16, seed=2**63 + 14, trials=50)
        for i in range(config.trials):
            run_single_trial(config, i)
        assert builds == [(2**63 + 14,)]

    def test_reproducible_per_index(self):
        a = trial_rng(42, 3).integers(0, 2**32, size=4)
        b = trial_rng(42, 3).integers(0, 2**32, size=4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_across_indices(self):
        a = trial_rng(42, 0).integers(0, 2**32, size=4)
        b = trial_rng(42, 1).integers(0, 2**32, size=4)
        assert not np.array_equal(a, b)


class TestWilsonInterval:
    def test_textbook_value(self):
        low, high = wilson_interval(50, 100)
        assert low == pytest.approx(0.4038, abs=2e-4)
        assert high == pytest.approx(0.5962, abs=2e-4)

    def test_degenerate_and_extreme_counts(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and 0 < high < 0.1
        low, high = wilson_interval(50, 50)
        assert 0.9 < low < 1.0 and high == 1.0

    def test_interval_brackets_the_estimate(self):
        for k, n in ((1, 7), (13, 64), (999, 1000)):
            low, high = wilson_interval(k, n)
            assert low <= k / n <= high


_STRATEGY_CONFIGS = [
    {"strategy_a": a, "strategy_b": b}
    for a, b in (
        ("honest", "honest"),
        ("split:n=3", "honest"),
        ("forgefull:k=8", "flipforge"),
        ("honest", "flipforge"),
        ("split:n=50", "flipforge:k=50"),
    )
]


class TestRunSingleTrial:
    def test_honest_trial_record(self):
        config = TrialConfig.build(L=256, seed=5, trials=1)
        record = run_single_trial(config, 0)
        assert record.distribute_status == "SUCCESS"
        assert record.verdict == "CONSISTENT"
        assert record.delivered == record.m_AB == record.m_AC == record.m_BC
        assert record.list_length == 256
        assert record.claim_length == record.forwarded_length
        assert record.fabricated_for_b == 0

    def test_trials_are_order_independent(self):
        config = TrialConfig.build(L=64, seed=9, trials=5, strategy_a="split:n=2")
        direct = run_single_trial(config, 3)
        shuffled = [run_single_trial(config, i) for i in (4, 1, 3, 0, 2)]
        assert shuffled[2] == direct

    def test_corrupted_source_fails_distribute(self):
        config = TrialConfig.build(
            M=40, seed=2, trials=1, source_state="0000", direction_policy="fixed"
        )
        record = run_single_trial(config, 0)
        assert record.distribute_status == "FAILURE"
        assert record.failure_step == "vii"
        assert record.verdict is None

    def test_total_loss_fails_distribute_at_receipt(self):
        config = TrialConfig.build(M=40, seed=2, trials=1, qubit_loss_prob=1.0)
        record = run_single_trial(config, 0)
        assert record.distribute_status == "FAILURE"
        assert record.failure_step == "ii"

    # every strategy kind, and L=16, where the capped cheaters take all or none
    @pytest.mark.parametrize("L", [16, 64, 4096])
    @pytest.mark.parametrize(
        "strategies", _STRATEGY_CONFIGS, ids=lambda s: f"{s['strategy_a']}/{s['strategy_b']}"
    )
    def test_fault_free_trial_reads_only_raw_words(self, monkeypatch, L, strategies):
        # its list cells, A's bit and a cheater's keys are all raw PCG64
        # words: no Generator sampling method is called
        config = TrialConfig.build(L=L, seed=L, trials=8, **strategies)
        expected = [run_single_trial(config, i) for i in range(config.trials)]
        streams = []

        def recording(seed, trial_index):
            streams.append(RecordingGenerator(trial_rng(seed, trial_index)))
            return streams[-1]

        monkeypatch.setattr(runner, "trial_rng", recording)
        assert [run_single_trial(config, i) for i in range(config.trials)] == expected
        assert len(streams) == config.trials
        for stream in streams:
            assert stream.calls and {name for name, _ in stream.calls} == {"random_raw"}


class TestExactFiniteTail:
    # 0.001 for the whole family of two checks, split between them
    ALPHA = 0.001 / 2

    @pytest.mark.parametrize("L", [16, 64])
    def test_honest_false_rejection_matches_exact_tail(self, L):
        config = TrialConfig.build(L=L, seed=7, trials=4000)
        rejected = sum(
            run_single_trial(config, i).evidence_check == "step_iii_too_short"
            for i in range(config.trials)
        )
        exact = too_short_tail(L)
        assert scipy_stats.binomtest(rejected, config.trials, exact).pvalue >= self.ALPHA


def reference_aggregate(results):
    """``aggregate`` read record by record, one pass per figure."""
    counts = {value.value: 0 for value in liar_protocol.VerdictValue}
    counts[DISTRIBUTE_FAILURE] = 0
    for r in results:
        counts[DISTRIBUTE_FAILURE if r.verdict is None else r.verdict] += 1
    detected = sum(counts[v] for v in ("A_IS_LIAR", "B_IS_LIAR", "B_REJECTED_AT_STEP_III"))
    completed = len(results) - counts[DISTRIBUTE_FAILURE]

    def ratio(passing, made):
        made = sum(getattr(r, made) for r in results)
        return None if made == 0 else sum(getattr(r, passing) for r in results) / made

    def mean(name):
        present = [getattr(r, name) for r in results if getattr(r, name) is not None]
        return None if not present else sum(present) / len(present)

    return TrialStats(
        len(results), counts, detected / completed if completed else 0.0,
        *wilson_interval(detected, completed),
        ratio("fabricated_passing_b", "fabricated_for_b"),
        ratio("altered_passing_c", "altered_for_c"),
        ratio("forged_passing_stage2", "forged_for_stage2"),
        mean("claim_length"), mean("forwarded_length"), mean("list_length"),
    )


_COUNT = st.integers(0, 9)
_LENGTH = st.none() | st.integers(0, 300)
TRIAL_RECORDS = st.builds(
    TrialResult,
    trial=st.integers(0, 99),
    distribute_status=st.just("SUCCESS"),
    verdict=st.sampled_from([None, *(v.value for v in liar_protocol.VerdictValue)]),
    claim_length=_LENGTH, forwarded_length=_LENGTH, list_length=_LENGTH,
    fabricated_for_b=_COUNT, fabricated_passing_b=_COUNT, altered_for_c=_COUNT,
    altered_passing_c=_COUNT, forged_for_stage2=_COUNT, forged_passing_stage2=_COUNT,
)


class TestAggregate:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(TRIAL_RECORDS, max_size=40))
    def test_matches_the_record_by_record_reference(self, records):
        assert aggregate(records) == reference_aggregate(records)

    def _records(self):
        return [
            TrialResult(
                trial=0,
                distribute_status="SUCCESS",
                verdict="CONSISTENT",
                claim_length=12,
                forwarded_length=12,
                list_length=64,
            ),
            TrialResult(
                trial=1,
                distribute_status="SUCCESS",
                verdict="B_REJECTED_AT_STEP_III",
                claim_length=15,
                list_length=64,
                fabricated_for_b=3,
                fabricated_passing_b=1,
            ),
            TrialResult(trial=2, distribute_status="FAILURE", failure_step="ii"),
        ]

    def test_counts_and_rates(self):
        stats = aggregate(self._records())
        assert stats.trials == 3
        assert stats.verdict_counts["CONSISTENT"] == 1
        assert stats.verdict_counts[DISTRIBUTE_FAILURE] == 1
        assert sum(stats.verdict_counts.values()) == 3
        assert stats.detection_rate == pytest.approx(0.5)  # 1 of 2 completed
        assert stats.escape_rate_b == pytest.approx(1 / 3)
        assert stats.escape_rate_stage2 is None
        assert stats.mean_claim_length == pytest.approx(13.5)
        assert stats.mean_forwarded_length == pytest.approx(12.0)

    def test_every_trial_failed_distribute_and_test(self):
        # a product source fails the pattern check, so no trial reaches the lists
        config = TrialConfig.build(M=40, seed=11, trials=6, source_state="0000")
        records = [run_single_trial(config, i) for i in range(config.trials)]
        assert {r.distribute_status for r in records} == {"FAILURE"}
        stats = aggregate(records)
        assert stats.detection_rate == 0.0
        assert (stats.wilson_low, stats.wilson_high) == (0.0, 1.0)
        assert (stats.escape_rate_b, stats.escape_rate_stage1, stats.escape_rate_stage2) == (
            None, None, None
        )
        assert (stats.mean_claim_length, stats.mean_forwarded_length, stats.mean_list_length) == (
            None, None, None
        )
        assert stats.verdict_counts[DISTRIBUTE_FAILURE] == config.trials
        assert sum(stats.verdict_counts.values()) == config.trials

    def test_summary_recomputable_from_records(self):
        config = TrialConfig.build(L=64, seed=21, trials=40, strategy_a="split:n=2")
        results = [run_single_trial(config, i) for i in range(config.trials)]
        text = format_records(config, results, aggregate(results))
        rows = [json.loads(line) for line in text.splitlines()]
        trial_rows = [r for r in rows if r["record"] == "trial"]
        summary = rows[-1]
        rebuilt = [
            TrialResult(**{k: v for k, v in row.items() if k != "record"})
            for row in trial_rows
        ]
        recomputed = aggregate(rebuilt)
        assert recomputed.verdict_counts == summary["verdict_counts"]
        assert recomputed.detection_rate == summary["detection_rate"]
        assert recomputed.wilson_low == summary["wilson_low"]
        assert recomputed.escape_rate_b == summary["escape_rate_b"]
        assert recomputed.mean_claim_length == summary["mean_claim_length"]


class TestResultFile:
    def test_records_sorted_with_summary_last(self):
        config = TrialConfig.build(L=64, seed=13, trials=6)
        results = [run_single_trial(config, i) for i in range(6)]
        random.Random(0).shuffle(results)
        text = format_records(config, results, aggregate(results))
        rows = [json.loads(line) for line in text.splitlines()]
        assert [r["trial"] for r in rows[:-1]] == list(range(6))
        assert rows[-1]["record"] == "summary"
        assert text.endswith("\n")

    def test_no_timing_in_file(self):
        config = TrialConfig.build(L=64, seed=13, trials=3)
        results = [run_single_trial(config, i) for i in range(3)]
        text = format_records(config, results, aggregate(results, 0.123))
        assert "seconds" not in text
        assert "time" not in text

    def test_keys_sorted_within_records(self):
        config = TrialConfig.build(L=64, seed=13, trials=2)
        results = [run_single_trial(config, i) for i in range(2)]
        for line in format_records(config, results, aggregate(results)).splitlines():
            keys = list(json.loads(line).keys())
            assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "kwargs",
        [{"L": 64}, {"M": 64, "qubit_loss_prob": 0.01}, {"M": 64, "source_state": "0011"}],
        ids=["fast-path", "lossy-distribute", "product-source"],
    )
    def test_summary_declares_the_stream_version(self, kwargs):
        # a fault-free trial reads only PCG64's raw words: version 5
        config = TrialConfig.build(seed=5, trials=2, **kwargs)
        results = [run_single_trial(config, i) for i in range(2)]
        summary = json.loads(format_records(config, results, aggregate(results)).splitlines()[-1])
        assert summary["stream_version"] == runner.STREAM_VERSION == 5


# one value per TrialResult field: ints past 64 bits, None, and any text
_FIELD_VALUES = st.one_of(st.integers(-(2**70), 2**70), st.none(), st.text())
_TRICKY_TEXT = 'é"\\\n\x00\x1f\u2028\U0001f600\ud800'


class TestTrialLine:
    """Each trial line comes from a template; it must be the encoder's line."""

    @settings(max_examples=500, deadline=None)
    @given(st.tuples(*[_FIELD_VALUES] * len(TrialResult._fields)))
    @example((_TRICKY_TEXT,) + (None,) * (len(TrialResult._fields) - 2) + (-(2**64),))
    @example(tuple(range(2**63, 2**63 + len(TrialResult._fields))))
    def test_line_is_the_encoders_line(self, values):
        r = TrialResult(*values)
        expected = runner._ENCODER.encode({"record": "trial", **r._asdict()})
        assert runner._trial_line(r) == expected

    def test_template_keys_are_sorted_with_the_record_literal(self):
        keys = list(json.loads(runner._TRIAL_LINE % (("0",) * len(TrialResult._fields))))
        assert keys == sorted(keys) == sorted(("record",) + TrialResult._fields)

    @pytest.mark.parametrize("value", [True, 1.5, np.int64(3)], ids=["bool", "float", "np.int64"])
    def test_other_types_raise_rather_than_write_differently(self, value):
        r = TrialResult(0, "SUCCESS", m_AB=value)
        with pytest.raises(TypeError):
            runner._trial_line(r)
        with pytest.raises(TypeError):
            format_records(TrialConfig.build(L=16, trials=1), [r], aggregate([r]))


class TestTrialPathCopiesNothing:
    """Records take the arrays they are given, and C's checks take A's list as
    it is: each array is read-only and of its final dtype where it is made."""

    @pytest.mark.parametrize("L", [16, 64])
    @pytest.mark.parametrize(
        "strategies", _STRATEGY_CONFIGS, ids=lambda s: f"{s['strategy_a']}/{s['strategy_b']}"
    )
    def test_readonly_array_returns_its_input(self, monkeypatch, L, strategies):
        calls = []

        def recording(values, dtype):
            out = qstate.readonly_array(values, dtype)
            calls.append((sys._getframe(1).f_code.co_name, out is values))
            return out

        # raising=False: a module that does not import it yet still gets the spy
        for module in (adversary, liar_protocol, distribute_test):
            monkeypatch.setattr(module, "readonly_array", recording, raising=False)
        config = TrialConfig.build(L=L, seed=L, trials=20, **strategies)
        for i in range(config.trials):
            run_single_trial(config, i)
        # the only caller left is C's check of A's full list, a payload from outside
        assert {where for where, _ in calls} <= {"_pair_counts"}
        assert all(same for _, same in calls)


class TestRunTrials:
    def test_writes_byte_identical_files(self, tmp_path):
        config = TrialConfig.build(L=64, seed=17, trials=25, strategy_b="flipforge")
        first, second = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        stats1 = run_trials(config, out_path=str(first))
        stats2 = run_trials(config, out_path=str(second))
        assert first.read_bytes() == second.read_bytes()
        assert stats1 == stats2  # timing is excluded from equality

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        out = tmp_path / "r.ndjson"
        out.write_text("previous run\n")
        # a lone surrogate cannot be encoded, so writing the records raises
        monkeypatch.setattr(runner, "format_records", lambda *args: "{}\n\ud800\n")
        with pytest.raises(UnicodeEncodeError):
            run_trials(TrialConfig.build(L=64, seed=3, trials=2), out_path=str(out))
        assert out.read_text() == "previous run\n"
        assert [path.name for path in tmp_path.iterdir()] == ["r.ndjson"]

    def test_shorter_run_is_a_prefix_of_a_longer_one(self, tmp_path, capsys):
        # trial i's record depends on (seed, i) only, across seed blocks too
        lines = {}
        for trials in (130, 200):
            out = tmp_path / f"{trials}.ndjson"
            args = ["run", "--trials", str(trials), "--L", "16", "--seed", "1"]
            assert cli_main(args + ["--out", str(out)]) == 0
            lines[trials] = out.read_text().splitlines()
        assert lines[130][:130] == lines[200][:130]

    def test_honest_run_statistics(self):
        config = TrialConfig.build(L=256, seed=23, trials=60)
        stats = run_trials(config)
        assert stats.verdict_counts["CONSISTENT"] == 60
        assert stats.detection_rate == 0.0
        assert stats.mean_list_length == 256
        # honest claims hover around the expected double fraction
        assert stats.mean_claim_length == pytest.approx(256 * 5 / 24, rel=0.15)

    def test_split_strategy_statistics(self):
        config = TrialConfig.build(L=64, seed=29, trials=120, strategy_a="split:n=3")
        stats = run_trials(config)
        counts = stats.verdict_counts
        assert counts["CONSISTENT"] == 0
        assert counts["B_IS_LIAR"] == 0
        rejection = counts["B_REJECTED_AT_STEP_III"] / 120
        assert rejection > 7 / 8 - 3 * 0.031  # binomial 3 sigma at 120 trials
        assert stats.escape_rate_b == pytest.approx(0.5, abs=0.1)

    def test_summarize_to_text_mentions_timing_only_here(self):
        config = TrialConfig.build(L=64, seed=31, trials=5)
        text = summarize_to_text(run_trials(config))
        assert "seconds per trial" in text
        assert "CONSISTENT" in text


class TestPinnedResultFiles:
    """sha256 of ``liarsim run --out`` files for fixed seeds.

    Any change to how a trial consumes its random stream, or to the
    record format, changes these digests; such a change must be declared
    and the digests re-pinned deliberately.

    ``FAILURES`` keeps, for each distribute-and-test file with a failed
    trial, the sha256 of its ``FAILURE`` records, one per line: version 5
    moved only the draws after distribute-and-test (the list cells, A's bit
    and a cheater's keys), so those records are the ones version 4 wrote.
    """

    FAILURES = {
        "distribute-loss": "ec90eb15bde15d5171150d9e35bc91a686070435769346a03cc5bdb69174d8dd",
        "distribute-product-source":
            "fc2f480a9c6b60a2fc5b556eb3df24badb5c98b187808b29eda5c466588b079b",
        "distribute-lossy": "affd01570e4175c4a9b6c3a7cff1c40c700e376d0aa817e4c465353fce2ec1c1",
        "distribute-M512": "1cc330dda54ae1631e277130ced0e6f2e0b121120b7c44f2242d5b7751af8900",
        "distribute-product-source-random":
            "2723b37a26ba9443f76a6369c161df41071b815b6ed806146435573cc0b652f9",
    }

    FAST = ["run", "--trials", "200", "--seed", "12345", "--L", "64"]
    LONG = ["run", "--trials", "12", "--seed", "12345", "--L", "4096"]
    SHORT = ["run", "--trials", "200", "--seed", "12345"]

    CASES = [
        (
            FAST + ["--strategy-a", "honest", "--strategy-b", "honest"],
            "65002fa73ff73a39c0aaac0886d539bc325a2113600ae9d337575f04aa985481",
        ),
        (
            FAST + ["--strategy-a", "split:n=3", "--strategy-b", "honest"],
            "218712c842c1fe8b246ee27836554a6d7f26cae1aec703f69debb3fb9caf9082",
        ),
        (
            FAST + ["--strategy-a", "forgefull:k=8", "--strategy-b", "flipforge"],
            "e71a8fb6766c5d113dee9eef84029b6a006b51ab6dc782ee4b53388a1cf23360",
        ),
        (
            FAST + ["--strategy-a", "honest", "--strategy-b", "flipforge"],
            "01197c89ffedb5c7d949432590f910522546e27b58c63cf1c6eecd1c71d38c8e",
        ),
        (
            ["run", "--trials", "30", "--seed", "12345", "--M", "40",
             "--qubit-loss-prob", "1e-3"],
            "e0ebfd92f4948585b405ae5d2400df3569220697a8d29505c9a83484bbc519b5",
        ),
        (
            ["run", "--trials", "30", "--seed", "12345", "--M", "12", "--N1", "1",
             "--N2", "1", "--L", "10", "--source-state", "0011"],
            "fdbf7a90b0eee50be1efabf10d2189c92dab4d58ea21059190577054249df2df",
        ),
        (
            ["run", "--trials", "30", "--seed", "12345", "--M", "40",
             "--source-state", "0011", "--direction-policy", "fixed"],
            "2eb4ce4220f7cc2fe7546d155309920c7816198a2da8da18864170145a4b64eb",
        ),
        (
            ["run", "--trials", "30", "--seed", "12345", "--M", "40",
             "--qubit-loss-prob", "0.003"],
            "cc40ba726aa331d63981ecae5db3028c389a35d4b1b935b40091aa9d49e56cbe",
        ),
        (
            ["run", "--trials", "20", "--seed", "12345", "--M", "512", "--N1", "128",
             "--N2", "128", "--L", "256", "--qubit-loss-prob", "1e-4"],
            "880cfd62c7cbddaa6d8098cda83731137b9c5c3d0d5ec1d6934c403adad27c0c",
        ),
        (
            LONG + ["--strategy-a", "honest", "--strategy-b", "honest"],
            "0c3f55695dcea66c37f146723577aafc4330d638b8ca1b0f1eae2cd5899c9a6c",
        ),
        (
            LONG + ["--strategy-a", "split:n=3", "--strategy-b", "honest"],
            "6643cf365fe4ecda9c87c2c29765156171e3344e8cae933fa1d7573f92959cda",
        ),
        (
            LONG + ["--strategy-a", "forgefull:k=8", "--strategy-b", "flipforge"],
            "a6bb5a234c4c985d2d3cee292a80058f2e4c288db9c834f06898dfcd7ecb41d2",
        ),
        (
            LONG + ["--strategy-a", "honest", "--strategy-b", "flipforge"],
            "c637a89769f0201eb361ffcb3ed3b45527a76821e049654247b76d57304fb891",
        ),
        (
            SHORT + ["--L", "16", "--strategy-a", "forgefull:k=50",
                     "--strategy-b", "flipforge:k=50"],
            "2cd7669d0efde1fc0c7c16ab607d3efd51cf2d821c50fb866559a36662d55810",
        ),
        (
            SHORT + ["--L", "16", "--strategy-a", "split:n=50"],
            "1e36765c5049a3f574106213a0f76d985118ebec0615236a93efb0eaa897b5fd",
        ),
        (
            SHORT + ["--L", "17", "--min-fraction", "0", "--strategy-b", "flipforge"],
            "be43f1ebe514d9871a7955c238af4fd2b42483ba5a4c0e4d12eda7078ce88542",
        ),
        (
            SHORT + ["--L", "17", "--min-fraction", "1"],
            "64ef23d3c91c3a11b96c282fcb79a6626bce741960599faf0c3cc7aa225340d2",
        ),
        # 0.5 * 5/24 * 48 is 5 exactly: B must accept a claim of 5 entries
        (
            ["run", "--trials", "200", "--seed", "1", "--L", "48"],
            "412caf68923b15b4b8181f386b4631c09fdfb522767cc9213f466404afb3805b",
        ),
        # 2,000 one-round subsets of a product source along random directions
        (
            ["run", "--trials", "2000", "--seed", "7", "--M", "12", "--N1", "1",
             "--N2", "1", "--L", "10", "--source-state", "0110"],
            "340df2391cefc9710679c1a9b9e12d00c326a845bcf4947d67086497d106d62a",
        ),
    ]
    IDS = ["honest-honest", "split-honest", "forgefull-flipforge", "honest-flipforge",
           "distribute-loss", "distribute-product-source", "distribute-fixed-policy",
           "distribute-lossy", "distribute-M512", "honest-honest-L4096",
           "split-honest-L4096", "forgefull-flipforge-L4096", "honest-flipforge-L4096",
           "forgefull-flipforge-capped-L16", "split-capped-L16",
           "honest-flipforge-odd-L17", "honest-too-short-L17", "honest-boundary-L48",
           "distribute-product-source-random"]

    @pytest.mark.parametrize("args, digest", CASES, ids=IDS)
    def test_result_file_digest(self, tmp_path, capsys, args, digest):
        out = tmp_path / "run.ndjson"
        assert cli_main(args + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_failure_records_did_not_move(self, tmp_path, capsys, case):
        args, _ = dict(zip(self.IDS, self.CASES))[case]
        out = tmp_path / "run.ndjson"
        assert cli_main(args + ["--out", str(out)]) == 0
        failures = [line for line in out.read_bytes().splitlines() if b'"FAILURE"' in line]
        assert failures
        assert hashlib.sha256(b"\n".join(failures)).hexdigest() == self.FAILURES[case]

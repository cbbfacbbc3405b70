import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as scipy_stats

from liarsim import runner
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
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(M=512, N1=128, N2=128, L=256)
        base.update(kwargs)
        with pytest.raises(ValueError):
            TrialConfig(**base)


class TestTrialRng:
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


def too_short_tail(L: int, min_fraction: float = 0.5) -> float:
    """Exact P(Bin(L, 5/24) < ceil(min_fraction * 5L/24)).

    An honest claim lists every double (m, m), K ~ Bin(L, 5/24) positions,
    and B rejects it TOO_SHORT exactly when K < min_fraction * 5L/24.
    """
    p = Fraction(5, 24)
    required = math.ceil(min_fraction * 5 * L / 24)
    return float(sum(math.comb(L, k) * p**k * (1 - p) ** (L - k) for k in range(required)))


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


class TestAggregate:
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

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            TrialStats(
                trials=2,
                verdict_counts={"CONSISTENT": 1},
                detection_rate=0.0,
                wilson_low=0.0,
                wilson_high=1.0,
                escape_rate_b=None,
                escape_rate_stage1=None,
                escape_rate_stage2=None,
                mean_claim_length=None,
                mean_forwarded_length=None,
                mean_list_length=None,
            )

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
    """

    FAST = ["run", "--trials", "200", "--seed", "12345", "--L", "64"]
    LONG = ["run", "--trials", "12", "--seed", "12345", "--L", "4096"]

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                FAST + ["--strategy-a", "honest", "--strategy-b", "honest"],
                "9c63d48a44ba5d90f9fbd64cd8726f9855e6ce4a39ea500e173826335e3c3ef5",
            ),
            (
                FAST + ["--strategy-a", "split:n=3", "--strategy-b", "honest"],
                "884699420bae5c122585bd7621ff340ddb728285fd4feac59c4d262142b83d43",
            ),
            (
                FAST + ["--strategy-a", "forgefull:k=8", "--strategy-b", "flipforge"],
                "84bbefcd768d9e92922f8068b65b12b77718a226d20a875f065fac02963da68e",
            ),
            (
                FAST + ["--strategy-a", "honest", "--strategy-b", "flipforge"],
                "7da1037328ef79db0764c37eb265effc72e834cbd7a787fd5ca520d6e168f18b",
            ),
            (
                ["run", "--trials", "30", "--seed", "12345", "--M", "40",
                 "--qubit-loss-prob", "1e-3"],
                "c8947d460d304c427432a52be7b1a4e79429f6f0201102d97dfae4230e7a0862",
            ),
            (
                ["run", "--trials", "30", "--seed", "12345", "--M", "12", "--N1", "1",
                 "--N2", "1", "--L", "10", "--source-state", "0011"],
                "d6cb0576f48a3be49367733d78588a3cd050158fd8271cb780bd749a835770ef",
            ),
            (
                ["run", "--trials", "30", "--seed", "12345", "--M", "40",
                 "--source-state", "0011", "--direction-policy", "fixed"],
                "9604d9db2ef1af256b9eb1e891c2fc225b110afefdd1bc71dac380eb8f79853e",
            ),
            (
                ["run", "--trials", "30", "--seed", "12345", "--M", "40",
                 "--qubit-loss-prob", "0.003"],
                "8d524f123b7722ecc2fb082e8b87bf84a0a96df629bbfc0351eceba210ac98ff",
            ),
            (
                ["run", "--trials", "20", "--seed", "12345", "--M", "512", "--N1", "128",
                 "--N2", "128", "--L", "256", "--qubit-loss-prob", "1e-4"],
                "a91443fb50860288796a986eba3db0e5097eb30e0c6679de847fabe9e5e93a91",
            ),
            (
                LONG + ["--strategy-a", "honest", "--strategy-b", "honest"],
                "b90a54315e62e7269981f2d221f3ceb4f8cecc2f3c3631568ef3eb5d9a4dceb0",
            ),
            (
                LONG + ["--strategy-a", "split:n=3", "--strategy-b", "honest"],
                "7156ccb1c015a844393b22ceaa4111fa36cb35b943f95608473519477c7d4e74",
            ),
            (
                LONG + ["--strategy-a", "forgefull:k=8", "--strategy-b", "flipforge"],
                "091abb2741b903cd6f95f872663314d5edb8f0a22f267aa7217a4e4b787e8bfa",
            ),
            (
                LONG + ["--strategy-a", "honest", "--strategy-b", "flipforge"],
                "e17ef03545f8a4d16432837f16da1df6cd9a13b8f8f964c137191c0d8c49dce6",
            ),
        ],
        ids=["honest-honest", "split-honest", "forgefull-flipforge", "honest-flipforge",
             "distribute-loss", "distribute-product-source", "distribute-fixed-policy",
             "distribute-lossy", "distribute-M512", "honest-honest-L4096",
             "split-honest-L4096", "forgefull-flipforge-L4096", "honest-flipforge-L4096"],
    )
    def test_result_file_digest(self, tmp_path, capsys, args, digest):
        out = tmp_path / "run.ndjson"
        assert cli_main(args + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

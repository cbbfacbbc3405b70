"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import run
from checks import check_batch, pooled_problems
from harness import ROOT, WORKLOADS, batch_seed, import_liarsim, run_batch
from tracer import self_times

liarsim = import_liarsim()
ESCAPE = liarsim.oracle.escape_probabilities()
HONEST = {"L": 64, "strategy_a": "honest", "strategy_b": "honest"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_runs_tiny_untraced(name, tmp_path):
    workload = WORKLOADS[name].tiny()
    report = run.measure_untraced(liarsim, workload, 1, 0, tmp_path)
    check = report["check"]
    assert check["correct"], check["problems"]
    assert check["failed"] == 0
    assert check["attempted"] == 2 * len(workload.batches)
    assert set(report["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in report["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_runs_tiny_traced(name, tmp_path):
    workload = WORKLOADS[name].tiny()
    report = run.measure_traced(liarsim, workload, 1, 0, tmp_path)
    assert report["check"]["correct"], report["check"]["problems"]
    metrics = report["metrics"]
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["runner.run_single_trial.samples"] == 2 * len(workload.batches)
    if name.startswith("fastpath"):
        assert metrics["qstate.measure_qubits.calls_per_trial"] == 0
        assert metrics["channels.transfer_qubits.calls_per_trial"] == 0
        assert metrics["qstate.sample_outcomes.calls_per_trial"] == 1
        assert metrics["adversary.parse_calls_per_trial"] >= 2
    else:
        assert metrics["distribute_test.make_verified_pool.calls_per_trial"] == 0
        assert metrics["qstate.measure_qubits.calls_per_trial"] > 0
        assert metrics["distribute_test.test_rounds_per_trial"] > 0


def test_tracer_is_removed_after_a_traced_run(tmp_path):
    original = liarsim.channels.measure_qubits
    run.measure_traced(liarsim, WORKLOADS["fastpath-mix-L64"].tiny(), 1, 0, tmp_path)
    assert liarsim.channels.measure_qubits is original


def _rewrite_trial(path: Path, index: int, **changes) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[index])
    record.update(changes)
    lines[index] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("verdict", ["A_IS_LIAR", "B_IS_LIAR"])
def test_forged_conviction_of_an_honest_party_is_a_failure(verdict, tmp_path):
    batch = run_batch(liarsim, HONEST, 5, 7, tmp_path / "out.ndjson")
    assert check_batch(batch, ESCAPE).failed == 0
    _rewrite_trial(batch.path, 2, verdict=verdict)
    result = check_batch(batch, ESCAPE)
    assert (result.attempted, result.failed) == (5, 1)
    assert "convicted" in result.problems[0]


def test_framed_honest_a_is_not_a_failure_unless_a_forgery_was_caught(tmp_path):
    params = dict(HONEST, strategy_b="flipforge")
    batch = run_batch(liarsim, params, 5, 7, tmp_path / "out.ndjson")
    records = [json.loads(line) for line in batch.path.read_text().splitlines()]
    forged = records[1]["forged_for_stage2"]
    _rewrite_trial(batch.path, 1, verdict="A_IS_LIAR", forged_passing_stage2=forged)
    result = check_batch(batch, ESCAPE)
    assert (result.failed, result.tallies["framings"]) == (0, 1)
    _rewrite_trial(batch.path, 1, forged_passing_stage2=forged - 1)
    assert check_batch(batch, ESCAPE).failed == 1


def test_a_real_framing_is_accepted_and_counted(tmp_path):
    # trial 242 of batch 83 of seed 31 on fastpath-mix-L64: B forged 13
    # entries and all survived, a (5/12)^13 event that convicts honest A
    params = dict(HONEST, strategy_b="flipforge")
    seed = batch_seed(31, "fastpath-mix-L64", 83)
    batch = run_batch(liarsim, params, 243, seed, tmp_path / "out.ndjson")
    record = json.loads(batch.path.read_text().splitlines()[242])
    assert record["verdict"] == "A_IS_LIAR"
    result = check_batch(batch, ESCAPE)
    assert (result.failed, result.tallies["framings"]) == (0, 1)


def test_consistent_verdict_must_deliver_m_ab(tmp_path):
    batch = run_batch(liarsim, HONEST, 20, 7, tmp_path / "out.ndjson")
    records = [json.loads(line) for line in batch.path.read_text().splitlines()]
    index = next(k for k, r in enumerate(records) if r.get("verdict") == "CONSISTENT")
    _rewrite_trial(batch.path, index, delivered=1 - records[index]["m_AB"])
    assert check_batch(batch, ESCAPE).failed == 1


def test_batch_that_exits_non_zero_fails_all_its_trials(tmp_path):
    batch = run_batch(liarsim, dict(HONEST, strategy_a="bogus"), 5, 7, tmp_path / "out.ndjson")
    assert batch.exit_code == 2
    result = check_batch(batch, ESCAPE)
    assert (result.attempted, result.failed) == (5, 5)


def test_truncated_file_fails_all_its_trials(tmp_path):
    batch = run_batch(liarsim, HONEST, 5, 7, tmp_path / "out.ndjson")
    lines = batch.path.read_text().splitlines()
    batch.path.write_text("\n".join(lines[1:]) + "\n")
    assert check_batch(batch, ESCAPE).failed == 5


def test_escape_rate_check_flags_a_biased_rate():
    fair = Counter(fabricated_for_b=20000, fabricated_passing_b=10000)
    biased = Counter(fabricated_for_b=20000, fabricated_passing_b=9000)
    assert pooled_problems(fair, ESCAPE) == []
    assert len(pooled_problems(biased, ESCAPE)) == 1


def test_framing_count_must_fit_its_exact_chance():
    assert pooled_problems(Counter(framings=1, framing_mean=0.1), ESCAPE) == []
    assert len(pooled_problems(Counter(framings=6, framing_mean=0.1), ESCAPE)) == 1


def test_self_time_subtracts_direct_children():
    spans = {
        "start": np.array([0.0, 1.0, 2.0, 6.0]),
        "end": np.array([10.0, 5.0, 3.0, 8.0]),
        "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
    }
    assert self_times(spans).tolist() == [4.0, 3.0, 1.0, 2.0]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_command_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fastpath-mix-L64",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fastpath-mix-L64",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

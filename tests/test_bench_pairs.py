"""The summary step of ``tools/bench_pairs.py``, on recorded pairs.

The script runs ``bench/run.py`` in subprocesses and only measures, so
Tier-1 runs none of it but the arithmetic that turns pairs into medians,
quartiles and wins; it is loaded by file path, as ``tools/`` is no package.
"""
import importlib.util
import json
from pathlib import Path

import pytest

PAIRS_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_pairs_module():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PAIRS = load_pairs_module()

# five recorded (parent, change) trials_per_s pairs; the fourth is a tie
RECORDED = [(100.0, 110.0), (104.0, 108.0), (96.0, 99.0), (102.0, 102.0), (98.0, 112.0)]


def test_trials_per_s_summary_counts_a_tie_as_no_win():
    summary = PAIRS.summarize(RECORDED, "higher")
    # parent sorted 96, 98, 100, 102, 104; change sorted 99, 102, 108, 110, 112
    assert summary["parent_median"] == 100.0 and summary["change_median"] == 108.0
    assert summary["parent_quartiles"] == [98.0, 102.0]
    assert summary["change_quartiles"] == [102.0, 110.0]
    assert summary["parent_iqr"] == 4.0
    assert summary["wins"] == 4 and summary["pairs"] == 5
    assert summary["median_change_frac"] == pytest.approx(0.08)
    assert summary["parent"] == [100.0, 104.0, 96.0, 102.0, 98.0]


def test_lower_is_better_counts_the_other_way():
    summary = PAIRS.summarize(RECORDED, "lower")
    assert summary["wins"] == 0  # the tie is no win either way
    flipped = PAIRS.summarize([(after, before) for before, after in RECORDED], "lower")
    assert flipped["wins"] == 4


def test_quartiles_interpolate_between_sorted_values():
    assert PAIRS.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert PAIRS.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_run_is_read_from_its_report_file():
    # the shape bench/run.py writes to bench/out/<workload>.trace0.json
    report = {
        "check": {
            "correct": True, "attempted": 1000, "failed": 0, "problems": [],
            "stream_digest": "d966e234", "tallies": {"framings": 0},
        },
        "metrics": {"trials_per_s": 13952.0, "setup_s": 0.09, "peak_rss_mb": 41.2},
        "wall": {"trials_per_s": 14100.0},
        "meta": {
            "git_sha": "c6c64a1", "source_sha256": "9686", "python": "3.11.7",
            "numpy": "2.4.6", "cpu_model": "x86-64", "nproc": 2, "seed": 1,
            "workload": "fastpath-mix-L64", "stream_digest": "d966e234",
        },
    }
    assert PAIRS.read_report(report, ["trials_per_s", "setup_s"]) == {
        "correct": True, "attempted": 1000, "failed": 0, "stream_digest": "d966e234",
        "metrics": {"trials_per_s": 13952.0, "setup_s": 0.09},
        "meta": {
            "git_sha": "c6c64a1", "source_sha256": "9686", "python": "3.11.7",
            "numpy": "2.4.6", "cpu_model": "x86-64", "nproc": 2,
        },
    }


def test_workloads_length_and_directions_come_from_the_benchmark():
    spec = json.loads((PAIRS.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench = PAIRS.load_benchmark()
    assert bench["seconds"] == spec["run_seconds"]
    assert bench["workloads"] == [workload["name"] for workload in spec["workloads"]]
    assert bench["better"] == {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    assert set(bench["better"].values()) <= {"higher", "lower"}

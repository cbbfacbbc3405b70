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


# twenty recorded cold-import seconds of one tree, in run order
RECORDED_IMPORTS = [
    0.0262, 0.0241, 0.0249, 0.0301, 0.0238, 0.0244, 0.0251, 0.0247, 0.0236, 0.0259,
    0.0243, 0.0240, 0.0366, 0.0245, 0.0248, 0.0239, 0.0242, 0.0250, 0.0246, 0.0237,
]


def test_cold_import_summary_is_median_min_and_max():
    summary = PAIRS.import_summary(RECORDED_IMPORTS)
    # sorted, the tenth and eleventh values are 0.0245 and 0.0246
    assert summary["median_s"] == pytest.approx(0.02455)
    assert (summary["min_s"], summary["max_s"]) == (0.0236, 0.0366)
    assert summary["runs"] == 20 and summary["samples_s"] == RECORDED_IMPORTS


def test_workloads_length_and_directions_come_from_the_benchmark():
    spec = json.loads((PAIRS.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench = PAIRS.load_benchmark()
    assert bench["seconds"] == spec["run_seconds"]
    assert bench["workloads"] == [workload["name"] for workload in spec["workloads"]]
    assert bench["better"] == {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    assert set(bench["better"].values()) <= {"higher", "lower"}


# the last lines of a recorded Tier-1 run with one failure, as pytest -q prints them
RECORDED_TAIL = """\
criterion 11: PASS  runner files identical: True, cli files identical: True
=========================== short test summary info ============================
FAILED tests/test_liar_protocol.py::TestThresholds::test_validation - Failed: DID NOT RAISE
1 failed, 996 passed in 31.20s
"""


@pytest.mark.parametrize(
    "tail, summary",
    [
        (RECORDED_TAIL, "1 failed, 996 passed in 31.20s"),
        ("997 passed in 30.49s\n", "997 passed in 30.49s"),
        ("== 3 failed, 994 passed, 2 warnings in 75.21s (0:01:15) ==\n",
         "3 failed, 994 passed, 2 warnings in 75.21s (0:01:15)"),
        ("ERROR: file or directory not found: tests\nno tests ran in 0.01s\n", None),
    ],
    ids=["failures", "all-passed", "in-rule", "none"],
)
def test_the_tier1_summary_line_is_read_from_pytest_output(tail, summary):
    assert PAIRS.summary_line(tail) == summary


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_fewer_than_one_pair_is_refused_when_parsed(pairs, capsys):
    with pytest.raises(SystemExit) as exited:
        PAIRS.parse_args(["--parent", "p", "--change", "c", "--out", "o", "--pairs", pairs])
    assert exited.value.code == 2
    assert f"must be at least 1, got {int(pairs)}" in capsys.readouterr().err
    assert PAIRS.parse_args(["--parent", "p", "--change", "c", "--out", "o", "--pairs", "1"]).pairs == 1

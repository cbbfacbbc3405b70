"""Alternating before/after pairs of ``bench/run.py``, written to one JSON file.

    python tools/bench_pairs.py --parent DIR --change DIR --out FILE [--pairs 10]

``DIR`` is a source tree (a git clone or a scratch copy) holding its own
``bench/run.py`` and ``src/liarsim``. The workloads, the run length and the
end-to-end metrics with their directions are read from this repo's
``BENCHMARK.json``. Each run is that tree's ``bench/run.py``, unchanged, in a
subprocess started in the tree, at seed 1 and ``--trace 0``; what it measured
is read from the report it writes to ``DIR/bench/out/<workload>.trace0.json``.
For each workload the script makes one discarded warm-up run of the change,
then ``--pairs`` pairs; which tree runs first alternates from pair to pair,
the parent first in pair 0. Every run uses seed 1, so the two trees' stream
digests are equal exactly when the change keeps every result byte.

The file holds, per workload, every run's metrics, ``correct``, ``failed``
and ``stream_digest``, and per metric both trees' medians and quartiles,
the change's wins out of k and the parent's IQR; plus, per tree, the run
metadata of its first report (git SHA, source digest, Python and numpy
versions, CPU model) and whether its files differ from its git commit.
It only measures: it sets no bound and decides nothing.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
# the fields of a report's meta that identify a tree and the machine
TREE_META = ("git_sha", "source_sha256", "python", "numpy", "cpu_model", "nproc")


def load_benchmark(path: Path = ROOT / "BENCHMARK.json") -> dict:
    """The run length, the workload names and each end-to-end metric's
    better direction, as the benchmark declares them."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {
        "seconds": spec["run_seconds"],
        "workloads": [workload["name"] for workload in spec["workloads"]],
        "better": {metric["name"]: metric["better"] for metric in spec["end_to_end"]},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by linear interpolation
    between the sorted values (numpy's default percentile rule)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """One metric's summary over ``(parent, change)`` pairs: both trees'
    medians and quartiles, the change's relative move in the median, the
    pairs where the change is strictly better (a tie is no win), and the
    parent's interquartile range."""
    parent = [before for before, _ in pairs]
    change = [after for _, after in pairs]
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": p_median,
        "parent_quartiles": [p_q1, p_q3],
        "change_median": c_median,
        "change_quartiles": [c_q1, c_q3],
        "median_change_frac": (c_median - p_median) / p_median if p_median else None,
        "wins": sum(sign * (after - before) > 0 for before, after in pairs),
        "pairs": len(pairs),
        "parent_iqr": p_q3 - p_q1,
    }


def read_report(report: dict, metrics) -> dict:
    """One run's record from its ``bench/run.py`` report: the verdict, the
    stream digest and the named metrics' values, with the tree's meta."""
    check = report["check"]
    return {
        "correct": check["correct"],
        "attempted": check["attempted"],
        "failed": check["failed"],
        "stream_digest": check["stream_digest"],
        "metrics": {name: report["metrics"][name] for name in metrics},
        "meta": {key: report["meta"][key] for key in TREE_META},
    }


def run_bench(tree: Path, workload: str, bench: dict) -> dict:
    """One untraced ``bench/run.py`` run of ``tree``; a run that exits
    non-zero or writes no report is recorded as such, with its stderr."""
    report_path = tree / "bench" / "out" / f"{workload}.trace0.json"
    report_path.unlink(missing_ok=True)  # never read an earlier run's report
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(bench["seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0 or not report_path.is_file():
        return {"correct": False, "exit_code": done.returncode, "stderr": done.stderr[-2000:]}
    report = json.loads(report_path.read_text(encoding="utf-8"))
    return read_report(report, bench["better"]) | {"exit_code": 0}


def git_dirty(tree: Path) -> bool | None:
    """Whether the tree's files differ from its checked-out commit, or None
    outside a git checkout; ``bench/run.py`` records the SHA, not this."""
    done = subprocess.run(
        ["git", "status", "--porcelain"], cwd=tree, capture_output=True, text=True
    )
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def measure(trees: dict[str, Path], workload: str, bench: dict, pairs: int, meta: dict) -> dict:
    """The warm-up run and ``pairs`` alternating pairs of one workload, and
    each end-to-end metric's summary over the pairs; the meta of each
    tree's first report goes into ``meta``."""
    def run(name: str) -> dict:
        record = run_bench(trees[name], workload, bench)
        for key, value in record.pop("meta", {}).items():
            meta[name].setdefault(key, value)
        return record

    warm_up = run("change")
    recorded = []
    for index in range(pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        runs = {name: run(name) for name in order}
        recorded.append({"first": order[0], **runs})
        print(workload, index, {name: record.get("metrics") for name, record in runs.items()},
              file=sys.stderr, flush=True)
    measured = [pair for pair in recorded if "metrics" in pair["parent"] and "metrics" in pair["change"]]
    summary = {
        metric: summarize(
            [(pair["parent"]["metrics"][metric], pair["change"]["metrics"][metric])
             for pair in measured],
            better,
        )
        for metric, better in bench["better"].items()
    } if measured else {}
    return {"warm_up": warm_up, "pairs": recorded, "summary": summary}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bench = load_benchmark()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    meta = {name: {"dirty": git_dirty(tree)} for name, tree in trees.items()}
    result = {
        "meta": {
            "trees": meta,
            "seed": SEED,
            "seconds": bench["seconds"],
            "pairs": args.pairs,
            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        },
        "workloads": {},
    }
    for workload in bench["workloads"]:
        result["workloads"][workload] = measure(trees, workload, bench, args.pairs, meta)
        # written after each workload, so an interrupted run keeps the workloads it finished
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

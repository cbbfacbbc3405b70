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
versions, CPU model), whether its files differ from its git commit, the
median, minimum and maximum of 20 cold ``import liarsim`` wall times, and
one run of its Tier-1 verify command after all pairs (exit code, wall
seconds and pytest's summary line). It only measures: it sets no bound
and decides nothing.

A cold import is one fresh interpreter, started after the last one ended,
that reads and writes no bytecode (``PYTHONDONTWRITEBYTECODE=1`` and an
empty ``PYTHONPYCACHEPREFIX`` directory), so it compiles every module it
loads, as the benchmark's set-up does with liarsim's. The trees take
turns. Only ``import liarsim`` is timed: numpy, which every tree imports
alike and which an empty cache would make take some 0.4 s, is imported
first.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
# the fields of a report's meta that identify a tree and the machine
TREE_META = ("git_sha", "source_sha256", "python", "numpy", "cpu_model", "nproc")
# the Tier-1 verify command, run in a tree with its src/ first on PYTHONPATH
TIER1 = (sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors")
# pytest's closing tally, "1 failed, 996 passed in 31.20s (0:00:31)", inside its = rule
SUMMARY_LINE = re.compile(r"=* ?((?:\d+ \w+, )*\d+ \w+ in [\d.]+s(?: \([\d:]+\))?) ?=*")
IMPORT_RUNS = 20
# run in a tree: its src/ first on sys.path, numpy untimed, then one timed import
IMPORT_PROGRAM = """
import os, sys, time
sys.path.insert(0, os.path.abspath("src"))
import numpy
started = time.perf_counter()
import liarsim
elapsed = time.perf_counter() - started
if not liarsim.__file__.startswith(sys.path[0] + os.sep):
    raise ImportError(f"liarsim imported from {liarsim.__file__}")
print(elapsed)
"""


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


def summary_line(output: str) -> str | None:
    """The last pytest summary line in ``output``, without its ``=`` rule, or None."""
    for line in reversed(output.splitlines()):
        if match := SUMMARY_LINE.fullmatch(line.strip()):
            return match.group(1)
    return None


def run_tier1(tree: Path) -> dict:
    """One run of the tree's Tier-1 verify command: its exit code, wall
    seconds and summary line."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(
        TIER1, cwd=tree, env=os.environ | {"PYTHONPATH": path}, capture_output=True, text=True
    )
    wall_s = round(time.perf_counter() - start, 2)
    return {"exit_code": done.returncode, "wall_s": wall_s, "summary": summary_line(done.stdout)}


def cold_import_seconds(tree: Path) -> float:
    """One cold ``import liarsim`` from ``tree``'s ``src/``, in seconds."""
    with tempfile.TemporaryDirectory() as prefix:
        env = os.environ | {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": prefix}
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROGRAM], cwd=tree, env=env,
            capture_output=True, text=True, check=True,
        )
    return float(done.stdout)


def import_summary(samples: list[float]) -> dict:
    """The median, minimum and maximum of one tree's cold-import seconds."""
    return {
        "runs": len(samples), "median_s": statistics.median(samples),
        "min_s": min(samples), "max_s": max(samples), "samples_s": samples,
    }


def cold_imports(trees: dict[str, Path], runs: int = IMPORT_RUNS) -> dict[str, dict]:
    """``runs`` cold imports of each tree, one interpreter at a time, the
    trees taking turns, summarized per tree."""
    samples = {name: [] for name in trees}
    for _ in range(runs):
        for name, tree in trees.items():
            samples[name].append(cold_import_seconds(tree))
    return {name: import_summary(values) for name, values in samples.items()}


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


def at_least_one(text: str) -> int:
    """``--pairs``: a count of pairs, so 0 or fewer would summarize nothing."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=at_least_one, default=10)
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
    for name, summary in cold_imports(trees).items():
        meta[name]["cold_import"] = summary
        print(name, "cold import median", summary["median_s"], file=sys.stderr, flush=True)
    for workload in bench["workloads"]:
        result["workloads"][workload] = measure(trees, workload, bench, args.pairs, meta)
        # written after each workload, so an interrupted run keeps the workloads it finished
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for name, tree in trees.items():
        meta[name]["tier1"] = run_tier1(tree)
        print(name, "tier1", meta[name]["tier1"], file=sys.stderr, flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

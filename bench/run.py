"""liarsim benchmark: trials per second per workload, layer costs when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same batches untraced and then traced, half the
time each, and reports the per-layer metrics plus the tracing overhead. Either way the
result files are checked after the timed region, a report with run
metadata goes to ``bench/out/<workload>.trace<T>.json`` (spans to
``bench/out/<workload>.spans.npz``), and the last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import check_run
from harness import ROOT, SRC, WORKLOADS, import_liarsim, normalized_rate, run_segment, setup_seconds, warm_up
from tracer import Tracer, layer_metrics

OUT = Path(__file__).resolve().parent / "out"
SETUP_SAMPLES = 9

END_TO_END_UNITS = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "runner.run_single_trial.ms_p50": "ms",
    "runner.run_single_trial.ms_p90": "ms",
    "runner.run_single_trial.samples": "count",
    "runner.run_single_trial.self_ms": "ms/trial",
    "runner.format_records.ms": "ms/trial",
    "runner.result_bytes_per_trial": "B/trial",
    "adversary.parse_calls_per_trial": "calls/trial",
    "adversary.strategy_A_act.self_ms": "ms/trial",
    "adversary.strategy_B_act.self_ms": "ms/trial",
    "liar_protocol.generate_lists.self_ms": "ms/trial",
    "liar_protocol.run_liar_protocol.self_ms": "ms/trial",
    "liar_protocol.b_accepts.self_ms": "ms/trial",
    "liar_protocol.c_adjudicate.self_ms": "ms/trial",
    "liar_protocol.c_adjudicate.calls_per_trial": "calls/trial",
    "distribute_test.make_verified_pool.self_ms": "ms/trial",
    "distribute_test.make_verified_pool.calls_per_trial": "calls/trial",
    "distribute_test.run_distribute_and_test.self_ms": "ms/trial",
    "distribute_test.test_rounds_per_trial": "rounds/trial",
    "distribute_test.abort_frac": "ratio",
    "distribute_test.pool_yield": "ratio",
    "channels.transfer_qubits.self_ms": "ms/trial",
    "channels.transfer_qubits.calls_per_trial": "calls/trial",
    "channels.measure_slots.self_ms": "ms/trial",
    "channels.qubits_lost_per_trial": "qubits/trial",
    "qstate.measure_qubits.self_ms": "ms/trial",
    "qstate.measure_qubits.calls_per_trial": "calls/trial",
    "qstate.sample_outcomes.calls_per_trial": "calls/trial",
    "trace.overhead_frac": "ratio",
}


def batch_log(batches) -> list[list]:
    """[seed, trials, wall s, reference kernel s, exit code] of every batch."""
    return [[b.seed, b.trials, b.wall_s, b.ref_s, b.exit_code] for b in batches]


def wall_rate(batches) -> float:
    return sum(b.trials for b in batches) / sum(b.wall_s for b in batches)


def measure_untraced(liarsim, workload, seed: int, seconds: float, tmp: Path) -> dict:
    setup = setup_seconds(workload, SETUP_SAMPLES)
    warm_up(liarsim, workload, tmp)
    batches = run_segment(liarsim, workload, seed, seconds, tmp)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check = check_run(batches, liarsim.oracle, len(workload.batches))
    metrics = {
        "trials_per_s": normalized_rate(batches),
        "setup_s": statistics.median(normalized for _, normalized in setup),
        "peak_rss_mb": peak_kib / 1024,
    }
    wall = {
        "trials_per_s": wall_rate(batches),
        "setup_s": statistics.median(elapsed for elapsed, _ in setup),
    }
    return {
        "metrics": metrics,
        "wall": wall,
        "check": check,
        "setup_samples_s": setup,
        "batches": batch_log(batches),
    }


def measure_traced(liarsim, workload, seed: int, seconds: float, tmp: Path) -> dict:
    warm_up(liarsim, workload, tmp)
    (tmp / "plain").mkdir()
    (tmp / "traced").mkdir()
    plain = run_segment(liarsim, workload, seed, seconds / 2, tmp / "plain")
    tracer = Tracer()
    tracer.install(liarsim)
    try:
        traced = run_segment(liarsim, workload, seed, seconds / 2, tmp / "traced")
    finally:
        tracer.restore()
    result_bytes = sum(b.path.stat().st_size for b in traced if b.path.exists())
    first_round = len(workload.batches)
    check = check_run(plain, liarsim.oracle, first_round)
    traced_check = check_run(traced, liarsim.oracle, first_round)
    for key in ("attempted", "failed"):
        check[key] += traced_check[key]
    check["problems"] += traced_check["problems"]
    check["correct"] = check["correct"] and traced_check["correct"]
    if traced_check["stream_digest"] != check["stream_digest"]:
        check["correct"] = False
        check["problems"].append("tracing changed the result files")
    # span times are rescaled by the traced segment's mean machine speed
    speed = sum(b.normalized_s for b in traced) / sum(b.wall_s for b in traced)
    wall = layer_metrics(tracer, result_bytes)
    metrics = {
        name: value * speed if PER_LAYER_UNITS[name].startswith("ms") else value
        for name, value in wall.items()
    }
    metrics["trace.overhead_frac"] = 1 - normalized_rate(traced) / normalized_rate(plain)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{workload.name}.spans.npz")
    return {
        "metrics": metrics,
        "wall": wall,
        "check": check,
        "batches": batch_log(plain + traced),
    }


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "liarsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(liarsim, args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "liarsim": str(Path(liarsim.__file__).parent),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        liarsim = import_liarsim()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    measure = measure_traced if args.trace else measure_untraced
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        report = measure(liarsim, workload, args.seed, args.seconds, Path(tmp))
    check = report["check"]
    report["meta"] = metadata(liarsim, args) | {"stream_digest": check["stream_digest"]}
    (OUT / f"{workload.name}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": report["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(f"# {workload.name} seed={args.seed} trace={args.trace} batches={len(report['batches'])}")
    for name, entry in metrics.items():
        print(f"{name:52s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{'failed_frac':52s} {check['failed'] / check['attempted']:>14.6g} ratio")
    print(f"{'stream_digest':52s} {check['stream_digest']}")
    for problem in check["problems"]:
        print(f"problem: {problem}")
    print(
        json.dumps(
            {
                "correct": check["correct"],
                "attempted": check["attempted"],
                "failed": check["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

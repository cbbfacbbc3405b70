"""Spans around liarsim's public functions, recorded from outside ``src/``.

Each wrapper replaces a function under the name its caller looks it up
by (``liarsim.runner.generate_lists``, ``liarsim.channels.measure_qubits``
and so on), so the package itself is unchanged. A span keeps its name,
start, end, parent span and trial id in compact arrays in memory; they
are written out once, when the run ends.
"""
from __future__ import annotations

import array
import functools
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute the caller looks up, span name as layer.function)
TRACED = (
    ("runner", "run_single_trial", "runner.run_single_trial"),
    ("runner", "format_records", "runner.format_records"),
    ("runner", "parse_strategy_A", "adversary.parse_strategy_A"),
    ("runner", "parse_strategy_B", "adversary.parse_strategy_B"),
    ("runner", "make_verified_pool", "distribute_test.make_verified_pool"),
    ("runner", "run_distribute_and_test", "distribute_test.run_distribute_and_test"),
    ("runner", "generate_lists", "liar_protocol.generate_lists"),
    ("runner", "run_liar_protocol", "liar_protocol.run_liar_protocol"),
    # run_liar_protocol imports these from the module on every call
    ("adversary", "strategy_A_act", "adversary.strategy_A_act"),
    ("adversary", "strategy_B_act", "adversary.strategy_B_act"),
    ("liar_protocol", "b_accepts", "liar_protocol.b_accepts"),
    ("liar_protocol", "c_adjudicate", "liar_protocol.c_adjudicate"),
    ("liar_protocol", "sample_outcomes", "qstate.sample_outcomes"),
    ("distribute_test", "transfer_qubits", "channels.transfer_qubits"),
    ("channels.QuantumSystem", "measure_slots", "channels.measure_slots"),
    ("channels", "measure_qubits", "qstate.measure_qubits"),
)


class Tracer:
    """Install with ``install(liarsim)``; undo with ``restore()``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.trial = array.array("i")
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._trial = -1
        self.trials = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self, liarsim) -> None:
        for owner_path, attr, name in TRACED:
            owner = liarsim
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            self._wrap(owner, attr, name, _COUNTERS.get(name))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, owner, attr: str, name: str, count) -> None:
        original = getattr(owner, attr)
        name_id = len(self.names)
        self.names.append(name)
        starts_trial = name == "runner.run_single_trial"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if starts_trial:
                self._trial = self.trials
                self.trials += 1
            span = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._open[-1] if self._open else -1)
            self.trial.append(self._trial)
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(span)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[span] = time.perf_counter()
                self.start[span] = started
                self._open.pop()
                if starts_trial:
                    self._trial = -1
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trial": np.frombuffer(self.trial, dtype=np.int32),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _count_distribute(counts: Counter, args, outcome) -> None:
    counts["distribute_runs"] += 1
    counts["test_rounds"] += len(outcome.test_records)
    plan = args[0]
    if outcome.failure is None:
        counts["systems_prepared"] += plan.M
        counts["pool_delivered"] += len(outcome.pool)
    else:
        counts["aborts"] += 1
        # a step-ii abort stops preparing at the system that lost a qubit
        stopped = outcome.failure.step == "ii"
        counts["systems_prepared"] += outcome.failure.system_id if stopped else plan.M


def _count_transfer(counts: Counter, args, records) -> None:
    counts["qubits_lost"] += sum(r.status.name == "LOST" for r in records)


_COUNTERS = {
    "distribute_test.run_distribute_and_test": _count_distribute,
    "channels.transfer_qubits": _count_transfer,
}


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    nested = spans["parent"] >= 0
    children = np.bincount(
        spans["parent"][nested], weights=duration[nested], minlength=duration.size
    )
    return duration - children


def layer_metrics(tracer: Tracer, result_bytes: int) -> dict[str, float]:
    """Per-layer figures per trial, from the spans and counters of one run."""
    spans = tracer.arrays()
    duration = spans["end"] - spans["start"]
    own = self_times(spans)
    trials = max(tracer.trials, 1)
    ids = {name: k for k, name in enumerate(tracer.names)}

    def calls(name: str) -> int:
        return int(np.count_nonzero(spans["name"] == ids[name]))

    def self_ms(name: str) -> float:
        return float(own[spans["name"] == ids[name]].sum()) * 1e3 / trials

    trial_ms = duration[spans["name"] == ids["runner.run_single_trial"]] * 1e3
    p50, p90 = np.percentile(trial_ms, [50, 90]) if trial_ms.size else (0.0, 0.0)
    c = tracer.counts
    runs = c["distribute_runs"]
    return {
        "runner.run_single_trial.ms_p50": float(p50),
        "runner.run_single_trial.ms_p90": float(p90),
        "runner.run_single_trial.samples": trial_ms.size,
        "runner.run_single_trial.self_ms": self_ms("runner.run_single_trial"),
        "runner.format_records.ms": float(
            duration[spans["name"] == ids["runner.format_records"]].sum()
        )
        * 1e3
        / trials,
        "runner.result_bytes_per_trial": result_bytes / trials,
        "adversary.parse_calls_per_trial": (
            calls("adversary.parse_strategy_A") + calls("adversary.parse_strategy_B")
        )
        / trials,
        "adversary.strategy_A_act.self_ms": self_ms("adversary.strategy_A_act"),
        "adversary.strategy_B_act.self_ms": self_ms("adversary.strategy_B_act"),
        "liar_protocol.generate_lists.self_ms": self_ms("liar_protocol.generate_lists"),
        "liar_protocol.run_liar_protocol.self_ms": self_ms("liar_protocol.run_liar_protocol"),
        "liar_protocol.b_accepts.self_ms": self_ms("liar_protocol.b_accepts"),
        "liar_protocol.c_adjudicate.self_ms": self_ms("liar_protocol.c_adjudicate"),
        "liar_protocol.c_adjudicate.calls_per_trial": calls("liar_protocol.c_adjudicate") / trials,
        "distribute_test.make_verified_pool.self_ms": self_ms("distribute_test.make_verified_pool"),
        "distribute_test.make_verified_pool.calls_per_trial": calls(
            "distribute_test.make_verified_pool"
        )
        / trials,
        "distribute_test.run_distribute_and_test.self_ms": self_ms(
            "distribute_test.run_distribute_and_test"
        ),
        "distribute_test.test_rounds_per_trial": c["test_rounds"] / trials,
        "distribute_test.abort_frac": c["aborts"] / runs if runs else 0.0,
        "distribute_test.pool_yield": (
            c["pool_delivered"] / c["systems_prepared"] if c["systems_prepared"] else 0.0
        ),
        "channels.transfer_qubits.self_ms": self_ms("channels.transfer_qubits"),
        "channels.transfer_qubits.calls_per_trial": calls("channels.transfer_qubits") / trials,
        "channels.measure_slots.self_ms": self_ms("channels.measure_slots"),
        "channels.qubits_lost_per_trial": c["qubits_lost"] / trials,
        "qstate.measure_qubits.self_ms": self_ms("qstate.measure_qubits"),
        "qstate.measure_qubits.calls_per_trial": calls("qstate.measure_qubits") / trials,
        "qstate.sample_outcomes.calls_per_trial": calls("qstate.sample_outcomes") / trials,
    }

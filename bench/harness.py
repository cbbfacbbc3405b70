"""Workload definitions and the closed loop that runs their batches.

Every batch is one ``liarsim.cli.main(["run", ..., "--out", FILE])``
call, the code path behind ``liarsim run --out``. Batches run back to
back in this process, one client and no threads, in whole rounds of the
workload's batch mix until the requested time has passed. Fixed
reference work timed between batches, and between set-up samples,
rescales the times to one machine speed, because the speed of a shared
machine drifts by more than the changes worth measuring.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_liarsim():
    """Import liarsim from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "liarsim"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"liarsim sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import liarsim
    import liarsim.cli

    if Path(liarsim.__file__).resolve().parent != package.resolve():
        raise ImportError(f"liarsim imported from {liarsim.__file__}, not {package}")
    return liarsim


@dataclass(frozen=True)
class Workload:
    """A batch mix: each batch is ``trials`` trials of one TrialConfig."""

    name: str
    why: str
    trials: int
    batches: tuple[dict, ...]

    def tiny(self) -> "Workload":
        """The same mix at two trials per batch, for tests."""
        return replace(self, trials=2)


def _mix(L: int) -> tuple[dict, ...]:
    return tuple(
        {"L": L, "strategy_a": a, "strategy_b": b}
        for a, b in (
            ("honest", "honest"),
            ("split:n=3", "honest"),
            ("forgefull:k=8", "flipforge"),
            ("honest", "flipforge"),
        )
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fastpath-mix-L64",
            "fault-free shortcut at L=64: fixed per-trial cost (RNG, parsing, "
            "messages, adjudication, records) dominates; every verdict path",
            trials=250,
            batches=_mix(64),
        ),
        Workload(
            "fastpath-mix-L4096",
            "fault-free shortcut at L=4096: per-position cost (pool objects, "
            "list scan) dominates, so O(L) changes show here and not on L64",
            trials=12,
            batches=_mix(4096),
        ),
        Workload(
            "distribute-M512",
            "full distribute-and-test at M=512 with loss 1e-4: state-vector "
            "measurement and qubit transfer dominate; loss and abort paths run",
            trials=4,
            batches=(
                {
                    "M": 512,
                    "N1": 128,
                    "N2": 128,
                    "L": 256,
                    "strategy_a": "honest",
                    "strategy_b": "honest",
                    "direction_policy": "random",
                    "qubit_loss_prob": 1e-4,
                },
            ),
        ),
    )
}


# Seconds one reference_kernel() call takes on a quiet run of the machine
# the baseline was measured on; normalized times are expressed in it.
REFERENCE_S = 0.007


class _Holder:
    def __init__(self, ident: int, state: np.ndarray) -> None:
        self.ident = ident
        self.state = state
        self.lost: set[int] = set()
        self.log: list[str] = []


@dataclass(frozen=True)
class _Entry:
    ident: int
    code: int
    holder: _Holder


def reference_kernel() -> int:
    """Fixed work shaped like liarsim trials, for measuring machine speed.

    Seeded generators, small-array sampling, a four-qubit rotation, tuple
    building and sorted JSON records, then a pool-like tuple of small
    objects. It shares no code with liarsim, so a change to the program
    cannot change it.
    """
    rotation = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    size = 0
    for j in range(12):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=12345, spawn_key=(j,)))
        codes = rng.integers(0, 2, size=64)
        cum = np.cumsum(rng.random(16))
        cum[-1] = 1.0
        drawn = np.searchsorted(cum, rng.random(64), side="right")
        positions = tuple(int(x) for x in np.flatnonzero(drawn % 3 == 0) + 1)
        amps = rng.random(16).astype(complex).reshape(2, 2, 2, 2)
        for axis in range(4):
            amps = np.moveaxis(np.tensordot(rotation, amps, axes=([1], [axis])), 0, axis)
        record = {f"k{i}": (i if i % 3 else None) for i in range(18)}
        record.update(positions=len(positions), codes=int(codes.sum()), amp=float(abs(amps).sum()))
        size += len(json.dumps(record, sort_keys=True))
    state = np.zeros(16)
    pool = tuple(_Entry(k, k & 1, _Holder(k, state)) for k in range(1500))
    return size + sum(1 for entry in pool if not entry.holder.log and entry.holder.state is state)


def reference_seconds() -> float:
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


def batch_seed(seed: int, workload: str, index: int) -> int:
    """The 64-bit master seed of batch ``index``, fixed by the bench seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def cli_args(params: dict, trials: int, seed: int, out: Path) -> list[str]:
    args = ["run", "--trials", str(trials), "--seed", str(seed)]
    for key, value in params.items():
        flag = key if key in ("M", "N1", "N2", "L") else key.replace("_", "-")
        args += [f"--{flag}", str(value)]
    return args + ["--out", str(out)]


@dataclass
class Batch:
    index: int
    params: dict
    trials: int
    seed: int
    path: Path
    wall_s: float
    exit_code: int | None  # None when main() raised
    error: str = ""
    ref_s: float = REFERENCE_S  # reference kernel time around this batch

    @property
    def normalized_s(self) -> float:
        """Wall time rescaled to the machine speed REFERENCE_S stands for."""
        return self.wall_s * REFERENCE_S / self.ref_s


def run_batch(
    liarsim, params: dict, trials: int, seed: int, path: Path, index: int = 0
) -> Batch:
    """One ``liarsim run --out`` call; its stdout is captured and dropped."""
    argv = cli_args(params, trials, seed, path)
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = liarsim.cli.main(argv)
        except Exception as exc:  # a crashing batch is a failed batch
            code, message = None, repr(exc)
        else:
            message = ""
    wall = time.perf_counter() - started
    return Batch(index, params, trials, seed, path, wall, code, message or err.getvalue())


def run_segment(
    liarsim, workload: Workload, seed: int, seconds: float, out_dir: Path
) -> list[Batch]:
    """Issue whole rounds of the batch mix back to back for ``seconds``.

    At least one round always runs, so the first round (whose files
    give the stream digest) is complete in every run. The reference
    kernel is timed between batches; each batch keeps the mean of the
    timings on either side of it.
    """
    batches: list[Batch] = []
    started = time.perf_counter()
    before = reference_seconds()
    while not batches or time.perf_counter() - started < seconds:
        for params in workload.batches:
            index = len(batches)
            batch = run_batch(
                liarsim,
                params,
                workload.trials,
                batch_seed(seed, workload.name, index),
                out_dir / f"batch{index:05d}.ndjson",
                index,
            )
            after = reference_seconds()
            batch.ref_s = (before + after) / 2
            before = after
            batches.append(batch)
    return batches


def normalized_rate(batches: list[Batch]) -> float:
    """Trials per normalized second over all batches."""
    return sum(b.trials for b in batches) / sum(b.normalized_s for b in batches)


def warm_up(liarsim, workload: Workload, out_dir: Path) -> None:
    """One small untimed round so lazy imports and caches are settled."""
    for k, params in enumerate(workload.batches):
        run_batch(liarsim, params, 2, k, out_dir / "warmup.ndjson")
    (out_dir / "warmup.ndjson").unlink(missing_ok=True)


_SETUP_PROGRAM = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, {src!r})
import liarsim
configs = [liarsim.TrialConfig.build(trials={trials}, **params) for params in {batches!r}]
print(time.perf_counter() - started)
"""

# The reference for set-up: a fresh interpreter importing numpy alone,
# which is most of liarsim's import and tracks the machine's import speed.
_REFERENCE_IMPORT = """
import time
started = time.perf_counter()
import numpy
print(time.perf_counter() - started)
"""

# Seconds the reference import takes on a quiet run of the baseline machine.
REFERENCE_IMPORT_S = 0.065


def _fresh_interpreter_seconds(program: str) -> float:
    done = subprocess.run(
        [sys.executable, "-c", program],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds(workload: Workload, samples: int) -> list[tuple[float, float]]:
    """Fresh-interpreter time to import liarsim and build the configs.

    Returns (wall, normalized) seconds per sample. Reference imports run
    between the samples; each sample is normalized by the mean of the two
    around it. One unrecorded sample first compiles bytecode, which users
    pay once.
    """
    program = _SETUP_PROGRAM.format(
        src=str(SRC), trials=workload.trials, batches=list(workload.batches)
    )
    times = []
    before = _fresh_interpreter_seconds(_REFERENCE_IMPORT)
    for _ in range(samples + 1):
        elapsed = _fresh_interpreter_seconds(program)
        after = _fresh_interpreter_seconds(_REFERENCE_IMPORT)
        times.append((elapsed, elapsed * REFERENCE_IMPORT_S * 2 / (before + after)))
        before = after
    return times[1:]

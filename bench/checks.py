"""Output checks on the result files, run after the timed region.

A trial fails when its batch raised or exited non-zero, when its file is
missing or malformed, or when its own record breaks a protocol
guarantee. The pooled per-entry escape rates and the number of framings
are checked against the exact oracle values once per run.

An honest party is never convicted except by a framing: the cheater's
forged entries all survive C's check, which the protocol allows with
probability (5/12)^k for k entries forged by B and (1/2)^k for k entries
altered by A. A record may convict an honest party only if it shows
such a framing, and the run may hold no more framings than those
probabilities allow.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from statistics import NormalDist

ESCAPE_COUNTS = (
    "fabricated_for_b",
    "fabricated_passing_b",
    "altered_for_c",
    "altered_passing_c",
    "forged_for_stage2",
    "forged_passing_stage2",
)

# 99.9% confidence for the whole family of pooled checks a full set of
# benchmark runs makes (at most 256: four per run), so a correct program
# fails one in fewer than one campaign in a thousand.
POOLED_ALPHA = 0.001 / 256
ESCAPE_Z = NormalDist().inv_cdf(1 - POOLED_ALPHA / 2)


@dataclass
class BatchCheck:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    tallies: Counter = field(default_factory=Counter)
    sha256: str = ""


# A verdict against an honest party is a framing only when every entry
# the other party forged for C survived: (forged count, survivors,
# oracle's per-entry survival chance).
FRAMING = {
    "A_IS_LIAR": ("forged_for_stage2", "forged_passing_stage2", "p_fake_entry_passes_C_vs_lA"),
    "B_IS_LIAR": ("altered_for_c", "altered_passing_c", "p_fake_double_passes_C"),
}


def honest_victim(honest_a: bool, honest_b: bool) -> str | None:
    """The verdict that would convict the honest party of a one-cheater batch."""
    if honest_a != honest_b:
        return "A_IS_LIAR" if honest_a else "B_IS_LIAR"
    return None


def all_forged_survived(record: dict, verdict: str) -> bool:
    forged, survived, _ = FRAMING[verdict]
    return record.get(forged, 0) > 0 and record.get(survived) == record[forged]


def trial_problem(record: dict, index: int, honest_a: bool, honest_b: bool) -> str | None:
    """Why one trial record is wrong, or None if it passes."""
    if record.get("record") != "trial" or record.get("trial") != index:
        return f"expected trial record {index}"
    verdict = record.get("verdict")
    if record.get("failure_step") == "vii":
        return "an honest singlet source failed the step-vii pattern check"
    if verdict is None and record.get("distribute_status") != "FAILURE":
        return "no verdict without a distribute failure"
    if (honest_a and verdict == "A_IS_LIAR") or (honest_b and verdict == "B_IS_LIAR"):
        if verdict != honest_victim(honest_a, honest_b) or not all_forged_survived(record, verdict):
            return f"honest {verdict[0]} convicted"
    if honest_a and honest_b and verdict == "CONSISTENT" and record.get("delivered") != record.get("m_AB"):
        return "CONSISTENT verdict did not deliver m_AB"
    return None


def check_batch(batch, escape) -> BatchCheck:
    """Check one batch's result file; every trial of a broken batch fails.

    ``escape`` is ``liarsim.oracle.escape_probabilities()``.
    """
    n = batch.trials

    def broken(why: str) -> BatchCheck:
        return BatchCheck(n, n, [f"batch {batch.index}: {why}"])

    if batch.exit_code != 0:
        return broken(f"exit code {batch.exit_code}: {batch.error.strip()[:200]}")
    try:
        data = batch.path.read_bytes()
        records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    except (OSError, ValueError) as exc:
        return broken(f"unreadable result file: {exc}")
    summary = records[-1] if records else {}
    counts = summary.get("verdict_counts") if isinstance(summary, dict) else None
    if (
        len(records) != n + 1
        or not all(isinstance(record, dict) for record in records)
        or summary.get("record") != "summary"
        or summary.get("trials") != n
        or summary.get("config", {}).get("seed") != batch.seed
        or not isinstance(counts, dict)
        or not all(isinstance(count, int) for count in counts.values())
        or sum(counts.values()) != n
    ):
        return broken("file does not hold n trial records and a matching summary")

    result = BatchCheck(n, 0, sha256=hashlib.sha256(data).hexdigest())
    honest_a = batch.params["strategy_a"] == "honest"
    honest_b = batch.params["strategy_b"] == "honest"
    victim = honest_victim(honest_a, honest_b)
    for index, record in enumerate(records[:-1]):
        why = trial_problem(record, index, honest_a, honest_b)
        if why is None:
            result.tallies.update({key: record.get(key, 0) for key in ESCAPE_COUNTS})
            if victim is not None:
                forged, _, chance = FRAMING[victim]
                if record.get(forged, 0) > 0:
                    result.tallies["framing_mean"] += getattr(escape, chance) ** record[forged]
                result.tallies["framings"] += record.get("verdict") == victim
        else:
            result.failed += 1
            result.problems.append(f"batch {batch.index} trial {index}: {why}")
    return result


def wilson(successes: int, n: int, z: float) -> tuple[float, float]:
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


def poisson_upper(mean: float, alpha: float) -> int:
    """Smallest k with P(Poisson(mean) > k) <= alpha."""
    k, term = 0, math.exp(-mean)
    cdf = term
    while 1 - cdf > alpha:
        k += 1
        term *= mean / k
        cdf += term
    return k


def pooled_problems(tallies: Counter, escape) -> list[str]:
    """Pooled escape rates and framing counts that miss their exact values."""
    problems = []
    for passed, total, p in (
        ("fabricated_passing_b", "fabricated_for_b", escape.p_fake_entry_passes_B),
        ("altered_passing_c", "altered_for_c", escape.p_fake_double_passes_C),
        ("forged_passing_stage2", "forged_for_stage2", escape.p_fake_entry_passes_C_vs_lA),
    ):
        if tallies[total]:
            low, high = wilson(tallies[passed], tallies[total], ESCAPE_Z)
            if not low <= p <= high:
                problems.append(
                    f"{passed}/{total} = {tallies[passed]}/{tallies[total]} "
                    f"misses {p:.6f} (interval {low:.6f}..{high:.6f})"
                )
    limit = poisson_upper(tallies["framing_mean"], POOLED_ALPHA)
    if tallies["framings"] > limit:
        problems.append(
            f"{tallies['framings']} honest parties framed, more than the {limit} "
            f"allowed for an expected {tallies['framing_mean']:.3g}"
        )
    return problems


def check_run(batches, oracle, digest_batches: int) -> dict:
    """Check every batch; digest the first ``digest_batches`` result files."""
    attempted = failed = 0
    problems: list[str] = []
    tallies: Counter = Counter()
    digests = []
    escape = oracle.escape_probabilities()
    for batch in batches:
        result = check_batch(batch, escape)
        attempted += result.attempted
        failed += result.failed
        problems += result.problems
        tallies.update(result.tallies)
        if batch.index < digest_batches:
            digests.append(result.sha256)
    pooled = pooled_problems(tallies, escape)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not pooled,
        "problems": (problems + pooled)[:20],
        "tallies": dict(tallies),
        "stream_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
    }

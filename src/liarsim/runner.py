"""Trial runner: repeated distribute-and-test plus one liar-protocol round.

Each trial distributes and verifies a batch of four-qubit systems, then
plays the three-party exchange over the surviving pool under the
configured strategies. Results are aggregated into summary statistics
and optionally written as newline-delimited JSON records that are
byte-identical for a fixed seed.

Determinism contract: trial ``i`` draws from a stream derived from
``(seed, i)`` only, so records are independent of execution order, and
the result file contains no timestamps or timing data (wall-clock
figures go to stdout only). That stream is exactly numpy's
``PCG64(SeedSequence(entropy=seed, spawn_key=(i,)))``: numpy computes the
seed's pool once per seed, and ``trial_rng`` hashes PCG64's four seed
words for a block of 64 consecutive indices in one array pass, so a trial
only builds its generator from its block's row. A block depends on
``(seed, block)`` only, so neither the trial count nor the order of the
trials changes a record.

B's and C's checks in ``liar_protocol`` scan each payload once; the
escape tallies here index the lists with the strategies' own positions,
which are valid by construction, with no scan at all.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import operator
import os
import sys
import time
from collections import Counter
from json.encoder import encode_basestring_ascii
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from .adversary import parse_strategy_A, parse_strategy_B
from .distribute_test import (
    NO_FAULTS, DirectionPolicy, DistributionPlan, FaultModel, make_verified_pool,
    run_distribute_and_test,
)
from .liar_protocol import (
    Thresholds,
    VerdictValue,
    generate_lists,
    run_liar_protocol,
)
from .records import as_int, checked_record

_WILSON_Z = 1.959963984540054  # two-sided 95%

# json.dumps builds a new encoder per call for non-default options; one serves all
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)

# verdict names, built once: every run's counts read them
_VERDICT_NAMES = tuple(value.value for value in VerdictValue)
_DETECTION_VERDICTS = frozenset(
    VerdictValue[name].value for name in ("A_IS_LIAR", "B_IS_LIAR", "B_REJECTED_AT_STEP_III")
)


def resolve_sizes(
    M: int | None = None,
    N1: int | None = None,
    N2: int | None = None,
    L: int | None = None,
) -> DistributionPlan:
    """Fill in unspecified batch sizes around the invariant M = N1 + N2 + L.

    Defaults mirror the distribution plan: the two test subsets each take
    a quarter of the batch. Fully unspecified configs get L = 256. The
    given sizes are checked first, so an error names a size the caller set;
    the plan returned checks the rest.
    """
    given = zip(("M", "N1", "N2", "L"), (M, N1, N2, L))
    M, N1, N2, L = (value if value is None else as_int(name, value) for name, value in given)
    if M is None and L is None:
        L = 256
    if N1 is None and N2 is None:
        if L is None:  # M alone: the default plan split
            return DistributionPlan.default(M)
        # half the pool each, or half of what the pool leaves of M
        N1 = math.ceil((L if M is None else M - L) / 2)
    if N1 is None or N2 is None:  # mirror the given subset, or take the remainder
        known = N2 if N1 is None else N1
        other = known if M is None or L is None else M - L - known
        N1, N2 = (N1, other) if N2 is None else (other, N2)
    if M is None:
        M = N1 + N2 + L
    if L is None:
        L = M - N1 - N2
    return DistributionPlan(M, N1, N2, L)  # raises unless M = N1 + N2 + L, all parts >= 1


class TrialConfig(
    checked_record(
        "TrialConfig", seed=int, trials=int, M=int, N1=int, N2=int, L=int, strategy_a=str,
        strategy_b=str, qubit_loss_prob=float, source_state=str, min_fraction=float,
        direction_policy=str,
    )
):
    """Complete, validated description of one Monte-Carlo experiment.

    Construction also sets the validated collaborators every trial
    reuses: ``plan``, ``fault``, ``thresholds``, ``strategies`` (A's,
    B's) and the direction ``policy``. They are attributes, not fields,
    so they stay out of the summary record, and no attribute can be set.
    A size left as None, the default, is derived by ``resolve_sizes``, and
    each probability is stored as the plain float its collaborator checked
    (``records.probability``), so equal configs write equal files.
    """

    def __new__(
        cls, seed: int = 0, trials: int = 100, M: int | None = None, N1: int | None = None,
        N2: int | None = None, L: int | None = None, strategy_a: str = "honest",
        strategy_b: str = "honest", qubit_loss_prob: float = 0.0, source_state: str = "singlet",
        min_fraction: float = 0.5, direction_policy: str = "random",
    ) -> TrialConfig:
        plan = resolve_sizes(M, N1, N2, L)
        seed, trials = as_int("seed", seed), as_int("trials", trials)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        fault = FaultModel(qubit_loss_prob, source_state)
        thresholds = Thresholds(min_fraction)
        strategies = (parse_strategy_A(strategy_a), parse_strategy_B(strategy_b))
        policy = DirectionPolicy(direction_policy)
        # a DirectionPolicy member is kept as its string, as the CLI gives it
        self = super().__new__(
            cls, seed, trials, *plan, strategy_a, strategy_b, fault.qubit_loss_prob,
            source_state, thresholds.min_fraction, policy.value,
        )
        vars(self).update(
            plan=plan, fault=fault, thresholds=thresholds, strategies=strategies, policy=policy
        )
        return self

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: a config is read-only")

    __delattr__ = __setattr__

    build = classmethod(lambda cls, **kwargs: cls(**kwargs))  # the constructor's older name


class TrialResult(NamedTuple):
    """Flat per-trial record; ``_asdict()`` gives one result-file line's fields."""

    trial: int
    distribute_status: str
    failure_step: str | None = None
    verdict: str | None = None
    evidence_check: str | None = None
    m_AB: int | None = None
    m_AC: int | None = None
    m_BC: int | None = None
    delivered: int | None = None
    claim_length: int | None = None
    forwarded_length: int | None = None
    list_length: int | None = None
    fabricated_for_b: int = 0
    fabricated_passing_b: int = 0
    altered_for_c: int = 0
    altered_passing_c: int = 0
    forged_for_stage2: int = 0
    forged_passing_stage2: int = 0


class TrialStats(NamedTuple):
    """Aggregate statistics over one experiment's trials.

    ``verdict_counts`` buckets every trial, including an entry for runs
    aborted during distribute-and-test, so its values sum to ``trials``.
    Detection counts a trial once any party is rejected or convicted.
    ``mean_trial_seconds`` is measured wall-clock and is never written
    to result files. An internal record that ``aggregate`` makes, it
    checks nothing.
    """

    trials: int
    verdict_counts: dict[str, int]
    detection_rate: float
    wilson_low: float
    wilson_high: float
    escape_rate_b: float | None
    escape_rate_stage1: float | None
    escape_rate_stage2: float | None
    mean_claim_length: float | None
    mean_forwarded_length: float | None
    mean_list_length: float | None
    mean_trial_seconds: float = 0.0

    # two runs of one config compare equal whatever their timing read
    def __eq__(self, other) -> bool:
        return self[:-1] == other[:-1] if isinstance(other, TrialStats) else NotImplemented

    def __ne__(self, other) -> bool:
        return self[:-1] != other[:-1] if isinstance(other, TrialStats) else NotImplemented

    __hash__ = None  # verdict_counts is a dict, so no hash could be consistent


DISTRIBUTE_FAILURE = "DISTRIBUTE_FAILURE"

# How a trial reads its stream. 2: each list position is one integers(0, 24)
# draw of its assignment code and outcome cell, and no code is drawn before.
# 3: distribute-and-test draws only its first failure, one geometric per
# segment and one uniform to name its step (a fault-free run draws nothing).
# 4: a cheater draws its positions by random keys, not ``choice``
# (``adversary._draw_sorted``), and draws nothing to take all or none.
# 5: a fault-free trial reads only PCG64's raw words: its list cells (bytes
# below 240, ``liar_protocol.sample_outcomes``), A's bit and a cheater's keys.
STREAM_VERSION = 5

# the summary's statistics; timing, the last field, never enters the result file
_STATS_FIELDS = TrialStats._fields[:-1]


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score 95% confidence interval for a binomial proportion."""
    z = _WILSON_Z
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return (low, high)


# numpy's SeedSequence (numpy/random/bit_generator.pyx): numpy computes the
# seed's pool once per seed, and only the trials' index words and PCG64's
# four words are hashed here. ``hashmix``'s constant starts at INIT_A and is
# multiplied by MULT_A after each use, ``mix`` folds one word into another,
# and ``generate_state``'s constant starts at INIT_B and steps by MULT_B.
# No constant depends on the data. The hashes run in uint32 arrays, whose
# products wrap modulo 2**32 as SeedSequence's do.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# Trials are seeded a block at a time: a power of two, so a block's indices
# share every index word but the lowest, and a block never crosses 2**32.
_BLOCK = 64
_BLOCK_ROWS = np.arange(_BLOCK, dtype=np.uint32)[:, None]


def _words32(n: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first,
    at least one: how SeedSequence reads an integer."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(hc: int, count: int, mult: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``count`` successive xor and multiplier words of a hash constant that
    starts at ``hc`` and is multiplied by ``mult`` after each xor, and the
    constant after them."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(hc)
        hc = hc * mult & _MASK32
        mults.append(hc)
    return np.array(xors, np.uint32), np.array(mults, np.uint32), hc


def _mix_word(pool: np.ndarray, word, hc: int) -> tuple[np.ndarray, int]:
    """Mix one entropy word past the pool into every pool word, as
    SeedSequence's ``mix_entropy`` does: (new pool, hash constant after).
    A column of words gives a row of pool words per word."""
    xors, mults, hc = _hash_constants(hc, _POOL_SIZE, _MULT_A)
    hashed = (word ^ xors) * mults
    mixed = _MIX_MULT_L * pool - _MIX_MULT_R * (hashed ^ hashed >> 16)
    return mixed ^ mixed >> 16, hc


@functools.lru_cache(maxsize=8)
def _seed_pool(seed: int) -> tuple[np.ndarray, int]:
    """The pool of SeedSequence(entropy=seed, spawn_key=(i,)) before i's
    words are mixed in, and the hash constant reached: the same for every i.

    With a spawn key, the seed's words are padded with zeros to the pool
    size, as filling the pool does anyway, so that pool is SeedSequence(seed)'s
    own; building it used the hash constant four times per padded word.
    """
    from numpy.random import SeedSequence  # on first use, as in _bit_generator_types
    uses = _POOL_SIZE * max(_POOL_SIZE, len(_words32(seed)))
    return SeedSequence(seed).pool, _INIT_A * pow(_MULT_A, uses, 2**32) & _MASK32


# generate_state(4, np.uint64) hashes the pool words twice round into eight
# 32-bit words, paired low half first: the columns are ordered so that each
# row's bytes read as those four native uint64 words.
_STATE_ORDER = np.arange(2 * _POOL_SIZE)
if sys.byteorder == "big":
    _STATE_ORDER ^= 1
_STATE_XORS, _STATE_MULTS, _ = _hash_constants(_INIT_B, 2 * _POOL_SIZE, _MULT_B)
_STATE_XORS, _STATE_MULTS = _STATE_XORS[_STATE_ORDER], _STATE_MULTS[_STATE_ORDER]
_STATE_POOL_WORDS = _STATE_ORDER % _POOL_SIZE


@functools.lru_cache(maxsize=4)
def _block_words(seed: int, block: int) -> np.ndarray:
    """PCG64's four seed words for each trial of one block of ``seed``'s
    indices, one read-only uint64 row per trial: the lowest index word is a
    column, and any higher words are mixed in as scalars."""
    pool, hc = _seed_pool(seed)
    low, *high = _words32(block * _BLOCK)
    pool, hc = _mix_word(pool, _BLOCK_ROWS + low, hc)
    for word in high:
        pool, hc = _mix_word(pool, word, hc)
    hashed = (pool.take(_STATE_POOL_WORDS, axis=1) ^ _STATE_XORS) * _STATE_MULTS
    words = (hashed ^ hashed >> 16).view(np.uint64)
    words.flags.writeable = False
    return words


class _PCG64Seed:
    """numpy's ``ISeedSequence`` interface over the four 64-bit words a
    SeedSequence would hand PCG64: it serves PCG64's one request only."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("only PCG64's generate_state(4, np.uint64) is served")
        return self.words


@functools.cache
def _bit_generator_types() -> tuple[type, type]:
    """PCG64 and Generator, with ``_PCG64Seed`` registered as an
    ``ISeedSequence``: on first use, so importing liarsim does not load
    ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PCG64Seed)
    return np.random.PCG64, np.random.Generator


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """The stream for one trial, derived only from (seed, trial_index).

    Exactly ``default_rng(SeedSequence(entropy=seed, spawn_key=(trial_index,)))``,
    the same PCG64 state, built without a per-trial SeedSequence: numpy
    computes the seed's pool once per seed, and PCG64's four seed words are
    hashed for a block of 64 consecutive indices in one array pass, kept
    for the last few blocks, so a trial only builds its PCG64 from its row.
    Negative values raise ValueError, as SeedSequence does. The generator's
    ``seed_seq`` serves PCG64's seeding only, so it cannot ``spawn``.
    """
    # int keys: a float seed equal to a cached one would otherwise hit it
    trial_index = operator.index(trial_index)
    if trial_index < 0:
        raise ValueError(f"expected non-negative integer, got {trial_index}")
    block, row = divmod(trial_index, _BLOCK)
    words = _block_words(operator.index(seed), block)[row]
    pcg64, generator = _bit_generator_types()
    return generator(pcg64(_PCG64Seed(words)))


def _escape_counts(lists, a_action, b_action) -> tuple[int, int, int, int, int, int]:
    """Per-entry survival counts for each kind of fabricated entry, in
    ``TrialResult`` field order: fabricated for B and passing B, altered
    for C and passing C, forged for stage 2 and passing it. The strategies
    make every position valid, so each indexes its list as it is."""
    fabricated_for_b = fabricated_passing_b = altered_for_c = altered_passing_c = 0
    forged_for_stage2 = forged_passing_stage2 = 0
    fabricated = a_action.fabricated_positions
    if fabricated.size:
        # a fabricated double (m, m) survives where B's bit reads 1 - m
        fabricated_for_b = fabricated.size
        fabricated_passing_b = int(np.count_nonzero(lists.b_bits[fabricated - 1] != a_action.m_AB))
    altered = a_action.altered_positions
    if altered.size:
        # each altered entry is a double of m_AC in the list C receives,
        # which survives exactly where C's bit reads 1 - m_AC
        altered_for_c = altered.size
        altered_passing_c = int(np.count_nonzero(lists.c_bits[altered - 1] == 1 - a_action.m_AC))
    if b_action is not None and b_action.fabricated_positions.size:
        # a forged position survives where A's full list holds (m_BC, m_BC)
        forged = b_action.fabricated_positions
        forged_for_stage2 = forged.size
        forged_passing_stage2 = int(
            np.count_nonzero(a_action.l_AC[forged - 1] == 2 * b_action.m_BC)
        )
    return (
        fabricated_for_b, fabricated_passing_b, altered_for_c, altered_passing_c,
        forged_for_stage2, forged_passing_stage2,
    )


def run_single_trial(config: TrialConfig, trial_index: int) -> TrialResult:
    """Play one full trial on the stream derived from (seed, trial_index)."""
    rng = trial_rng(config.seed, trial_index)
    fault = config.fault

    if fault == NO_FAULTS:
        # run_distribute_and_test draws nothing for a fault-free run and
        # returns a pool of this size and source (tests hold it so); calling
        # the pool builder skips its call cost on every fault-free trial
        pool = make_verified_pool(config.L)
    else:
        outcome = run_distribute_and_test(
            config.plan, fault, rng, direction_policy=config.policy
        )
        if outcome.failure is not None:
            return TrialResult(trial_index, "FAILURE", outcome.failure.step)
        pool = outcome.pool

    lists = generate_lists(pool, rng)
    strategy_a, strategy_b = config.strategies
    result = run_liar_protocol(
        lists, strategy_a, strategy_b, thresholds=config.thresholds, rng=rng
    )
    a_action, b_action = result.a_action, result.b_action
    # positional, in field order: a keyword build costs several times more
    return TrialResult(
        trial_index,
        "SUCCESS",
        None,
        result.verdict.value.value,
        result.verdict.check,
        a_action.m_AB,
        a_action.m_AC,
        None if b_action is None else b_action.m_BC,
        result.delivered_message,
        a_action.positions_for_B.size,
        None if b_action is None else b_action.forwarded.size,
        lists.length,
        *_escape_counts(lists, a_action, b_action),
    )


def _ratio(numer: int, denom: int) -> float | None:
    return None if denom == 0 else numer / denom


def _mean(values: tuple[int | None, ...]) -> float | None:
    """The mean of the entries that are not None; None if every one is."""
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def aggregate(
    results: list[TrialResult], mean_trial_seconds: float = 0.0
) -> TrialStats:
    """Reduce per-trial records to summary statistics.

    Every figure here is a pure function of the records, so the emitted
    summary can be recomputed exactly from the result file.
    """
    # one pass over the records transposes them: column.x holds every trial's x
    column = TrialResult._make(list(zip(*results)) or [()] * len(TrialResult._fields))
    tally = Counter(column.verdict)
    counts = {name: tally[name] for name in _VERDICT_NAMES}
    counts[DISTRIBUTE_FAILURE] = tally[None]  # an aborted trial has no verdict
    detected = sum(counts[v] for v in _DETECTION_VERDICTS)
    completed = len(results) - counts[DISTRIBUTE_FAILURE]
    rate = detected / completed if completed else 0.0
    low, high = wilson_interval(detected, completed)
    return TrialStats(
        trials=len(results),
        verdict_counts=counts,
        detection_rate=rate,
        wilson_low=low,
        wilson_high=high,
        escape_rate_b=_ratio(sum(column.fabricated_passing_b), sum(column.fabricated_for_b)),
        escape_rate_stage1=_ratio(sum(column.altered_passing_c), sum(column.altered_for_c)),
        escape_rate_stage2=_ratio(
            sum(column.forged_passing_stage2), sum(column.forged_for_stage2)
        ),
        mean_claim_length=_mean(column.claim_length),
        mean_forwarded_length=_mean(column.forwarded_length),
        mean_list_length=_mean(column.list_length),
        mean_trial_seconds=mean_trial_seconds,
    )


def _summary_record(config: TrialConfig, stats: TrialStats) -> dict:
    # each field by name, its value shared: the encoder only reads it
    record = dict(zip(_STATS_FIELDS, stats))
    return {
        "record": "summary", "stream_version": STREAM_VERSION, "config": config._asdict(), **record
    }


# The line ``_ENCODER`` writes for {"record": "trial", **r._asdict()}, with
# a %s for each field's JSON: its keys sorted, its default separators.
_TRIAL_KEYS = sorted(("record",) + TrialResult._fields)
_TRIAL_LINE = "{%s}" % ", ".join(
    encode_basestring_ascii(key) + ": " + ('"trial"' if key == "record" else "%s")
    for key in _TRIAL_KEYS
)
_TRIAL_FIELDS = operator.itemgetter(
    *(TrialResult._fields.index(key) for key in _TRIAL_KEYS if key != "record")
)


def _trial_line(r: TrialResult) -> str:
    """One trial's result-file line, exactly as ``_ENCODER`` writes it.

    None and exact ints are written directly; everything else must be a
    str, and ``encode_basestring_ascii`` raises TypeError for a bool,
    float or numpy value rather than write it differently.
    """
    return _TRIAL_LINE % tuple(
        [
            "null" if v is None else str(v) if type(v) is int else encode_basestring_ascii(v)
            for v in _TRIAL_FIELDS(r)
        ]
    )


def format_records(config: TrialConfig, results: list[TrialResult], stats: TrialStats) -> str:
    """Render the result file: one record per line, summary last.

    Keys are sorted and trials appear in index order, so the bytes are a
    pure function of the config.
    """
    lines = [_trial_line(r) for r in sorted(results, key=lambda r: r.trial)]
    lines.append(_ENCODER.encode(_summary_record(config, stats)))
    return "\n".join(lines) + "\n"


def run_trials(config: TrialConfig, out_path: str | None = None) -> TrialStats:
    """Run every trial, aggregate, and optionally write the result file.

    The result file is created before the first trial, so an unwritable
    ``out_path`` fails at once, and it appears at ``out_path`` only whole.
    """
    with _whole_file(out_path) as handle:
        started = time.perf_counter()
        results = [run_single_trial(config, i) for i in range(config.trials)]
        elapsed = time.perf_counter() - started
        stats = aggregate(results, mean_trial_seconds=elapsed / config.trials)
        if handle is not None:
            handle.write(format_records(config, results, stats).encode("utf-8"))
    return stats


@contextlib.contextmanager
def _whole_file(path: str | None) -> Iterator[BinaryIO | None]:
    """A binary temporary file beside ``path`` that replaces it in one rename.

    The rename happens only when the block completes; otherwise the
    temporary file is deleted and ``path`` is left as it was. Yields
    None when ``path`` is None.
    """
    if path is None:
        yield None
        return
    directory, name = os.path.split(os.path.abspath(path))
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    handle = open(temporary, "wb")
    try:
        with handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def summarize_to_text(stats: TrialStats) -> str:
    """Human-readable digest for stdout (the only place timing appears)."""
    nonzero = {k: v for k, v in stats.verdict_counts.items() if v}
    lines = [
        f"trials: {stats.trials}",
        f"verdicts: {nonzero}",
        (
            f"detection rate: {stats.detection_rate:.4f} "
            f"(95% CI {stats.wilson_low:.4f}..{stats.wilson_high:.4f})"
        ),
    ]
    for label, value in (
        ("per-entry escape vs B", stats.escape_rate_b),
        ("per-entry escape stage 1", stats.escape_rate_stage1),
        ("per-entry escape stage 2", stats.escape_rate_stage2),
    ):
        if value is not None:
            lines.append(f"{label}: {value:.4f}")
    if stats.mean_claim_length is not None:
        lines.append(f"mean claim length: {stats.mean_claim_length:.2f}")
    if stats.mean_forwarded_length is not None:
        lines.append(f"mean forwarded length: {stats.mean_forwarded_length:.2f}")
    lines.append(f"mean seconds per trial: {stats.mean_trial_seconds:.6f}")
    return "\n".join(lines)

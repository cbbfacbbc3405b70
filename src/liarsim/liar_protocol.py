"""Liar-detection protocol: list generation, message exchange, adjudication.

One round of messaging works over lists harvested from the verified
pool: every party measures its own qubits of each system along a common
direction, leaving A with a list of unordered bit-pairs and B and C with
bit lists whose doubles are perfectly anticorrelated with A's. A then
sends her message to B together with the positions where it appears
doubled; B checks that claim against his own list before forwarding it
to C; C, on receiving conflicting messages, convicts whichever party's
data fails its consistency check, and the verdict names that check.
"""
from __future__ import annotations

import enum
from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

from . import adversary
from .distribute_test import VerifiedPool
from .oracle import EXPECTED_DOUBLE_FRACTION, list_cells
from .qstate import checked_record, in_unit_interval, readonly_array

_WORDS, _IDENTITY, _HIGH = np.dtype("<u8"), bytes(range(256)), bytes(range(240, 256))


@cache
def _party_tables(source_state: str) -> tuple[bytes, bytes, bytes]:
    """The named source's three 256-byte tables, A's, B's and C's, built
    once per name: byte v reads ``oracle.list_cells``' entry v % 24."""
    return tuple(bytes(column[:256]) for column in zip(*(list_cells(source_state) * 11)))


# the one list draw, under the name ``bench/tracer.py`` times
def sample_outcomes(size: int, rng: np.random.Generator) -> bytes:
    """``size`` independent list positions as bytes in 0..239, each equally
    likely: v % 24 is ``12 * code + cell``, a 50/50 assignment code and one
    of the law's 12 cells, 1/12 each.

    The cells are the bytes below 240, in order, of PCG64's raw words read
    little-endian: W(L) = ceil((L + ceil(L/8) + 16) / 8) words, then two
    more at a time while fewer than L bytes survive (at W(L) a chance below
    2e-9 at every L, the most at L = 192). W(L) is part of the stream.
    """
    raw = rng.bit_generator.random_raw
    words, cells = -(-(size + -(-size // 8) + 16) // 8), b""
    while len(cells) < size:
        cells += raw(words).astype(_WORDS, copy=False).tobytes().translate(_IDENTITY, _HIGH)
        words = 2
    return cells[:size]


class PartyLists(NamedTuple):
    """The three private lists of one protocol run.

    A's unordered pairs are stored as their count of 1s (0, 1, or 2);
    positions are 1-based everywhere. The lists are nonempty, equally
    long, read-only 1-D int8 arrays of 0..2 (A's) and 0..1 (B's and C's):
    ``generate_lists`` reads each off its party's 256-byte table, and
    ``TestProducerInvariants`` in ``tests/test_liar_protocol.py`` holds it
    to that; nothing here checks it. The doubles correlation (a (0,0) pair
    faces 1 at B and C, a (1,1) pair faces 0) is a law of the singlet
    source, and a corrupted source that passed testing by chance breaks it.
    """

    a_ones: np.ndarray
    b_bits: np.ndarray
    c_bits: np.ndarray

    @property
    def length(self) -> int:
        return self.a_ones.size


def generate_lists(pool: VerifiedPool, rng: np.random.Generator) -> PartyLists:
    """Measure every pool system along the computational basis, one draw each.

    Every pool system holds the untouched source the pool names, and which
    two of its slots A holds is first read here, so each position is one
    uniform draw of its assignment code and a cell of the source's law in
    twelfths, one byte of ``sample_outcomes``. Each party's list is those
    bytes translated through its 256-byte table in one pass, read in place.
    """
    size = len(pool)
    if size == 0:
        raise ValueError("cannot generate lists from an empty pool")
    cells, tables = sample_outcomes(size, rng), _party_tables(pool.source_state)
    return PartyLists(*[np.frombuffer(cells.translate(table), np.int8) for table in tables])


# --------------------------------------------------------------------------
# Payload checks


def _integer_prefix(values) -> tuple[np.ndarray, bool]:
    """The leading run of integer entries (bools are not integers here), and
    whether it is all of ``values``. A non-integer array has no such run,
    and an array that is not 1-D is never all of it, even when empty. A
    sequence's run is read as exact ints: int64 even where it mixes uint64
    with int64 (numpy would make that float64), object beyond int64."""
    if isinstance(values, np.ndarray):
        if values.ndim == 1 and values.dtype.kind in "iu":
            return values, True
        return np.empty(0, np.int64), values.ndim == 1 and values.size == 0
    try:
        items = list(values)
    except TypeError:
        return np.empty(0, np.int64), False
    ints = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, np.integer)):
            break
        ints.append(int(item))
    try:
        return np.array(ints, dtype=np.int64), len(ints) == len(items)
    except OverflowError:
        return np.array(ints, dtype=object), len(ints) == len(items)


def _scan_positions(claimed, length: int) -> tuple[np.ndarray, int | None]:
    """``claimed`` as an array, and its first entry that is not a strictly
    increasing position in 1..length, where a non-integer entry reads as 0."""
    positions, complete = _integer_prefix(claimed)
    # a valid claim has no entry to name: skip the per-entry scan
    if complete and (
        positions.size == 0
        or (
            positions[0] >= 1
            and positions[-1] <= length
            and not np.count_nonzero(positions[1:] <= positions[:-1])
        )
    ):
        return positions, None
    previous = np.empty_like(positions)
    previous[:1] = 0
    previous[1:] = positions[:-1]
    bad = np.flatnonzero((positions <= previous) | (positions > length))
    if bad.size:
        return positions, int(positions[bad[0]])
    return positions, None if complete else 0


def _is_bit(value) -> bool:
    """Whether ``value`` is an integer 0 or 1 (bools are not integers here)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integer and value in (0, 1)


def _pair_counts(values) -> np.ndarray | None:
    """``values`` as int8 pair counts, or None unless each entry is 0, 1 or 2."""
    entries, complete = _integer_prefix(values)
    if not complete or np.count_nonzero((entries < 0) | (entries > 2)):
        return None
    return readonly_array(entries, np.int8)


# --------------------------------------------------------------------------
# B's acceptance test


class Thresholds(checked_record("Thresholds", min_fraction=float)):
    """Acceptance parameters shared by B's test and C's adjudication.

    A claimed-positions list over L positions is rejected as too short
    when it holds fewer than ``required_length(L)`` entries: the smallest
    integer n with n >= min_fraction * 5/24 * L, where 5/24 is the
    expected share of positions carrying a given double
    (``EXPECTED_DOUBLE_FRACTION``). A list of exactly that length passes.
    """

    __slots__ = ()

    def __new__(cls, min_fraction: float = 0.5) -> Thresholds:
        # required_length reads the value's exact ratio, which a numpy
        # integer or a string lacks; a bool has one but is no fraction
        value = min_fraction
        exact = hasattr(value, "as_integer_ratio") and not isinstance(value, (bool, np.bool_))
        if not exact or not in_unit_interval(value):
            raise ValueError(f"min_fraction must be a number in [0, 1], got {value!r}")
        return super().__new__(cls, min_fraction)

    def required_length(self, length: int) -> int:
        """Fewest entries a list over ``length`` positions may hold, in
        integer arithmetic on ``min_fraction``'s exact ratio."""
        num, den = self.min_fraction.as_integer_ratio()
        doubles, positions = EXPECTED_DOUBLE_FRACTION
        return -(-num * doubles * length // (den * positions))


DEFAULT_THRESHOLDS = Thresholds()


class AcceptanceResult(NamedTuple):
    """B's step-(III) decision; a rejection names its check, as C's verdict
    reports it, and the position where that check tripped, if any."""

    accepted: bool
    check: str | None = None
    position: int | None = None


def b_accepts(
    m_AB: int,
    claimed: Sequence[int],
    l_B: np.ndarray,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> AcceptanceResult:
    """B's step-(III) test of A's claimed double positions.

    Rejects under ``step_iii_incompatible`` a message bit that is not an
    integer 0 or 1 (with no position), then the first malformed or
    contradicted position (a non-integer entry, bools included, is
    reported as 0), then under ``step_iii_too_short`` an implausibly short
    claim list; hostile input is rejected, never raised.
    """
    l_B = np.asarray(l_B)
    if not _is_bit(m_AB):
        return AcceptanceResult(False, "step_iii_incompatible")
    claimed, bad = _scan_positions(claimed, len(l_B))
    if bad is not None:
        return AcceptanceResult(False, "step_iii_incompatible", bad)
    # every claimed position is now valid, so it indexes l_B as it is
    contradicted = l_B[claimed - 1] == m_AB
    if np.count_nonzero(contradicted):
        return AcceptanceResult(
            False, "step_iii_incompatible", int(claimed[contradicted.argmax()])
        )
    if claimed.size < thresholds.required_length(len(l_B)):
        return AcceptanceResult(False, "step_iii_too_short")
    return AcceptanceResult(True)


# --------------------------------------------------------------------------
# C's adjudication


class VerdictValue(enum.Enum):
    CONSISTENT = "CONSISTENT"
    A_IS_LIAR = "A_IS_LIAR"
    B_IS_LIAR = "B_IS_LIAR"
    B_REJECTED_AT_STEP_III = "B_REJECTED_AT_STEP_III"


class Verdict(NamedTuple):
    """C's verdict, the check that decided it, and the position where that
    check tripped (None when it names no single position)."""

    value: VerdictValue
    check: str | None = None
    position: int | None = None


def c_adjudicate(
    m_AC: int,
    l_AC: Sequence[int],
    m_BC: int,
    forwarded: Sequence[int],
    l_C: np.ndarray,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> Verdict:
    """C's step-(VI) decision between conflicting messages.

    A message bit that is not an integer 0 or 1 convicts its sender
    before the messages are compared (``stage1_malformed`` for A,
    ``stage2_malformed`` for B). Stage 1 tests A's claimed full list
    against C's own bits: a wrong length (``stage1_wrong_length``), an
    entry that is not 0, 1 or 2 (``stage1_malformed``) or a contradicted
    double (``stage1_inconsistent``) convicts A. Stage 2 then tests B's
    forwarded positions against A's full list: a malformed position
    (``stage2_malformed``), a too short list (``stage2_too_short``) or a
    position that is not a matching double (``stage2_inconsistent``)
    convicts B. The three position-naming checks give their first bad
    position, a non-integer forwarded entry reading as 0. If both stages pass
    despite the conflicting messages, A verifiably supplied full-length
    support for both message values, so the verdict falls on her
    (``stage2_passed_under_conflict``).
    """
    if not _is_bit(m_AC):
        return Verdict(VerdictValue.A_IS_LIAR, "stage1_malformed")
    if not _is_bit(m_BC):
        return Verdict(VerdictValue.B_IS_LIAR, "stage2_malformed")
    if m_AC == m_BC:
        return Verdict(VerdictValue.CONSISTENT)
    l_C = np.asarray(l_C)
    length = len(l_C)

    try:
        claimed_length = len(l_AC)
    except TypeError:  # no length: an int, None, or a 0-d array
        claimed_length = None
    if claimed_length != length:
        return Verdict(VerdictValue.A_IS_LIAR, "stage1_wrong_length")
    l_AC = _pair_counts(l_AC)
    if l_AC is None:
        return Verdict(VerdictValue.A_IS_LIAR, "stage1_malformed")
    # a claimed double (m, m), a count of 2m, must face 1 - m at C, so it
    # is contradicted exactly where the count is twice C's bit. That one
    # comparison is the whole rule because l_AC is 0..2 (checked just
    # above) and l_C is C's own 0/1 list: a count of 1 never equals 0 or 2
    violations = l_AC == l_C + l_C
    if np.count_nonzero(violations):
        return Verdict(VerdictValue.A_IS_LIAR, "stage1_inconsistent", int(violations.argmax()) + 1)

    forwarded, bad = _scan_positions(forwarded, length)
    if bad is not None:
        return Verdict(VerdictValue.B_IS_LIAR, "stage2_malformed", bad)
    if forwarded.size < thresholds.required_length(length):
        return Verdict(VerdictValue.B_IS_LIAR, "stage2_too_short")
    # every forwarded position is now valid, so it indexes l_AC as it is
    mismatches = l_AC[forwarded - 1] != 2 * m_BC
    if np.count_nonzero(mismatches):
        return Verdict(
            VerdictValue.B_IS_LIAR, "stage2_inconsistent", int(forwarded[mismatches.argmax()])
        )
    return Verdict(VerdictValue.A_IS_LIAR, "stage2_passed_under_conflict")


# --------------------------------------------------------------------------
# Orchestration


class ProtocolResult(NamedTuple):
    verdict: Verdict
    a_action: adversary.ActionA
    b_action: adversary.ActionB | None
    delivered_message: int | None


def run_liar_protocol(
    lists: PartyLists,
    strategy_A,
    strategy_B,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    *,
    rng: np.random.Generator,
) -> ProtocolResult:
    """Run steps (II)-(VI) and return the verdict with both parties' actions.

    Each party acts only on its own list and the messages addressed to
    it: A sends B her bit and claimed positions, B forwards a bit and
    positions to C, and A sends C her bit and full list. When honest B
    rejects at step (III), he sends C his rejection instead of a
    forward, and C reports the rejection under B's check,
    ``step_iii_incompatible`` or ``step_iii_too_short``.
    """
    a_action = adversary.strategy_A_act(strategy_A, lists.a_ones, rng)
    if strategy_B.is_honest:
        acceptance = b_accepts(a_action.m_AB, a_action.positions_for_B, lists.b_bits, thresholds)
        if not acceptance.accepted:
            verdict = Verdict(
                VerdictValue.B_REJECTED_AT_STEP_III, acceptance.check, acceptance.position
            )
            return ProtocolResult(verdict, a_action, None, None)
    b_action = adversary.strategy_B_act(
        strategy_B, (a_action.m_AB, a_action.positions_for_B), lists.b_bits, rng
    )
    verdict = c_adjudicate(
        a_action.m_AC, a_action.l_AC, b_action.m_BC, b_action.forwarded, lists.c_bits, thresholds
    )
    delivered = b_action.m_BC if verdict.value is VerdictValue.CONSISTENT else None
    return ProtocolResult(verdict, a_action, b_action, delivered)

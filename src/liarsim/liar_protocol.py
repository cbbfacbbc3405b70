"""Liar-detection protocol: list generation, message exchange, adjudication.

One round of messaging works over lists harvested from the verified
pool: every party measures its own qubits of each system along a common
direction, leaving A with a list of unordered bit-pairs and B and C with
bit lists whose doubles are perfectly anticorrelated with A's. A then
sends her message to B together with the positions where it appears
doubled; B checks that claim against his own list before forwarding it
to C; C, on receiving conflicting messages, convicts whichever party's
data fails its consistency check.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import adversary
from .channels import ArrayRecord, ClassicalEnvelope, PartyId
from .distribute_test import VerifiedPool
from .oracle import EXPECTED_DOUBLE_FRACTION, Assignment
from .qstate import (
    COMPUTATIONAL, mark_readonly, outcome_bits, readonly_array, sample_outcomes,
)

# Each party's list entry, indexed by [party, 16 * assignment code +
# outcome index], read off the slots each ``Assignment`` gives the party.
_BITS = outcome_bits(4)
_LIST_ENTRIES = np.array(
    [
        [_BITS[:, np.subtract(a.a_slots, 1)].sum(axis=1) for a in Assignment],  # A's 1s
        [_BITS[:, a.b_slot - 1] for a in Assignment],  # B's bit
        [_BITS[:, a.c_slot - 1] for a in Assignment],  # C's bit
    ],
    dtype=np.int8,
).reshape(3, 32)


@dataclass(frozen=True, eq=False)
class PartyLists(ArrayRecord):
    """The three private lists of one protocol run.

    A's unordered pairs are stored as their count of 1s (0, 1, or 2);
    positions are 1-based everywhere. Construction enforces the doubles
    correlation: a (0,0) pair forces 1 at B and C, a (1,1) pair forces 0.
    """

    a_ones: np.ndarray
    b_bits: np.ndarray
    c_bits: np.ndarray

    def __post_init__(self) -> None:
        for name, upper in (("a_ones", 2), ("b_bits", 1), ("c_bits", 1)):
            arr = readonly_array(getattr(self, name), np.int8)
            # viewed as uint8, a negative entry reads as 128 or more
            if arr.ndim != 1 or arr.size < 1 or arr.view(np.uint8).max() > upper:
                raise ValueError(f"lists must be nonempty 1-D arrays of 0..{upper}")
            object.__setattr__(self, name, arr)
        if not (len(self.a_ones) == len(self.b_bits) == len(self.c_bits)):
            raise ValueError("the three lists must have equal length")
        facing = 1 - self.a_ones // 2  # what B and C must hold opposite a double
        doubles = self.a_ones != 1
        if np.any(doubles & ((self.b_bits != facing) | (self.c_bits != facing))):
            raise ValueError("a double (m, m) must face 1 - m in the other lists")

    @property
    def length(self) -> int:
        return len(self.a_ones)

    @classmethod
    def from_table(
        cls,
        a_pairs: Sequence[str],
        b_bits: Sequence[int] | str,
        c_bits: Sequence[int] | str,
    ) -> "PartyLists":
        """Build lists from human-readable rows like ("00", "01", ...)."""
        ones = []
        for pair in a_pairs:
            if sorted(pair) not in (["0", "0"], ["0", "1"], ["1", "1"]):
                raise ValueError(f"invalid pair {pair!r}")
            ones.append(pair.count("1"))
        to_bits = lambda seq: [int(b) for b in seq]
        return cls(
            np.array(ones, dtype=np.int8),
            np.array(to_bits(b_bits), dtype=np.int8),
            np.array(to_bits(c_bits), dtype=np.int8),
        )


def generate_lists(pool: VerifiedPool, rng: np.random.Generator) -> PartyLists:
    """Measure every pool system along the computational basis, one draw each.

    Every pool system holds the untouched shared source state, so the
    four outcome bits of each position are one draw from the exact joint
    distribution of that state; each party's entry is read off the slots
    the position's assignment code gives it.
    """
    if len(pool) == 0:
        raise ValueError("cannot generate lists from an empty pool")
    outcomes = sample_outcomes(pool.source, COMPUTATIONAL, len(pool), rng)
    return PartyLists(*mark_readonly(_LIST_ENTRIES.take(16 * pool.codes + outcomes, axis=1)))


# --------------------------------------------------------------------------
# Protocol messages


_MAX_POSITION = np.iinfo(np.int64).max  # no list is longer


def _integer_prefix(values) -> tuple[np.ndarray, bool]:
    """The leading run of integer entries (bools are not integers here), and
    whether it is all of ``values``. A non-integer array has no such run."""
    if isinstance(values, np.ndarray):
        if values.ndim == 1 and values.dtype.kind in "iu":
            return values, True
        return np.empty(0, np.int64), values.size == 0
    try:
        items = list(values)
    except TypeError:
        return np.empty(0, np.int64), False
    for i, item in enumerate(items):
        if isinstance(item, bool) or not isinstance(item, (int, np.integer)):
            return np.array(items[:i], dtype=np.int64 if i == 0 else None), False
    return np.array(items, dtype=np.int64 if not items else None), True


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
            and (positions[1:] > positions[:-1]).all()
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
    if not complete or np.any((entries < 0) | (entries > 2)):
        return None
    return readonly_array(entries, np.int8)


@dataclass(frozen=True, eq=False)
class MessageWithList(ArrayRecord):
    """A message bit plus the positions (int64) where its sender claims doubles."""

    m: int
    positions: np.ndarray

    def __post_init__(self) -> None:
        if not _is_bit(self.m):
            raise ValueError(f"message bit must be 0 or 1, got {self.m!r}")
        positions, bad = _scan_positions(self.positions, _MAX_POSITION)
        if bad is not None:
            raise ValueError("positions must be strictly increasing integers >= 1")
        object.__setattr__(self, "positions", readonly_array(positions, np.int64))


@dataclass(frozen=True, eq=False)
class FullList(ArrayRecord):
    """A message bit plus a claimed complete pair list (read-only int8 counts of 1s)."""

    m: int
    pairs: np.ndarray

    def __post_init__(self) -> None:
        if not _is_bit(self.m):
            raise ValueError(f"message bit must be 0 or 1, got {self.m!r}")
        pairs = _pair_counts(self.pairs)
        if pairs is None:
            raise ValueError("pair entries must be 0, 1, or 2 ones")
        object.__setattr__(self, "pairs", pairs)


class RejectReason(enum.Enum):
    INCOMPATIBLE = "INCOMPATIBLE"
    TOO_SHORT = "TOO_SHORT"


@dataclass(frozen=True, eq=False)
class Reject(ArrayRecord):
    """B's step-(III) refusal, carrying the offending claim as evidence."""

    reason: RejectReason
    claimed: np.ndarray


# --------------------------------------------------------------------------
# B's acceptance test


@dataclass(frozen=True)
class Thresholds:
    """Acceptance parameters shared by B's test and C's adjudication.

    A claimed-positions list is rejected as TOO_SHORT when it is shorter
    than ``min_fraction`` times the expected honest double count
    (``EXPECTED_DOUBLE_FRACTION * L``).
    """

    min_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_fraction <= 1.0:
            raise ValueError(f"min_fraction must lie in [0, 1], got {self.min_fraction!r}")

    def required_length(self, length: int) -> float:
        return self.min_fraction * EXPECTED_DOUBLE_FRACTION * length


DEFAULT_THRESHOLDS = Thresholds()


@dataclass(frozen=True)
class AcceptanceResult:
    accepted: bool
    reason: RejectReason | None = None
    position: int | None = None
    required_length: float = 0.0


def incompatible_positions(
    claimed: Sequence[int], l_B: np.ndarray, m_AB: int
) -> np.ndarray:
    """In-range claimed positions whose bit in l_B contradicts the claim.

    A true double (m, m) at position j forces l_B[j] = 1 - m, so any
    claimed position showing m in l_B exposes the claim as false.
    """
    l_B = np.asarray(l_B)
    arr = np.asarray(claimed, dtype=np.int64)
    arr = arr[(arr >= 1) & (arr <= len(l_B))]
    return arr[l_B[arr - 1] == m_AB]


def b_accepts(
    m_AB: int,
    claimed: Sequence[int],
    l_B: np.ndarray,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> AcceptanceResult:
    """B's step-(III) test of A's claimed double positions.

    Rejects INCOMPATIBLE on a message bit that is not an integer 0 or 1
    (with no position), then on the first malformed or contradicted
    position (a non-integer entry, bools included, is reported as 0),
    then TOO_SHORT if the claim list is implausibly short; hostile input
    is rejected, never raised.
    """
    l_B = np.asarray(l_B)
    required = thresholds.required_length(len(l_B))
    if not _is_bit(m_AB):
        return AcceptanceResult(False, RejectReason.INCOMPATIBLE, None, required)
    claimed, bad = _scan_positions(claimed, len(l_B))
    if bad is not None:
        return AcceptanceResult(False, RejectReason.INCOMPATIBLE, bad, required)
    contradicted = incompatible_positions(claimed, l_B, m_AB)
    if contradicted.size:
        return AcceptanceResult(
            False, RejectReason.INCOMPATIBLE, int(contradicted[0]), required
        )
    if claimed.size < required:
        return AcceptanceResult(False, RejectReason.TOO_SHORT, None, required)
    return AcceptanceResult(True, None, None, required)


# --------------------------------------------------------------------------
# C's adjudication


class VerdictValue(enum.Enum):
    CONSISTENT = "CONSISTENT"
    A_IS_LIAR = "A_IS_LIAR"
    B_IS_LIAR = "B_IS_LIAR"
    B_REJECTED_AT_STEP_III = "B_REJECTED_AT_STEP_III"


@dataclass(frozen=True)
class Evidence:
    """Which check decided the verdict, and where it tripped."""

    check: str
    position: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    value: VerdictValue
    evidence: Evidence | None = None


def stage1_violations(l_AC: Sequence[int], l_C: np.ndarray) -> np.ndarray:
    """Positions where a claimed double contradicts C's own bit."""
    arr = np.asarray(l_AC)
    l_C = np.asarray(l_C)
    mask = ((arr == 0) & (l_C != 1)) | ((arr == 2) & (l_C != 0))
    return np.flatnonzero(mask) + 1


def stage2_mismatches(
    forwarded: Sequence[int], l_AC: Sequence[int], m_BC: int
) -> np.ndarray:
    """Forwarded positions that are not (m_BC, m_BC) doubles in l_AC."""
    arr = np.asarray(l_AC)
    fwd = np.asarray(forwarded, dtype=np.int64)
    fwd = fwd[(fwd >= 1) & (fwd <= len(arr))]
    return fwd[arr[fwd - 1] != 2 * m_BC]


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
    before the messages are compared. Stage 1 tests A's claimed full
    list against C's own bits: any wrong length, malformed entry, or
    contradicted double convicts A. Stage 2 then tests B's forwarded
    positions against A's full list: a too short or inconsistent
    forwarding convicts B. If both stages pass despite the conflicting
    messages, A verifiably supplied full-length support for both
    message values, so the verdict falls on her.
    """
    if not _is_bit(m_AC):
        return Verdict(
            VerdictValue.A_IS_LIAR, Evidence("stage1_malformed", None, "invalid message bit")
        )
    if not _is_bit(m_BC):
        return Verdict(
            VerdictValue.B_IS_LIAR, Evidence("stage2_malformed", None, "invalid message bit")
        )
    if m_AC == m_BC:
        return Verdict(VerdictValue.CONSISTENT)
    l_C = np.asarray(l_C)
    length = len(l_C)

    claimed_length = len(l_AC) if hasattr(l_AC, "__len__") else None
    if claimed_length != length:
        return Verdict(
            VerdictValue.A_IS_LIAR,
            Evidence("stage1_wrong_length", None, f"claimed length {claimed_length}"),
        )
    l_AC = _pair_counts(l_AC)
    if l_AC is None:
        return Verdict(
            VerdictValue.A_IS_LIAR, Evidence("stage1_malformed", None, "invalid pair")
        )
    violations = stage1_violations(l_AC, l_C)
    if violations.size:
        return Verdict(
            VerdictValue.A_IS_LIAR,
            Evidence(
                "stage1_inconsistent",
                int(violations[0]),
                "claimed double contradicts C's bit",
            ),
        )

    required = thresholds.required_length(length)
    forwarded, bad = _scan_positions(forwarded, length)
    if bad is not None:
        return Verdict(
            VerdictValue.B_IS_LIAR, Evidence("stage2_malformed", bad, "invalid position")
        )
    if forwarded.size < required:
        return Verdict(
            VerdictValue.B_IS_LIAR,
            Evidence(
                "stage2_too_short",
                None,
                f"forwarded {forwarded.size} < required {required:.2f}",
            ),
        )
    mismatches = stage2_mismatches(forwarded, l_AC, m_BC)
    if mismatches.size:
        return Verdict(
            VerdictValue.B_IS_LIAR,
            Evidence(
                "stage2_inconsistent",
                int(mismatches[0]),
                "forwarded position is not a matching double in the full list",
            ),
        )
    return Verdict(
        VerdictValue.A_IS_LIAR,
        Evidence(
            "stage2_passed_under_conflict",
            None,
            "a full-length forwarded list consistent with A's own full list "
            "proves A supported both conflicting messages",
        ),
    )


# --------------------------------------------------------------------------
# Orchestration


@dataclass(frozen=True)
class ProtocolResult:
    verdict: Verdict
    transcript: tuple[ClassicalEnvelope, ...]
    a_action: object
    b_action: object | None
    b_acceptance: AcceptanceResult | None
    delivered_message: int | None


def run_liar_protocol(
    lists: PartyLists,
    strategy_A,
    strategy_B,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    rng: np.random.Generator | None = None,
) -> ProtocolResult:
    """Run steps (II)-(VI) and return the verdict with the message transcript.

    Each party acts only on its own list and the messages addressed to
    it. The transcript holds the three messages in send order: A to B,
    B to C, then A to C. A's message to C is sent unconditionally; when
    honest B rejects at step (III), he sends C his rejection with A's
    claim as evidence, and C reports the rejection.
    """
    if rng is None:
        rng = np.random.default_rng()

    a_action = adversary.strategy_A_act(strategy_A, lists.a_ones, rng)
    to_b = MessageWithList(a_action.m_AB, a_action.positions_for_B)
    b_acceptance = None
    b_action = None
    if strategy_B.is_honest:
        b_acceptance = b_accepts(to_b.m, to_b.positions, lists.b_bits, thresholds)
    if b_acceptance is not None and not b_acceptance.accepted:
        from_b = Reject(b_acceptance.reason, to_b.positions)
    else:
        b_action = adversary.strategy_B_act(
            strategy_B, (to_b.m, to_b.positions), lists.b_bits, rng
        )
        from_b = MessageWithList(b_action.m_BC, b_action.forwarded)
    from_a = FullList(a_action.m_AC, a_action.l_AC)

    if isinstance(from_b, Reject):
        verdict = Verdict(
            VerdictValue.B_REJECTED_AT_STEP_III,
            Evidence(f"step_iii_{from_b.reason.value.lower()}"),
        )
    else:
        verdict = c_adjudicate(
            from_a.m, from_a.pairs, from_b.m, from_b.positions, lists.c_bits, thresholds
        )
    delivered = from_b.m if verdict.value is VerdictValue.CONSISTENT else None
    sent = (
        (PartyId.A, PartyId.B, to_b),
        (PartyId.B, PartyId.C, from_b),
        (PartyId.A, PartyId.C, from_a),
    )
    return ProtocolResult(
        verdict=verdict,
        transcript=tuple(ClassicalEnvelope(*message, i) for i, message in enumerate(sent)),
        a_action=a_action,
        b_action=b_action,
        b_acceptance=b_acceptance,
        delivered_message=delivered,
    )

"""Distribute-and-test phase: C hands out four-qubit systems and audits them.

C prepares M four-qubit systems, distributes two qubits to A (who cannot
tell which two), one to B, and keeps the fourth. She then sacrifices two
randomly chosen subsets S1 and S2: for each tested system the qubits are
gathered at one party, everything is measured along a common direction,
and the four outcome bits must contain exactly two 0s and two 1s. Any
failed check aborts immediately. On success the remaining L systems are
returned untouched as the verified pool for the messaging protocol.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    ChannelHub,
    FaultModel,
    NO_FAULTS,
    PartyId,
    ProtocolViolationError,
    QuantumSystem,
    QubitRef,
    QubitRegistry,
    TransferStatus,
    transfer_qubits,
)
from .oracle import Assignment
from .qstate import (
    COMPUTATIONAL, MeasurementDirection, StateVector, make_singlet, readonly_array
)

# Indexed by assignment code: 0 means A holds slots (1,2), 1 means (1,3).
_ASSIGNMENTS = (Assignment.A_HOLDS_12, Assignment.A_HOLDS_13)


class DirectionPolicy(enum.Enum):
    """How C picks the common measurement direction for each system."""

    RANDOM = "random"
    FIXED = "fixed"


def choose_direction(
    rng: np.random.Generator, policy: DirectionPolicy = DirectionPolicy.RANDOM
) -> MeasurementDirection:
    """Pick a measurement direction: uniform on the sphere, or the fixed basis.

    The pattern check's statistics do not depend on this choice for the
    honest source (the state is invariant under common rotations), but a
    corrupted source cannot anticipate a random direction.
    """
    if policy is DirectionPolicy.FIXED:
        return COMPUTATIONAL
    theta = math.acos(rng.uniform(-1.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * math.pi) % (2.0 * math.pi)
    return MeasurementDirection(theta, phi)


@dataclass(frozen=True)
class DistributionPlan:
    """Sizes for one distribute-and-test run: M = N1 + N2 + L.

    ``assignments`` optionally pins which two slots A receives for each
    system (1-based system order); when None, each system's assignment
    is drawn uniformly at run time.
    """

    M: int
    N1: int
    N2: int
    L: int
    assignments: tuple[Assignment, ...] | None = None

    def __post_init__(self) -> None:
        if self.L < 1 or self.N1 < 1 or self.N2 < 1:
            raise ValueError("N1, N2 and L must all be at least 1")
        if self.M != self.N1 + self.N2 + self.L:
            raise ValueError(
                f"plan arithmetic violated: M={self.M} != "
                f"N1+N2+L={self.N1 + self.N2 + self.L}"
            )
        if self.assignments is not None and len(self.assignments) != self.M:
            raise ValueError("assignments must list one Assignment per system")

    @classmethod
    def default(cls, M: int) -> "DistributionPlan":
        """Default split: N1 = N2 = ceil(M/4), remainder is the pool."""
        n = math.ceil(M / 4)
        return cls(M=M, N1=n, N2=n, L=M - 2 * n)

    @classmethod
    def for_pool(cls, L: int) -> "DistributionPlan":
        """Smallest default-split plan whose surviving pool has size L."""
        if L < 1:
            raise ValueError(f"pool size must be positive, got {L}")
        M = 2 * L if L % 2 == 0 else 2 * L + 1
        plan = cls.default(M)
        assert plan.L == L
        return plan


@dataclass(frozen=True)
class TestRecord:
    """One sacrificed system's test: four outcome bits must be two-and-two."""

    __test__ = False  # not a test case, despite the name (pytest opt-out)

    system_id: int
    subset: str  # "S1" or "S2"
    direction: MeasurementDirection
    outcome_bits: tuple[int, int, int, int]
    passed: bool

    def __post_init__(self) -> None:
        expected = sorted(self.outcome_bits) == [0, 0, 1, 1]
        if self.passed != expected:
            raise ValueError("passed flag contradicts the outcome multiset")


@dataclass(frozen=True)
class FailureInfo:
    step: str  # protocol step that failed: "ii", "v", or "vii"
    system_id: int | None
    detail: str


class DistributeStatus(enum.Enum):
    SUCCESS = "SUCCESS"
    FAILURE = "FAILURE"


@dataclass(frozen=True, eq=False)
class VerifiedPool:
    """Verified, untouched systems, each still holding the shared ``source``.

    ``system_ids`` (read-only int64) names each system of the batch and
    ``codes`` (read-only int8) its assignment: 0 where A holds slots
    (1,2), 1 where she holds (1,3).
    """

    system_ids: np.ndarray
    codes: np.ndarray
    source: StateVector

    def __post_init__(self) -> None:
        ids = readonly_array(self.system_ids, np.int64)
        codes = readonly_array(self.codes, np.int8)
        if ids.ndim != 1 or ids.shape != codes.shape or np.any(codes & ~1):
            raise ValueError("need equally long 1-D system ids and 0/1 assignment codes")
        object.__setattr__(self, "system_ids", ids)
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return self.codes.size


@dataclass(frozen=True)
class DistributeOutcome:
    status: DistributeStatus
    pool: VerifiedPool | None
    failure: FailureInfo | None
    test_records: tuple[TestRecord, ...]
    events: tuple[str, ...] = field(default=())


def _failure(
    step: str,
    system_id: int | None,
    detail: str,
    records: list[TestRecord],
    events: list[str],
) -> DistributeOutcome:
    return DistributeOutcome(
        status=DistributeStatus.FAILURE,
        pool=None,
        failure=FailureInfo(step, system_id, detail),
        test_records=tuple(records),
        events=tuple(events),
    )


def run_distribute_and_test(
    plan: DistributionPlan,
    fault: FaultModel = NO_FAULTS,
    rng: np.random.Generator | None = None,
    direction_policy: DirectionPolicy = DirectionPolicy.RANDOM,
    hub: ChannelHub | None = None,
) -> DistributeOutcome:
    """Run the full distribute-and-test protocol for one batch of M systems.

    Returns SUCCESS with the untouched verified pool, or FAILURE naming
    the first step whose check failed. Test subsets are drawn only after
    every qubit has been distributed (visible in the event log).
    """
    if rng is None:
        rng = np.random.default_rng()
    if hub is None:
        hub = ChannelHub()
    registry = QubitRegistry()
    systems: dict[int, QuantumSystem] = {}
    if plan.assignments is None:
        codes = rng.integers(0, 2, size=plan.M)
    else:
        codes = np.array([_ASSIGNMENTS.index(a) for a in plan.assignments])
    source = fault.prepare_state()
    records: list[TestRecord] = []
    events: list[str] = []

    # (i)-(ii): prepare, distribute, and immediately verify receipt counts.
    for j in range(1, plan.M + 1):
        assignment = _ASSIGNMENTS[codes[j - 1]]
        registry.create_system(j)
        systems[j] = QuantumSystem(j, source)
        a_refs = [QubitRef(j, slot) for slot in assignment.a_slots]
        b_refs = [QubitRef(j, assignment.b_slot)]
        outcomes = transfer_qubits(
            registry, systems, PartyId.C, PartyId.A, a_refs, fault, rng
        )
        outcomes += transfer_qubits(
            registry, systems, PartyId.C, PartyId.B, b_refs, fault, rng
        )
        events.append(f"distribute system={j}")
        lost = [rec.ref for rec in outcomes if rec.status is TransferStatus.LOST]
        if lost:
            return _failure(
                "ii",
                j,
                f"receipt count wrong: lost {len(lost)} qubit(s) in transit",
                records,
                events,
            )
    events.append("distribution_complete")

    # (iii): only now does C draw the test subsets.
    order = rng.permutation(plan.M) + 1
    s1 = sorted(int(j) for j in order[: plan.N1])
    s2 = sorted(int(j) for j in order[plan.N1 : plan.N1 + plan.N2])
    pool_ids = np.sort(order[plan.N1 + plan.N2 :])
    events.append("subsets_drawn")

    # (iv)-(viii): sacrifice each tested system; roles swap between subsets.
    for subset_name, tested_ids, sender, measurer in (
        ("S1", s1, PartyId.A, PartyId.B),
        ("S2", s2, PartyId.B, PartyId.A),
    ):
        for j in tested_ids:
            refs = registry.holdings(sender, j)
            outcomes = transfer_qubits(
                registry, systems, sender, measurer, refs, fault, rng
            )
            if any(rec.status is TransferStatus.LOST for rec in outcomes):
                return _failure(
                    "v",
                    j,
                    f"{measurer.value} did not receive all of "
                    f"{sender.value}'s qubits",
                    records,
                    events,
                )
            direction = choose_direction(rng, direction_policy)
            hub.send_classical(PartyId.C, measurer, ("measure", j, direction))
            slots = [ref.slot for ref in registry.holdings(measurer, j)]
            reported = systems[j].measure_slots(slots, direction, rng)
            hub.send_classical(measurer, PartyId.C, (j, reported))
            (c_bit,) = systems[j].measure_slots([4], direction, rng)
            bits = tuple(reported) + (c_bit,)
            passed = sorted(bits) == [0, 0, 1, 1]
            record = TestRecord(j, subset_name, direction, bits, passed)
            records.append(record)
            events.append(f"test system={j} subset={subset_name}")
            if not passed:
                return _failure(
                    "vii",
                    j,
                    f"outcome pattern {bits} is not two 0s and two 1s",
                    records,
                    events,
                )

    # testing must never touch the pool: each system still holds the source
    touched = [int(j) for j in pool_ids if not systems[j].is_pristine]
    if touched:
        raise ProtocolViolationError(f"pool system {touched[0]} was touched during testing")
    pool = VerifiedPool(pool_ids, codes[pool_ids - 1], source)
    events.append("success")
    return DistributeOutcome(
        status=DistributeStatus.SUCCESS,
        pool=pool,
        failure=None,
        test_records=tuple(records),
        events=tuple(events),
    )


def make_verified_pool(
    L: int,
    rng: np.random.Generator,
    assignments: tuple[Assignment, ...] | None = None,
) -> VerifiedPool:
    """Build a verified pool directly, skipping the testing phase.

    Equivalent to the pool returned by a SUCCESS run with an honest
    source and no faults: pool systems are never touched during testing,
    so their state is exactly the freshly prepared one. Intended for
    experiments that study only the messaging protocol.
    """
    if L < 1:
        raise ValueError(f"pool size must be positive, got {L}")
    if assignments is not None and len(assignments) != L:
        raise ValueError("assignments must list one Assignment per system")
    if assignments is None:
        codes = rng.integers(0, 2, size=L)
    else:
        codes = [_ASSIGNMENTS.index(a) for a in assignments]
    return VerifiedPool(np.arange(1, L + 1), codes, make_singlet(4))


def _violates_event_order(events: tuple[str, ...]) -> bool:
    """True if any distribution event follows the subset draw (audit aid)."""
    try:
        drawn_at = events.index("subsets_drawn")
    except ValueError:
        return False
    return any(e.startswith("distribute ") for e in events[drawn_at:])

"""The dense reference of the distribute-and-test phase: parties and the
qubit custody ledger.

``_dense_distribute_and_test`` plays the phase qubit by qubit: the ledger
(``PartyId``, ``QubitRef``, ``QubitRegistry``), ``QuantumSystem`` and
``transfer_qubits`` carry every qubit, ``prepare_state`` builds each
system's source state, ``choose_direction`` draws each test round's axis
and ``_draw_subsets`` the tested systems. No production run loads this
module: ``distribute_test.run_distribute_and_test`` draws from the phase's
exact abort law and carries the source by name, and the tests hold that
law to this reference.
"""
from __future__ import annotations

import enum
import math
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .distribute_test import (
    DirectionPolicy, DistributeOutcome, DistributionPlan, FaultModel, VerifiedPool, _failure,
)
from .oracle import Assignment
from .qstate import (
    COMPUTATIONAL, MeasurementDirection, StateVector, basis_state, make_singlet, measure_qubits,
)
from .records import checked_record, mark_readonly


class ProtocolViolationError(Exception):
    """A party attempted something the protocol's rules forbid."""


class PartyId(enum.Enum):
    A = "A"
    B = "B"
    C = "C"


class QubitRef(checked_record("QubitRef", system_id=int, slot=int)):
    """One qubit: slot ``slot`` (1..4) of four-qubit system ``system_id``."""

    __slots__ = ()

    def __new__(cls, system_id: int, slot: int) -> QubitRef:
        if system_id < 1:
            raise ValueError(f"system_id must be >= 1, got {system_id}")
        if slot not in (1, 2, 3, 4):
            raise ValueError(f"slot must be in 1..4, got {slot}")
        return super().__new__(cls, system_id, slot)


class QuantumSystem:
    """The live quantum state of one four-qubit system.

    Tracks which slots were lost in transit and logs every state touch
    (measurement or trace-out) so tests can assert that pool systems
    stay pristine through the testing phase.
    """

    def __init__(self, system_id: int, state: StateVector) -> None:
        if state.num_qubits != 4:
            raise ValueError("a protocol system has exactly four qubits")
        self.system_id = system_id
        self.state = state
        self.lost_slots: set[int] = set()
        self.touch_log: list[str] = []

    @property
    def is_pristine(self) -> bool:
        return not self.touch_log

    def measure_slots(
        self,
        slots: Iterable[int],
        direction: MeasurementDirection,
        rng: np.random.Generator,
    ) -> tuple[int, ...]:
        """Projectively measure the given slots along ``direction``."""
        slots = list(slots)
        for slot in slots:
            if slot in self.lost_slots:
                raise ProtocolViolationError(
                    f"slot {slot} of system {self.system_id} was lost in transit"
                )
        bits, self.state = measure_qubits(self.state, slots, direction, rng)
        self.touch_log.append(f"measure slots={slots}")
        return bits

    def trace_out(self, slot: int, rng: np.random.Generator) -> None:
        """Discard one qubit: measure it in a fixed basis, drop the outcome."""
        if slot in self.lost_slots:
            return
        _, self.state = measure_qubits(self.state, [slot], COMPUTATIONAL, rng)
        self.lost_slots.add(slot)
        self.touch_log.append(f"trace_out slot={slot}")


class QubitRegistry:
    """Single-owner custody ledger for every live (system_id, slot) qubit."""

    def __init__(self) -> None:
        self._owner: dict[QubitRef, PartyId] = {}
        self._lost: set[QubitRef] = set()

    def create_system(self, system_id: int, owner: PartyId = PartyId.C) -> None:
        for slot in (1, 2, 3, 4):
            ref = QubitRef(system_id, slot)
            if ref in self._owner or ref in self._lost:
                raise ProtocolViolationError(f"system {system_id} already exists")
            self._owner[ref] = owner

    def owner_of(self, ref: QubitRef) -> PartyId:
        try:
            return self._owner[ref]
        except KeyError:
            if ref in self._lost:
                raise ProtocolViolationError(f"{ref} was lost in transit") from None
            raise ProtocolViolationError(f"unknown qubit {ref}") from None

    def reassign(self, ref: QubitRef, new_owner: PartyId) -> None:
        self.owner_of(ref)
        self._owner[ref] = new_owner

    def mark_lost(self, ref: QubitRef) -> None:
        self.owner_of(ref)
        del self._owner[ref]
        self._lost.add(ref)

    def holdings(self, party: PartyId, system_id: int | None = None) -> list[QubitRef]:
        if system_id is not None:
            # a system has exactly four slots; avoid a full-ledger scan
            return [
                ref
                for ref in (QubitRef(system_id, slot) for slot in (1, 2, 3, 4))
                if self._owner.get(ref) is party
            ]
        return sorted(
            (ref for ref, owner in self._owner.items() if owner is party),
            key=lambda ref: (ref.system_id, ref.slot),
        )

    def owner_census(self) -> dict[QubitRef, PartyId]:
        """Snapshot of the full ledger (for conservation checks)."""
        return dict(self._owner)


class TransferStatus(enum.Enum):
    DELIVERED = "delivered"
    LOST = "lost"


class TransferRecord(NamedTuple):
    ref: QubitRef
    status: TransferStatus


def prepare_state(source_state: str) -> StateVector:
    """The state a source of this name prepares: the singlet, or a product state."""
    if source_state == "singlet":
        return make_singlet(4)
    return basis_state(source_state)


def transfer_qubits(
    registry: QubitRegistry,
    systems: Mapping[int, QuantumSystem],
    sender: PartyId,
    receiver: PartyId,
    refs: Iterable[QubitRef],
    fault: FaultModel,
    rng: np.random.Generator,
) -> list[TransferRecord]:
    """Move qubit custody from ``sender`` to ``receiver`` over a lossy channel.

    Each qubit is independently delivered with probability
    ``1 - fault.qubit_loss_prob``; a lost qubit is traced out of its
    system immediately so the survivors' statistics stay physical.
    Sending a qubit the sender does not own is a protocol violation,
    distinct from loss.
    """
    refs = list(refs)
    for ref in refs:
        if registry.owner_of(ref) is not sender:
            raise ProtocolViolationError(
                f"{sender.value} does not own {ref} "
                f"(owner is {registry.owner_of(ref).value})"
            )
    records = []
    for ref in refs:
        if rng.random() < fault.qubit_loss_prob:
            registry.mark_lost(ref)
            systems[ref.system_id].trace_out(ref.slot, rng)
            records.append(TransferRecord(ref, TransferStatus.LOST))
        else:
            registry.reassign(ref, receiver)
            records.append(TransferRecord(ref, TransferStatus.DELIVERED))
    return records


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


def _draw_subsets(
    plan: DistributionPlan, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Tested ids (S1's, then S2's) and pool ids: read-only views of one
    permutation, each part sorted in place."""
    order = rng.permutation(plan.M) + 1
    cut = plan.N1 + plan.N2
    for part in (order[: plan.N1], order[plan.N1 : cut], order[cut:]):
        part.sort()
    mark_readonly(order)
    return order[:cut], order[cut:]


def _dense_distribute_and_test(
    plan: DistributionPlan,
    fault: FaultModel,
    rng: np.random.Generator,
    direction_policy: DirectionPolicy = DirectionPolicy.RANDOM,
) -> DistributeOutcome:
    """Step-by-step reference for ``run_distribute_and_test``: the exact oracle.

    Plays every qubit through the custody ledger and the dense engine,
    one transfer and one measurement at a time, and raises
    ``ProtocolViolationError`` if testing touched a pool system. No
    option selects it; tests hold the law's verdicts to its own.

    No assignment is drawn: a test round gathers slots 1-3 at its measurer
    whichever two A holds, and a pool system's assignment is drawn with its
    list entry. So system j is routed by a fixed rule, j's parity.
    """
    registry = QubitRegistry()
    systems: dict[int, QuantumSystem] = {}
    source = prepare_state(fault.source_state)

    # (i)-(ii): prepare, distribute, and immediately verify receipt counts.
    for j in range(1, plan.M + 1):
        assignment = tuple(Assignment)[j % 2]
        registry.create_system(j)
        systems[j] = QuantumSystem(j, source)
        a_refs = [QubitRef(j, slot) for slot in assignment.a_slots]
        b_refs = [QubitRef(j, assignment.b_slot)]
        outcomes = transfer_qubits(registry, systems, PartyId.C, PartyId.A, a_refs, fault, rng)
        outcomes += transfer_qubits(registry, systems, PartyId.C, PartyId.B, b_refs, fault, rng)
        if any(rec.status is TransferStatus.LOST for rec in outcomes):
            return _failure("ii", j, 0)

    # (iii): only now does C draw the test subsets.
    tested, pool_ids = _draw_subsets(plan, rng)

    # (iv)-(viii): sacrifice each tested system; roles swap between subsets.
    played = 0
    for tested_ids, sender, measurer in (
        (tested[: plan.N1], PartyId.A, PartyId.B),
        (tested[plan.N1 :], PartyId.B, PartyId.A),
    ):
        for j in tested_ids.tolist():
            refs = registry.holdings(sender, j)
            outcomes = transfer_qubits(registry, systems, sender, measurer, refs, fault, rng)
            if any(rec.status is TransferStatus.LOST for rec in outcomes):
                return _failure("v", None, played)
            direction = choose_direction(rng, direction_policy)
            slots = [ref.slot for ref in registry.holdings(measurer, j)]
            reported = systems[j].measure_slots(slots, direction, rng)
            (c_bit,) = systems[j].measure_slots([4], direction, rng)
            played += 1
            if sorted(tuple(reported) + (c_bit,)) != [0, 0, 1, 1]:
                return _failure("vii", None, played)

    # testing must never touch the pool: each system still holds the source
    touched = [j for j in pool_ids.tolist() if not systems[j].is_pristine]
    if touched:
        raise ProtocolViolationError(f"pool system {touched[0]} was touched during testing")
    return DistributeOutcome(VerifiedPool(pool_ids.size, fault.source_state), None, range(played))

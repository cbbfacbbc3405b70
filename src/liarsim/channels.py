"""Parties, the fault model and the qubit custody ledger.

``FaultModel`` injects transit loss and a corrupted source into the
distribute-and-test phase. ``FaultModel.prepare_state``, the custody
ledger (``PartyId``, ``QubitRef``, ``QubitRegistry``), ``QuantumSystem``
and ``transfer_qubits`` serve only the step-by-step reference of that
phase; its production path draws from the phase's exact abort law and
carries the source by name.

Only input from outside the program is checked where it enters:
``FaultModel`` here, the plan, thresholds, strategies and trial config in
their own modules, and every payload by B's and C's checks; an integer by
``qstate.as_int`` and a probability by ``qstate.probability`` wherever it
is given. Each of those records is a NamedTuple that checks once, in
``__new__``, through which ``_make`` and ``_replace`` build too
(``qstate.checked_record``), and stores the values it normalized. The
records that carry arrays between phases (``PartyLists``, ``ActionA``,
``ActionB``) check nothing when built. The function that makes each one
casts and marks its arrays read-only, and one hypothesis test per producer
holds it to 1-D, equally long, in-range, read-only arrays of the record's
dtypes: the ``TestProducerInvariants`` classes of
``tests/test_liar_protocol.py`` (lists) and ``tests/test_adversary.py``
(actions). A ``VerifiedPool`` is its size and its source's name, and
``tests/test_distribute_test.py`` holds its producers.
"""
from __future__ import annotations

import enum
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .oracle import source_weights
from .qstate import (
    COMPUTATIONAL,
    MeasurementDirection,
    StateVector,
    basis_state,
    checked_record,
    make_singlet,
    measure_qubits,
    probability,
)


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


class FaultModel(checked_record("FaultModel", qubit_loss_prob=float, source_state=str)):
    """Injectable imperfections: transit loss and a corrupted source.

    ``source_state`` is either ``"singlet"`` (the honest four-qubit
    state) or a four-character bit string naming a product state the
    source secretly prepares instead.
    """

    __slots__ = ()

    def __new__(cls, qubit_loss_prob: float = 0.0, source_state: str = "singlet") -> FaultModel:
        qubit_loss_prob = probability("qubit_loss_prob", qubit_loss_prob)
        source_weights(source_state)  # raises for a name no source has
        return super().__new__(cls, qubit_loss_prob, source_state)

    def prepare_state(self) -> StateVector:
        if self.source_state == "singlet":
            return make_singlet(4)
        return basis_state(self.source_state)


NO_FAULTS = FaultModel()


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

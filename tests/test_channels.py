import numpy as np
import pytest

from liarsim.channels import (
    FaultModel,
    PartyId,
    ProtocolViolationError,
    QuantumSystem,
    QubitRef,
    QubitRegistry,
    TransferStatus,
    transfer_qubits,
)
from liarsim.qstate import COMPUTATIONAL, make_singlet


def rng(seed=0):
    return np.random.default_rng(seed)


def fresh_network(num_systems=1):
    registry = QubitRegistry()
    systems = {}
    for system_id in range(1, num_systems + 1):
        registry.create_system(system_id)
        systems[system_id] = QuantumSystem(system_id, make_singlet(4))
    return registry, systems


class TestQubitRegistry:
    def test_created_owned_by_c(self):
        registry, _ = fresh_network()
        for slot in (1, 2, 3, 4):
            assert registry.owner_of(QubitRef(1, slot)) is PartyId.C

    def test_reassign_moves_single_owner(self):
        registry, _ = fresh_network()
        ref = QubitRef(1, 2)
        registry.reassign(ref, PartyId.A)
        assert registry.owner_of(ref) is PartyId.A
        assert ref not in registry.holdings(PartyId.C)
        assert registry.holdings(PartyId.A) == [ref]

    def test_ownership_conservation(self):
        registry, _ = fresh_network(num_systems=3)
        registry.reassign(QubitRef(2, 1), PartyId.A)
        registry.reassign(QubitRef(2, 3), PartyId.B)
        census = registry.owner_census()
        assert len(census) == 12
        total = sum(len(registry.holdings(p)) for p in PartyId)
        assert total == 12

    def test_unknown_qubit_rejected(self):
        registry, _ = fresh_network()
        with pytest.raises(ProtocolViolationError):
            registry.owner_of(QubitRef(99, 1))

    def test_duplicate_system_rejected(self):
        registry, _ = fresh_network()
        with pytest.raises(ProtocolViolationError):
            registry.create_system(1)

    def test_ref_validation(self):
        with pytest.raises(ValueError):
            QubitRef(1, 5)
        with pytest.raises(ValueError):
            QubitRef(0, 1)


class TestQuantumSystem:
    def test_measurement_touches_log(self):
        _, systems = fresh_network()
        system = systems[1]
        assert system.is_pristine
        bits = system.measure_slots([1, 2, 3, 4], COMPUTATIONAL, rng(1))
        assert sorted(bits) == [0, 0, 1, 1]
        assert not system.is_pristine

    def test_lost_slot_cannot_be_measured(self):
        _, systems = fresh_network()
        system = systems[1]
        system.trace_out(2, rng(0))
        with pytest.raises(ProtocolViolationError):
            system.measure_slots([2], COMPUTATIONAL, rng(0))

    def test_trace_out_keeps_remaining_statistics_physical(self):
        # the surviving three qubits of a singlet still carry one 0 and two
        # 1s or two 0s and one 1; totals with the discarded bit stay balanced
        _, systems = fresh_network()
        stream = rng(7)
        for _ in range(100):
            system = QuantumSystem(1, make_singlet(4))
            system.trace_out(1, stream)
            bits = system.measure_slots([2, 3, 4], COMPUTATIONAL, stream)
            assert sum(bits) in (1, 2)

    def test_requires_four_qubits(self):
        with pytest.raises(ValueError):
            QuantumSystem(1, make_singlet(2))


class TestFaultModel:
    def test_defaults_are_honest(self):
        fault = FaultModel()
        assert fault.qubit_loss_prob == 0.0
        state = fault.prepare_state()
        np.testing.assert_allclose(state.amplitudes, make_singlet(4).amplitudes)

    def test_product_state_preparation(self):
        state = FaultModel(source_state="0011").prepare_state()
        assert state.amplitudes[3] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(qubit_loss_prob=1.5)
        with pytest.raises(ValueError):
            FaultModel(source_state="001")
        with pytest.raises(ValueError):
            FaultModel(source_state="0x11")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(qubit_loss_prob="0.1"), "qubit_loss_prob must be a number in"),
            (dict(qubit_loss_prob=None), "qubit_loss_prob must be a number in"),
            (dict(qubit_loss_prob=float("nan")), "qubit_loss_prob must be a number in"),
            (dict(qubit_loss_prob=np.True_), "qubit_loss_prob must be a number in"),
            (dict(source_state=None), "source_state must be 'singlet' or a 4-bit string"),
            (dict(source_state=1234), "source_state must be 'singlet' or a 4-bit string"),
            (dict(source_state=["0011"]), "source_state must be 'singlet' or a 4-bit string"),
            (dict(source_state="2011"), "source_state must be 'singlet' or a 4-bit string"),
            (dict(source_state="Singlet"), "source_state must be 'singlet' or a 4-bit string"),
        ],
    )
    def test_every_field_raises_value_error(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            FaultModel(**kwargs)

    @pytest.mark.parametrize("value", [np.float32(0.25), np.int64(0), 1])
    def test_any_real_loss_prob_accepted(self, value):
        assert FaultModel(qubit_loss_prob=value).qubit_loss_prob == value

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_loss_prob_rejected(self, flag):
        # a bool compares as 0 or 1, but the records would echo true/false
        with pytest.raises(ValueError, match="qubit_loss_prob must be a number"):
            FaultModel(qubit_loss_prob=flag)


class TestTransferQubits:
    def test_lossless_transfer_moves_ownership(self):
        registry, systems = fresh_network()
        refs = [QubitRef(1, 1), QubitRef(1, 2)]
        records = transfer_qubits(
            registry, systems, PartyId.C, PartyId.A, refs, FaultModel(), rng(0)
        )
        assert all(r.status is TransferStatus.DELIVERED for r in records)
        assert registry.holdings(PartyId.A) == refs

    def test_certain_loss(self):
        registry, systems = fresh_network()
        refs = [QubitRef(1, 1), QubitRef(1, 2)]
        records = transfer_qubits(
            registry,
            systems,
            PartyId.C,
            PartyId.A,
            refs,
            FaultModel(qubit_loss_prob=1.0),
            rng(0),
        )
        assert all(r.status is TransferStatus.LOST for r in records)
        assert registry.holdings(PartyId.A) == []
        assert systems[1].lost_slots == {1, 2}

    def test_lost_qubit_has_no_owner(self):
        registry, systems = fresh_network()
        transfer_qubits(
            registry,
            systems,
            PartyId.C,
            PartyId.A,
            [QubitRef(1, 1)],
            FaultModel(qubit_loss_prob=1.0),
            rng(0),
        )
        with pytest.raises(ProtocolViolationError):
            registry.owner_of(QubitRef(1, 1))

    def test_unowned_transfer_is_violation_not_loss(self):
        registry, systems = fresh_network()
        with pytest.raises(ProtocolViolationError):
            transfer_qubits(
                registry,
                systems,
                PartyId.A,
                PartyId.B,
                [QubitRef(1, 1)],
                FaultModel(),
                rng(0),
            )

    def test_loss_rate_matches_probability(self):
        registry = QubitRegistry()
        systems = {}
        count = 2500
        for system_id in range(1, count + 1):
            registry.create_system(system_id)
            systems[system_id] = QuantumSystem(system_id, make_singlet(4))
        refs = [
            QubitRef(system_id, slot)
            for system_id in range(1, count + 1)
            for slot in (1, 2, 3, 4)
        ]
        records = transfer_qubits(
            registry,
            systems,
            PartyId.C,
            PartyId.A,
            refs,
            FaultModel(qubit_loss_prob=0.5),
            rng(123),
        )
        delivered = sum(r.status is TransferStatus.DELIVERED for r in records)
        assert delivered / len(refs) == pytest.approx(0.5, abs=0.02)

    def test_reproducible_under_fixed_seed(self):
        outcomes = []
        for _ in range(2):
            registry, systems = fresh_network()
            records = transfer_qubits(
                registry,
                systems,
                PartyId.C,
                PartyId.A,
                [QubitRef(1, s) for s in (1, 2, 3, 4)],
                FaultModel(qubit_loss_prob=0.3),
                rng(99),
            )
            outcomes.append(tuple(r.status for r in records))
        assert outcomes[0] == outcomes[1]

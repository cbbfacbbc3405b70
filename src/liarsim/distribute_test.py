"""Distribute-and-test phase: C hands out four-qubit systems and audits them.

C prepares M four-qubit systems, distributes two qubits to A (who cannot
tell which two), one to B, and keeps the fourth. She then sacrifices two
randomly chosen subsets S1 and S2: for each tested system the qubits are
gathered at one party, everything is measured along a common direction,
and the four outcome bits must contain exactly two 0s and two 1s. Any
failed check aborts immediately. On success the remaining L systems are
returned untouched as the verified pool for the messaging protocol.

``run_distribute_and_test`` plays each subset's rounds in one array
pass. ``_dense_distribute_and_test`` plays the same protocol qubit by
qubit through the custody ledger and the dense engine; it is the
reference the tests hold the array pass to.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import (
    ArrayRecord,
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
    COMPUTATIONAL, MeasurementDirection, StateVector, _cdf, _draw_rows, _guide_table,
    make_singlet, mark_readonly, outcome_bits, readonly_array,
)

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
    ``codes`` (read-only int8) its assignment code, an index into
    ``tuple(Assignment)``.
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


@dataclass(frozen=True, eq=False)
class TestRounds(ArrayRecord):
    """Every test round one run played, in play order, as read-only arrays.

    Row ``i`` is one sacrificed system: its id (int64), its subset (int8,
    1 for S1 and 2 for S2), the common direction's ``theta`` and ``phi``,
    and the four outcome ``bits`` (int8, slots 1-4).
    """

    __test__ = False  # not a test case, despite the name (pytest opt-out)

    system_ids: np.ndarray
    subsets: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    bits: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (
            ("system_ids", np.int64), ("subsets", np.int8),
            ("theta", np.float64), ("phi", np.float64), ("bits", np.int8),
        ):
            object.__setattr__(self, name, readonly_array(getattr(self, name), dtype))
        n = self.system_ids.shape
        columns = (self.subsets.shape, self.theta.shape, self.phi.shape, self.bits.shape[:1])
        if len(n) != 1 or any(shape != n for shape in columns) or self.bits.shape[1:] != (4,):
            raise ValueError("need one subset, direction and four bits per tested system")

    @cached_property
    def passed(self) -> np.ndarray:
        """Read-only: whether each round's bits hold exactly two 0s and two 1s.

        Derived on first use; a run's own abort check sums the bits already.
        """
        return mark_readonly(self.bits.sum(axis=1) == 2)

    def __len__(self) -> int:
        return self.system_ids.size


@dataclass(frozen=True)
class DistributeOutcome:
    """A run's verdict; ``test_records`` holds every round it measured."""

    status: DistributeStatus
    pool: VerifiedPool | None
    failure: FailureInfo | None
    test_records: TestRounds


def _failure(step: str, system_id: int, detail: str, rounds: TestRounds) -> DistributeOutcome:
    return DistributeOutcome(
        DistributeStatus.FAILURE, None, FailureInfo(step, system_id, detail), rounds
    )


def _draw_codes(
    assignments: tuple[Assignment, ...] | None, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Assignment codes: pinned, or one uniform ``integers(0, 2)`` draw per system."""
    if assignments is None:
        return rng.integers(0, 2, size=size)
    return np.array([tuple(Assignment).index(a) for a in assignments], dtype=np.int64)


def _draw_subsets(
    plan: DistributionPlan, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S1, S2 and the pool, each as sorted system ids, from one permutation."""
    order = rng.permutation(plan.M) + 1
    cut = plan.N1 + plan.N2
    pool_ids = mark_readonly(np.sort(order[cut:]))  # the pool keeps it without a copy
    return np.sort(order[: plan.N1]), np.sort(order[plan.N1 : cut]), pool_ids


def _rotated_probabilities(source: StateVector, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """|(U^dag)^(x)4 psi|^2 per round, shape (rounds, 8, 2): slots 1-3, then slot 4.

    ``U`` has the up/down eigenvectors of the round's axis as columns, as
    in ``MeasurementDirection.basis_unitary``. Each pass applies U^dag to
    the leading qubit and cycles it to the back, so four passes restore
    the slot order.
    """
    ct, st = np.cos(theta / 2.0)[:, None], np.sin(theta / 2.0)[:, None]
    st_ph = st * np.exp(1j * phi)[:, None]
    amps = np.broadcast_to(source.amplitudes.reshape(2, 8), theta.shape + (2, 8))
    for _ in range(4):
        up, down = amps[:, 0], amps[:, 1]
        amps = np.stack((ct * up + st_ph.conj() * down, ct * down - st_ph * up), axis=2)
        amps = amps.reshape(-1, 2, 8)
    return (np.abs(amps) ** 2).reshape(-1, 8, 2)


def _round_law(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A round's outcome law from |psi|^2 as (..., slots 1-3, slot 4): the CDF
    of slots 1-3, and the chance ``c_zero`` that C reads 0 given slots 1-3.

    ``_cdf`` never draws a zero-probability row; such rows get ``c_zero`` 0.
    """
    marginal = probs.sum(axis=-1)
    c_zero = np.divide(probs[..., 0], marginal, out=np.zeros(marginal.shape), where=marginal > 0)
    return _cdf(marginal / marginal.sum(axis=-1, keepdims=True)), mark_readonly(c_zero)


# Every singlet round draws from this one law, through its guide table: the
# singlet's outcome law along any common direction is its computational one.
_SINGLET_CUM, _SINGLET_C_ZERO = _round_law(make_singlet(4).probabilities().reshape(8, 2))
_SINGLET_TABLE = _guide_table(_SINGLET_CUM)


def _play_rounds(
    source: StateVector,
    singlet: bool,
    sent: int,
    p_loss: float,
    policy: DirectionPolicy,
    rng: np.random.Generator,
    rounds: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw and measure one subset's rounds: (lost, theta, phi, bits).

    Each round takes, in the order the step-by-step protocol draws them,
    ``sent`` transit uniforms, two direction uniforms under the random
    policy, one uniform for the measurer's three outcomes and one for C's.
    Both measurements use one common direction and commute, so the four
    bits are a single draw: from the one singlet law for a singlet source,
    else from the source rotated into each round's direction.
    """
    u = rng.random((rounds, sent + (2 if policy is DirectionPolicy.RANDOM else 0) + 2))
    lost = np.any(u[:, :sent] < p_loss, axis=1)
    if policy is DirectionPolicy.RANDOM:
        theta = np.arccos(-1.0 + 2.0 * u[:, sent])
        phi = (2.0 * math.pi * u[:, sent + 1]) % (2.0 * math.pi)
    else:
        theta = phi = np.zeros(rounds)
    if singlet:
        drawn = _SINGLET_TABLE.draw(u[:, -2])
        c_zero = _SINGLET_C_ZERO.take(drawn)
    else:
        cum, c_zero = _round_law(_rotated_probabilities(source, theta, phi))
        drawn = _draw_rows(cum, u[:, -2])
        c_zero = c_zero[np.arange(rounds), drawn]
    c_bit = u[:, -1] >= c_zero
    bits = np.column_stack((outcome_bits(3)[drawn], c_bit.astype(np.int8)))
    return lost, theta, phi, bits


def _test_rounds(played: list[tuple]) -> TestRounds:
    return TestRounds(*(mark_readonly(np.concatenate(column)) for column in zip(*played)))


_NO_ROUNDS = (np.empty(0, np.int64), np.empty(0, np.int8), np.empty(0), np.empty(0),
              np.empty((0, 4), np.int8))


def run_distribute_and_test(
    plan: DistributionPlan,
    fault: FaultModel = NO_FAULTS,
    rng: np.random.Generator | None = None,
    direction_policy: DirectionPolicy = DirectionPolicy.RANDOM,
) -> DistributeOutcome:
    """Run the full distribute-and-test protocol for one batch of M systems.

    Returns SUCCESS with the untouched verified pool, or FAILURE naming
    the first step whose check failed. Every round of a subset is drawn
    and measured in one array pass; the stream is read in the order of
    the step-by-step protocol (``_dense_distribute_and_test``), so a
    successful run leaves ``rng`` exactly where that one does. An aborted
    run may read further, up to the end of the block it aborted in.
    """
    if rng is None:
        rng = np.random.default_rng()
    codes = _draw_codes(plan.assignments, plan.M, rng)
    source = fault.prepare_state()
    singlet = fault.source_state == "singlet"
    p_loss = fault.qubit_loss_prob

    # (i)-(ii): per system, A's two transit draws then B's one.
    lost = np.flatnonzero(rng.random(3 * plan.M) < p_loss)
    if lost.size:
        return _failure(
            "ii", int(lost[0]) // 3 + 1, "receipt count wrong: a qubit was lost in transit",
            _test_rounds([_NO_ROUNDS]),
        )

    # (iii): only now does C draw the test subsets.
    s1, s2, pool_ids = _draw_subsets(plan, rng)

    # (iv)-(viii): sacrifice each tested system; roles swap between subsets,
    # so the sender forwards A's two qubits in S1 and B's one in S2.
    played = [_NO_ROUNDS]
    for subset, ids, sent in ((1, s1, 2), (2, s2, 1)):
        lost, theta, phi, bits = _play_rounds(
            source, singlet, sent, p_loss, direction_policy, rng, ids.size
        )
        played.append((ids, np.full(ids.size, subset, np.int8), theta, phi, bits))
        bad = np.flatnonzero(lost | (bits.sum(axis=1) != 2))
        if bad.size:
            i = int(bad[0])
            if lost[i]:  # a round that lost a qubit is never measured
                step, played_to = "v", i
                detail = "the measurer did not receive all forwarded qubits"
            else:
                step, played_to = "vii", i + 1
                detail = f"outcome pattern {tuple(bits[i].tolist())} is not two 0s and two 1s"
            played[-1] = tuple(column[:played_to] for column in played[-1])
            return _failure(step, int(ids[i]), detail, _test_rounds(played))
    pool = VerifiedPool(pool_ids, codes[pool_ids - 1], source)
    return DistributeOutcome(DistributeStatus.SUCCESS, pool, None, _test_rounds(played))


def _dense_distribute_and_test(
    plan: DistributionPlan,
    fault: FaultModel = NO_FAULTS,
    rng: np.random.Generator | None = None,
    direction_policy: DirectionPolicy = DirectionPolicy.RANDOM,
) -> DistributeOutcome:
    """Step-by-step reference for ``run_distribute_and_test``: the exact oracle.

    Plays every qubit through the custody ledger and the dense engine,
    one transfer and one measurement at a time, and raises
    ``ProtocolViolationError`` if testing touched a pool system. No
    option selects it; tests compare the closed form against it.
    """
    if rng is None:
        rng = np.random.default_rng()
    registry = QubitRegistry()
    systems: dict[int, QuantumSystem] = {}
    codes = _draw_codes(plan.assignments, plan.M, rng)
    source = fault.prepare_state()

    # (i)-(ii): prepare, distribute, and immediately verify receipt counts.
    for j in range(1, plan.M + 1):
        assignment = tuple(Assignment)[codes[j - 1]]
        registry.create_system(j)
        systems[j] = QuantumSystem(j, source)
        a_refs = [QubitRef(j, slot) for slot in assignment.a_slots]
        b_refs = [QubitRef(j, assignment.b_slot)]
        outcomes = transfer_qubits(registry, systems, PartyId.C, PartyId.A, a_refs, fault, rng)
        outcomes += transfer_qubits(registry, systems, PartyId.C, PartyId.B, b_refs, fault, rng)
        lost = [rec.ref for rec in outcomes if rec.status is TransferStatus.LOST]
        if lost:
            return _failure(
                "ii", j, f"receipt count wrong: lost {len(lost)} qubit(s) in transit",
                _test_rounds([_NO_ROUNDS]),
            )

    # (iii): only now does C draw the test subsets.
    s1, s2, pool_ids = _draw_subsets(plan, rng)

    # (iv)-(viii): sacrifice each tested system; roles swap between subsets.
    played = [_NO_ROUNDS]
    for subset, tested_ids, sender, measurer in (
        (1, s1, PartyId.A, PartyId.B),
        (2, s2, PartyId.B, PartyId.A),
    ):
        for j in tested_ids.tolist():
            refs = registry.holdings(sender, j)
            outcomes = transfer_qubits(registry, systems, sender, measurer, refs, fault, rng)
            if any(rec.status is TransferStatus.LOST for rec in outcomes):
                return _failure(
                    "v", j, f"{measurer.value} did not receive all of {sender.value}'s qubits",
                    _test_rounds(played),
                )
            direction = choose_direction(rng, direction_policy)
            slots = [ref.slot for ref in registry.holdings(measurer, j)]
            reported = systems[j].measure_slots(slots, direction, rng)
            (c_bit,) = systems[j].measure_slots([4], direction, rng)
            bits = tuple(reported) + (c_bit,)
            played.append(([j], [subset], [direction.theta], [direction.phi], [bits]))
            if sorted(bits) != [0, 0, 1, 1]:
                return _failure(
                    "vii", j, f"outcome pattern {bits} is not two 0s and two 1s",
                    _test_rounds(played),
                )

    # testing must never touch the pool: each system still holds the source
    touched = [j for j in pool_ids.tolist() if not systems[j].is_pristine]
    if touched:
        raise ProtocolViolationError(f"pool system {touched[0]} was touched during testing")
    pool = VerifiedPool(pool_ids, codes[pool_ids - 1], source)
    return DistributeOutcome(DistributeStatus.SUCCESS, pool, None, _test_rounds(played))


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
    ids = mark_readonly(np.arange(1, L + 1))
    return VerifiedPool(ids, _draw_codes(assignments, L, rng), make_singlet(4))

"""Distribute-and-test phase: C hands out four-qubit systems and audits them.

C prepares M four-qubit systems, distributes two qubits to A (who cannot
tell which two), one to B, and keeps the fourth. She then sacrifices two
randomly chosen subsets S1 and S2: for each tested system the qubits are
gathered at one party, everything is measured along a common direction,
and the four outcome bits must contain exactly two 0s and two 1s. Any
failed check aborts immediately. On success the remaining L systems are
returned untouched as the verified pool for the messaging protocol.

``run_distribute_and_test`` plays every test round, S1's then S2's, in
one array pass, reading a singlet round's law in twelfths and a product
round's in closed form. ``_dense_distribute_and_test`` plays the same
protocol qubit by qubit through the custody ledger and the dense engine;
it is the reference the tests hold the array pass to.
"""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .channels import (
    FaultModel,
    PartyId,
    ProtocolViolationError,
    QuantumSystem,
    QubitRef,
    QubitRegistry,
    TransferStatus,
    transfer_qubits,
)
from .oracle import Assignment, source_weights
from .qstate import (
    COMPUTATIONAL, MeasurementDirection, _cdf, _draw_rows, mark_readonly, outcome_bits,
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

    Which two slots A receives for a pool system is drawn only when its
    list entry is made (``liar_protocol.generate_lists``), jointly with
    its outcome: no check before then reads it.
    """

    M: int
    N1: int
    N2: int
    L: int

    def __post_init__(self) -> None:
        if min(self.N1, self.N2, self.L) < 1 or self.M != self.N1 + self.N2 + self.L:
            raise ValueError(
                f"inconsistent sizes: M={self.M}, N1={self.N1}, N2={self.N2}, L={self.L} "
                "(require M = N1 + N2 + L with all parts >= 1)"
            )

    @classmethod
    def default(cls, M: int) -> "DistributionPlan":
        """Default split: N1 = N2 = ceil(M/4), remainder is the pool."""
        n = math.ceil(M / 4)
        return cls(M=M, N1=n, N2=n, L=M - 2 * n)


class FailureInfo(NamedTuple):
    step: str  # protocol step that failed: "ii", "v", or "vii"
    system_id: int | None


@dataclass(frozen=True, eq=False)
class VerifiedPool:
    """Verified, untouched systems, each holding the ``source_state`` source.

    ``system_ids`` (read-only 1-D int64) names each system of the batch;
    the producers make it so and nothing here checks it. ``len`` is the
    system count.
    """

    system_ids: np.ndarray
    source_state: str

    def __len__(self) -> int:
        return self.system_ids.size


@dataclass(frozen=True, eq=False)
class TestRounds:
    """Every test round one run played, in play order, as read-only arrays.

    Row ``i`` is one sacrificed system: its id (int64), its subset (int8,
    1 for S1 and 2 for S2), the common direction's ``theta`` and ``phi``
    (float64), and the four outcome ``bits`` (int8, slots 1-4). The
    producers make every column so and nothing here checks it. ``len`` is
    the round count.
    """

    __test__ = False  # not a test case, despite the name (pytest opt-out)

    system_ids: np.ndarray
    subsets: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    bits: np.ndarray

    @cached_property
    def passed(self) -> np.ndarray:
        """Read-only: whether each round's bits hold exactly two 0s and two 1s.

        Derived on first use; a run's own abort check sums the bits already.
        """
        return mark_readonly(self.bits.sum(axis=1) == 2)

    def __len__(self) -> int:
        return self.system_ids.size


class DistributeOutcome(NamedTuple):
    """A run's verdict: it succeeded exactly when ``failure`` is None, and
    then ``pool`` holds the verified systems. ``test_records`` holds every
    round it measured."""

    pool: VerifiedPool | None
    failure: FailureInfo | None
    test_records: TestRounds


def _failure(step: str, system_id: int, rounds: TestRounds) -> DistributeOutcome:
    return DistributeOutcome(None, FailureInfo(step, system_id), rounds)


def _draw_subsets(
    plan: DistributionPlan, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Tested ids (S1's, then S2's) and pool ids: read-only views of one permutation,
    each part sorted in place, which the records keep without a copy."""
    order = rng.permutation(plan.M) + 1
    cut = plan.N1 + plan.N2
    for part in (order[: plan.N1], order[plan.N1 : cut], order[cut:]):
        part.sort()
    mark_readonly(order)
    return order[:cut], order[cut:]


def _product_probabilities(source_state: str, theta: np.ndarray) -> np.ndarray:
    """A basis state's law per round, shape (rounds, 8, 2): slots 1-3, then slot 4.

    Along a common axis at polar angle theta, each qubit reads its own bit
    with probability cos^2(theta/2), independently, whatever the azimuth.
    """
    keep = outcome_bits(4) == outcome_bits(4)[int(source_state, 2)]  # each qubit's own bit
    cos2, sin2 = (f(theta / 2.0)[:, None, None] ** 2 for f in (np.cos, np.sin))
    return np.where(keep, cos2, sin2).prod(axis=-1).reshape(-1, 8, 2)


def _round_law(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A round's outcome law from its weights as (..., slots 1-3, slot 4): the
    CDF of slots 1-3, and the chance ``c_zero`` that C reads 0 given slots 1-3.

    ``_cdf`` never draws a zero-probability row; such rows get ``c_zero`` 0.
    """
    marginal = probs.sum(axis=-1)
    c_zero = np.divide(probs[..., 0], marginal, out=np.zeros(marginal.shape), where=marginal > 0)
    return _cdf(marginal / marginal.sum(axis=-1, keepdims=True)), mark_readonly(c_zero)


# Every singlet round draws from this one law, as no common rotation changes
# it; summed in integer twelfths, not floats, each CDF edge is exactly k/12.
_SINGLET_WEIGHTS = np.reshape(source_weights("singlet"), (8, 2))
_SINGLET_CUM = mark_readonly(_SINGLET_WEIGHTS.sum(axis=1).cumsum() / 12)
_SINGLET_C_ZERO = _round_law(_SINGLET_WEIGHTS)[1]
_UNBALANCED = mark_readonly(outcome_bits(4).sum(axis=1) != 2)  # not two 0s and two 1s


def _play_rounds(
    source_state: str, n1: int, n2: int, p_loss: float,
    policy: DirectionPolicy, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw and measure every test round, S1's then S2's: (lost, theta, phi, outcome).

    One block of uniforms holds each round's draws in the order the
    step-by-step protocol reads them: the sender's transit uniforms (A
    forwards two qubits in S1, B one in S2), two direction uniforms under
    the random policy, one uniform for the measurer's three outcomes and
    one for C's. Both measurements use one common direction and commute,
    so the four bits are a single draw: from the one singlet law for a
    singlet source, else from the basis state's law along each round's
    direction. ``outcome`` indexes ``outcome_bits(4)``; ``theta`` and
    ``phi`` are read-only.
    """
    width = 1 + (2 if policy is DirectionPolicy.RANDOM else 0) + 2  # an S2 round
    u = rng.random(n1 * (width + 1) + n2 * width)
    first = u[: n1 * (width + 1)].reshape(n1, width + 1)
    rounds = np.concatenate((first[:, 1:], u[n1 * (width + 1) :].reshape(n2, width)))
    # column 0 is each round's smallest transit uniform: S1 sends two qubits
    np.minimum(rounds[:n1, 0], first[:, 0], out=rounds[:n1, 0])
    lost = rounds[:, 0] < p_loss
    if policy is DirectionPolicy.RANDOM:
        theta = mark_readonly(np.arccos(-1.0 + 2.0 * rounds[:, 1]))
        # 2pi * u rounds below 2pi for every u < 1, so phi needs no "% 2pi"
        phi = mark_readonly(2.0 * math.pi * rounds[:, 2])
    else:
        theta = phi = mark_readonly(np.zeros(n1 + n2))
    if source_state == "singlet":
        drawn = _SINGLET_CUM.searchsorted(rounds[:, -2], side="right")
        c_zero = _SINGLET_C_ZERO.take(drawn)
    else:
        cum, c_zero = _round_law(_product_probabilities(source_state, theta))
        drawn = _draw_rows(cum, rounds[:, -2])
        c_zero = c_zero[np.arange(n1 + n2), drawn]
    # C's slot 4 is the low bit of the four-qubit outcome index
    return lost, theta, phi, 2 * drawn + (rounds[:, -1] >= c_zero)


def _test_rounds(played: list[tuple]) -> TestRounds:
    return TestRounds(*(mark_readonly(np.concatenate(column)) for column in zip(*played)))


_NO_ROUNDS = (np.empty(0, np.int64), np.empty(0, np.int8), np.empty(0), np.empty(0),
              np.empty((0, 4), np.int8))
_EMPTY_ROUNDS = _test_rounds([_NO_ROUNDS])  # the record of a run that played no round


def run_distribute_and_test(
    plan: DistributionPlan,
    fault: FaultModel,
    rng: np.random.Generator,
    direction_policy: DirectionPolicy = DirectionPolicy.RANDOM,
) -> DistributeOutcome:
    """Run the full distribute-and-test protocol for one batch of M systems.

    Returns the untouched verified pool, or a failure naming the first
    step whose check failed. Every test round, S1's then S2's, is
    drawn and measured in one array pass; the stream is read in the order
    of the step-by-step protocol (``_dense_distribute_and_test``), so a
    successful run leaves ``rng`` exactly where that one does. An aborted
    run may read further, up to the end of the test rounds.
    """
    p_loss = fault.qubit_loss_prob

    # (i)-(ii): per system, A's two transit draws then B's one.
    lost = (rng.random(3 * plan.M) < p_loss).nonzero()[0]
    if lost.size:
        return _failure("ii", int(lost[0]) // 3 + 1, _EMPTY_ROUNDS)

    # (iii): only now does C draw the test subsets.
    tested, pool_ids = _draw_subsets(plan, rng)

    # (iv)-(viii): sacrifice every tested system; roles swap between subsets,
    # so the sender forwards A's two qubits in S1 and B's one in S2.
    lost, theta, phi, outcome = _play_rounds(
        fault.source_state, plan.N1, plan.N2, p_loss, direction_policy, rng
    )
    subsets = np.full(tested.size, 2, np.int8)
    subsets[: plan.N1] = 1
    bits = mark_readonly(outcome_bits(4).take(outcome, axis=0))
    columns = (tested, mark_readonly(subsets), theta, phi, bits)
    bad = (lost | _UNBALANCED.take(outcome)).nonzero()[0]
    if bad.size:
        i = int(bad[0])
        # a round that lost a qubit is never measured
        step, played_to = ("v", i) if lost[i] else ("vii", i + 1)
        played = TestRounds(*(column[:played_to] for column in columns))
        return _failure(step, int(tested[i]), played)
    pool = VerifiedPool(pool_ids, fault.source_state)
    return DistributeOutcome(pool, None, TestRounds(*columns))


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
    option selects it; tests compare the closed form against it.

    No assignment is drawn: a test round gathers slots 1-3 at its measurer
    whichever two A holds, and a pool system's assignment is drawn with its
    list entry. So system j is routed by a fixed rule, j's parity.
    """
    registry = QubitRegistry()
    systems: dict[int, QuantumSystem] = {}
    source = fault.prepare_state()

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
            return _failure("ii", j, _EMPTY_ROUNDS)

    # (iii): only now does C draw the test subsets.
    tested, pool_ids = _draw_subsets(plan, rng)

    # (iv)-(viii): sacrifice each tested system; roles swap between subsets.
    played = [_NO_ROUNDS]
    for subset, tested_ids, sender, measurer in (
        (1, tested[: plan.N1], PartyId.A, PartyId.B),
        (2, tested[plan.N1 :], PartyId.B, PartyId.A),
    ):
        for j in tested_ids.tolist():
            refs = registry.holdings(sender, j)
            outcomes = transfer_qubits(registry, systems, sender, measurer, refs, fault, rng)
            if any(rec.status is TransferStatus.LOST for rec in outcomes):
                return _failure("v", j, _test_rounds(played))
            direction = choose_direction(rng, direction_policy)
            slots = [ref.slot for ref in registry.holdings(measurer, j)]
            reported = systems[j].measure_slots(slots, direction, rng)
            (c_bit,) = systems[j].measure_slots([4], direction, rng)
            bits = tuple(reported) + (c_bit,)
            played.append((
                np.array([j]), np.array([subset], np.int8), np.array([direction.theta]),
                np.array([direction.phi]), np.array([bits], np.int8),
            ))
            if sorted(bits) != [0, 0, 1, 1]:
                return _failure("vii", j, _test_rounds(played))

    # testing must never touch the pool: each system still holds the source
    touched = [j for j in pool_ids.tolist() if not systems[j].is_pristine]
    if touched:
        raise ProtocolViolationError(f"pool system {touched[0]} was touched during testing")
    pool = VerifiedPool(pool_ids, fault.source_state)
    return DistributeOutcome(pool, None, _test_rounds(played))


def _as_int(name: str, value) -> int:
    """``value`` as a plain int; a bool or non-integer raises."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


# typed: True and 3.0 equal 1 and 3, and must reach the check, not their pools;
# a few sizes only, so a sweep over L holds the pools of its last few sizes
@lru_cache(maxsize=8, typed=True)
def make_verified_pool(L: int) -> VerifiedPool:
    """Build a verified pool of L systems directly, skipping the testing phase.

    Equivalent to the pool returned by a successful run with an honest
    source and no faults: pool systems are never touched during testing,
    so they still hold the singlet. It draws nothing, so one read-only
    pool per L serves every call. Intended for experiments that study
    only the messaging protocol.
    """
    L = _as_int("pool size", L)
    if L < 1:
        raise ValueError(f"pool size must be positive, got {L}")
    return VerifiedPool(mark_readonly(np.arange(1, L + 1)), "singlet")

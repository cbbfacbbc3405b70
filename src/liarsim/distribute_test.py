"""Distribute-and-test phase: C hands out four-qubit systems and audits them.

C prepares M four-qubit systems, distributes two qubits to A (who cannot
tell which two), one to B, and keeps the fourth. She then sacrifices two
randomly chosen subsets S1 and S2: for each tested system the qubits are
gathered at one party, everything is measured along a common direction,
and the four outcome bits must contain exactly two 0s and two 1s. Any
failed check aborts immediately. On success the remaining L systems are
returned untouched as the verified pool for the messaging protocol.

A run's verdict reads only whether, and at which step, the phase aborted,
so ``run_distribute_and_test`` draws just the first failure of the
phase's exact law: every transit and every round is independent, and a
round is balanced with a chance ``_balanced_chance`` that depends only on
the source and the direction policy. ``channels._dense_distribute_and_test``
plays the same protocol qubit by qubit through the custody ledger and the
dense engine; it is the reference the tests hold the law to, and this
module never loads it.
"""
from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .oracle import source_weights
from .records import as_int, checked_record, probability


class DirectionPolicy(enum.Enum):
    """How C picks the common measurement direction for each system."""

    RANDOM = "random"
    FIXED = "fixed"


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


NO_FAULTS = FaultModel()


class DistributionPlan(checked_record("DistributionPlan", M=int, N1=int, N2=int, L=int)):
    """Sizes for one distribute-and-test run: M = N1 + N2 + L, each a plain int.

    Which two slots A receives for a pool system is drawn only when its
    list entry is made (``liar_protocol.generate_lists``), jointly with
    its outcome: no check before then reads it.
    """

    __slots__ = ()

    def __new__(cls, M: int, N1: int, N2: int, L: int) -> DistributionPlan:
        M, N1, N2, L = (as_int(name, size) for name, size in zip(cls._fields, (M, N1, N2, L)))
        if min(N1, N2, L) < 1 or M != N1 + N2 + L:
            raise ValueError(
                f"inconsistent sizes: M={M}, N1={N1}, N2={N2}, L={L} "
                "(require M = N1 + N2 + L with all parts >= 1)"
            )
        return super().__new__(cls, M, N1, N2, L)

    @classmethod
    def default(cls, M: int) -> "DistributionPlan":
        """Default split: N1 = N2 = ceil(M/4), remainder is the pool."""
        n = math.ceil(M / 4)
        return cls(M=M, N1=n, N2=n, L=M - 2 * n)


class FailureInfo(NamedTuple):
    """The check that aborted a run: step "ii", "v" or "vii".

    On step (ii) ``system_id`` is the system whose transit was lost. A
    test round's failure names no system (``None``): the run's
    ``test_records`` name the round, which is the one after the last
    played at (v) and the last played at (vii).
    """

    step: str
    system_id: int | None


class VerifiedPool:
    """``size`` verified, untouched systems, each holding the ``source_state``
    source: the messaging protocol reads nothing else of a pool. A plain
    class, not a tuple, so that ``len`` is the size; pools compare by identity.
    """

    __slots__ = ("size", "source_state")

    def __init__(self, size: int, source_state: str) -> None:
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "source_state", source_state)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: a pool is read-only")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return self.size


class DistributeOutcome(NamedTuple):
    """A run's verdict: it succeeded exactly when ``failure`` is None, and
    then ``pool`` holds the verified systems. ``test_records`` is the
    range of the test rounds played, S1's then S2's, in play order."""

    pool: VerifiedPool | None
    failure: FailureInfo | None
    test_records: range


def _failure(step: str, system_id: int | None, played: int) -> DistributeOutcome:
    return DistributeOutcome(None, FailureInfo(step, system_id), range(played))


def _balanced_chance(source_state: str, policy: DirectionPolicy) -> float:
    """b, the chance that a tested round reads two 0s and two 1s, exactly.

    Every singlet round is balanced, along any direction. Along the fixed
    axis a basis state x reads itself. Along a uniform direction each qubit
    keeps its bit with chance c = cos^2(theta/2), and c is uniform on
    [0, 1], so an outcome y at Hamming distance d from x has chance
    1 / (5 C(4, d)). Over the six balanced y that sums to a whole number
    of sixtieths: 8/15 for two 1s, 3/10 for one or three, 1/5 for 0000.
    """
    if source_state == "singlet":
        return 1.0
    x = int(source_state, 2)
    if policy is DirectionPolicy.FIXED:
        return float(x.bit_count() == 2)
    balanced = (y for y in range(16) if y.bit_count() == 2)
    return sum(12 // math.comb(4, (x ^ y).bit_count()) for y in balanced) / 60


def run_distribute_and_test(
    plan: DistributionPlan,
    fault: FaultModel,
    rng: np.random.Generator,
    direction_policy: DirectionPolicy = DirectionPolicy.RANDOM,
) -> DistributeOutcome:
    """Run the full distribute-and-test protocol for one batch of M systems.

    Returns the untouched verified pool, or a failure naming the first
    step whose check failed. Draws only that first failure, in protocol
    order: at most one ``geometric`` per segment (the 3M transits, S1's
    rounds, S2's rounds) and none for a segment that cannot fail, then
    one uniform to tell (v) from (vii) when both can happen. A fault-free
    singlet run draws nothing.
    """
    p = fault.qubit_loss_prob

    # (i)-(ii): per system, A's two transits then B's one, each lost with chance p
    if p and (lost := rng.geometric(p)) <= 3 * plan.M:
        return _failure("ii", (lost - 1) // 3 + 1, 0)

    # (iv)-(viii): a round fails at (v) if the sender loses a qubit (A forwards
    # two in S1, B one in S2; p(2 - p) keeps a tiny p), else at (vii) if unbalanced
    unbalanced = 1.0 - _balanced_chance(fault.source_state, direction_policy)
    played = 0
    for rounds, loss in ((plan.N1, p * (2.0 - p)), (plan.N2, p)):
        fail = loss + (1.0 - loss) * unbalanced
        if fail and (k := rng.geometric(fail)) <= rounds:
            at_v = loss > 0 and (unbalanced == 0 or rng.random() < loss / fail)
            return _failure("v" if at_v else "vii", None, played + k - at_v)
        played += rounds
    return DistributeOutcome(VerifiedPool(plan.L, fault.source_state), None, range(played))


# typed: True and 3.0 equal 1 and 3, and must reach the check, not their pools;
# a few sizes only, so a sweep over L holds the pools of its last few sizes. A
# cached call takes a quarter of a build's time (0.13 against 0.54 us by
# timeit on a 2-core x86-64 VM).
@lru_cache(maxsize=8, typed=True)
def make_verified_pool(L: int) -> VerifiedPool:
    """Build a verified pool of L systems directly, skipping the testing phase.

    Equivalent to the pool returned by a successful run with an honest
    source and no faults: pool systems are never touched during testing,
    so they still hold the singlet. It draws nothing, so one read-only
    pool per L serves every call. Intended for experiments that study
    only the messaging protocol.
    """
    L = as_int("pool size", L)
    if L < 1:
        raise ValueError(f"pool size must be positive, got {L}")
    return VerifiedPool(L, "singlet")


# bench/tracer.py looks transfer_qubits up here; it loads the custody ledger
# on first use only. Both this hook and the package's go with ROADMAP item 15.
def __getattr__(name: str):
    if name == "transfer_qubits":
        from .channels import transfer_qubits

        return transfer_qubits
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

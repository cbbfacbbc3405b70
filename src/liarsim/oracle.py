"""Exact probability tables behind the three-party protocol.

Everything here is computed by brute-force enumeration of the four-qubit
singlet's joint outcome distribution and marginalization onto the slots
each party holds. The tables serve as ground truth for the Monte-Carlo
samplers and fix the protocol thresholds (expected list lengths,
per-entry escape rates of fabricated claims).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .qstate import COMPUTATIONAL, joint_distribution, make_singlet, outcome_bits

# Treat enumerated probabilities below this as structural zeros.
PROB_ATOL = 1e-12

# An unordered outcome pair, stored sorted: (0,0), (0,1) or (1,1).
PairOutcome = tuple[int, int]
RoundOutcome = tuple[PairOutcome, int, int]


class Assignment(enum.Enum):
    """Which two slots of a four-qubit system A holds.

    B holds the complementary slot of {2, 3}; C always holds slot 4.
    Only C knows which case applies. A system's assignment code is the
    index of its assignment in ``tuple(Assignment)``.
    """

    A_HOLDS_12 = ((1, 2), 3)
    A_HOLDS_13 = ((1, 3), 2)

    def __init__(self, a_slots: tuple[int, int], b_slot: int) -> None:
        self.a_slots = a_slots
        self.b_slot = b_slot

    @property
    def c_slot(self) -> int:
        return 4

    @property
    def label(self) -> str:
        return {"A_HOLDS_12": "A_holds_12", "A_HOLDS_13": "A_holds_13"}[self.name]


@dataclass(frozen=True)
class RoundDistribution:
    """Joint distribution of one round's outcomes (A's pair, B's bit, C's bit).

    A's pair is unordered (she cannot tell her two qubits apart), so
    keys are ``((lo, hi), b_bit, c_bit)`` with ``lo <= hi``. Nonzero
    entries always have exactly two 0s and two 1s across the four bits.
    """

    label: str
    table: dict[RoundOutcome, float]

    def __post_init__(self) -> None:
        total = sum(self.table.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        for (pair, b, c), p in self.table.items():
            if p > PROB_ATOL and pair[0] + pair[1] + b + c != 2:
                raise ValueError(f"unbalanced support element {(pair, b, c)}")

    def probability(self, pair: PairOutcome, b_bit: int, c_bit: int) -> float:
        key = (tuple(sorted(pair)), b_bit, c_bit)
        return self.table.get(key, 0.0)

    def pair_marginal(self) -> dict[PairOutcome, float]:
        out: dict[PairOutcome, float] = {}
        for (pair, _, _), p in self.table.items():
            out[pair] = out.get(pair, 0.0) + p
        return out

    def p_double(self, m: int) -> float:
        """Probability that A's pair reads (m, m)."""
        return self.pair_marginal().get((m, m), 0.0)

    def p_mixed(self) -> float:
        """Probability that A's pair reads one 0 and one 1."""
        return self.pair_marginal().get((0, 1), 0.0)


def _enumerate(assignment: Assignment) -> dict[RoundOutcome, float]:
    probs = joint_distribution(make_singlet(4), COMPUTATIONAL)
    table: dict[RoundOutcome, float] = {}
    for bits, p in zip(outcome_bits(4).tolist(), probs):
        if p <= PROB_ATOL:
            continue
        pair = tuple(sorted(bits[s - 1] for s in assignment.a_slots))
        key = (pair, bits[assignment.b_slot - 1], bits[assignment.c_slot - 1])
        table[key] = table.get(key, 0.0) + float(p)
    return table


def round_distribution(
    assignment: Assignment | None = None, a12_weight: float = 0.5
) -> RoundDistribution:
    """Exact outcome distribution for one list-generation round.

    With ``assignment=None`` the two assignments are mixed with weight
    ``a12_weight`` on A_HOLDS_12 (A never learns which case occurred,
    so the mixture is what her statistics look like).
    """
    if assignment is not None:
        return RoundDistribution(assignment.label, _enumerate(assignment))
    if not 0.0 <= a12_weight <= 1.0:
        raise ValueError(f"a12_weight must lie in [0, 1], got {a12_weight!r}")
    table: dict[RoundOutcome, float] = {}
    for member, weight in (
        (Assignment.A_HOLDS_12, a12_weight),
        (Assignment.A_HOLDS_13, 1.0 - a12_weight),
    ):
        for key, p in _enumerate(member).items():
            table[key] = table.get(key, 0.0) + weight * p
    return RoundDistribution(f"mixture(a12_weight={a12_weight})", table)


@dataclass(frozen=True)
class EscapeProbabilities:
    """Per-entry survival chances of fabricated list claims.

    ``p_fake_entry_passes_B``: A claims a mixed-outcome position as a
    double for message m; probability B's bit happens to read 1-m.
    ``p_fake_entry_passes_C_vs_lA``: B forwards a position his own bit
    makes plausible (l_B = 1-m); probability A's true pair there really
    is (m, m), so the claim survives against the full list A gave C.
    ``p_fake_double_passes_C``: A rewrites a mixed position as a double
    in the full list she sends C; probability C's own bit is consistent.
    ``expected_double_fraction``: expected fraction of positions whose
    pair equals (m, m) for one fixed m - the honest claimed-list length
    per unit L, which anchors the length thresholds.
    """

    p_fake_entry_passes_B: float
    p_fake_entry_passes_C_vs_lA: float
    p_fake_double_passes_C: float
    expected_double_fraction: float


def escape_probabilities(a12_weight: float = 0.5) -> EscapeProbabilities:
    """Compute all per-entry escape rates by exact enumeration.

    Values are symmetric in the message bit m (the tables are invariant
    under flipping every outcome), so each rate is quoted once.
    """
    mixture = round_distribution(None, a12_weight).table

    def total(predicate) -> float:
        return sum(p for key, p in mixture.items() if predicate(*key))

    m = 0
    p_mixed_and_b_ok = total(lambda pair, b, c: pair == (0, 1) and b == 1 - m)
    p_mixed = total(lambda pair, b, c: pair == (0, 1))
    p_double_and_b_ok = total(lambda pair, b, c: pair == (m, m) and b == 1 - m)
    p_b_ok = total(lambda pair, b, c: b == 1 - m)
    p_mixed_and_c_ok = total(lambda pair, b, c: pair == (0, 1) and c == 1 - m)
    return EscapeProbabilities(
        p_fake_entry_passes_B=p_mixed_and_b_ok / p_mixed,
        p_fake_entry_passes_C_vs_lA=p_double_and_b_ok / p_b_ok,
        p_fake_double_passes_C=p_mixed_and_c_ok / p_mixed,
        expected_double_fraction=total(lambda pair, b, c: pair == (m, m)),
    )


# Exact expected fraction of positions carrying a given double (m, m)
# under the 50/50 assignment mixture; anchors all length thresholds.
EXPECTED_DOUBLE_FRACTION = escape_probabilities().expected_double_fraction


def rejection_lower_bound(n_fabricated: int) -> float:
    """Minimum rejection probability when n fabricated entries are checked.

    Each fabricated entry independently survives with probability at
    most 1/2, so the rejection probability is at least (2^n - 1) / 2^n.
    """
    if n_fabricated < 0:
        raise ValueError(f"n_fabricated must be nonnegative, got {n_fabricated}")
    return 1.0 - 0.5**n_fabricated


def as_fraction(value: float, max_denominator: int = 1000) -> str:
    """Render an enumerated probability as its reduced fraction string."""
    frac = Fraction(value).limit_denominator(max_denominator)
    if abs(float(frac) - value) > 1e-9:
        return f"{value:.12f}"
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"

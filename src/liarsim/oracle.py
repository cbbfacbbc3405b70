"""Exact probability tables behind the three-party protocol.

``source_weights`` gives any named source's law in twelfths, and
``list_cells`` reads it onto the slots each party holds: the 24 equally
likely entries of one list position. Every table counts the singlet's
cells, read off its six integer outcome weights (``SINGLET_WEIGHTS``),
and fixes the protocol thresholds (expected list lengths, per-entry escape
rates of fabricated claims). Exact ``Fraction``s are built only on use.
"""
from __future__ import annotations

import enum
import functools
from collections import Counter
from typing import NamedTuple

# The singlet (2|0011> + 2|1100> - |0101> - |0110> - |1001> - |1010>) / (2*sqrt(3))
# in the computational basis: each outcome's bits, slot 1 first, and its
# probability in twelfths. The ten unbalanced outcomes have weight 0.
SINGLET_WEIGHTS = {
    (0, 0, 1, 1): 4, (1, 1, 0, 0): 4,
    (0, 1, 0, 1): 1, (0, 1, 1, 0): 1, (1, 0, 0, 1): 1, (1, 0, 1, 0): 1,
}


# every four-bit string, by outcome index: each names a basis-state source
_BASIS_NAMES = tuple(format(index, "04b") for index in range(16))


def source_weights(source_state: str) -> tuple[int, ...]:
    """A source's computational law as 16 weights in twelfths, by outcome
    index: ``SINGLET_WEIGHTS`` for ``"singlet"``, all 12 on a basis state's.
    Any other name raises ValueError."""
    if not isinstance(source_state, str) or source_state not in ("singlet", *_BASIS_NAMES):
        raise ValueError(f"source_state must be 'singlet' or a 4-bit string, got {source_state!r}")
    return _weights(source_state)


@functools.cache  # built once per valid name
def _weights(source_state: str) -> tuple[int, ...]:
    law = SINGLET_WEIGHTS if source_state == "singlet" else {tuple(map(int, source_state)): 12}
    return tuple(law.get(tuple(map(int, name)), 0) for name in _BASIS_NAMES)


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
        return "A_holds_" + "".join(map(str, self.a_slots))


@functools.cache  # built once per valid name
def list_cells(source_state: str) -> tuple[tuple[int, int, int], ...]:
    """One list position's 24 equally likely entries under the named source,
    each (A's count of 1s, B's bit, C's bit): 12 per assignment code, in
    ``tuple(Assignment)`` order, each code's listing the source's outcomes
    in index order, each as often as its weight in twelfths."""
    return tuple(
        (bits[a.a_slots[0] - 1] + bits[a.a_slots[1] - 1], bits[a.b_slot - 1], bits[a.c_slot - 1])
        for a in Assignment
        for name, weight in zip(_BASIS_NAMES, source_weights(source_state))
        for bits in [tuple(map(int, name))] * weight
    )


class RoundDistribution(NamedTuple):
    """Exact joint law of one round's outcomes (A's pair, B's bit, C's bit).

    A's pair is unordered (she cannot tell her two qubits apart), so
    keys are ``((lo, hi), b_bit, c_bit)`` with ``lo <= hi``; the values
    are ``Fraction``s. Only outcomes of nonzero weight appear, and each
    has exactly two 0s and two 1s across the four bits.
    """

    label: str
    table: dict

    def pair_marginal(self) -> dict:
        out: dict = {}
        for (pair, _, _), p in self.table.items():
            out[pair] = out.get(pair, 0) + p
        return out


def _round_weights(assignment: Assignment | None) -> tuple[dict, int]:
    """Integer weight of each round outcome, and the weights' total: the
    singlet's list cells of one assignment (12) or of both (24, the
    half-and-half mixture) that read that outcome."""
    cells = list_cells("singlet")
    if assignment is not None:
        code = tuple(Assignment).index(assignment)
        cells = cells[12 * code : 12 * code + 12]
    pairs = ((0, 0), (0, 1), (1, 1))  # A's unordered pair, by its count of 1s
    return Counter((pairs[ones], b, c) for ones, b, c in cells), len(cells)


def round_distribution(assignment: Assignment | None = None) -> RoundDistribution:
    """Exact outcome distribution for one list-generation round.

    With ``assignment=None`` the two assignments are mixed half and half,
    as C assigns them (A never learns which case occurred, so the
    mixture is what her statistics look like).
    """
    from fractions import Fraction  # loaded on use: only the exact tables need it

    weights, total = _round_weights(assignment)
    label = "mixture(a12_weight=0.5)" if assignment is None else assignment.label
    return RoundDistribution(label, {key: Fraction(w, total) for key, w in weights.items()})


class EscapeProbabilities(NamedTuple):
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

    ``escape_probabilities`` gives each rate as a float, and
    ``escape_ratios`` as its exact ``(numerator, denominator)``.
    """

    p_fake_entry_passes_B: float
    p_fake_entry_passes_C_vs_lA: float
    p_fake_double_passes_C: float
    expected_double_fraction: float


def escape_ratios() -> EscapeProbabilities:
    """Each escape rate as the two integer weights, under the assignment
    mixture, whose ratio it is.

    Values are symmetric in the message bit m (the tables are invariant
    under flipping every outcome), so each rate is quoted once, for m = 0.
    """
    weights, total = _round_weights(None)

    def weight(pair=None, b=None, c=None) -> int:
        """Total weight of the outcomes that match every given part."""
        return sum(
            w for (p, pb, pc), w in weights.items()
            if pair in (None, p) and b in (None, pb) and c in (None, pc)
        )

    mixed = weight(pair=(0, 1))
    return EscapeProbabilities(
        (weight(pair=(0, 1), b=1), mixed),
        (weight(pair=(0, 0), b=1), weight(b=1)),
        (weight(pair=(0, 1), c=1), mixed),
        (weight(pair=(0, 0)), total),
    )


def escape_probabilities() -> EscapeProbabilities:
    """Every per-entry escape rate, each the float nearest its exact ratio."""
    return EscapeProbabilities._make(num / den for num, den in escape_ratios())


# The expected fraction of positions carrying a given double (m, m) under
# the 50/50 assignment mixture, as (numerator, denominator): 5/24. It
# anchors every length threshold.
EXPECTED_DOUBLE_FRACTION = escape_ratios().expected_double_fraction


def rejection_lower_bound(n_fabricated: int) -> float:
    """Minimum rejection probability when n fabricated entries are checked.

    Each fabricated entry independently survives with probability at
    most 1/2, so the rejection probability is at least (2^n - 1) / 2^n.
    """
    if n_fabricated < 0:
        raise ValueError(f"n_fabricated must be nonnegative, got {n_fabricated}")
    return 1.0 - 0.5**n_fabricated

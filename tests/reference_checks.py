"""Reference forms of the payload checks, kept only to test the program.

``b_accepts``, ``c_adjudicate`` and ``runner._escape_counts`` index their
lists once with positions they have already validated. These helpers are
the checks written out whole: each re-reads its inputs as arrays and
drops out-of-range positions itself, so it takes any claim, valid or not.
``too_short_tail`` is the exact chance that an honest claim is too short.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np


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


def stage1_violations(l_AC: Sequence[int], l_C: np.ndarray) -> np.ndarray:
    """Positions where a claimed double contradicts C's own bit."""
    arr = np.asarray(l_AC)
    l_C = np.asarray(l_C)
    mask = ((arr == 0) & (l_C != 1)) | ((arr == 2) & (l_C != 0))
    return mask.nonzero()[0] + 1


def stage2_mismatches(
    forwarded: Sequence[int], l_AC: Sequence[int], m_BC: int
) -> np.ndarray:
    """Forwarded positions that are not (m_BC, m_BC) doubles in l_AC."""
    arr = np.asarray(l_AC)
    fwd = np.asarray(forwarded, dtype=np.int64)
    fwd = fwd[(fwd >= 1) & (fwd <= len(arr))]
    return fwd[arr[fwd - 1] != 2 * m_BC]


def too_short_tail(L: int, min_fraction: float = 0.5) -> float:
    """Exact P(Bin(L, 5/24) < ceil(min_fraction * 5L/24)), as the float nearest it.

    An honest claim lists every double (m, m), K ~ Bin(L, 5/24) positions,
    and B rejects it TOO_SHORT exactly when K < min_fraction * 5L/24.
    """
    p = Fraction(5, 24)
    required = math.ceil(Fraction(min_fraction) * p * L)
    return float(sum(math.comb(L, k) * p**k * (1 - p) ** (L - k) for k in range(required)))

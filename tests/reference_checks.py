"""Reference forms of the payload checks, kept only to test the program.

``b_accepts``, ``c_adjudicate`` and ``runner._escape_counts`` index their
lists once with positions they have already validated. These helpers are
the checks written out whole: each re-reads its inputs as arrays and
drops out-of-range positions itself, so it takes any claim, valid or not.
``too_short_tail`` is the exact chance that an honest claim is too short.
``strategy_A_act_reference`` builds A's action array by array, where
``adversary.strategy_A_act`` makes each message in one pass;
``strategy_B_act_reference`` is B's forgery written out, and both draw
their positions through ``subset_reference``, the program's subset rule
written without ``argpartition``; A's bit is whether a raw word is at least 2**63.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from liarsim.adversary import ActionA, ActionB, AKind, BKind, StrategyA, StrategyB
from liarsim.qstate import mark_readonly


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


def subset_reference(candidates: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k of the sorted ``candidates`` by the program's rule: all or none of them
    with no draw, otherwise those at the k smallest of n raw 64-bit keys, found
    by a full ``argsort``."""
    n = len(candidates)
    if k in (0, n):
        drawn = np.array(candidates[:k])
    else:
        drawn = candidates[np.sort(np.argsort(rng.bit_generator.random_raw(n))[:k])]
    return mark_readonly(drawn)


def strategy_A_act_reference(
    strategy: StrategyA, l_A: np.ndarray, rng: np.random.Generator
) -> ActionA:
    """A's action from the same draws, m first (1 when a raw word is at least
    2**63) and then one subset draw: a split claim joins her doubles of m to
    the drawn positions and sorts them, and a split list for C is one
    ``np.where`` over the mixed positions."""
    arr = np.asarray(l_A)
    m = int(rng.bit_generator.random_raw() >= 2**63)
    honest_positions = mark_readonly((arr == 2 * m).nonzero()[0] + 1)
    if strategy.kind is AKind.HONEST:
        return ActionA(m, honest_positions, m, arr)
    is_mixed = arr == 1
    mixed = mark_readonly(is_mixed.nonzero()[0] + 1)
    n = min(strategy.count, mixed.size)
    drawn = subset_reference(mixed, n, rng)
    capped = n < strategy.count
    if strategy.kind is AKind.SPLIT_MESSAGE:
        m_AC = 1 - m
        claimed = np.concatenate((honest_positions, drawn))
        claimed.sort()
        l_AC = mark_readonly(np.where(is_mixed, 2 * m_AC, arr))
        return ActionA(m, mark_readonly(claimed), m_AC, l_AC, drawn, mixed, capped)
    forged = arr.copy()
    forged[drawn - 1] = 2 * m
    return ActionA(m, honest_positions, m, mark_readonly(forged), altered_positions=drawn,
                   capped=capped)


def strategy_B_act_reference(
    strategy: StrategyB, received: tuple, l_B: np.ndarray, rng: np.random.Generator
) -> ActionB:
    """B's action from the same draws: an honest B forwards what arrived; a
    forger sends the flipped message and draws his count, by default the
    integer nearest 5L/24 with a tie rounding up, from the positions where
    his own bit is the message he received."""
    m_AB, positions = received
    if strategy.kind is BKind.HONEST:
        return ActionB(m_AB, positions)
    bits = np.asarray(l_B)
    target = strategy.count
    if target is None:
        target = math.floor(Fraction(5 * len(bits), 24) + Fraction(1, 2))
    plausible = np.flatnonzero(bits == m_AB) + 1
    k = min(target, plausible.size)
    forwarded = subset_reference(plausible, k, rng)
    return ActionB(1 - m_AB, forwarded, forwarded, k < target)

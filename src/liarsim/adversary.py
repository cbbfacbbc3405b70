"""Party strategies: honest behavior and parameterized cheating.

Adversaries here are classical-post-measurement: they measure their
qubits honestly (the distribute-and-test phase already certified the
state) and cheat only on the classical data they send. Fabricated
claims are always placed on mixed-outcome positions - under unordered
pair delivery that is the cheater's best option, since claiming a
position contradicted by the cheater's own data is strictly worse.

A strategy is one kind, an ``AKind``/``BKind`` member or its descriptor
name, and one count, a cheating descriptor's one parameter (``split:n=3``).
"""
from __future__ import annotations

import enum
import functools
from typing import NamedTuple

import numpy as np

from .distribute_test import _as_int
from .oracle import EXPECTED_DOUBLE_FRACTION
from .qstate import checked_record, mark_readonly


class AKind(enum.Enum):
    HONEST = "honest"
    SPLIT_MESSAGE = "split"
    FORGED_FULL_LIST = "forgefull"


class BKind(enum.Enum):
    HONEST = "honest"
    FLIP_AND_FORGE = "flipforge"


# each cheating kind's one descriptor parameter, which sets its count
_PARAMETER = {AKind.SPLIT_MESSAGE: "n", AKind.FORGED_FULL_LIST: "k", BKind.FLIP_AND_FORGE: "k"}


def _check(kinds: type[enum.Enum], kind, count, unset: int | None) -> tuple[enum.Enum, int | None]:
    """A strategy's kind as a member of ``kinds`` and its count as an int or
    ``unset``: a bool, float or negative count, or an honest kind's, raises."""
    kind = kinds(kind)
    if count is not None or unset is not None:
        count = _as_int("strategy count", count)
        if count < 0:
            raise ValueError(f"strategy count must be nonnegative, got {count}")
    if kind not in _PARAMETER and count != unset:  # an honest kind has no parameter
        raise ValueError(f"an honest strategy takes no count, got {count}")
    return kind, count


class StrategyA(checked_record("StrategyA", kind=AKind, count=int)):
    """A's behavior: honest, split messages, or forge the full list.

    A draws the bit she wants to deliver first in every run.
    SPLIT_MESSAGE sends B the opposite of what it sends C, padding B's
    position list with ``count`` fabricated entries. FORGED_FULL_LIST
    keeps the messages honest but rewrites ``count`` mixed positions of
    the full list as doubles (a calibration strategy for the per-entry
    detection rate). An honest A's count is 0.
    """

    __slots__ = ()

    def __new__(cls, kind: AKind | str = AKind.HONEST, count: int = 0) -> StrategyA:
        return super().__new__(cls, *_check(AKind, kind, count, 0))

    @classmethod
    def honest(cls) -> "StrategyA":
        return cls(AKind.HONEST)

    @classmethod
    def split_message(cls, n: int) -> "StrategyA":
        return cls(AKind.SPLIT_MESSAGE, n)

    @classmethod
    def forged_full_list(cls, k: int) -> "StrategyA":
        return cls(AKind.FORGED_FULL_LIST, k)


class StrategyB(checked_record("StrategyB", kind=BKind, count=int | None)):
    """B's behavior: honest forwarding, or flip the message and forge.

    FLIP_AND_FORGE forwards ``count`` positions B's own bits make
    plausible for the flipped message; None targets the expected honest
    claim length. An honest B's count is None.
    """

    __slots__ = ()

    def __new__(cls, kind: BKind | str = BKind.HONEST, count: int | None = None) -> StrategyB:
        return super().__new__(cls, *_check(BKind, kind, count, None))

    @property
    def is_honest(self) -> bool:
        return self.kind is BKind.HONEST

    @classmethod
    def honest(cls) -> "StrategyB":
        return cls(BKind.HONEST)

    @classmethod
    def flip_and_forge(cls, k: int | None = None) -> "StrategyB":
        return cls(BKind.FLIP_AND_FORGE, k)


# the default of every unset position field: read-only, so shared, never copied
_NO_POSITIONS = mark_readonly(np.empty(0, np.int64))


class ActionA(NamedTuple):
    """Everything A emits, plus audit fields naming her fabrications.

    Positions are read-only, sorted 1-D int64 arrays of 1..L, and ``l_AC``
    is a read-only int8 array of 0..2 as long as her list.
    ``strategy_A_act`` makes them so from a list that ``generate_lists``
    made; nothing here checks it.
    """

    m_AB: int
    positions_for_B: np.ndarray
    m_AC: int
    l_AC: np.ndarray
    fabricated_positions: np.ndarray = _NO_POSITIONS
    altered_positions: np.ndarray = _NO_POSITIONS
    capped: bool = False


class ActionB(NamedTuple):
    """What B sends C: read-only, sorted 1-D int64 position arrays, as
    ``strategy_B_act`` makes them from A's action and his list."""

    m_BC: int
    forwarded: np.ndarray
    fabricated_positions: np.ndarray = _NO_POSITIONS
    capped: bool = False


def _draw_sorted(
    candidates: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` of the sorted int64 ``candidates``, each subset equally likely,
    sorted and read-only: those at the ``count`` smallest of n raw PCG64
    words, ``rng.bit_generator.random_raw(n)`` (two tie with a chance below
    n**2 / 2**65). Taking all or none of them draws nothing."""
    n = candidates.size
    if count == 0 or count == n:
        return mark_readonly(candidates[:count])
    picked = rng.bit_generator.random_raw(n).argpartition(count - 1)[:count]
    picked.sort()
    return mark_readonly(candidates[picked])


def strategy_A_act(
    strategy: StrategyA, l_A: np.ndarray, rng: np.random.Generator
) -> ActionA:
    """Produce A's two outgoing transmissions from her private list.

    Reads nothing but A's own list ``l_A`` (her pairs' counts of 1s, the
    read-only int8 array ``generate_lists`` makes, which an honest A sends
    C as it is) and the strategy parameters. Her first draw is the message
    bit m, the top bit of one raw PCG64 word. When a cheating strategy asks
    for more fabrications than there are mixed positions, the count is
    capped and flagged.
    """
    arr = np.asarray(l_A)
    m = rng.bit_generator.random_raw() >> 63
    doubles = arr == 2 * m  # a fresh mask of her doubles of m, which split extends

    if strategy.kind is AKind.HONEST:
        return ActionA(m, mark_readonly(doubles.nonzero()[0] + 1), m, arr)

    # each array is marked read-only where it is made, in its final dtype;
    # both cheats draw their ``count`` positions from the mixed ones
    is_mixed = arr == 1
    mixed = mark_readonly(is_mixed.nonzero()[0] + 1)
    n = min(strategy.count, mixed.size)
    drawn = _draw_sorted(mixed, n, rng)
    capped = n < strategy.count
    if strategy.kind is AKind.SPLIT_MESSAGE:
        # B gets her doubles of m and the drawn positions; C gets every mixed
        # count moved, in one int8 pass, onto the double of m_AC = 1 - m
        doubles[drawn - 1] = True
        return ActionA(
            m_AB=m,
            positions_for_B=mark_readonly(doubles.nonzero()[0] + 1),
            m_AC=1 - m,
            l_AC=mark_readonly(arr + is_mixed * np.int8(1 - 2 * m)),
            fabricated_positions=drawn,
            altered_positions=mixed,
            capped=capped,
        )

    # FORGED_FULL_LIST: honest messages, the drawn mixed entries rewritten
    # as doubles of the message in the list sent to C.
    forged = arr.copy()
    forged[drawn - 1] = 2 * m
    return ActionA(
        m_AB=m,
        positions_for_B=mark_readonly(doubles.nonzero()[0] + 1),
        m_AC=m,
        l_AC=mark_readonly(forged),
        altered_positions=drawn,
        capped=capped,
    )


def strategy_B_act(
    strategy: StrategyB,
    received: tuple[int, np.ndarray],
    l_B: np.ndarray,
    rng: np.random.Generator,
) -> ActionB:
    """Produce B's transmission to C from what he received and his list.

    An honest B forwards A's positions as they arrived; a forger's are
    drawn from his own list. A forger with no ``count`` targets the
    expected honest claim length: the integer nearest 5/24 of his list's
    length L, rounding up the tie that falls at L = 12 (mod 24).
    """
    m_AB, positions = received
    bits = np.asarray(l_B)

    if strategy.kind is BKind.HONEST:
        return ActionB(m_AB, positions)

    m_BC = 1 - m_AB
    plausible = (bits == 1 - m_BC).nonzero()[0] + 1
    target = strategy.count
    if target is None:
        doubles, positions = EXPECTED_DOUBLE_FRACTION
        target = (2 * doubles * len(bits) + positions) // (2 * positions)
    k = min(target, plausible.size)
    forwarded = _draw_sorted(plausible, k, rng)
    return ActionB(
        m_BC=m_BC,
        forwarded=forwarded,
        fabricated_positions=forwarded,
        capped=k < target,
    )


# a descriptor is parsed once per process: the strategies are frozen, and an error is not cached
@functools.lru_cache(maxsize=64)
def parse_strategy_A(text: str) -> StrategyA:
    """Parse CLI strategy descriptors like "honest" or "split:n=3"."""
    return _parse(StrategyA, AKind, text, "honest, split:n=N, or forgefull:k=K")


@functools.lru_cache(maxsize=64)
def parse_strategy_B(text: str) -> StrategyB:
    """Parse CLI strategy descriptors like "honest" or "flipforge:k=40"."""
    return _parse(StrategyB, BKind, text, "honest or flipforge:k=K")


def _parse(record: type, kinds: type[enum.Enum], text: str, expected: str):
    """The strategy a descriptor names: its kind's one parameter, if given, is the count."""
    name, _, rest = text.strip().partition(":")
    params: dict[str, int] = {}
    for item in rest.split(",") if rest else ():
        key, _, value = item.partition("=")  # no "=" leaves value empty
        try:
            number = integer(value)
        except ValueError:
            raise ValueError(f"malformed strategy parameter {item!r} in {text!r}") from None
        if (key := key.strip()) in params:
            raise ValueError(f"repeated strategy parameter {key!r} in {text!r}")
        params[key] = number
    try:
        kind = kinds(name.strip().lower())
    except ValueError:
        raise ValueError(f"unknown strategy {text!r}: expected {expected}") from None
    if extra := params.keys() - {_PARAMETER.get(kind)}:
        raise ValueError(f"unexpected parameter(s) {sorted(extra)} in {text!r}")
    if any(value < 0 for value in params.values()):
        raise ValueError(f"strategy counts must be nonnegative in {text!r}")
    return record(kind, *params.values())


def integer(text: str) -> int:
    """``text`` as an int if it is an optional ``-`` then ASCII digits: the rule
    for every integer read from outside (``int`` also takes ``_`` and non-ASCII digits)."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)

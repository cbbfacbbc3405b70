"""Checked records and the input rules, shared by the production path.

Only input from outside the program is checked where it enters: the fault
model, plan, thresholds, strategies and trial config in their own modules,
and every payload by B's and C's checks; an integer by ``as_int`` and a
probability by ``probability`` wherever it is given. Each of those records
is a NamedTuple that checks once, in ``__new__``, through which ``_make``
and ``_replace`` build too (``checked_record``), and stores the values it
normalized. The records that carry arrays between phases (``PartyLists``,
``ActionA``, ``ActionB``) check nothing when built. The function that makes
each one casts and marks its arrays read-only, and one hypothesis test per
producer holds it to 1-D, equally long, in-range, read-only arrays of the
record's dtypes: the ``TestProducerInvariants`` classes of
``tests/test_liar_protocol.py`` (lists) and ``tests/test_adversary.py``
(actions). A ``VerifiedPool`` is its size and its source's name, and
``tests/test_distribute_test.py`` holds its producers.
"""
from __future__ import annotations

import numbers
import operator
from typing import NamedTuple

import numpy as np


def readonly_array(values, dtype) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array, copied unless it is one already."""
    exact = isinstance(values, np.ndarray) and values.dtype == dtype
    if exact and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def mark_readonly(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, marked read-only in place: for fresh arrays nothing else holds."""
    arr.setflags(write=False)
    return arr


def as_int(name: str, value) -> int:
    """``value`` as a plain int; a bool or non-integer raises."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def probability(name: str, value) -> float:
    """``value``, a real in [0, 1] (a Decimal too), as a plain float (-0.0 as 0.0).
    A bool, which records would echo as true/false, raises by ``name``, as does
    a value out of range or NaN: the range is read first, so no float overflows."""
    real = not isinstance(value, (bool, np.bool_)) and (
        isinstance(value, numbers.Real) or hasattr(value, "as_integer_ratio")
    )
    try:
        if real and 0 <= value <= 1:
            return float(value) + 0.0
    except ArithmeticError:
        pass
    raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


def checked_record(name: str, /, **fields: type) -> type:
    """The NamedTuple base, of the given fields in order, of a record that
    checks them in ``__new__``: its ``_make``, and so ``_replace``, builds
    through ``cls(*fields)``, so the check runs however the record is built."""
    base = NamedTuple(name, list(fields.items()))
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base

"""Sampling helpers kept only to test the program.

The simulator draws list positions as integer cells of the source's law
(``liar_protocol.generate_lists``) and a test phase's first failure from
its exact abort law, so only the dense reference run samples a state
along an arbitrary direction. The tests
that check the singlet's outcome law along many directions sample it with
``sample_along``, through the dense engine's own rounding rule
(``qstate._cdf``). ``RecordingGenerator`` records the draws a producer
makes, ``raw_cells`` recomputes a list draw from PCG64's raw words, and
``reference_lists`` reads the party lists off those cells by a second route.
"""
from __future__ import annotations

import math

import numpy as np

from liarsim.oracle import list_cells
from liarsim.qstate import MeasurementDirection, StateVector, _cdf, joint_distribution


def sample_along(
    state: StateVector,
    direction: MeasurementDirection,
    shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``shots`` independent all-qubit measurements of ``state`` along
    ``direction``, one uniform each: outcome indices, as ``joint_distribution``
    numbers them."""
    cum = _cdf(joint_distribution(state, direction))
    return cum.searchsorted(rng.random(shots), side="right")


class _Recording:
    """Passes each call on to ``target`` and appends its name and arguments,
    keyword values last, to ``calls``; an attribute that is not callable is
    read as it is."""

    def __init__(self, target, calls: list) -> None:
        self.target = target
        self.calls = calls

    def __getattr__(self, name):
        attribute = getattr(self.target, name)
        if not callable(attribute):
            return attribute

        def recorded(*args, **kwargs):
            self.calls.append((name, args + tuple(kwargs.values())))
            return attribute(*args, **kwargs)

        return recorded


class RecordingGenerator(_Recording):
    """Passes each call on to ``rng`` and records its name and arguments,
    keyword values last: a ``Generator`` method's and its
    ``bit_generator.random_raw``'s alike, in one list."""

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng, [])
        self.bit_generator = _Recording(rng.bit_generator, self.calls)


def raw_cells(rng: np.random.Generator, size: int) -> np.ndarray:
    """The ``size`` list cells a list draw reads off ``rng``, recomputed with
    Python int shifts: each raw word's eight bytes, lowest first, keeping
    those below 240; ceil((size + ceil(size / 8) + 16) / 8) words, then two
    more at a time until ``size`` bytes are kept."""
    words, cells = math.ceil((size + math.ceil(size / 8) + 16) / 8), []
    while len(cells) < size:
        for word in rng.bit_generator.random_raw(words).tolist():
            cells += [byte for byte in (word >> shift & 0xFF for shift in range(0, 64, 8))
                      if byte < 240]
        words = 2
    return np.array(cells[:size], np.uint8)


def reference_lists(source_state: str, cells) -> np.ndarray:
    """The (3, size) int8 party lists that list cells ``cells`` (bytes or an
    integer array of 0..239) give under the named source: one ``take`` from a
    (3, 240) table that repeats ``oracle.list_cells``' 24 entries ten times."""
    table = np.tile(np.array(list_cells(source_state), np.int8).T, 10)
    return table.take(np.frombuffer(cells, np.uint8) if isinstance(cells, bytes) else cells, axis=1)

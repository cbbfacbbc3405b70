"""Sampling helpers kept only to test the program.

The simulator draws list positions as integer cells of the source's law
(``liar_protocol.generate_lists``) and a test phase's first failure from
its exact abort law, so only the dense reference run samples a state
along an arbitrary direction. The tests
that check the singlet's outcome law along many directions sample it with
``sample_along``, through the dense engine's own rounding rule
(``qstate._cdf``). ``RecordingGenerator`` records the draws a producer makes.
"""
from __future__ import annotations

import numpy as np

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


class RecordingGenerator:
    """Passes each call on to ``rng`` and records its name and arguments,
    keyword values last."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.calls: list[tuple] = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def recorded(*args, **kwargs):
            self.calls.append((name, args + tuple(kwargs.values())))
            return method(*args, **kwargs)

        return recorded

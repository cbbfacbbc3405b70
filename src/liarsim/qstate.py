"""Dense state-vector engine for small qubit registers.

Builds the even-N singlet family, applies single-qubit unitaries, and
performs Born-rule projective measurements with collapse.

Conventions fixed here and relied on everywhere else:

* qubit 1 is the most significant bit of the amplitude index, so on four
  qubits ``|0011>`` sits at index 3; ``outcome_bits(n)`` is the one
  table from index to bits;
* measurement outcomes are labelled ``0`` (spin up along the measured
  axis) and ``1`` (spin down);
* states are immutable; every operation returns a new ``StateVector``.

This module alone turns a float probability law into a CDF. ``_cdf`` is
the one rule: along the last axis, no edge above 1.0 and every edge from
the last nonzero probability on exactly 1.0, so no uniform in [0, 1)
draws an outcome of probability zero, and ``searchsorted(cum, u,
side="right")`` draws from it. This is the dense reference's engine: the
array paths read each source's law as integer weights from ``oracle``,
or its exact test-round law, and build no state vector.
"""
from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

DEFAULT_MAX_QUBITS = 10

# Tolerance for exact-construction checks (normalization, unitarity).
NORM_ATOL = 1e-12


class ResourceLimitError(Exception):
    """Requested register size exceeds the configured maximum."""


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


def in_unit_interval(value) -> bool:
    """Whether ``value`` orders within [0, 1]; a NaN, a Decimal one included, does not."""
    try:
        return 0 <= value <= 1
    except ArithmeticError:
        return False


def checked_record(name: str, /, **fields: type) -> type:
    """The NamedTuple base, of the given fields in order, of a record that
    checks them in ``__new__``: its ``_make``, and so ``_replace``, builds
    through ``cls(*fields)``, so the check runs however the record is built."""
    base = NamedTuple(name, list(fields.items()))
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class StateVector(checked_record("StateVector", num_qubits=int, amplitudes=np.ndarray)):
    """Normalized pure state of ``num_qubits`` qubits.

    ``amplitudes`` has length ``2**num_qubits`` and unit norm within
    1e-12; the array is stored read-only so instances can be shared
    freely between systems and threads. States compare by identity.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, num_qubits: int, amplitudes) -> StateVector:
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be positive, got {num_qubits}")
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (2**num_qubits,):
            raise ValueError(
                f"expected {2**num_qubits} amplitudes for "
                f"{num_qubits} qubits, got shape {amps.shape}"
            )
        total = float(np.sum(np.abs(amps) ** 2))
        if not abs(total - 1.0) <= NORM_ATOL:  # NaN fails too
            raise ValueError(f"state is not normalized: sum |a|^2 = {total!r}")
        return super().__new__(cls, num_qubits, readonly_array(amps, np.complex128))

    def probabilities(self) -> np.ndarray:
        """Born probability of each computational basis outcome."""
        return np.abs(self.amplitudes) ** 2

    def bitstring(self, index: int) -> str:
        return format(index, f"0{self.num_qubits}b")


class SingleQubitUnitary(checked_record("SingleQubitUnitary", matrix=np.ndarray)):
    """A 2x2 unitary; validated to satisfy U^dag U = I within 1e-12.
    Unitaries compare by identity."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, matrix) -> SingleQubitUnitary:
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(2)))
        if not dev <= NORM_ATOL:  # NaN fails too
            raise ValueError(f"matrix is not unitary: max |U^dag U - I| = {dev!r}")
        return super().__new__(cls, readonly_array(m, np.complex128))

    def dagger(self) -> "SingleQubitUnitary":
        return SingleQubitUnitary(self.matrix.conj().T)


class MeasurementDirection(checked_record("MeasurementDirection", theta=float, phi=float)):
    """Spin axis whose eigenbasis is measured.

    ``theta`` is the polar angle in [0, pi], ``phi`` the azimuthal angle
    in [0, 2*pi); theta = phi = 0 is the computational basis.
    """

    __slots__ = ()

    def __new__(cls, theta: float = 0.0, phi: float = 0.0) -> MeasurementDirection:
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
        if not 0.0 <= phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {phi!r}")
        return super().__new__(cls, theta, phi)

    @property
    def is_computational(self) -> bool:
        return self.theta == 0.0 and self.phi == 0.0

    def basis_unitary(self) -> SingleQubitUnitary:
        """Unitary whose columns are the up/down eigenvectors of the axis."""
        ct = math.cos(self.theta / 2.0)
        st = math.sin(self.theta / 2.0)
        ph = complex(math.cos(self.phi), math.sin(self.phi))
        return SingleQubitUnitary(
            np.array([[ct, -st * ph.conjugate()], [st * ph, ct]])
        )


COMPUTATIONAL = MeasurementDirection(0.0, 0.0)

@cache
def outcome_bits(n: int) -> np.ndarray:
    """Read-only (2**n, n) int8 table: row i holds the bits of outcome i, qubit 1 first."""
    shifts = np.arange(n - 1, -1, -1)
    return mark_readonly(((np.arange(2**n)[:, None] >> shifts) & 1).astype(np.int8))


def singlet_amplitude(bits: tuple[int, ...] | str) -> float:
    """Amplitude the singlet family assigns to one basis string.

    Zero for strings with unequal counts of 0 and 1; otherwise
    z!(n/2-z)!(-1)^(n/2-z) / ((n/2)! sqrt(n/2+1)) where z counts the 0s
    among the first n/2 positions.
    """
    if isinstance(bits, str):
        bits = tuple(int(b) for b in bits)
    n = len(bits)
    if n % 2 != 0:
        raise ValueError("bit string length must be even")
    half = n // 2
    if sum(bits) != half:
        return 0.0
    z = sum(1 for b in bits[:half] if b == 0)
    sign = -1.0 if (half - z) % 2 else 1.0
    return (
        sign
        * math.factorial(z)
        * math.factorial(half - z)
        / (math.factorial(half) * math.sqrt(half + 1))
    )


@cache
def make_singlet(n: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """The n-qubit singlet state (n even), built once per argument list.

    The state is supported only on balanced bit strings and is invariant
    under applying the same unitary to every qubit.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"singlet size must be a positive even integer, got {n}")
    if n > max_qubits:
        raise ResourceLimitError(f"singlet size {n} exceeds the maximum of {max_qubits}")
    return StateVector(n, [singlet_amplitude(tuple(bits)) for bits in outcome_bits(n).tolist()])


def basis_state(bits: str) -> StateVector:
    """Computational basis product state for a bit string like ``"0011"``."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"expected a nonempty string of 0s and 1s, got {bits!r}")
    n = len(bits)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(n, amps)


def _check_target(state: StateVector, qubit_index: int) -> None:
    if not 1 <= qubit_index <= state.num_qubits:
        raise ValueError(
            f"qubit index {qubit_index} out of range 1..{state.num_qubits}"
        )


def _apply_matrix_raw(amps: np.ndarray, n: int, matrix: np.ndarray, axis: int) -> np.ndarray:
    """Apply a 2x2 matrix to one tensor factor of a raw amplitude array."""
    tensor = amps.reshape([2] * n)
    tensor = np.tensordot(matrix, tensor, axes=([1], [axis]))
    tensor = np.moveaxis(tensor, 0, axis)
    return np.ascontiguousarray(tensor).reshape(-1)


def _rotate_common_raw(
    amps: np.ndarray, n: int, targets: list[int], matrix: np.ndarray
) -> np.ndarray:
    """Apply one 2x2 matrix to several tensor factors of a raw array."""
    for k in targets:
        amps = _apply_matrix_raw(amps, n, matrix, k - 1)
    return amps


def apply_bilateral(state: StateVector, u: SingleQubitUnitary) -> StateVector:
    """Apply the same unitary to every qubit."""
    n = state.num_qubits
    amps = state.amplitudes
    for axis in range(n):
        amps = _apply_matrix_raw(amps, n, u.matrix, axis)
    return StateVector(n, amps)


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Read-only cumulative sum of ``probs`` along its last axis: sorted, no
    edge above 1.0, and every edge from the last nonzero probability on
    exactly 1.0, so no uniform in [0, 1) reaches an outcome of probability 0."""
    cum = np.minimum(np.cumsum(probs, axis=-1), 1.0)
    last = probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    cum[np.arange(probs.shape[-1]) >= last[..., None]] = 1.0
    return mark_readonly(cum)


def measure_qubits(
    state: StateVector,
    targets: list[int] | tuple[int, ...],
    direction: MeasurementDirection,
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], StateVector]:
    """Projectively measure the targeted qubits along a common axis.

    Returns the sampled outcome bits (one per target, in target order)
    and the collapsed, renormalized state. Outcomes follow the Born rule
    in the rotated basis; sampling is reproducible for a fixed rng state.
    """
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate measurement targets: {targets}")
    for k in targets:
        _check_target(state, k)

    n = state.num_qubits
    amps = state.amplitudes
    basis = None if direction.is_computational else direction.basis_unitary()
    if basis is not None:
        amps = _rotate_common_raw(amps, n, targets, basis.dagger().matrix)

    # summing over non-target axes leaves the target axes in increasing order
    sorted_axes = sorted(k - 1 for k in targets)
    other_axes = tuple(a for a in range(n) if a not in sorted_axes)
    tensor = amps.reshape([2] * n)
    marginal = np.abs(tensor) ** 2
    if other_axes:
        marginal = marginal.sum(axis=other_axes)
    flat = marginal.reshape(-1)
    drawn = int(_cdf(flat / flat.sum()).searchsorted(rng.random(), side="right"))
    outcome_by_axis = dict(zip(sorted_axes, outcome_bits(len(sorted_axes))[drawn].tolist()))

    # project onto the drawn outcome and renormalize
    slicer: list[object] = [slice(None)] * n
    for a, bit in outcome_by_axis.items():
        slicer[a] = bit
    projected = np.zeros_like(tensor)
    projected[tuple(slicer)] = tensor[tuple(slicer)]
    collapsed = (projected / np.linalg.norm(projected)).reshape(-1)

    if basis is not None:
        collapsed = _rotate_common_raw(collapsed, n, targets, basis.matrix)

    return tuple(outcome_by_axis[k - 1] for k in targets), StateVector(n, collapsed)


def joint_distribution(
    state: StateVector, direction: MeasurementDirection
) -> np.ndarray:
    """Exact outcome probabilities for measuring every qubit along one axis.

    Entry ``i`` is the probability of the outcome whose bits (qubit 1
    first) encode ``i``. Serves as the analytic oracle behind the
    samplers; sums to 1 within 1e-12.
    """
    if direction.is_computational:
        rotated = state
    else:
        rotated = apply_bilateral(state, direction.basis_unitary().dagger())
    probs = rotated.probabilities()
    return probs / probs.sum()


def random_unitary(rng: np.random.Generator) -> SingleQubitUnitary:
    """Haar-random 2x2 unitary (QR of a complex Gaussian matrix)."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return SingleQubitUnitary(q * (d / np.abs(d)))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>| - global-phase-insensitive overlap of two pure states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different sizes")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))

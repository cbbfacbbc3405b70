import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liarsim import qstate
from liarsim.qstate import (
    COMPUTATIONAL,
    MeasurementDirection,
    ResourceLimitError,
    SingleQubitUnitary,
    StateVector,
    apply_bilateral,
    basis_state,
    fidelity,
    joint_distribution,
    make_singlet,
    measure_qubits,
    random_unitary,
    singlet_amplitude,
)
from sampling import sample_along

# Known amplitude tables for the smallest singlets, frozen by hand.
TWO_QUBIT_AMPS = (0.0, 1.0 / math.sqrt(2), -1.0 / math.sqrt(2), 0.0)
C4 = 1.0 / (2.0 * math.sqrt(3))
FOUR_QUBIT_AMPS = {
    "0011": 2 * C4,
    "0101": -C4,
    "0110": -C4,
    "1001": -C4,
    "1010": -C4,
    "1100": 2 * C4,
}


IDENTITY = SingleQubitUnitary(np.eye(2))
BIT_FLIP = SingleQubitUnitary(np.array([[0.0, 1.0], [1.0, 0.0]]))


def rng(seed=0):
    return np.random.default_rng(seed)


def random_direction(stream):
    theta = math.acos(stream.uniform(-1.0, 1.0))
    phi = stream.uniform(0.0, 2.0 * math.pi) % (2.0 * math.pi)
    return MeasurementDirection(theta, phi)


class TestMakeSinglet:
    def test_two_qubit_amplitudes(self):
        state = make_singlet(2)
        np.testing.assert_allclose(state.amplitudes, TWO_QUBIT_AMPS, atol=1e-12)

    def test_four_qubit_amplitudes(self):
        state = make_singlet(4)
        for index in range(16):
            bits = format(index, "04b")
            expected = FOUR_QUBIT_AMPS.get(bits, 0.0)
            assert state.amplitudes[index] == pytest.approx(expected, abs=1e-12)

    def test_zero_count_rule(self):
        # zeros among the first half fix the amplitude magnitude and sign
        assert singlet_amplitude("01") == pytest.approx(1 / math.sqrt(2))
        assert singlet_amplitude("10") == pytest.approx(-1 / math.sqrt(2))
        assert singlet_amplitude("1100") == pytest.approx(2 * C4)
        # z = 2 for 010110: 2! * 1! * (-1)^1 / (3! * 2)
        assert singlet_amplitude("010110") == pytest.approx(-1.0 / 6.0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_support_is_balanced(self, n):
        state = make_singlet(n)
        nonzero = np.flatnonzero(np.abs(state.amplitudes) > 1e-15)
        assert len(nonzero) == math.comb(n, n // 2)
        for index in nonzero:
            assert state.bitstring(index).count("0") == n // 2

    def test_one_shared_instance_per_size(self):
        state = make_singlet(4)
        assert make_singlet(4) is state
        assert make_singlet(2) is not state

    @pytest.mark.parametrize("bad", [0, -2, 3, 7])
    def test_rejects_odd_or_nonpositive(self, bad):
        with pytest.raises(ValueError):
            make_singlet(bad)

    def test_rejects_oversized_register(self):
        with pytest.raises(ResourceLimitError):
            make_singlet(12)
        assert make_singlet(12, max_qubits=12).num_qubits == 12


class TestStateVector:
    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_requires_matching_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_rejects_nan_amplitudes(self):
        with pytest.raises(ValueError):
            StateVector(1, [np.nan, 0.0])

    def test_amplitudes_are_read_only(self):
        state = make_singlet(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_compares_and_hashes_by_identity(self):
        # field-wise == would take the truth value of an amplitude array
        state, twin = basis_state("01"), basis_state("01")
        assert state == state and state != twin
        assert hash(state) == hash(state)
        assert len({state, twin}) == 2


class TestUnitaries:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            SingleQubitUnitary(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_rejects_nan_matrix(self):
        with pytest.raises(ValueError):
            SingleQubitUnitary(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_compares_and_hashes_by_identity(self):
        # field-wise == would take the truth value of a matrix array
        unitary, twin = SingleQubitUnitary(np.eye(2)), SingleQubitUnitary(np.eye(2))
        assert unitary == unitary and unitary != twin
        assert hash(unitary) == hash(unitary)
        assert len({unitary, twin}) == 2

    # a product state, which a common rotation does change (a singlet would not)
    def test_identity_leaves_state_alone(self):
        state = basis_state("0110")
        out = apply_bilateral(state, IDENTITY)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_bit_flip_permutes_basis(self):
        out = apply_bilateral(basis_state("0110"), BIT_FLIP)
        np.testing.assert_allclose(out.amplitudes, basis_state("1001").amplitudes, atol=1e-12)

    def test_unitary_then_inverse_restores_state(self):
        state = basis_state("0110")
        u = random_unitary(rng(7))
        assert fidelity(apply_bilateral(state, u), state) < 1 - 1e-6
        out = apply_bilateral(apply_bilateral(state, u), u.dagger())
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_norm_preserved(self):
        state = basis_state("0110")
        u = random_unitary(rng(11))
        out = apply_bilateral(state, u)
        assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestBilateralInvariance:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_singlet_invariant_under_100_random_unitaries(self, n):
        state = make_singlet(n)
        stream = rng(1000 + n)
        for _ in range(100):
            out = apply_bilateral(state, random_unitary(stream))
            assert fidelity(state, out) >= 1.0 - 1e-10

    def test_identity_case(self):
        state = make_singlet(4)
        out = apply_bilateral(state, IDENTITY)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_global_bit_flip_fixes_amplitudes_exactly(self):
        # reversing every bit maps the four-qubit table onto itself
        state = make_singlet(4)
        out = apply_bilateral(state, BIT_FLIP)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


class TestJointDistribution:
    def test_two_qubit_table(self):
        probs = joint_distribution(make_singlet(2), COMPUTATIONAL)
        np.testing.assert_allclose(probs, [0.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_four_qubit_table(self):
        probs = joint_distribution(make_singlet(4), COMPUTATIONAL)
        expected = np.zeros(16)
        for bits, amp in FOUR_QUBIT_AMPS.items():
            expected[int(bits, 2)] = amp * amp
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_product_state_is_deterministic(self):
        probs = joint_distribution(basis_state("0011"), COMPUTATIONAL)
        assert probs[3] == pytest.approx(1.0, abs=1e-12)

    def test_direction_independent_for_singlets(self):
        stream = rng(5)
        state = make_singlet(4)
        tables = [
            joint_distribution(state, random_direction(stream)) for _ in range(6)
        ]
        for table in tables[1:]:
            assert np.max(np.abs(table - tables[0])) < 1e-10

    def test_probabilities_sum_to_one(self):
        probs = joint_distribution(make_singlet(6), MeasurementDirection(1.1, 2.2))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestMeasurement:
    def test_full_singlet_measurement_is_balanced(self):
        state = make_singlet(4)
        stream = rng(42)
        for _ in range(200):
            bits, _ = measure_qubits(state, [1, 2, 3, 4], COMPUTATIONAL, stream)
            assert sum(bits) == 2

    def test_balanced_along_random_directions(self):
        stream = rng(43)
        for n in (2, 4, 6):
            state = make_singlet(n)
            for _ in range(50):
                bits, _ = measure_qubits(
                    state, list(range(1, n + 1)), random_direction(stream), stream
                )
                assert sum(bits) == n // 2

    def test_deterministic_outcome_and_collapse(self):
        bits, collapsed = measure_qubits(basis_state("01"), [1], COMPUTATIONAL, rng(0))
        assert bits == (0,)
        np.testing.assert_allclose(collapsed.amplitudes, basis_state("01").amplitudes, atol=1e-12)

    def test_collapse_is_consistent_with_remaining_correlations(self):
        # after seeing 0 on qubit 1 of the pair singlet, qubit 2 must read 1
        state = make_singlet(2)
        stream = rng(9)
        for _ in range(50):
            first, collapsed = measure_qubits(state, [1], COMPUTATIONAL, stream)
            second, _ = measure_qubits(collapsed, [2], COMPUTATIONAL, stream)
            assert first[0] + second[0] == 1

    def test_outcome_order_follows_targets(self):
        bits, _ = measure_qubits(basis_state("01"), [2, 1], COMPUTATIONAL, rng(0))
        assert bits == (1, 0)

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            measure_qubits(make_singlet(2), [1, 1], COMPUTATIONAL, rng(0))

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError):
            measure_qubits(make_singlet(2), [3], COMPUTATIONAL, rng(0))
        with pytest.raises(ValueError):
            measure_qubits(make_singlet(2), [0], COMPUTATIONAL, rng(0))

    def test_seeded_reproducibility(self):
        state = make_singlet(4)
        direction = MeasurementDirection(0.7, 1.3)
        first = [measure_qubits(state, [1, 2], direction, rng(21))[0] for _ in range(5)]
        second = [measure_qubits(state, [1, 2], direction, rng(21))[0] for _ in range(5)]
        assert first == second

    def test_collapsed_state_normalized(self):
        _, collapsed = measure_qubits(
            make_singlet(4), [2, 3], MeasurementDirection(0.4, 5.0), rng(3)
        )
        assert np.sum(np.abs(collapsed.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_sampler_matches_exact_distribution(self):
        state = make_singlet(4)
        shots = 100_000
        outcomes = sample_along(state, COMPUTATIONAL, shots, rng(17))
        counts = np.bincount(outcomes, minlength=16)
        exact = joint_distribution(state, COMPUTATIONAL)
        tv = 0.5 * np.abs(counts / shots - exact).sum()
        assert tv < 0.01

    def test_measure_qubits_frequency_matches_exact(self):
        state = make_singlet(2)
        stream = rng(23)
        shots = 20_000
        counts = np.zeros(4)
        for _ in range(shots):
            bits, _ = measure_qubits(state, [1, 2], COMPUTATIONAL, stream)
            counts[bits[0] * 2 + bits[1]] += 1
        tv = 0.5 * np.abs(counts / shots - joint_distribution(state, COMPUTATIONAL)).sum()
        assert tv < 0.01

    def test_cdf_is_read_only_with_its_rounding_guard(self):
        probs = joint_distribution(make_singlet(4), COMPUTATIONAL)
        cdf = qstate._cdf(probs)
        assert not cdf.flags.writeable
        # no edge above 1.0, and every edge from the last nonzero probability
        # on exactly 1.0
        expected = np.minimum(np.cumsum(probs), 1.0)
        expected[np.flatnonzero(probs)[-1]:] = 1.0
        np.testing.assert_array_equal(cdf, expected)


class _FixedUniforms:
    """Stands in for a generator whose next ``random(shots)`` is ``u``; a
    one-entry ``u`` also serves one scalar ``random()``."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, shots=None):
        if shots is None:
            (u,) = self.u
            return float(u)
        assert shots == self.u.size
        return self.u


def _sampler_states():
    """(label, state, direction): laws whose CDF must be exactly right."""
    stream = rng(2024)
    cases = [(f"singlet{n}", make_singlet(n), COMPUTATIONAL) for n in (2, 4, 6)]
    cases += [(bits, basis_state(bits), COMPUTATIONAL) for bits in ("0011", "0110")]
    for i in range(20):  # generic product states: 16 distinct, unevenly spaced edges
        rotated = apply_bilateral(basis_state(("0011", "0110")[i % 2]), random_unitary(stream))
        cases.append((f"rotated{i}", rotated, COMPUTATIONAL))
    cases.append(("singlet4-direction", make_singlet(4), random_direction(stream)))
    amps = stream.normal(size=1024) + 1j * stream.normal(size=1024)
    cases.append(("random10", StateVector(10, amps / np.linalg.norm(amps)), COMPUTATIONAL))
    return cases


SAMPLER_STATES = _sampler_states()


def _exact_cdf(state, direction):
    return qstate._cdf(joint_distribution(state, direction))


class TestCdf:
    @pytest.mark.parametrize("label, state, direction", SAMPLER_STATES,
                             ids=[case[0] for case in SAMPLER_STATES])
    def test_cdf_is_sorted_and_ends_at_one(self, label, state, direction):
        cdf = _exact_cdf(state, direction)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf.max() == cdf[-1] == 1.0


PRODUCT_STATES = [case for case in SAMPLER_STATES if not case[0].startswith(("singlet", "random"))]


class TestRowDraw:
    """``_cdf`` of stacked laws, and ``measure_qubits``' draw from one law."""

    def test_cdf_of_stacked_laws_is_each_law_cdf(self):
        probs = np.array([joint_distribution(state, d) for _, state, d in PRODUCT_STATES])
        for row, one in zip(qstate._cdf(probs), probs):
            np.testing.assert_array_equal(row, qstate._cdf(one))

    def test_zero_probability_tail_is_unreachable(self):
        # the last nonzero edge is 1.0 however the sum rounds: zeros follow
        # it in both rows, and the first row sums to just under 1
        cum = qstate._cdf(np.array([[0.3, 0.7 - 2**-40, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(cum, [[0.3, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]])
        top = np.nextafter(1.0, 0.0)
        assert [row.searchsorted(top, side="right") for row in cum] == [1, 1]


class TestSingletTailRegression:
    """At u just below 1 a singlet still gives two 0s and two 1s: the last
    nonzero edge of its CDF is exactly 1.0, whatever the sum rounds to."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_cdf_draw_stays_balanced(self, n):
        top = _FixedUniforms([np.nextafter(1.0, 0.0)])
        (index,) = sample_along(make_singlet(n), COMPUTATIONAL, 1, top)
        assert make_singlet(n).bitstring(index).count("1") == n // 2

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_measure_qubits_stays_balanced_and_finite(self, n):
        top = _FixedUniforms([np.nextafter(1.0, 0.0)])
        targets = list(range(1, n + 1))
        bits, collapsed = measure_qubits(make_singlet(n), targets, COMPUTATIONAL, top)
        assert sum(bits) == n // 2
        assert np.isfinite(collapsed.amplitudes).all()


class TestOutcomeBits:
    @pytest.mark.parametrize("n", [1, 3, 4, 10])
    def test_rows_spell_the_index_qubit_1_first(self, n):
        table = qstate.outcome_bits(n)
        assert table.shape == (2**n, n) and table.dtype == np.int8
        assert not table.flags.writeable
        for index in (0, 1, 2**n - 2, 2**n - 1, 2 ** (n - 1)):
            assert "".join(map(str, table[index])) == format(index, f"0{n}b")
        assert qstate.outcome_bits(n) is table


class TestMeasurementDirection:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            MeasurementDirection(-0.1, 0.0)
        with pytest.raises(ValueError):
            MeasurementDirection(0.0, 2 * math.pi)

    def test_computational_flag(self):
        assert COMPUTATIONAL.is_computational
        assert not MeasurementDirection(0.5, 0.0).is_computational

    def test_basis_unitary_is_unitary(self):
        u = MeasurementDirection(2.0, 1.0).basis_unitary()
        np.testing.assert_allclose(u.matrix.conj().T @ u.matrix, np.eye(2), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 4, 6]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_common_direction_outcomes_stay_balanced(n, seed):
    stream = np.random.default_rng(seed)
    bits, _ = measure_qubits(
        make_singlet(n), list(range(1, n + 1)), random_direction(stream), stream
    )
    assert sum(bits) == n // 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_partial_then_rest_equals_balanced_total(seed):
    stream = np.random.default_rng(seed)
    state = make_singlet(4)
    first, collapsed = measure_qubits(state, [1, 3], COMPUTATIONAL, stream)
    rest, _ = measure_qubits(collapsed, [2, 4], COMPUTATIONAL, stream)
    assert sum(first) + sum(rest) == 2

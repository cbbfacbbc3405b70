import math
from fractions import Fraction

import numpy as np
import pytest

from liarsim.oracle import (
    EXPECTED_DOUBLE_FRACTION,
    SINGLET_WEIGHTS,
    Assignment,
    EscapeProbabilities,
    escape_probabilities,
    escape_ratios,
    rejection_lower_bound,
    round_distribution,
    source_weights,
)
from liarsim.channels import prepare_state
from liarsim.qstate import COMPUTATIONAL, joint_distribution, make_singlet, outcome_bits
from sampling import sample_along

# Frozen expected tables, keyed by (unordered A pair, B bit, C bit).
A12_TABLE = {
    ((0, 0), 1, 1): 1 / 3,
    ((1, 1), 0, 0): 1 / 3,
    ((0, 1), 0, 1): 1 / 6,
    ((0, 1), 1, 0): 1 / 6,
}
A13_TABLE = {
    ((0, 0), 1, 1): 1 / 12,
    ((1, 1), 0, 0): 1 / 12,
    ((0, 1), 0, 1): 5 / 12,
    ((0, 1), 1, 0): 5 / 12,
}
MIXTURE_TABLE = {
    ((0, 0), 1, 1): 5 / 24,
    ((1, 1), 0, 0): 5 / 24,
    ((0, 1), 0, 1): 7 / 24,
    ((0, 1), 1, 0): 7 / 24,
}


def assert_tables_match(actual, expected):
    assert set(actual) == set(expected)
    for key, value in expected.items():
        assert actual[key] == pytest.approx(value, abs=1e-12), key


class TestAssignment:
    def test_exactly_two_cases(self):
        assert {a.label for a in Assignment} == {"A_holds_12", "A_holds_13"}

    def test_slots(self):
        assert Assignment.A_HOLDS_12.a_slots == (1, 2)
        assert Assignment.A_HOLDS_12.b_slot == 3
        assert Assignment.A_HOLDS_13.a_slots == (1, 3)
        assert Assignment.A_HOLDS_13.b_slot == 2
        assert all(a.c_slot == 4 for a in Assignment)


class TestSingletWeights:
    def test_weights_are_the_dense_engines_law(self):
        # the dense state-vector engine stays the independent check of the weights
        probs = joint_distribution(make_singlet(4), COMPUTATIONAL)
        weights = [SINGLET_WEIGHTS.get(tuple(bits), 0) for bits in outcome_bits(4).tolist()]
        np.testing.assert_allclose(np.array(weights) / 12, probs, rtol=0, atol=1e-15)
        assert sum(SINGLET_WEIGHTS.values()) == 12

    @pytest.mark.parametrize("name", ["singlet"] + [format(i, "04b") for i in range(16)])
    def test_every_source_law_is_its_dense_state_law(self, name):
        # the weights the fast paths read, against the state the dense reference prepares
        weights = source_weights(name)
        assert source_weights("".join(name)) is weights  # built once per name
        assert len(weights) == 16 and sum(weights) == 12
        probs = joint_distribution(prepare_state(name), COMPUTATIONAL)
        np.testing.assert_allclose(np.array(weights) / 12, probs, rtol=0, atol=1e-15)

    # only the singlet and the 16 four-bit strings name a source
    @pytest.mark.parametrize(
        "name", ["001", "2011", "00110", "", "Singlet", " 0011", None, 1234, ["0011"], b"0011"]
    )
    def test_other_names_raise(self, name):
        with pytest.raises(ValueError, match="source_state must be 'singlet' or a 4-bit string"):
            source_weights(name)


class TestRoundDistribution:
    def test_values_are_exact_fractions(self):
        for assignment in (*Assignment, None):
            table = round_distribution(assignment).table
            assert all(type(p) is Fraction for p in table.values())
            assert sum(table.values()) == 1
        assert round_distribution().table[((0, 0), 1, 1)] == Fraction(5, 24)

    def test_a12_table(self):
        assert_tables_match(round_distribution(Assignment.A_HOLDS_12).table, A12_TABLE)

    def test_a13_table(self):
        assert_tables_match(round_distribution(Assignment.A_HOLDS_13).table, A13_TABLE)

    def test_mixture_table(self):
        assert_tables_match(round_distribution().table, MIXTURE_TABLE)

    def test_pair_marginals(self):
        a12 = round_distribution(Assignment.A_HOLDS_12).pair_marginal()
        assert a12[(0, 0)] == pytest.approx(1 / 3, abs=1e-12)
        assert a12[(1, 1)] == pytest.approx(1 / 3, abs=1e-12)
        assert a12[(0, 1)] == pytest.approx(1 / 3, abs=1e-12)
        a13 = round_distribution(Assignment.A_HOLDS_13).pair_marginal()
        assert a13[(0, 0)] == pytest.approx(1 / 12, abs=1e-12)
        assert a13[(1, 1)] == pytest.approx(1 / 12, abs=1e-12)
        assert a13[(0, 1)] == pytest.approx(5 / 6, abs=1e-12)

    def test_doubles_force_complement_bits(self):
        # a double (m, m) at A leaves B and C reading 1 - m with certainty
        for assignment in Assignment:
            dist = round_distribution(assignment)
            for m in (0, 1):
                conditional = dist.table[((m, m), 1 - m, 1 - m)] / dist.pair_marginal()[(m, m)]
                assert conditional == pytest.approx(1.0, abs=1e-12)

    def test_sums_to_one(self):
        for dist in (
            round_distribution(Assignment.A_HOLDS_12),
            round_distribution(Assignment.A_HOLDS_13),
            round_distribution(),
        ):
            assert sum(dist.table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_support_is_balanced(self):
        for key in round_distribution().table:
            (lo, hi), b, c = key
            assert lo + hi + b + c == 2

    def test_relabel_symmetry(self):
        # flipping every outcome bit maps the table onto itself
        dist = round_distribution()
        for ((lo, hi), b, c), p in dist.table.items():
            flipped = ((1 - hi, 1 - lo), 1 - b, 1 - c)
            assert dist.table[flipped] == pytest.approx(p, abs=1e-12)

    def test_mixture_is_mean_of_pure_assignments(self):
        mean = {key: (A12_TABLE[key] + A13_TABLE[key]) / 2 for key in A12_TABLE}
        assert_tables_match(round_distribution().table, mean)
        assert round_distribution().label == "mixture(a12_weight=0.5)"


class TestEscapeProbabilities:
    def test_values(self):
        esc = escape_probabilities()
        assert isinstance(esc, EscapeProbabilities)
        assert esc.p_fake_entry_passes_B == pytest.approx(1 / 2, abs=1e-12)
        assert esc.p_fake_entry_passes_C_vs_lA == pytest.approx(5 / 12, abs=1e-12)
        assert esc.p_fake_double_passes_C == pytest.approx(1 / 2, abs=1e-12)
        assert esc.expected_double_fraction == pytest.approx(5 / 24, abs=1e-12)

    def test_exact_ratios_and_their_nearest_floats(self):
        ratios = escape_ratios()
        exact = [Fraction(*ratio) for ratio in ratios]
        assert exact == [Fraction(1, 2), Fraction(5, 12), Fraction(1, 2), Fraction(5, 24)]
        assert EXPECTED_DOUBLE_FRACTION == ratios.expected_double_fraction == (5, 24)
        # each float is the correctly rounded value of its exact ratio
        assert list(escape_probabilities()) == [float(value) for value in exact]

    def test_rejection_lower_bound(self):
        assert rejection_lower_bound(0) == 0.0
        assert rejection_lower_bound(1) == pytest.approx(1 / 2)
        assert rejection_lower_bound(3) == pytest.approx(7 / 8)
        assert rejection_lower_bound(8) == pytest.approx(255 / 256)
        with pytest.raises(ValueError):
            rejection_lower_bound(-1)


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("assignment", list(Assignment))
    def test_tables_reproduced_by_sampling(self, assignment):
        shots = 100_000
        rng = np.random.default_rng(2024)
        outcomes = sample_along(make_singlet(4), COMPUTATIONAL, shots, rng)
        counts: dict = {}
        for index, count in zip(*np.unique(outcomes, return_counts=True)):
            bits = tuple((int(index) >> (3 - k)) & 1 for k in range(4))
            pair = tuple(sorted(bits[s - 1] for s in assignment.a_slots))
            key = (pair, bits[assignment.b_slot - 1], bits[3])
            counts[key] = counts.get(key, 0) + int(count)
        table = round_distribution(assignment).table
        assert set(counts) <= set(table)
        for key, p in table.items():
            observed = counts.get(key, 0) / shots
            sigma = math.sqrt(p * (1 - p) / shots)
            assert abs(observed - p) < 3 * sigma, key

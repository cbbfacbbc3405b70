import functools
import math
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as scipy_stats

from liarsim import liar_protocol
from liarsim.adversary import StrategyA, StrategyB, parse_strategy_A, parse_strategy_B
from liarsim.channels import FaultModel
from liarsim.distribute_test import (
    DirectionPolicy,
    VerifiedPool,
    choose_direction,
    make_verified_pool,
)
from liarsim.liar_protocol import (
    EXPECTED_DOUBLE_FRACTION,
    AcceptanceResult,
    PartyLists,
    Thresholds,
    Verdict,
    VerdictValue,
    _is_bit,
    _pair_counts,
    _party_tables,
    _scan_positions,
    b_accepts,
    c_adjudicate,
    generate_lists,
    run_liar_protocol,
    sample_outcomes,
)
from liarsim.oracle import (
    SINGLET_WEIGHTS, Assignment, list_cells, round_distribution, source_weights,
)
from liarsim.qstate import make_singlet, mark_readonly, measure_qubits, outcome_bits
from liarsim.runner import _escape_counts
from reference_checks import incompatible_positions, stage1_violations, stage2_mismatches
from sampling import RecordingGenerator, raw_cells, reference_lists

# Worked eight-row example used throughout: a valid joint outcome whose
# doubles sit at 1,3,6 (for 0) and 4,5,8 (for 1). A's pairs
# 00 01 00 11 11 00 01 11 are stored as their counts of 1s. Like the
# lists generate_lists makes, the rows are read-only int8 arrays.
WORKED_A = mark_readonly(np.array([0, 1, 0, 2, 2, 0, 1, 2], np.int8))
WORKED_B = mark_readonly(np.array([1, 0, 1, 0, 0, 1, 0, 0], np.int8))
WORKED_C = mark_readonly(np.array([1, 1, 1, 0, 0, 1, 1, 0], np.int8))


def worked_lists():
    return PartyLists(WORKED_A, WORKED_B, WORKED_C)


def rng(seed=0):
    return np.random.default_rng(seed)


def dense_engine_lists(pool, stream, policy=DirectionPolicy.FIXED):
    """Lists measured position by position through the state-vector engine.

    Each position draws its assignment from ``stream``, then measures A's
    two slots, B's, then C's, along one common direction, collapsing the
    state between measurements: the exact oracle the vectorized
    ``generate_lists`` must agree with in distribution.
    """
    source = FaultModel(source_state=pool.source_state).prepare_state()
    a_ones, b_bits, c_bits = [], [], []
    for _ in range(len(pool)):
        assignment = tuple(Assignment)[stream.integers(0, 2)]
        direction = choose_direction(stream, policy)
        state = source
        a_bits, state = measure_qubits(state, assignment.a_slots, direction, stream)
        (b_bit,), state = measure_qubits(state, [assignment.b_slot], direction, stream)
        (c_bit,), _ = measure_qubits(state, [4], direction, stream)
        a_ones.append(sum(a_bits))
        b_bits.append(b_bit)
        c_bits.append(c_bit)
    return PartyLists(*(np.array(row, np.int8) for row in (a_ones, b_bits, c_bits)))


def joint_counts(lists):
    table = np.zeros((3, 2, 2))
    np.add.at(table, (lists.a_ones, lists.b_bits, lists.c_bits), 1)
    return table / lists.length


class TestPartyLists:
    def test_worked_table_round_trip(self):
        lists = worked_lists()
        assert lists.length == 8
        assert lists.a_ones.dtype == lists.b_bits.dtype == lists.c_bits.dtype == np.int8
        np.testing.assert_array_equal(lists.a_ones, [0, 1, 0, 2, 2, 0, 1, 2])  # WORKED_A
        np.testing.assert_array_equal(lists.b_bits, [1, 0, 1, 0, 0, 1, 0, 0])
        np.testing.assert_array_equal(lists.c_bits, [1, 1, 1, 0, 0, 1, 1, 0])

    def test_correlation_left_to_the_source(self):
        # a double facing its own bit breaks the singlet's law, not the list
        # shape: a corrupted source that passed testing deals such lists
        for rows in (([0], [0], [1]), ([2], [0], [1]), ([0, 2], [0, 1], [0, 1])):
            lists = PartyLists(*(np.array(row, np.int8) for row in rows))
            np.testing.assert_array_equal(lists.a_ones, rows[0])

    def test_singlet_entries_obey_the_doubles_correlation(self):
        # exact: every one of the 24 columns the singlet draws from has a
        # (0,0) pair facing 1 at B and C, and a (1,1) pair facing 0
        a_ones, b_bits, c_bits = list_table("singlet")
        doubles = a_ones != 1
        facing = 1 - a_ones[doubles] // 2
        assert set(a_ones[doubles]) == {0, 2}
        np.testing.assert_array_equal(b_bits[doubles], facing)
        np.testing.assert_array_equal(c_bits[doubles], facing)

    def test_lists_are_read_only(self):
        lists = worked_lists()
        with pytest.raises(ValueError):
            lists.a_ones[0] = 1

    def test_equality(self, records_equal):
        assert records_equal(worked_lists(), worked_lists())
        other = PartyLists(np.ones(8, np.int8), WORKED_B, WORKED_C)
        assert not records_equal(worked_lists(), other)


class TestGenerateLists:
    def test_fast_path_produces_valid_correlated_lists(self):
        pool = make_verified_pool(100_000)
        lists = generate_lists(pool, rng(2))
        assert lists.length == 100_000
        # the singlet source obeys the doubles rule at every position
        for m in (0, 1):
            doubles = lists.a_ones == 2 * m
            assert np.all(lists.b_bits[doubles] == 1 - m)
            assert np.all(lists.c_bits[doubles] == 1 - m)

    def test_doubles_fraction_matches_expectation(self):
        lists = generate_lists(make_verified_pool(100_000), rng(4))
        for m in (0, 1):
            fraction = np.mean(lists.a_ones == 2 * m)
            assert fraction == pytest.approx(5 / 24, abs=0.005)

    def test_empty_pool_rejected(self):
        empty = VerifiedPool(0, "singlet")
        with pytest.raises(ValueError):
            generate_lists(empty, rng(0))

    def test_product_source_lists_match_dense_engine(self):
        # a product source measures deterministically, so each position's
        # entries follow from its assignment alone: |0011> gives A no 1 and
        # B slot 3's 1 when she holds slots (1,2), and one 1 and slot 2's 0
        # when she holds (1,3); C's slot 4 reads 1 either way
        pool = VerifiedPool(400, "0011")
        by_code = [(0, 1, 1), (1, 0, 1)]
        fast = generate_lists(pool, rng(50))
        codes = raw_cells(rng(50), 400) % 24 // 12
        np.testing.assert_array_equal(fast, np.array(by_code, np.int8)[codes].T)
        dense = dense_engine_lists(pool, rng(51))
        assert set(zip(*(row.tolist() for row in dense))) == set(by_code)

    def test_engine_and_fast_paths_agree_in_distribution(self):
        count = 3000
        pool = make_verified_pool(count)
        fast = generate_lists(pool, rng(7))
        engine = dense_engine_lists(pool, rng(8))
        tv = 0.5 * np.abs(joint_counts(fast) - joint_counts(engine)).sum()
        assert tv < 0.05

    def test_dense_engine_with_random_directions_agrees_in_distribution(self):
        # outcome statistics do not depend on the common direction, so
        # the computational-basis draw matches random-direction engine runs
        count = 3000
        pool = make_verified_pool(count)
        fast = generate_lists(pool, rng(10))
        engine = dense_engine_lists(pool, rng(90), DirectionPolicy.RANDOM)
        tv = 0.5 * np.abs(joint_counts(fast) - joint_counts(engine)).sum()
        assert tv < 0.05

    def test_deterministic_for_fixed_seed(self, records_equal):
        first = generate_lists(make_verified_pool(500), rng(12))
        second = generate_lists(make_verified_pool(500), rng(12))
        assert records_equal(first, second)


ALL_BASIS_STATES = [format(i, "04b") for i in range(16)]


def list_table(name):
    """The named source's (3, 24) list entries as the lists read them: the
    first 24 bytes of each party's table."""
    return np.array([np.frombuffer(table[:24], np.int8) for table in _party_tables(name)])


class TestListTable:
    """Every list position is one of 24 equally likely (code, cell) columns
    of a table built from the named source's law in twelfths."""

    @pytest.mark.parametrize("code, assignment", list(enumerate(Assignment)))
    def test_singlet_columns_are_the_exact_round_table(self, code, assignment):
        a_ones, b_bits, c_bits = list_table("singlet")[:, 12 * code : 12 * code + 12]
        counts: dict = {}
        for a, b, c in zip(a_ones.tolist(), b_bits.tolist(), c_bits.tolist()):
            key = (((0, 0), (0, 1), (1, 1))[a], b, c)
            counts[key] = counts.get(key, 0) + 1
        exact = {key: Fraction(n, 12) for key, n in counts.items()}
        assert exact == round_distribution(assignment).table

    def test_singlet_law_is_its_integer_weights(self):
        weights = [0] * 16
        for bits, weight in SINGLET_WEIGHTS.items():
            weights[int("".join(map(str, bits)), 2)] = weight
        assert source_weights("singlet") == tuple(weights)
        np.testing.assert_allclose(12 * make_singlet(4).probabilities(), weights, atol=1e-12)

    @pytest.mark.parametrize("bits", ALL_BASIS_STATES)
    def test_basis_state_columns_all_give_its_outcome(self, bits):
        table = list_table(bits)
        outcome = outcome_bits(4)[int(bits, 2)]
        for code, assignment in enumerate(Assignment):
            a_ones = outcome[np.subtract(assignment.a_slots, 1)].sum()
            entry = [a_ones, outcome[assignment.b_slot - 1], outcome[3]]
            np.testing.assert_array_equal(
                table[:, 12 * code : 12 * code + 12], np.repeat([entry], 12, axis=0).T
            )

    def test_tables_are_three_256_bytes_built_once_per_source_name(self, monkeypatch):
        built = []
        original = liar_protocol._party_tables.__wrapped__
        monkeypatch.setattr(
            liar_protocol, "_party_tables",
            functools.cache(lambda name: built.append(name) or original(name)),
        )
        first, second = "0110", "".join(("01", "10"))  # equal names, distinct objects
        tables = liar_protocol._party_tables(first)
        assert [(type(table), len(table)) for table in tables] == [(bytes, 256)] * 3
        assert liar_protocol._party_tables(second) is tables
        for seed in range(3):
            generate_lists(VerifiedPool(8, second), rng(seed))
        assert built == ["0110"]
        liar_protocol._party_tables("singlet")
        assert built == ["0110", "singlet"]
        assert list_cells(second) is list_cells(first)

    @pytest.mark.parametrize("name", ["singlet", "0110"])
    def test_byte_v_reads_entry_v_mod_24(self, name):
        # each of the 240 cells a byte can name reads entry v % 24, so each
        # of the 24 entries has exactly 10 of them
        tables = _party_tables(name)
        assert _party_tables("".join(name)) is tables
        for v in range(256):
            assert tuple(table[v] for table in tables) == list_cells(name)[v % 24]

    @pytest.mark.parametrize("L", [1, 7, 8, 64, 192, 4096])
    @pytest.mark.parametrize("name", ["singlet"] + ALL_BASIS_STATES)
    def test_one_raw_draw_of_240_cells_per_list(self, name, L):
        # the lists are the reference's one (3, 240) take at the draw's cells
        stream = RecordingGenerator(rng(5))
        lists = generate_lists(VerifiedPool(L, name), stream)
        assert stream.calls == [("random_raw", (math.ceil((L + math.ceil(L / 8) + 16) / 8),))]
        np.testing.assert_array_equal(lists, reference_lists(name, raw_cells(rng(5), L)))

    def test_all_24_columns_give_the_mixed_round_table(self):
        # both codes' columns together, each 1/24, are C's half-and-half mixture
        counts: dict = {}
        for a, b, c in list_table("singlet").T.tolist():
            key = (((0, 0), (0, 1), (1, 1))[a], b, c)
            counts[key] = counts.get(key, 0) + 1
        assert {key: Fraction(n, 24) for key, n in counts.items()} == round_distribution().table

    @pytest.mark.parametrize("name", ["singlet"] + ALL_BASIS_STATES)
    def test_columns_repeat_each_outcome_by_its_weight(self, name):
        # each code's 12 columns list the source's outcomes in index order,
        # each as often as its weight
        weights = source_weights(name)
        table = np.array(list_cells(name)).T
        for code, assignment in enumerate(Assignment):
            expected = []
            for index, weight in enumerate(weights):
                bits = [int(bit) for bit in format(index, "04b")]
                entry = (
                    bits[assignment.a_slots[0] - 1] + bits[assignment.a_slots[1] - 1],
                    bits[assignment.b_slot - 1],
                    bits[assignment.c_slot - 1],
                )
                expected += [entry] * weight
            np.testing.assert_array_equal(table[:, 12 * code : 12 * code + 12], np.array(expected).T)

    @pytest.mark.parametrize("bits", ALL_BASIS_STATES)
    def test_every_basis_source_matches_dense_engine(self, bits):
        # a basis source measures deterministically, so each position's
        # entries follow from its assignment alone, on both engines
        outcome = [int(bit) for bit in bits]
        by_code = [
            (outcome[a.a_slots[0] - 1] + outcome[a.a_slots[1] - 1],
             outcome[a.b_slot - 1], outcome[a.c_slot - 1])
            for a in Assignment
        ]
        pool = VerifiedPool(200, bits)
        fast = generate_lists(pool, rng(60))
        codes = raw_cells(rng(60), 200) % 24 // 12
        np.testing.assert_array_equal(fast, np.array(by_code, np.int8)[codes].T)
        dense = dense_engine_lists(pool, rng(61))
        assert set(zip(*(row.tolist() for row in dense))) == set(by_code)


class _ScriptedBits:
    """A bit generator that serves ``random_raw`` from a fixed list of
    words, recording each call's size."""

    def __init__(self, words) -> None:
        self.words = list(words)
        self.sizes: list = []

    def random_raw(self, size=None):
        self.sizes.append(size)
        served, self.words = self.words[:size], self.words[size:]
        return np.array(served, np.uint64)


def scripted_short_stream(L):
    """A stream whose raw words keep each byte with chance 1/8, so the
    first W(L) words fall short and a list draw tops up: its bit generator,
    the raw bytes row by row (a kept byte 0..239, a dropped one 240..255)."""
    script = np.random.default_rng(L)
    raw = np.where(
        script.random((4 * L + 64, 8)) < 1 / 8,
        script.integers(0, 240, (4 * L + 64, 8)),
        script.integers(240, 256, (4 * L + 64, 8)),
    )
    words = [sum(int(byte) << 8 * i for i, byte in enumerate(row)) for row in raw]
    return _ScriptedBits(words), raw


class TestSampleOutcomes:
    """A list draw is the bytes below 240, in order, of PCG64's raw words
    read little-endian, topped up two words at a time, returned as
    ``bytes``; its cells mod 24 are the 24 equally likely (code, cell)
    entries."""

    @pytest.mark.parametrize("L", [1, 7, 8, 9, 64, 192, 1000, 4096])
    @pytest.mark.parametrize("seed", [0, 31])
    def test_cells_are_the_little_endian_bytes_below_240(self, L, seed):
        cells = sample_outcomes(L, rng(seed))
        assert type(cells) is bytes and len(cells) == L
        assert cells == raw_cells(rng(seed), L).tobytes()

    @pytest.mark.parametrize("L", [10, 64, 300])
    def test_top_up_keeps_the_first_accepted_bytes_in_order(self, L):
        bits, raw = scripted_short_stream(L)
        cells = sample_outcomes(L, SimpleNamespace(bit_generator=bits))
        kept = raw[raw < 240]  # row by row, lowest byte first
        assert cells == kept[:L].astype(np.uint8).tobytes()
        first = math.ceil((L + math.ceil(L / 8) + 16) / 8)
        assert bits.sizes[0] == first and set(bits.sizes[1:]) == {2}
        # two words at a time until enough bytes are kept, and no further
        assert np.count_nonzero(raw[: sum(bits.sizes)] < 240) >= L
        assert np.count_nonzero(raw[: sum(bits.sizes) - 2] < 240) < L

    def test_24_cells_equally_likely(self):
        # 64,000 cells from one draw and 64,000 from 1,000 draws of L=64,
        # each tested at 0.0005: a family-wise level of 0.001
        long = sample_outcomes(64_000, rng(70))
        stream = rng(71)
        short = b"".join(sample_outcomes(64, stream) for _ in range(1000))
        for cells in (long, short):
            cells = np.frombuffer(cells, np.uint8)
            assert cells.max() < 240
            counts = np.bincount(cells % 24, minlength=24)
            assert scipy_stats.chisquare(counts).pvalue >= 0.0005

    def test_first_draw_falls_short_with_chance_below_2e_9(self):
        # W(L) words hold 8 W(L) bytes, each kept with chance 15/16: the
        # exact binomial tail of keeping fewer than L, largest at L = 192
        L = np.arange(1, 20_001)
        words = -(-(L + -(-L // 8) + 16) // 8)
        short = scipy_stats.binom.cdf(L - 1, 8 * words, 15 / 16)
        assert short.max() < 2e-9 and L[short.argmax()] == 192


class TestListsMatchTheReference:
    """A list draw that tops up reads the same lists as one ``take`` from
    the (3, 240) table of ``oracle.list_cells`` at its cells."""

    @pytest.mark.parametrize("name", ["singlet", "0110"])
    def test_scripted_top_up(self, name):
        bits, raw = scripted_short_stream(64)
        lists = generate_lists(VerifiedPool(64, name), SimpleNamespace(bit_generator=bits))
        assert len(bits.sizes) > 1
        np.testing.assert_array_equal(lists, reference_lists(name, raw[raw < 240][:64]))


class TestProducerInvariants:
    """``PartyLists`` checks nothing when built: ``generate_lists`` makes its
    rows nonempty, 1-D, equally long, in range, int8 and read-only, over
    bytes that cannot be made writable again."""

    @settings(max_examples=100, deadline=None)
    @given(
        L=st.integers(1, 300),
        source=st.sampled_from(["singlet", "0011", "0101", "1111"]),
        seed=st.integers(0, 2**32),
    )
    def test_generate_lists(self, assert_frozen, L, source, seed):
        stream = rng(seed)
        pool = VerifiedPool(L, source)
        lists = generate_lists(pool, stream)
        assert_frozen(lists.a_ones, np.int8, 0, 2, (L,))
        assert_frozen(lists.b_bits, np.int8, 0, 1, (L,))
        assert_frozen(lists.c_bits, np.int8, 0, 1, (L,))
        assert lists.length == L
        for row in lists:
            with pytest.raises(ValueError):
                row.setflags(write=True)


class TestBAccepts:
    def test_accepts_true_claim(self):
        result = b_accepts(0, (1, 3, 6), worked_lists().b_bits)
        assert result.accepted

    def test_rejects_contradicted_position(self):
        # position 2 shows 0 in B's list, so A cannot hold 00 there
        result = b_accepts(0, (1, 2, 3, 6), worked_lists().b_bits)
        assert not result.accepted
        assert result.check == "step_iii_incompatible"
        assert result.position == 2

    def test_rejects_out_of_range(self):
        result = b_accepts(0, (1, 9), worked_lists().b_bits)
        assert result.check == "step_iii_incompatible"
        assert result.position == 9

    def test_rejects_unsorted_or_duplicated(self):
        assert not b_accepts(0, (3, 1), worked_lists().b_bits).accepted
        assert not b_accepts(0, (3, 3), worked_lists().b_bits).accepted

    def test_rejects_too_short(self):
        result = b_accepts(0, (), worked_lists().b_bits)
        assert not result.accepted
        assert result.check == "step_iii_too_short"

    def test_claim_of_exactly_the_required_length_passes(self):
        # at L=48 the rule asks for 0.5 * 5/24 * 48 = 5 entries exactly
        l_B = np.zeros(48, np.int8)
        assert b_accepts(1, (1, 2, 3, 4, 5), l_B).accepted
        assert b_accepts(1, (1, 2, 3, 4), l_B) == (False, "step_iii_too_short", None)

    def test_zero_min_fraction_accepts_empty(self):
        thresholds = Thresholds(min_fraction=0.0)
        assert b_accepts(0, (), worked_lists().b_bits, thresholds).accepted

    def test_rejects_bool_positions(self):
        lists = worked_lists()
        for claimed in ((True, 3, 6), np.array([True, False, True])):
            result = b_accepts(0, claimed, lists.b_bits)
            assert result.check == "step_iii_incompatible"
            assert result.position == 0

    def test_first_offending_entry_reported(self):
        b_bits = worked_lists().b_bits
        assert b_accepts(0, (3, 1, "x"), b_bits).position == 1
        assert b_accepts(0, (1, "x", 0), b_bits).position == 0
        assert b_accepts(0, (1, 3, 2.0), b_bits).position == 0
        assert b_accepts(0, (1, 2**70), b_bits).position == 2**70
        assert b_accepts(0, None, b_bits).position == 0
        # a malformed message bit is rejected before any position is read
        for m in (2, -1, None, "0", True, 0.0):
            result = b_accepts(m, (3, 1), b_bits)
            assert (result.check, result.position) == ("step_iii_incompatible", None)
        assert b_accepts(np.int64(1), (4, 5, 8), b_bits).accepted

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-2, 10), st.booleans(), st.floats(0, 10), st.just("3"), st.none()
            ),
            max_size=8,
        )
    )
    def test_position_scan_matches_reference_loop(self, claimed):
        # the entry-by-entry check B ran before it was vectorized, with
        # bools now rejected: the first offending entry must be the same
        def reference(length):
            previous = 0
            for position in claimed:
                if isinstance(position, bool) or not isinstance(position, int):
                    return 0
                if position <= previous or position > length:
                    return position
                previous = position
            return None

        lists = worked_lists()
        result = b_accepts(0, tuple(claimed), lists.b_bits)
        expected = reference(lists.length)
        if expected is None:
            assert result.check != "step_iii_incompatible" or result.position != 0
        else:
            assert result.check == "step_iii_incompatible"
            assert result.position == expected
        verdict = c_adjudicate(1, lists.a_ones, 0, tuple(claimed), lists.c_bits)
        if expected is None:
            assert verdict.check != "stage2_malformed"
        else:
            assert verdict[1:] == ("stage2_malformed", expected)

    def test_incompatible_positions_helper(self):
        bad = incompatible_positions((1, 2, 3, 6), worked_lists().b_bits, 0)
        np.testing.assert_array_equal(bad, [2])


# Hostile payloads for the receivers: arrays of any dtype with 0-2
# dimensions, lists of mixed entries, strings, None and ints. Message bits
# are mostly valid, so that C goes on to read the lists.
# Text keeps to a small alphabet: a full one costs seconds of setup.
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=9)
_TEXT = st.text("01x ", max_size=2)
_PAYLOADS = st.one_of(
    hnp.arrays(st.one_of(hnp.scalar_dtypes(), hnp.byte_string_dtypes()), _SHAPES),
    hnp.arrays(hnp.unicode_string_dtypes(min_len=2, max_len=4), _SHAPES, elements=_TEXT),
    st.lists(
        st.one_of(st.integers(), st.floats(), st.booleans(), _TEXT, st.none()), max_size=9
    ),
    st.text("01x ", max_size=9),
    st.none(),
    st.integers(),
)
_BITS_OR_PAYLOADS = st.one_of(st.sampled_from([0, 1]), _PAYLOADS)

# every check a verdict can name: C's seven, then B's two at step (III)
_CHECKS = (
    "stage1_malformed", "stage1_wrong_length", "stage1_inconsistent",
    "stage2_malformed", "stage2_too_short", "stage2_inconsistent",
    "stage2_passed_under_conflict", "step_iii_incompatible", "step_iii_too_short",
)


class TestCAdjudicate:
    def test_matching_messages_are_consistent_without_checks(self):
        verdict = c_adjudicate(1, (9, 9), 1, (999,), worked_lists().c_bits)
        assert verdict.value is VerdictValue.CONSISTENT
        assert verdict[1:] == (None, None)

    def test_stage1_wrong_length(self):
        lists = worked_lists()
        verdict = c_adjudicate(1, (0, 1, 2), 0, (1,), lists.c_bits)
        assert verdict.value is VerdictValue.A_IS_LIAR
        assert verdict.check == "stage1_wrong_length"

    def test_stage1_malformed_entry(self):
        lists = worked_lists()
        l_AC = (0, 1, 0, 2, 2, 0, 3, 2)
        verdict = c_adjudicate(1, l_AC, 0, (1,), lists.c_bits)
        assert verdict.value is VerdictValue.A_IS_LIAR
        assert verdict.check == "stage1_malformed"

    def test_stage1_contradicted_double(self):
        lists = worked_lists()
        # claim 00 at position 4 where C holds 0
        l_AC = (0, 1, 0, 0, 2, 0, 1, 2)
        verdict = c_adjudicate(1, l_AC, 0, (1, 3, 6), lists.c_bits)
        assert verdict.value is VerdictValue.A_IS_LIAR
        assert verdict.check == "stage1_inconsistent"
        assert verdict.position == 4

    def test_stage2_too_short(self):
        lists = worked_lists()
        verdict = c_adjudicate(1, tuple(lists.a_ones), 0, (), lists.c_bits)
        assert verdict.value is VerdictValue.B_IS_LIAR
        assert verdict.check == "stage2_too_short"

    def test_forward_of_exactly_the_required_length_passes_the_length_check(self):
        # at L=48 the rule asks for 5 positions; A's list doubles 1 everywhere
        l_AC, l_C = (2,) * 48, np.zeros(48, np.int8)
        verdict = c_adjudicate(0, l_AC, 1, (1, 2, 3, 4, 5), l_C)
        assert verdict == (VerdictValue.A_IS_LIAR, "stage2_passed_under_conflict", None)
        verdict = c_adjudicate(0, l_AC, 1, (1, 2, 3, 4), l_C)
        assert verdict == (VerdictValue.B_IS_LIAR, "stage2_too_short", None)

    def test_stage2_mismatched_position(self):
        lists = worked_lists()
        verdict = c_adjudicate(1, tuple(lists.a_ones), 0, (1, 2, 3), lists.c_bits)
        assert verdict.value is VerdictValue.B_IS_LIAR
        assert verdict.check == "stage2_inconsistent"
        assert verdict.position == 2

    def test_stage2_malformed_position(self):
        lists = worked_lists()
        verdict = c_adjudicate(1, tuple(lists.a_ones), 0, (0, 1), lists.c_bits)
        assert verdict.value is VerdictValue.B_IS_LIAR
        assert verdict.check == "stage2_malformed"

    def test_bool_entries_are_malformed(self):
        lists = worked_lists()
        l_AC = (False, 1, 0, 2, 2, 0, 1, 2)
        verdict = c_adjudicate(1, l_AC, 0, (1, 3, 6), lists.c_bits)
        assert verdict.value is VerdictValue.A_IS_LIAR
        assert verdict.check == "stage1_malformed"
        verdict = c_adjudicate(1, lists.a_ones, 0, (True, 3, 6), lists.c_bits)
        assert verdict.value is VerdictValue.B_IS_LIAR
        assert verdict.check == "stage2_malformed"
        assert verdict.position == 0
        verdict = c_adjudicate(1, lists.a_ones, 0, np.ones(3, dtype=bool), lists.c_bits)
        assert verdict.check == "stage2_malformed"

    def test_hostile_payloads_never_raise(self):
        lists = worked_lists()
        for l_AC in (None, 7, "01020012", [(0, 1)] * 8, np.zeros((8, 2)), np.zeros((8, 0))):
            verdict = c_adjudicate(1, l_AC, 0, (1, 3, 6), lists.c_bits)
            assert verdict.value is VerdictValue.A_IS_LIAR
        # a payload without a length, 0-d arrays included, has the wrong length
        for l_AC in (None, 7, np.array(5), np.array(1.0)):
            verdict = c_adjudicate(1, l_AC, 0, (1, 3, 6), lists.c_bits)
            assert (verdict.value, verdict.check) == (
                VerdictValue.A_IS_LIAR, "stage1_wrong_length"
            )
        for forwarded in (None, 7, [[1], [3]], ("1",), (1, None)):
            verdict = c_adjudicate(1, lists.a_ones, 0, forwarded, lists.c_bits)
            assert verdict.check == "stage2_malformed"
        # a malformed message bit convicts its sender, even when the bits agree
        # or the other side's payload is malformed too
        for bad in (2, -1, None, "0", True, 0.0):
            verdict = c_adjudicate(bad, lists.a_ones, 0, (), lists.c_bits)
            assert (verdict.value, verdict.check) == (
                VerdictValue.A_IS_LIAR, "stage1_malformed"
            )
            for m_AC in (0, 1):
                verdict = c_adjudicate(m_AC, None, bad, None, lists.c_bits)
                assert (verdict.value, verdict.check) == (
                    VerdictValue.B_IS_LIAR, "stage2_malformed"
                )

    @settings(max_examples=100, deadline=None)
    @given(
        m_AC=_BITS_OR_PAYLOADS, l_AC=_PAYLOADS, m_BC=_BITS_OR_PAYLOADS, forwarded=_PAYLOADS
    )
    @example(m_AC=1, l_AC=np.array(5), m_BC=0, forwarded=(1,))
    @example(m_AC=1, l_AC=np.zeros((8, 0)), m_BC=0, forwarded=(1,))
    def test_fuzzed_payloads_never_raise(self, m_AC, l_AC, m_BC, forwarded):
        lists = worked_lists()
        verdict = c_adjudicate(m_AC, l_AC, m_BC, forwarded, lists.c_bits)
        assert isinstance(verdict.value, VerdictValue)
        if verdict.value is VerdictValue.CONSISTENT:
            assert verdict[1:] == (None, None)
        else:
            assert verdict.check in _CHECKS
        result = b_accepts(m_AC, l_AC, lists.b_bits)
        assert isinstance(result, AcceptanceResult)
        result = b_accepts(m_BC, forwarded, lists.b_bits)
        assert isinstance(result, AcceptanceResult)

    # numpy promotes uint64 with int64 to float64, but a sequence's entries
    # are read as exact ints: each mix is judged as its plain ints are
    @pytest.mark.parametrize(
        "mixed",
        [
            [np.uint64(1), 2], [1, np.uint64(4)], [np.uint64(1), np.int64(3)],
            [np.uint8(2), np.int8(3)], [np.uint64(3), np.uint64(2)], [np.uint64(0), 1],
        ],
    )
    def test_mixed_integer_types_judged_as_ints(self, mixed):
        plain = [int(item) for item in mixed]
        l_B, l_AC = np.array([1, 1, 0, 1], np.int8), np.array([2, 0, 0, 2], np.int8)
        l_C = np.array([0, 1, 1, 0], np.int8)
        assert b_accepts(0, mixed, l_B) == b_accepts(0, plain, l_B)
        for thresholds in (Thresholds(0.0), Thresholds()):
            assert c_adjudicate(0, l_AC, 1, mixed, l_C, thresholds) == c_adjudicate(
                0, l_AC, 1, plain, l_C, thresholds
            )

    @pytest.mark.parametrize(
        "l_AC",
        [
            np.array([1, 1, -1, 1], np.int8), np.array([1, 1, -1, 1], np.int16),
            np.array([1, 1, -1, 1], np.int64), np.array([1, 1, -1, 1], object),
            np.array([np.uint64(1), 1, -1, 1]), [np.uint64(1), 1, -1, 1],
            [np.uint64(0), -1, 1, 1],
        ],
    )
    def test_negative_count_is_malformed_in_any_dtype(self, l_AC):
        # a forward of [1] would convict B if the list got past stage 1
        verdict = c_adjudicate(0, l_AC, 1, [1], np.array([0, 1, 1, 0], np.int8))
        assert verdict == (VerdictValue.A_IS_LIAR, "stage1_malformed", None)

    def test_entry_beyond_int64_named_exactly(self):
        l_B = np.array([1, 1, 0, 1], np.int8)
        for big in (2**63 + 1, 2**64 + 1):
            assert b_accepts(0, [1, big], l_B) == (False, "step_iii_incompatible", big)
            verdict = c_adjudicate(1, WORKED_A, 0, [1, big], WORKED_C)
            assert verdict == (VerdictValue.B_IS_LIAR, "stage2_malformed", big)
            assert c_adjudicate(0, [1, 1, 1, big], 1, [1], np.zeros(4, np.int8)) == (
                VerdictValue.A_IS_LIAR, "stage1_malformed", None
            )

    def test_both_stages_passing_convicts_a(self):
        # a full-length forwarded claim consistent with A's own full list
        # can only arise because A supported both conflicting messages
        lists = worked_lists()
        verdict = c_adjudicate(1, tuple(lists.a_ones), 0, (1, 3, 6), lists.c_bits)
        assert verdict.value is VerdictValue.A_IS_LIAR
        assert verdict.check == "stage2_passed_under_conflict"

    def test_stage_order_stops_at_first_conviction(self):
        lists = worked_lists()
        # both a stage-1 violation and a stage-2 mismatch exist; stage 1 wins
        l_AC = (0, 1, 0, 0, 2, 0, 1, 2)
        verdict = c_adjudicate(1, l_AC, 0, (2,), lists.c_bits)
        assert verdict.check == "stage1_inconsistent"

    def test_stage_helpers(self):
        lists = worked_lists()
        l_AC = (0, 1, 0, 0, 2, 0, 1, 2)
        np.testing.assert_array_equal(stage1_violations(l_AC, lists.c_bits), [4])
        np.testing.assert_array_equal(
            stage2_mismatches((1, 2, 4), tuple(lists.a_ones), 0), [2, 4]
        )
        # C's validated int8 list gives the same positions as a tuple
        validated = np.array(l_AC, dtype=np.int8)
        np.testing.assert_array_equal(stage1_violations(validated, lists.c_bits), [4])
        np.testing.assert_array_equal(
            stage2_mismatches(np.array([1, 2, 4]), lists.a_ones, 0), [2, 4]
        )


class TestThresholds:
    def test_defaults(self):
        thresholds = Thresholds()
        assert thresholds.min_fraction == 0.5
        assert EXPECTED_DOUBLE_FRACTION == (5, 24)

    def test_validation(self):
        with pytest.raises(ValueError):
            Thresholds(min_fraction=1.5)
        with pytest.raises(ValueError):
            Thresholds(min_fraction=-0.1)
        # no exact ratio to read the threshold off
        for value in (np.int64(1), "0.5"):
            with pytest.raises(ValueError):
                Thresholds(min_fraction=value)

    # a Decimal NaN raises decimal.InvalidOperation when ordered against a number
    @pytest.mark.parametrize("value", [Decimal("NaN"), Decimal("sNaN"), float("nan")])
    def test_nan_fraction_rejected(self, value):
        with pytest.raises(ValueError, match="min_fraction must be a number"):
            Thresholds(min_fraction=value)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_bool_fraction_rejected(self, flag):
        # a bool compares as 0 or 1, but the records would echo true/false
        with pytest.raises(ValueError, match="min_fraction must be a number"):
            Thresholds(min_fraction=flag)

    def test_required_length(self):
        assert Thresholds().required_length(256) == 27

    # the exact rule, min_fraction * 5/24 * L rounded up; a float product can
    # land just above an integer and demand one entry more
    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(st.floats(0, 1), st.sampled_from([0.25, 0.5, 0.75, 1])),
        st.integers(1, 10**6),
    )
    def test_required_length_is_the_exact_ceiling(self, fraction, length):
        expected = math.ceil(Fraction(fraction) * Fraction(5, 24) * length)
        assert Thresholds(fraction).required_length(length) == expected


class TestRunLiarProtocol:
    def test_honest_parties_always_consistent(self):
        # at short lengths an honest run can still trip the length
        # threshold; 256 entries pushes that residual below 1e-5
        stream = rng(31)
        for _ in range(100):
            lists = generate_lists(make_verified_pool(256), stream)
            result = run_liar_protocol(lists, StrategyA.honest(), StrategyB.honest(), rng=stream)
            assert result.verdict.value is VerdictValue.CONSISTENT
            assert result.delivered_message == result.a_action.m_AB

    def test_split_never_convicts_honest_b(self):
        stream = rng(32)
        seen = set()
        for n in (0, 1, 2, 4):
            for _ in range(150):
                lists = generate_lists(make_verified_pool(64), stream)
                result = run_liar_protocol(
                    lists, StrategyA.split_message(n), StrategyB.honest(), rng=stream
                )
                seen.add(result.verdict.value)
                assert result.verdict.value in (
                    VerdictValue.A_IS_LIAR,
                    VerdictValue.B_REJECTED_AT_STEP_III,
                )
        assert VerdictValue.A_IS_LIAR in seen
        assert VerdictValue.B_REJECTED_AT_STEP_III in seen

    def test_flipforge_convicted_and_honest_a_safe(self):
        stream = rng(33)
        for _ in range(150):
            lists = generate_lists(make_verified_pool(256), stream)
            result = run_liar_protocol(
                lists, StrategyA.honest(), StrategyB.flip_and_forge(), rng=stream
            )
            assert result.verdict.value is VerdictValue.B_IS_LIAR

    def test_flipforge_with_empty_list_too_short(self):
        stream = rng(34)
        lists = generate_lists(make_verified_pool(64), stream)
        result = run_liar_protocol(
            lists, StrategyA.honest(), StrategyB.flip_and_forge(0), rng=stream
        )
        assert result.verdict.value is VerdictValue.B_IS_LIAR
        assert result.verdict.check == "stage2_too_short"

    def test_reject_flow_sends_evidence_to_c(self):
        stream = rng(36)
        lists = generate_lists(make_verified_pool(64), stream)
        result = run_liar_protocol(
            lists, StrategyA.split_message(10), StrategyB.honest(), rng=stream
        )
        assert result.verdict.value is VerdictValue.B_REJECTED_AT_STEP_III
        a_action = result.a_action
        acceptance = b_accepts(a_action.m_AB, a_action.positions_for_B, lists.b_bits)
        assert result.verdict[1:] == ("step_iii_incompatible", acceptance.position)
        assert (acceptance.accepted, acceptance.check) == (False, "step_iii_incompatible")
        # the rejected position is one of A's fabrications, and B sent no forward
        assert acceptance.position in result.a_action.fabricated_positions
        assert result.b_action is None and result.delivered_message is None

    def test_step_iii_verdict_names_the_first_contradicted_position(self):
        rejected = 0
        for seed in range(40):
            stream = rng(seed)
            lists = generate_lists(make_verified_pool(64), stream)
            result = run_liar_protocol(
                lists, StrategyA.split_message(3), StrategyB.honest(), rng=stream
            )
            a_action = result.a_action
            contradicted = incompatible_positions(
                a_action.positions_for_B, lists.b_bits, a_action.m_AB
            )
            if contradicted.size:
                rejected += 1
                assert result.verdict == (
                    VerdictValue.B_REJECTED_AT_STEP_III, "step_iii_incompatible", contradicted[0]
                )
                assert result.verdict.position in a_action.fabricated_positions
            else:
                assert result.verdict.check != "step_iii_incompatible"
        assert rejected >= 25  # all 3 fabrications survive B with chance 1/8 only

    def test_too_short_claim_rejected_at_step_iii(self):
        # L=16 expects 3.33 doubles and requires 1.67, so an honest claim of
        # one position or none is refused as too short
        stream = rng(36)
        for _ in range(200):
            lists = generate_lists(make_verified_pool(16), stream)
            result = run_liar_protocol(lists, StrategyA.honest(), StrategyB.honest(), rng=stream)
            if result.a_action.positions_for_B.size < 2:
                break
        assert result.verdict.value is VerdictValue.B_REJECTED_AT_STEP_III
        assert result.verdict[1:] == ("step_iii_too_short", None)
        a_action = result.a_action
        assert b_accepts(a_action.m_AB, a_action.positions_for_B, lists.b_bits) == (
            False, "step_iii_too_short", None
        )
        assert result.b_action is None and result.delivered_message is None

    def test_only_an_honest_b_runs_his_check(self, monkeypatch):
        checks = []  # what each call of B's step-(III) check returned
        original = liar_protocol.b_accepts

        def counted(*args):
            checks.append(original(*args))
            return checks[-1]

        monkeypatch.setattr(liar_protocol, "b_accepts", counted)
        stream = rng(37)
        lists = generate_lists(make_verified_pool(64), stream)
        honest = run_liar_protocol(lists, StrategyA.honest(), StrategyB.honest(), rng=stream)
        assert checks == [AcceptanceResult(True)] and honest.b_action is not None
        for strategy_a in (StrategyA.honest(), StrategyA.split_message(3)):
            run_liar_protocol(lists, strategy_a, StrategyB.flip_and_forge(), rng=stream)
        assert len(checks) == 1  # a dishonest B bypasses his own test

    def test_deterministic_for_fixed_seed(self, records_equal):
        def one(seed):
            stream = rng(seed)
            lists = generate_lists(make_verified_pool(64), stream)
            return run_liar_protocol(
                lists, StrategyA.split_message(2), StrategyB.honest(), rng=stream
            )

        first, second = one(38), one(38)
        assert first.verdict == second.verdict
        assert records_equal(first.a_action, second.a_action)


# The benchmark's strategy mix, plus capped strategies at L=16 that ask for
# more fabrications than a short list has positions to fabricate on.
_OUTGOING_CASES = [
    (64, "honest", "honest"),
    (64, "split:n=3", "honest"),
    (64, "forgefull:k=8", "flipforge"),
    (64, "honest", "flipforge"),
    (16, "split:n=50", "honest"),
    (16, "forgefull:k=50", "honest"),
    (16, "honest", "flipforge:k=50"),
]


@pytest.mark.parametrize("length, text_a, text_b", _OUTGOING_CASES)
def test_outgoing_payloads_pass_the_receivers_checks(length, text_a, text_b):
    # B's and C's checks are the only validation of a payload, so every
    # payload a strategy sends must be well formed by their own helpers
    strategy_a, strategy_b = parse_strategy_A(text_a), parse_strategy_B(text_b)
    capped = False
    for seed in range(150):
        stream = rng(seed)
        lists = generate_lists(make_verified_pool(length), stream)
        result = run_liar_protocol(lists, strategy_a, strategy_b, rng=stream)
        a_action, b_action = result.a_action, result.b_action
        assert _is_bit(a_action.m_AB) and _is_bit(a_action.m_AC)
        assert _scan_positions(a_action.positions_for_B, length)[1] is None
        assert len(_pair_counts(a_action.l_AC)) == length
        sent = [a_action.positions_for_B]
        capped |= a_action.capped
        if b_action is not None:
            assert _is_bit(b_action.m_BC)
            assert _scan_positions(b_action.forwarded, length)[1] is None
            sent.append(b_action.forwarded)
            capped |= b_action.capped
        for positions in sent:
            assert positions.dtype == np.int64 and not positions.flags.writeable
    assert capped is (length == 16)


# Each one-pass check must reject exactly the inputs of the per-rule form it
# replaced, and name the same first offending entry.
_DTYPES = st.sampled_from([np.int8, np.uint8, np.int64])


class TestOnePassChecksMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(-2, 10), max_size=8), dtype=_DTYPES)
    def test_position_scan_of_arrays(self, values, dtype):
        positions = np.array(values, dtype=np.int64).astype(dtype)

        def reference(length):
            previous = 0
            for position in positions.tolist():
                if position <= previous or position > length:
                    return position
                previous = position
            return None

        for length in (0, 5, 8):
            scanned, bad = _scan_positions(positions, length)
            assert bad == reference(length)
            assert scanned is positions


# Once a position list or a full list has passed its scan, B's and C's checks
# and the escape counts index with it as it is. Each must give what the whole
# reference checks give, on lists with contradictions and fabrications.
_SOURCES = st.sampled_from(["singlet", "0011", "0101", "1111"])


@st.composite
def _lists_and_claim(draw):
    """Lists from ``generate_lists``, a message bit m, and a strictly
    increasing claim for m drawn from anywhere in the lists: some of A's
    doubles of m, plus any other positions."""
    L = draw(st.integers(1, 80))
    stream = rng(draw(st.integers(0, 2**32)))
    source = draw(_SOURCES)
    pool = VerifiedPool(L, source)
    lists = generate_lists(pool, stream)
    m = draw(st.integers(0, 1))
    honest = (np.flatnonzero(lists.a_ones == 2 * m) + 1).tolist()
    kept = draw(st.sets(st.sampled_from(honest))) if honest else set()
    added = draw(st.sets(st.integers(1, L), max_size=6))
    return lists, m, np.array(sorted(kept | added), dtype=np.int64)


def _reference_b_accepts(m_AB, claimed, l_B, thresholds):
    contradicted = incompatible_positions(claimed, l_B, m_AB)
    if contradicted.size:
        return AcceptanceResult(False, "step_iii_incompatible", int(contradicted[0]))
    if len(claimed) < thresholds.required_length(len(l_B)):
        return AcceptanceResult(False, "step_iii_too_short")
    return AcceptanceResult(True)


def _reference_c_adjudicate(m_AC, l_AC, m_BC, forwarded, l_C, thresholds):
    if m_AC == m_BC:
        return Verdict(VerdictValue.CONSISTENT)
    violations = stage1_violations(l_AC, l_C)
    if violations.size:
        return Verdict(VerdictValue.A_IS_LIAR, "stage1_inconsistent", int(violations[0]))
    if len(forwarded) < thresholds.required_length(len(l_C)):
        return Verdict(VerdictValue.B_IS_LIAR, "stage2_too_short")
    mismatches = stage2_mismatches(forwarded, l_AC, m_BC)
    if mismatches.size:
        return Verdict(VerdictValue.B_IS_LIAR, "stage2_inconsistent", int(mismatches[0]))
    return Verdict(VerdictValue.A_IS_LIAR, "stage2_passed_under_conflict")


def _reference_escape_counts(lists, a_action, b_action):
    fabricated = a_action.fabricated_positions
    bad = incompatible_positions(fabricated, lists.b_bits, a_action.m_AB)
    altered = a_action.altered_positions - 1
    survives = lists.c_bits[altered] == 1 - a_action.l_AC[altered] // 2
    forged = b_action.fabricated_positions if b_action is not None else np.empty(0, np.int64)
    bad2 = (
        stage2_mismatches(forged, a_action.l_AC, b_action.m_BC) if forged.size else forged
    )
    return (
        fabricated.size, fabricated.size - bad.size,
        altered.size, int(np.count_nonzero(survives)),
        forged.size, forged.size - bad2.size,
    )


_THRESHOLDS = st.builds(Thresholds, st.sampled_from([0.0, 0.25, 0.5, 1.0]))


class TestIndexOnceChecksMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(drawn=_lists_and_claim(), as_tuple=st.booleans(), thresholds=_THRESHOLDS)
    def test_b_accepts(self, drawn, as_tuple, thresholds):
        lists, m_AB, claimed = drawn
        payload = tuple(claimed.tolist()) if as_tuple else mark_readonly(claimed)
        expected = _reference_b_accepts(m_AB, claimed, lists.b_bits, thresholds)
        assert b_accepts(m_AB, payload, lists.b_bits, thresholds) == expected

    @settings(max_examples=300, deadline=None)
    @given(drawn=_lists_and_claim(), m_AC=st.integers(0, 1),
           forged=st.dictionaries(st.integers(0, 79), st.integers(0, 2), max_size=6),
           as_tuple=st.booleans(), thresholds=_THRESHOLDS)
    def test_c_adjudicate(self, drawn, m_AC, forged, as_tuple, thresholds):
        lists, m_BC, forwarded = drawn
        l_AC = lists.a_ones.copy()
        for index, count in forged.items():
            if index < l_AC.size:
                l_AC[index] = count
        if as_tuple:
            sent = tuple(l_AC.tolist()), tuple(forwarded.tolist())
        else:
            sent = mark_readonly(l_AC), mark_readonly(forwarded)
        expected = _reference_c_adjudicate(m_AC, l_AC, m_BC, forwarded, lists.c_bits, thresholds)
        verdict = c_adjudicate(m_AC, sent[0], m_BC, sent[1], lists.c_bits, thresholds)
        assert verdict == expected

    @settings(max_examples=200, deadline=None)
    @given(
        L=st.integers(1, 80),
        source=_SOURCES,
        seed=st.integers(0, 2**32),
        text_a=st.sampled_from(["honest", "split:n=1", "split:n=3", "split:n=50",
                                "forgefull:k=1", "forgefull:k=8", "forgefull:k=50"]),
        text_b=st.sampled_from(["honest", "flipforge", "flipforge:k=1", "flipforge:k=50"]),
    )
    def test_escape_counts(self, L, source, seed, text_a, text_b):
        stream = rng(seed)
        pool = VerifiedPool(L, source)
        lists = generate_lists(pool, stream)
        result = run_liar_protocol(
            lists, parse_strategy_A(text_a), parse_strategy_B(text_b), rng=stream
        )
        counts = _escape_counts(lists, result.a_action, result.b_action)
        assert counts == _reference_escape_counts(lists, result.a_action, result.b_action)
        assert all(type(count) is int for count in counts)

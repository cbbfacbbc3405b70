import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liarsim.adversary import StrategyA, StrategyB
from liarsim.channels import PartyId
from liarsim.distribute_test import (
    DirectionPolicy,
    VerifiedPool,
    choose_direction,
    make_verified_pool,
)
from liarsim.liar_protocol import (
    EXPECTED_DOUBLE_FRACTION,
    Evidence,
    FullList,
    MessageWithList,
    PartyLists,
    Reject,
    RejectReason,
    Thresholds,
    VerdictValue,
    _scan_positions,
    b_accepts,
    c_adjudicate,
    generate_lists,
    incompatible_positions,
    run_liar_protocol,
    stage1_violations,
    stage2_mismatches,
)
from liarsim.oracle import Assignment
from liarsim.qstate import basis_state, make_singlet, measure_qubits

# Worked eight-row example used throughout: a valid joint outcome whose
# doubles sit at 1,3,6 (for 0) and 4,5,8 (for 1).
WORKED_A = ("00", "01", "00", "11", "11", "00", "01", "11")
WORKED_B = "10100100"
WORKED_C = "11100110"


def worked_lists():
    return PartyLists.from_table(WORKED_A, WORKED_B, WORKED_C)


def rng(seed=0):
    return np.random.default_rng(seed)


def dense_engine_lists(pool, stream, policy=DirectionPolicy.FIXED):
    """Lists measured position by position through the state-vector engine.

    Each position measures A's two slots, then B's, then C's, along one
    common direction, collapsing the state between measurements: the
    exact oracle the vectorized ``generate_lists`` must agree with.
    """
    a_ones, b_bits, c_bits = [], [], []
    for code in pool.codes:
        assignment = tuple(Assignment)[code]
        direction = choose_direction(stream, policy)
        state = pool.source
        a_bits, state = measure_qubits(state, assignment.a_slots, direction, stream)
        (b_bit,), state = measure_qubits(state, [assignment.b_slot], direction, stream)
        (c_bit,), _ = measure_qubits(state, [4], direction, stream)
        a_ones.append(sum(a_bits))
        b_bits.append(b_bit)
        c_bits.append(c_bit)
    return PartyLists(a_ones, b_bits, c_bits)


def joint_counts(lists):
    table = np.zeros((3, 2, 2))
    np.add.at(table, (lists.a_ones, lists.b_bits, lists.c_bits), 1)
    return table / lists.length


class TestPartyLists:
    def test_from_table_round_trip(self):
        lists = worked_lists()
        assert lists.length == 8
        np.testing.assert_array_equal(lists.a_ones, [0, 1, 0, 2, 2, 0, 1, 2])  # WORKED_A
        np.testing.assert_array_equal(lists.b_bits, [1, 0, 1, 0, 0, 1, 0, 0])
        np.testing.assert_array_equal(lists.c_bits, [1, 1, 1, 0, 0, 1, 1, 0])

    def test_correlation_enforced(self):
        with pytest.raises(ValueError):
            PartyLists.from_table(("00",), "0", "1")
        with pytest.raises(ValueError):
            PartyLists.from_table(("11",), "0", "1")

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            PartyLists.from_table(("00", "01"), "1", "1")

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            PartyLists.from_table(("02",), "1", "1")

    def test_lists_are_read_only(self):
        lists = worked_lists()
        with pytest.raises(ValueError):
            lists.a_ones[0] = 1

    def test_unordered_pair_spelling(self):
        assert PartyLists.from_table(("10",), "0", "1").a_ones.tolist() == [1]

    def test_equality(self):
        assert worked_lists() == worked_lists()
        other = PartyLists.from_table(("01",) * 8, WORKED_B, WORKED_C)
        assert worked_lists() != other


class TestGenerateLists:
    def test_fast_path_produces_valid_correlated_lists(self):
        pool = make_verified_pool(100_000, rng(1))
        lists = generate_lists(pool, rng(2))
        assert lists.length == 100_000
        # constructor enforces the doubles rule; recheck explicitly
        for m in (0, 1):
            doubles = lists.a_ones == 2 * m
            assert np.all(lists.b_bits[doubles] == 1 - m)
            assert np.all(lists.c_bits[doubles] == 1 - m)

    def test_doubles_fraction_matches_expectation(self):
        lists = generate_lists(make_verified_pool(100_000, rng(3)), rng(4))
        for m in (0, 1):
            fraction = np.mean(lists.a_ones == 2 * m)
            assert fraction == pytest.approx(5 / 24, abs=0.005)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            generate_lists(VerifiedPool((), (), make_singlet(4)), rng(0))

    def test_product_source_lists_match_dense_engine(self):
        # a product source measures deterministically, so the vectorized
        # lists equal the engine's position by position
        pool = make_verified_pool(40, rng(5))
        pool = VerifiedPool(pool.system_ids, pool.codes, basis_state("0011"))
        lists = generate_lists(pool, rng(50))
        assert lists == dense_engine_lists(pool, rng(51))
        # |0011>: A holding slots (1,3) sees one 1, B then holds slot 2
        np.testing.assert_array_equal(lists.a_ones, pool.codes)
        np.testing.assert_array_equal(lists.b_bits, 1 - pool.codes)
        np.testing.assert_array_equal(lists.c_bits, np.ones(40))

    def test_engine_and_fast_paths_agree_in_distribution(self):
        count = 3000
        assignments = (Assignment.A_HOLDS_12,) * count
        pool = make_verified_pool(count, rng(6), assignments)
        fast = generate_lists(pool, rng(7))
        engine = dense_engine_lists(pool, rng(8))
        tv = 0.5 * np.abs(joint_counts(fast) - joint_counts(engine)).sum()
        assert tv < 0.05

    def test_dense_engine_with_random_directions_agrees_in_distribution(self):
        # outcome statistics do not depend on the common direction, so
        # the computational-basis draw matches random-direction engine runs
        count = 3000
        pool = make_verified_pool(count, rng(9))
        fast = generate_lists(pool, rng(10))
        engine = dense_engine_lists(pool, rng(90), DirectionPolicy.RANDOM)
        tv = 0.5 * np.abs(joint_counts(fast) - joint_counts(engine)).sum()
        assert tv < 0.05

    def test_deterministic_for_fixed_seed(self):
        first = generate_lists(make_verified_pool(500, rng(11)), rng(12))
        second = generate_lists(make_verified_pool(500, rng(11)), rng(12))
        assert first == second


class TestMessages:
    def test_positions_must_increase(self):
        with pytest.raises(ValueError):
            MessageWithList(0, (3, 1))
        with pytest.raises(ValueError):
            MessageWithList(0, (1, 1))
        with pytest.raises(ValueError):
            MessageWithList(0, (0,))
        assert MessageWithList(0, (1, 3, 6)).positions.tolist() == [1, 3, 6]

    def test_positions_stored_read_only(self):
        message = MessageWithList(0, [1, 3, 6])
        assert message.positions.dtype == np.int64
        with pytest.raises(ValueError):
            message.positions[0] = 2
        assert message == MessageWithList(0, np.array([1, 3, 6]))
        assert message != MessageWithList(0, (1, 3))

    def test_bool_entries_rejected(self):
        # bool is a subclass of int, but True is not position 1
        with pytest.raises(ValueError):
            MessageWithList(0, (True, 3))
        with pytest.raises(ValueError):
            MessageWithList(0, np.array([True, False]))
        with pytest.raises(ValueError):
            FullList(0, (0, True, 2))
        with pytest.raises(ValueError):
            FullList(0, np.array([False, True]))

    def test_message_bit_validated(self):
        with pytest.raises(ValueError):
            MessageWithList(2, ())
        with pytest.raises(ValueError):
            FullList(-1, (0, 1))
        # the receivers' rule: an integer 0 or 1, and a bool or float is neither
        with pytest.raises(ValueError):
            MessageWithList(True, (1, 2))
        with pytest.raises(ValueError):
            FullList(1.0, (0, 1, 2))
        assert FullList(np.int64(1), (0, 1, 2)).m == 1

    def test_full_list_entries_validated(self):
        with pytest.raises(ValueError):
            FullList(0, (0, 3))


class TestBAccepts:
    def test_accepts_true_claim(self):
        result = b_accepts(0, (1, 3, 6), worked_lists().b_bits)
        assert result.accepted
        assert result.required_length == pytest.approx(0.5 * 5 / 24 * 8)

    def test_rejects_contradicted_position(self):
        # position 2 shows 0 in B's list, so A cannot hold 00 there
        result = b_accepts(0, (1, 2, 3, 6), worked_lists().b_bits)
        assert not result.accepted
        assert result.reason is RejectReason.INCOMPATIBLE
        assert result.position == 2

    def test_rejects_out_of_range(self):
        result = b_accepts(0, (1, 9), worked_lists().b_bits)
        assert result.reason is RejectReason.INCOMPATIBLE
        assert result.position == 9

    def test_rejects_unsorted_or_duplicated(self):
        assert not b_accepts(0, (3, 1), worked_lists().b_bits).accepted
        assert not b_accepts(0, (3, 3), worked_lists().b_bits).accepted

    def test_rejects_too_short(self):
        result = b_accepts(0, (), worked_lists().b_bits)
        assert not result.accepted
        assert result.reason is RejectReason.TOO_SHORT

    def test_zero_min_fraction_accepts_empty(self):
        thresholds = Thresholds(min_fraction=0.0)
        assert b_accepts(0, (), worked_lists().b_bits, thresholds).accepted

    def test_rejects_bool_positions(self):
        lists = worked_lists()
        for claimed in ((True, 3, 6), np.array([True, False, True])):
            result = b_accepts(0, claimed, lists.b_bits)
            assert result.reason is RejectReason.INCOMPATIBLE
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
            assert (result.reason, result.position) == (RejectReason.INCOMPATIBLE, None)
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
            assert result.reason is not RejectReason.INCOMPATIBLE or result.position != 0
        else:
            assert result.reason is RejectReason.INCOMPATIBLE
            assert result.position == expected
        verdict = c_adjudicate(1, lists.a_ones, 0, tuple(claimed), lists.c_bits)
        if expected is None:
            assert verdict.evidence.check != "stage2_malformed"
        else:
            assert verdict.evidence == Evidence("stage2_malformed", expected, "invalid position")

    def test_incompatible_positions_helper(self):
        bad = incompatible_positions((1, 2, 3, 6), worked_lists().b_bits, 0)
        np.testing.assert_array_equal(bad, [2])


class TestCAdjudicate:
    def test_matching_messages_are_consistent_without_checks(self):
        verdict = c_adjudicate(1, (9, 9), 1, (999,), worked_lists().c_bits)
        assert verdict.value is VerdictValue.CONSISTENT
        assert verdict.evidence is None

    def test_stage1_wrong_length(self):
        lists = worked_lists()
        verdict = c_adjudicate(1, (0, 1, 2), 0, (1,), lists.c_bits)
        assert verdict.value is VerdictValue.A_IS_LIAR
        assert verdict.evidence.check == "stage1_wrong_length"

    def test_stage1_malformed_entry(self):
        lists = worked_lists()
        l_AC = (0, 1, 0, 2, 2, 0, 3, 2)
        verdict = c_adjudicate(1, l_AC, 0, (1,), lists.c_bits)
        assert verdict.value is VerdictValue.A_IS_LIAR
        assert verdict.evidence.check == "stage1_malformed"

    def test_stage1_contradicted_double(self):
        lists = worked_lists()
        # claim 00 at position 4 where C holds 0
        l_AC = (0, 1, 0, 0, 2, 0, 1, 2)
        verdict = c_adjudicate(1, l_AC, 0, (1, 3, 6), lists.c_bits)
        assert verdict.value is VerdictValue.A_IS_LIAR
        assert verdict.evidence.check == "stage1_inconsistent"
        assert verdict.evidence.position == 4

    def test_stage2_too_short(self):
        lists = worked_lists()
        verdict = c_adjudicate(1, tuple(lists.a_ones), 0, (), lists.c_bits)
        assert verdict.value is VerdictValue.B_IS_LIAR
        assert verdict.evidence.check == "stage2_too_short"

    def test_stage2_mismatched_position(self):
        lists = worked_lists()
        verdict = c_adjudicate(1, tuple(lists.a_ones), 0, (1, 2, 3), lists.c_bits)
        assert verdict.value is VerdictValue.B_IS_LIAR
        assert verdict.evidence.check == "stage2_inconsistent"
        assert verdict.evidence.position == 2

    def test_stage2_malformed_position(self):
        lists = worked_lists()
        verdict = c_adjudicate(1, tuple(lists.a_ones), 0, (0, 1), lists.c_bits)
        assert verdict.value is VerdictValue.B_IS_LIAR
        assert verdict.evidence.check == "stage2_malformed"

    def test_bool_entries_are_malformed(self):
        lists = worked_lists()
        l_AC = (False, 1, 0, 2, 2, 0, 1, 2)
        verdict = c_adjudicate(1, l_AC, 0, (1, 3, 6), lists.c_bits)
        assert verdict.value is VerdictValue.A_IS_LIAR
        assert verdict.evidence.check == "stage1_malformed"
        verdict = c_adjudicate(1, lists.a_ones, 0, (True, 3, 6), lists.c_bits)
        assert verdict.value is VerdictValue.B_IS_LIAR
        assert verdict.evidence.check == "stage2_malformed"
        assert verdict.evidence.position == 0
        verdict = c_adjudicate(1, lists.a_ones, 0, np.ones(3, dtype=bool), lists.c_bits)
        assert verdict.evidence.check == "stage2_malformed"

    def test_hostile_payloads_never_raise(self):
        lists = worked_lists()
        for l_AC in (None, 7, "01020012", [(0, 1)] * 8, np.zeros((8, 2))):
            verdict = c_adjudicate(1, l_AC, 0, (1, 3, 6), lists.c_bits)
            assert verdict.value is VerdictValue.A_IS_LIAR
        for forwarded in (None, 7, [[1], [3]], ("1",), (1, None)):
            verdict = c_adjudicate(1, lists.a_ones, 0, forwarded, lists.c_bits)
            assert verdict.evidence.check == "stage2_malformed"
        # a malformed message bit convicts its sender, even when the bits agree
        # or the other side's payload is malformed too
        for bad in (2, -1, None, "0", True, 0.0):
            verdict = c_adjudicate(bad, lists.a_ones, 0, (), lists.c_bits)
            assert (verdict.value, verdict.evidence.check) == (
                VerdictValue.A_IS_LIAR, "stage1_malformed"
            )
            for m_AC in (0, 1):
                verdict = c_adjudicate(m_AC, None, bad, None, lists.c_bits)
                assert (verdict.value, verdict.evidence.check) == (
                    VerdictValue.B_IS_LIAR, "stage2_malformed"
                )

    def test_both_stages_passing_convicts_a(self):
        # a full-length forwarded claim consistent with A's own full list
        # can only arise because A supported both conflicting messages
        lists = worked_lists()
        verdict = c_adjudicate(1, tuple(lists.a_ones), 0, (1, 3, 6), lists.c_bits)
        assert verdict.value is VerdictValue.A_IS_LIAR
        assert verdict.evidence.check == "stage2_passed_under_conflict"

    def test_stage_order_stops_at_first_conviction(self):
        lists = worked_lists()
        # both a stage-1 violation and a stage-2 mismatch exist; stage 1 wins
        l_AC = (0, 1, 0, 0, 2, 0, 1, 2)
        verdict = c_adjudicate(1, l_AC, 0, (2,), lists.c_bits)
        assert verdict.evidence.check == "stage1_inconsistent"

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
        assert EXPECTED_DOUBLE_FRACTION == pytest.approx(5 / 24)

    def test_validation(self):
        with pytest.raises(ValueError):
            Thresholds(min_fraction=1.5)
        with pytest.raises(ValueError):
            Thresholds(min_fraction=-0.1)

    def test_required_length(self):
        assert Thresholds().required_length(256) == pytest.approx(256 * 5 / 48)


# (sender, receiver, sequence) of the three messages, in send order
SEND_ORDER = [(PartyId.A, PartyId.B, 0), (PartyId.B, PartyId.C, 1), (PartyId.A, PartyId.C, 2)]


class TestRunLiarProtocol:
    def test_honest_parties_always_consistent(self):
        # at short lengths an honest run can still trip the length
        # threshold; 256 entries pushes that residual below 1e-5
        stream = rng(31)
        for _ in range(100):
            lists = generate_lists(make_verified_pool(256, stream), stream)
            result = run_liar_protocol(lists, StrategyA.honest(), StrategyB.honest(), rng=stream)
            assert result.verdict.value is VerdictValue.CONSISTENT
            assert result.delivered_message == result.a_action.m_AB

    def test_split_never_convicts_honest_b(self):
        stream = rng(32)
        seen = set()
        for n in (0, 1, 2, 4):
            for _ in range(150):
                lists = generate_lists(make_verified_pool(64, stream), stream)
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
            lists = generate_lists(make_verified_pool(256, stream), stream)
            result = run_liar_protocol(
                lists, StrategyA.honest(), StrategyB.flip_and_forge(), rng=stream
            )
            assert result.verdict.value is VerdictValue.B_IS_LIAR

    def test_flipforge_with_empty_list_too_short(self):
        stream = rng(34)
        lists = generate_lists(make_verified_pool(64, stream), stream)
        result = run_liar_protocol(
            lists, StrategyA.honest(), StrategyB.flip_and_forge(0), rng=stream
        )
        assert result.verdict.value is VerdictValue.B_IS_LIAR
        assert result.verdict.evidence.check == "stage2_too_short"

    def test_transcript_contains_exactly_the_protocol_messages(self):
        stream = rng(35)
        lists = generate_lists(make_verified_pool(64, stream), stream)
        result = run_liar_protocol(lists, StrategyA.honest(), StrategyB.honest(), rng=stream)
        payloads = [env.payload for env in result.transcript]
        assert len(payloads) == 3
        assert [(e.sender, e.receiver, e.sequence) for e in result.transcript] == SEND_ORDER
        assert isinstance(payloads[0], MessageWithList)  # A -> B
        assert isinstance(payloads[1], MessageWithList)  # B -> C
        assert isinstance(payloads[2], FullList)  # A -> C
        # private lists never cross the channel
        assert not any(isinstance(p, PartyLists) for p in payloads)

    def test_reject_flow_sends_evidence_to_c(self):
        stream = rng(36)
        lists = generate_lists(make_verified_pool(64, stream), stream)
        result = run_liar_protocol(
            lists, StrategyA.split_message(10), StrategyB.honest(), rng=stream
        )
        assert result.verdict.value is VerdictValue.B_REJECTED_AT_STEP_III
        rejects = [e.payload for e in result.transcript if isinstance(e.payload, Reject)]
        assert len(rejects) == 1
        assert [(e.sender, e.receiver, e.sequence) for e in result.transcript] == SEND_ORDER
        assert result.transcript[1].payload is rejects[0]  # B -> C
        np.testing.assert_array_equal(rejects[0].claimed, result.transcript[0].payload.positions)
        assert result.b_acceptance is not None
        assert not result.b_acceptance.accepted

    def test_acceptance_audit_fields(self):
        stream = rng(37)
        lists = generate_lists(make_verified_pool(64, stream), stream)
        honest = run_liar_protocol(lists, StrategyA.honest(), StrategyB.honest(), rng=stream)
        assert honest.b_acceptance is not None and honest.b_acceptance.accepted
        forged = run_liar_protocol(
            lists, StrategyA.honest(), StrategyB.flip_and_forge(), rng=stream
        )
        assert forged.b_acceptance is None  # dishonest B bypasses his own test

    def test_deterministic_for_fixed_seed(self):
        def one(seed):
            stream = rng(seed)
            lists = generate_lists(make_verified_pool(64, stream), stream)
            return run_liar_protocol(
                lists, StrategyA.split_message(2), StrategyB.honest(), rng=stream
            )

        first, second = one(38), one(38)
        assert first.verdict == second.verdict
        assert first.a_action == second.a_action


# Each one-pass check must reject exactly the inputs of the per-rule form it
# replaced, and name the same first offending entry.
_DTYPES = st.sampled_from([np.int8, np.uint8, np.int64])
_ROW = st.lists(st.integers(-3, 4), max_size=6)


class TestOnePassChecksMatchReference:
    @staticmethod
    def assert_party_lists_match_reference(rows):
        def reference():
            ints = [np.array(r, dtype=np.int8) for r in rows]
            for arr, upper in zip(ints, (2, 1, 1)):
                if arr.size < 1 or arr.min() < 0 or arr.max() > upper:
                    return "nonempty 1-D arrays"
            if not len(ints[0]) == len(ints[1]) == len(ints[2]):
                return "equal length"
            facing = 1 - ints[0] // 2
            doubles = ints[0] != 1
            if np.any(doubles & ((ints[1] != facing) | (ints[2] != facing))):
                return "must face"
            return None

        expected = reference()
        if expected is None:
            PartyLists(*rows)
        else:
            with pytest.raises(ValueError, match=expected):
                PartyLists(*rows)

    def test_party_lists_every_entry(self):
        # each (a, b, c) in and just around the valid range, alone and after a valid row
        for a in range(-1, 4):
            for b in range(-1, 3):
                for c in range(-1, 3):
                    self.assert_party_lists_match_reference(([a], [b], [c]))
                    self.assert_party_lists_match_reference(([1, 0, a], [0, 1, b], [1, 1, c]))

    @settings(max_examples=300, deadline=None)
    @given(a=_ROW, b=_ROW, c=_ROW, dtype=_DTYPES, stride=st.sampled_from([1, 2]))
    def test_party_lists(self, a, b, c, dtype, stride):
        rows = [np.array(r * stride, dtype=np.int64).astype(dtype)[::stride] for r in (a, b, c)]
        self.assert_party_lists_match_reference(rows)

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

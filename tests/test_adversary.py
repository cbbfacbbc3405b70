import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from liarsim.adversary import (
    AKind,
    BKind,
    StrategyA,
    StrategyB,
    _draw_sorted,
    integer,
    parse_strategy_A,
    parse_strategy_B,
    strategy_A_act,
    strategy_B_act,
)
from liarsim.distribute_test import make_verified_pool
from liarsim.liar_protocol import (
    EXPECTED_DOUBLE_FRACTION,
    PartyLists,
    VerdictValue,
    generate_lists,
    run_liar_protocol,
)
from liarsim.qstate import mark_readonly
from liarsim.runner import trial_rng
from reference_checks import strategy_A_act_reference, strategy_B_act_reference
from sampling import RecordingGenerator

# A's pairs 00 01 00 11 11 00 01 11, as counts of 1s; like the lists
# generate_lists makes, the rows are read-only int8 arrays
WORKED_A = mark_readonly(np.array([0, 1, 0, 2, 2, 0, 1, 2], np.int8))
WORKED_B = mark_readonly(np.array([1, 0, 1, 0, 0, 1, 0, 0], np.int8))
WORKED_C = mark_readonly(np.array([1, 1, 1, 0, 0, 1, 1, 0], np.int8))


def worked_lists():
    return PartyLists(WORKED_A, WORKED_B, WORKED_C)


def worked_a():
    return worked_lists().a_ones


def worked_b():
    return worked_lists().b_bits


def rng(seed=0):
    return np.random.default_rng(seed)


def big_lists(seed, length=40_000):
    stream = rng(seed)
    return generate_lists(make_verified_pool(length), stream)


class TestStrategyConstruction:
    def test_classmethods(self):
        assert StrategyA.split_message(3) == StrategyA(AKind.SPLIT_MESSAGE, count=3)
        assert StrategyA.forged_full_list(2) == StrategyA(AKind.FORGED_FULL_LIST, count=2)
        assert StrategyB.honest().is_honest
        assert StrategyB.flip_and_forge(7) == StrategyB(BKind.FLIP_AND_FORGE, count=7)

    def test_validation(self):
        with pytest.raises(ValueError):
            StrategyA.split_message(-1)
        with pytest.raises(ValueError):
            StrategyB.flip_and_forge(-4)
        # a count is an int: numpy would fail on these only inside a trial
        for count in (True, 2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="strategy count must be an integer"):
                StrategyA.split_message(count)
        with pytest.raises(ValueError, match="strategy count must be an integer"):
            StrategyB.flip_and_forge(False)


class TestStrategyRecords:
    """A strategy is one kind, read through its enum, and one count."""

    @pytest.mark.parametrize(
        "record, kind", [(StrategyA, k) for k in AKind] + [(StrategyB, k) for k in BKind]
    )
    def test_member_and_name_build_equal_records(self, record, kind):
        by_name = record(kind.value)
        assert by_name == record(kind)
        assert by_name.kind is kind
        assert record._fields == ("kind", "count")

    @pytest.mark.parametrize(
        "parse, record, descriptor, name, count",
        [
            (parse_strategy_A, StrategyA, "honest", "honest", 0),
            (parse_strategy_A, StrategyA, "split", "split", 0),
            (parse_strategy_A, StrategyA, "split:n=3", "split", 3),
            (parse_strategy_A, StrategyA, "forgefull", "forgefull", 0),
            (parse_strategy_A, StrategyA, "forgefull:k=8", "forgefull", 8),
            (parse_strategy_B, StrategyB, "honest", "honest", None),
            (parse_strategy_B, StrategyB, "flipforge", "flipforge", None),
            (parse_strategy_B, StrategyB, "flipforge:k=4", "flipforge", 4),
        ],
    )
    def test_descriptor_parses_to_kind_and_count(self, parse, record, descriptor, name, count):
        assert parse(descriptor) == record(name, count)
        assert parse(descriptor).count == count

    def test_count_is_a_plain_int(self):
        strategy = StrategyA("split", np.int64(3))
        assert strategy.count == 3 and type(strategy.count) is int

    def test_honest_b_by_name_checks_and_forwards(self):
        lists = generate_lists(make_verified_pool(64), trial_rng(1, 0))
        result = run_liar_protocol(
            lists, StrategyA.honest(), StrategyB("honest"), rng=trial_rng(1, 1)
        )
        assert result.b_acceptance is not None and result.b_acceptance.accepted
        assert result.b_action.m_BC == result.a_action.m_AB
        assert result.b_action.forwarded is result.a_action.positions_for_B
        assert result.b_action.fabricated_positions.size == 0
        assert result.verdict.value is VerdictValue.CONSISTENT

    def test_split_by_name_fabricates(self):
        action = strategy_A_act(StrategyA("split", 3), big_lists(3, 64).a_ones, rng(5))
        assert action.m_AC == 1 - action.m_AB
        assert action.fabricated_positions.size == 3

    @pytest.mark.parametrize(
        "record, kind, count, message",
        [
            (StrategyA, "bogus", 0, "not a valid AKind"),
            (StrategyA, "flipforge", 0, "not a valid AKind"),
            (StrategyA, BKind.HONEST, 0, "not a valid AKind"),
            (StrategyA, "Split", 0, "not a valid AKind"),
            (StrategyB, "split", None, "not a valid BKind"),
            (StrategyA, "split", True, "must be an integer"),
            (StrategyA, "forgefull", 1.5, "must be an integer"),
            (StrategyB, "flipforge", 4.0, "must be an integer"),
            (StrategyA, "split", -1, "must be nonnegative"),
            (StrategyB, "flipforge", -1, "must be nonnegative"),
            (StrategyA, "honest", 3, "honest strategy takes no count"),
            (StrategyB, "honest", 0, "honest strategy takes no count"),
            (StrategyB, BKind.HONEST, 3, "honest strategy takes no count"),
        ],
    )
    def test_invalid_record_raises(self, record, kind, count, message):
        with pytest.raises(ValueError, match=message):
            record(kind, count)


class TestHonestA:
    def test_worked_table(self):
        action = strategy_A_act(StrategyA.honest(), worked_a(), rng(_seed_drawing(0, 1)))
        assert action.m_AB == 0 and action.m_AC == 0
        assert action.positions_for_B.tolist() == [1, 3, 6]
        assert action.l_AC.tolist() == [0, 1, 0, 2, 2, 0, 1, 2]
        assert action.fabricated_positions.tolist() == []
        assert action.altered_positions.tolist() == []
        assert not action.capped

    def test_opposite_message(self):
        action = strategy_A_act(StrategyA.honest(), worked_a(), rng(_seed_drawing(1, 0)))
        assert action.m_AB == 1
        assert action.positions_for_B.tolist() == [4, 5, 8]

    def test_unset_message_drawn_from_stream(self):
        bits = set()
        for s in range(8):
            action = strategy_A_act(StrategyA.honest(), worked_a(), rng(s))
            # A's bit is the top bit of the stream's first raw word
            assert action.m_AB == rng(s).bit_generator.random_raw() // 2**63
            bits.add(action.m_AB)
        assert bits == {0, 1}


class TestSplitMessage:
    def test_messages_differ_and_list_is_forged(self):
        action = strategy_A_act(StrategyA.split_message(1), worked_a(), rng(_seed_drawing(0, 1)))
        assert action.m_AB == 0 and action.m_AC == 1
        # every mixed entry (2 and 7) is rewritten as a double of m_AC
        assert action.l_AC.tolist() == [0, 2, 0, 2, 2, 0, 2, 2]
        assert action.altered_positions.tolist() == [2, 7]

    def test_fabrications_come_from_mixed_positions(self):
        action = strategy_A_act(StrategyA.split_message(2), worked_a(), rng(_seed_drawing(0, 6)))
        assert action.m_AB == 0
        assert set(action.fabricated_positions.tolist()) <= {2, 7}
        assert action.positions_for_B.tolist() == sorted(
            [1, 3, 6] + action.fabricated_positions.tolist()
        )
        assert not action.capped

    def test_fabrication_count_capped_at_mixed_supply(self):
        action = strategy_A_act(StrategyA.split_message(5), worked_a(), rng(_seed_drawing(0, 9)))
        assert action.m_AB == 0
        assert action.fabricated_positions.tolist() == [2, 7]
        assert action.capped

    def test_zero_fabrications_sends_true_claim(self):
        action = strategy_A_act(StrategyA.split_message(0), worked_a(), rng(_seed_drawing(1, 4)))
        assert action.m_AB == 1
        assert action.positions_for_B.tolist() == [4, 5, 8]
        assert action.fabricated_positions.tolist() == []
        assert not action.capped


class TestForgedFullList:
    def test_messages_stay_consistent(self):
        action = strategy_A_act(
            StrategyA.forged_full_list(1), worked_a(), rng(_seed_drawing(0, 11))
        )
        assert action.m_AB == action.m_AC == 0
        assert action.positions_for_B.tolist() == [1, 3, 6]

    def test_alterations_rewrite_chosen_mixed_entries(self):
        true_list = (0, 1, 0, 2, 2, 0, 1, 2)
        action = strategy_A_act(
            StrategyA.forged_full_list(1), worked_a(), rng(_seed_drawing(0, 6))
        )
        assert action.m_AB == 0
        assert len(action.altered_positions) == 1
        j = action.altered_positions[0]
        assert j in (2, 7)
        expected = list(true_list)
        expected[j - 1] = 0
        assert action.l_AC.tolist() == expected

    def test_cap_and_flag(self):
        action = strategy_A_act(
            StrategyA.forged_full_list(9), worked_a(), rng(_seed_drawing(1, 7))
        )
        assert action.m_AB == 1
        assert action.altered_positions.tolist() == [2, 7]
        assert action.capped
        assert action.l_AC.tolist() == [0, 2, 0, 2, 2, 0, 2, 2]


class TestStrategyBAct:
    def test_honest_forwards_exactly_what_arrived(self):
        action = strategy_B_act(StrategyB.honest(), (0, np.array([1, 3, 6])), worked_b(), rng())
        assert action.m_BC == 0
        assert action.forwarded.tolist() == [1, 3, 6]
        assert action.fabricated_positions.tolist() == []

    def test_flip_and_forge_flips_and_uses_plausible_positions(self):
        # m_BC = 1, so B needs positions where his own bit is 0: {2, 4, 5, 7, 8}
        action = strategy_B_act(
            StrategyB.flip_and_forge(3), (0, (1, 3, 6)), worked_b(), rng(8)
        )
        assert action.m_BC == 1
        assert len(action.forwarded) == 3
        assert set(action.forwarded.tolist()) <= {2, 4, 5, 7, 8}
        assert action.forwarded.tolist() == sorted(action.forwarded.tolist())
        assert not action.capped

    # the integer nearest 5/24 of L; 5L/24 ends in .5 exactly when L = 12
    # (mod 24), and that tie rounds up
    @pytest.mark.parametrize("length, target", [(12, 3), (24, 5), (36, 8), (61, 13), (4096, 853)])
    def test_default_count_targets_expected_claim_length(self, length, target):
        bits = np.zeros(length, np.int8)  # every position plausible, so no cap applies
        action = strategy_B_act(StrategyB.flip_and_forge(), (0, ()), bits, rng(10))
        assert len(action.forwarded) == target

    def test_zero_count_gives_empty_forward(self):
        action = strategy_B_act(
            StrategyB.flip_and_forge(0), (0, (1, 3, 6)), worked_b(), rng(11)
        )
        assert action.forwarded.tolist() == []
        assert not action.capped

    def test_count_capped_at_plausible_supply(self):
        action = strategy_B_act(
            StrategyB.flip_and_forge(40), (0, (1, 3, 6)), worked_b(), rng(12)
        )
        assert len(action.forwarded) == 5
        assert action.capped


# descriptors with counts from 0 to well past what a short list can supply
_STRATEGY_A = st.one_of(
    st.just("honest"),
    st.builds("split:n={}".format, st.integers(0, 80)),
    st.builds("forgefull:k={}".format, st.integers(0, 80)),
)
_STRATEGY_B = st.one_of(
    st.just("honest"),
    st.just("flipforge"),
    st.builds("flipforge:k={}".format, st.integers(0, 80)),
)


class TestProducerInvariants:
    """Actions check nothing when built: given A's list as ``generate_lists``
    makes it, each strategy makes every position array 1-D, int64, read-only
    and within 1..L, and A's full list int8, read-only, 0..2 and L long."""

    @settings(max_examples=150, deadline=None)
    @given(text_a=_STRATEGY_A, L=st.integers(1, 128), seed=st.integers(0, 2**32))
    def test_strategy_A_act(self, assert_frozen, text_a, L, seed):
        lists = big_lists(seed, L)
        action = strategy_A_act(parse_strategy_A(text_a), lists.a_ones, rng(seed))
        assert action.m_AB in (0, 1) and action.m_AC in (0, 1)
        for positions in (
            action.positions_for_B, action.fabricated_positions, action.altered_positions
        ):
            assert_frozen(positions, np.int64, 1, L)
        assert_frozen(action.l_AC, np.int8, 0, 2, (L,))
        assert type(action.capped) is bool

    @settings(max_examples=150, deadline=None)
    @given(
        text_a=_STRATEGY_A, text_b=_STRATEGY_B, L=st.integers(1, 128),
        seed=st.integers(0, 2**32),
    )
    def test_strategy_B_act(self, assert_frozen, text_a, text_b, L, seed):
        lists = big_lists(seed, L)
        a_action = strategy_A_act(parse_strategy_A(text_a), lists.a_ones, rng(seed))
        received = (a_action.m_AB, a_action.positions_for_B)
        action = strategy_B_act(parse_strategy_B(text_b), received, lists.b_bits, rng(seed))
        assert action.m_BC in (0, 1)
        assert_frozen(action.forwarded, np.int64, 1, L)
        assert_frozen(action.fabricated_positions, np.int64, 1, L)
        assert type(action.capped) is bool


def _seed_drawing(m: int, start: int) -> int:
    """The first seed from ``start`` whose stream draws A's message bit ``m``:
    whose first raw word's top bit is ``m``."""
    while rng(start).bit_generator.random_raw() >> 63 != m:
        start += 1
    return start


def _assert_same_action(action, expected) -> None:
    """Field by field: the same values, types, dtypes, shapes and flags."""
    for field, got, want in zip(action._fields, action, expected):
        assert type(got) is type(want), field
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, field
            assert got.flags.writeable == want.flags.writeable, field
            assert np.array_equal(got, want), field
        else:
            assert got == want, field


class TestStrategyAMatchesReference:
    """``strategy_A_act`` gives, field by field, what A's action built array
    by array (``np.where``, then ``concatenate`` and ``sort``) gives from the
    same draws, and leaves the stream where that one does."""

    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(AKind),
        a_ones=st.lists(st.integers(0, 2), min_size=1, max_size=300),
        m=st.integers(0, 1),
        count=st.integers(0, 320),  # past the mixed positions of every list: capped
        start=st.integers(0, 2**32),
    )
    def test_action_matches_reference(self, kind, a_ones, m, count, start):
        strategy = StrategyA(kind, 0 if kind is AKind.HONEST else count)
        l_A = mark_readonly(np.array(a_ones, np.int8))
        seed = _seed_drawing(m, start)
        stream, reference_stream = rng(seed), rng(seed)
        action = strategy_A_act(strategy, l_A, stream)
        expected = strategy_A_act_reference(strategy, l_A, reference_stream)
        assert action.m_AB == m
        _assert_same_action(action, expected)
        assert stream.bit_generator.state == reference_stream.bit_generator.state


class TestStrategyBMatchesReference:
    """``strategy_B_act`` gives, field by field, B's forgery written out, from
    the same draws, and leaves the stream where that one does."""

    @settings(max_examples=400, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=300),
        m_AB=st.integers(0, 1),
        count=st.one_of(st.none(), st.integers(0, 320)),
        honest=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    def test_action_matches_reference(self, bits, m_AB, count, honest, seed):
        strategy = StrategyB.honest() if honest else StrategyB.flip_and_forge(count)
        l_B = mark_readonly(np.array(bits, np.int8))
        received = (m_AB, mark_readonly(np.array([1], np.int64)))
        stream, reference_stream = rng(seed), rng(seed)
        action = strategy_B_act(strategy, received, l_B, stream)
        expected = strategy_B_act_reference(strategy, received, l_B, reference_stream)
        _assert_same_action(action, expected)
        assert stream.bit_generator.state == reference_stream.bit_generator.state

    # at L=4096 A picks 3 or 8 of about 2,400 mixed positions and B 3 or 853
    # of about 2,048 plausible ones
    @pytest.mark.parametrize(
        "text_a, text_b", [("split:n=3", "flipforge:k=3"), ("forgefull:k=8", "flipforge")]
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_long_lists_match_reference(self, text_a, text_b, seed):
        lists = big_lists(seed, 4096)
        stream, reference_stream = rng(seed), rng(seed)
        strategy_a, strategy_b = parse_strategy_A(text_a), parse_strategy_B(text_b)
        a_action = strategy_A_act(strategy_a, lists.a_ones, stream)
        _assert_same_action(
            a_action, strategy_A_act_reference(strategy_a, lists.a_ones, reference_stream)
        )
        received = (a_action.m_AB, a_action.positions_for_B)
        b_action = strategy_B_act(strategy_b, received, lists.b_bits, stream)
        _assert_same_action(
            b_action,
            strategy_B_act_reference(strategy_b, received, lists.b_bits, reference_stream),
        )
        assert stream.bit_generator.state == reference_stream.bit_generator.state


class TestDrawSorted:
    """Each subset is equally likely; all or none of the candidates draw
    nothing; and the draw is a sorted, read-only int64 array of distinct
    candidates."""

    # the five subset laws below, at a family-wise level of 0.001
    LEVEL = 0.001 / 5

    @pytest.mark.parametrize("k", range(1, 6))
    def test_keys_draw_every_subset_equally(self, k):
        candidates = mark_readonly(np.arange(1, 7, dtype=np.int64))
        stream = rng(2900 + k)
        counts = Counter(
            tuple(_draw_sorted(candidates, k, stream).tolist()) for _ in range(20_000)
        )
        assert counts.keys() == set(itertools.combinations(range(1, 7), k))
        assert scipy_stats.chisquare(list(counts.values())).pvalue >= self.LEVEL

    # a few of many candidates, as A picks at L=4096
    def test_keys_include_each_position_at_rate_k_over_n(self):
        n, k = 2048, 3
        candidates = mark_readonly(np.arange(1, n + 1, dtype=np.int64))
        stream = rng(2910)
        drawn = np.concatenate([_draw_sorted(candidates, k, stream) for _ in range(20_000)])
        # each draw's positions are distinct, so the counts spread a little
        # less than a multinomial's: the test is conservative
        inclusions = np.bincount(drawn, minlength=n + 1)[1:]
        assert scipy_stats.chisquare(inclusions).pvalue >= 0.001

    @pytest.mark.parametrize("n", [1, 6, 600, 2100])
    def test_all_or_none_draws_nothing(self, n):
        candidates = np.arange(2, 2 * n + 2, 2, dtype=np.int64)  # writable, as B's are
        for count in (0, n):
            stream = RecordingGenerator(rng(n))
            drawn = _draw_sorted(candidates, count, stream)
            assert stream.calls == []
            assert drawn.tolist() == candidates[:count].tolist()
            assert drawn.dtype == np.int64 and not drawn.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 2100), data=st.data(), seed=st.integers(0, 2**32))
    def test_draw_is_a_sorted_read_only_subset(self, n, data, seed):
        count = data.draw(st.integers(0, n))
        stream = rng(seed)
        candidates = np.sort(stream.choice(np.arange(1, 5000, dtype=np.int64), n, replace=False))
        drawn = _draw_sorted(candidates, count, stream)
        assert type(drawn) is np.ndarray and drawn.dtype == np.int64
        assert not drawn.flags.writeable and drawn.shape == (count,)
        assert np.count_nonzero(np.diff(drawn) <= 0) == 0  # sorted, no repeats
        assert np.isin(drawn, candidates).all()

    # A's bit is one raw word; each cheater's one draw is n raw keys, n its
    # count of candidates
    @pytest.mark.parametrize("L", [64, 4096])
    def test_each_strategy_draws_one_key_per_candidate(self, L):
        lists = big_lists(L, L)
        for text in ("split:n=3", "forgefull:k=8"):
            stream = RecordingGenerator(rng(L))
            strategy_A_act(parse_strategy_A(text), lists.a_ones, stream)
            mixed = np.count_nonzero(lists.a_ones == 1)
            assert stream.calls == [("random_raw", ()), ("random_raw", (mixed,))], text
        stream = RecordingGenerator(rng(L))
        strategy_B_act(parse_strategy_B("flipforge"), (0, ()), lists.b_bits, stream)
        assert stream.calls == [("random_raw", (np.count_nonzero(lists.b_bits == 0),))]

    def test_keys_are_raw_words(self):
        # the picked candidates sit at the k smallest of n raw words, and the
        # draw consumes exactly those n words
        candidates = mark_readonly(np.arange(10, 110, dtype=np.int64))
        stream = rng(2920)
        drawn = _draw_sorted(candidates, 7, stream)
        keys = rng(2920).bit_generator.random_raw(100).tolist()
        smallest = sorted(range(100), key=keys.__getitem__)[:7]
        assert drawn.tolist() == sorted(10 + j for j in smallest)
        follower = rng(2920)
        follower.bit_generator.random_raw(100)
        assert stream.bit_generator.state == follower.bit_generator.state


class TestParsers:
    def test_valid_a_descriptors(self):
        assert parse_strategy_A("honest") == StrategyA.honest()
        assert parse_strategy_A("split:n=3") == StrategyA.split_message(3)
        assert parse_strategy_A("split") == StrategyA.split_message(0)
        assert parse_strategy_A("forgefull:k=40") == StrategyA.forged_full_list(40)
        assert parse_strategy_A(" Split:n=2 ") == StrategyA.split_message(2)

    def test_valid_b_descriptors(self):
        assert parse_strategy_B("honest") == StrategyB.honest()
        assert parse_strategy_B("flipforge:k=40") == StrategyB.flip_and_forge(40)
        assert parse_strategy_B("flipforge") == StrategyB.flip_and_forge()

    @pytest.mark.parametrize(
        "text",
        [
            "", "bogus", "split:n", "split:n=x", "split:k=3", "honest:n=1", "split:n=-2",
            "split:n=3,n=9",
        ],
    )
    def test_malformed_a_descriptors(self, text):
        with pytest.raises(ValueError):
            parse_strategy_A(text)

    @pytest.mark.parametrize(
        "text", ["split:n=3", "flipforge:n=3", "flipforge:k=-1", "flipforge:k=1,k=2"]
    )
    def test_malformed_b_descriptors(self, text):
        with pytest.raises(ValueError):
            parse_strategy_B(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("split:n=--3", "malformed strategy parameter 'n=--3'"),
            ("split:n=\u00b2", "malformed strategy parameter"),
            ("split:n=\u0663", "malformed strategy parameter"),
            ("split:n=-2", "strategy counts must be nonnegative"),
            ("split:n=3, n=9", "repeated strategy parameter 'n'"),
        ],
    )
    def test_descriptor_errors_name_the_fault(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_strategy_A(text)

    # each descriptor is parsed once per process; an error is raised on every call
    def test_descriptors_parsed_once(self):
        assert parse_strategy_A("split:n=3") is parse_strategy_A("split:n=3")
        assert parse_strategy_B("flipforge:k=2") is parse_strategy_B("flipforge:k=2")

    @pytest.mark.parametrize(
        "parse, text", [(parse_strategy_A, "bogus"), (parse_strategy_B, "split:n=3")]
    )
    def test_bad_descriptor_raises_on_every_call(self, parse, text):
        for _ in range(3):
            with pytest.raises(ValueError, match="unknown strategy"):
                parse(text)

    # one rule for every integer read from outside: an optional "-", then ASCII digits
    @pytest.mark.parametrize("text, value", [("0", 0), ("16", 16), ("-3", -3), ("007", 7)])
    def test_integer_accepts_ascii_decimals(self, text, value):
        assert integer(text) == value

    @pytest.mark.parametrize(
        "text", ["", "-", "--3", "+3", " 3", "3 ", "1_6", "1e3", "\u0667", "\uff13", "\u00b2"]
    )
    def test_integer_rejects_everything_else(self, text):
        with pytest.raises(ValueError, match="invalid integer"):
            integer(text)


class TestPerEntryEscapeRates:
    """Statistical checks of the conditional rates the cheats rely on."""

    def test_fabricated_entry_passes_b_half_the_time(self):
        # a fabricated double at a mixed position survives B's test
        # exactly when B's bit matches the complement: rate 1/2
        lists = big_lists(13)
        mixed = lists.a_ones == 1
        assert mixed.sum() > 20_000
        rate = np.mean(lists.b_bits[mixed])
        assert rate == pytest.approx(0.5, abs=0.015)

    def test_forged_double_passes_c_half_the_time(self):
        # same conditional on C's side drives the stage-1 escape rate
        lists = big_lists(14)
        mixed = lists.a_ones == 1
        rate = np.mean(lists.c_bits[mixed])
        assert rate == pytest.approx(0.5, abs=0.015)

    def test_flipforge_entry_survives_stage2_at_five_twelfths(self):
        # a plausible-for-B position is a true double of the flipped
        # message with probability 5/12, the stage-2 escape rate
        lists = big_lists(15)
        for m_BC in (0, 1):
            plausible = lists.b_bits == 1 - m_BC
            rate = np.mean(lists.a_ones[plausible] == 2 * m_BC)
            assert rate == pytest.approx(5 / 12, abs=0.015)

    def test_expected_double_fraction_constant(self):
        assert EXPECTED_DOUBLE_FRACTION == (5, 24)

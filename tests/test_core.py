"""Core model: partitions, meeting times, the Ulrich test, and the symmetries."""

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ulrich import core
from ulrich.core import BlockedPartition, FlagType


class TestFlagType:
    def test_basic_properties(self):
        ft = FlagType((2, 4, 2))
        assert ft.r == 2
        assert ft.n == 8
        assert ft.k == (2, 6)
        assert ft.dimension == 2 * 4 + 2 * 2 + 4 * 2
        assert ft.all_positive
        assert ft.reversed() == FlagType((2, 4, 2))
        assert FlagType((1, 3, 2)).reversed() == FlagType((2, 3, 1))

    def test_degenerate_block_allowed_but_flagged(self):
        ft = FlagType((2, 0, 1))
        assert not ft.all_positive
        assert ft.dimension == 2

    def test_rejects_bad_types(self):
        with pytest.raises(ValueError):
            FlagType((3,))
        with pytest.raises(ValueError):
            FlagType((2, -1))
        with pytest.raises(ValueError):
            FlagType((1, 0))

    @pytest.mark.parametrize("lengths", [
        (1.5, 0.5), (1.0, 1.0), (2, 2.0, 1), (True, 1), (1, False, 2),
        ("1", "1"), (None, 2)])
    def test_rejects_lengths_that_are_not_ints(self, lengths):
        # (1.5, 0.5) used to build with dimension 0.0, and a partition of
        # type (1.0, 1.0) built but failed when formatted.
        with pytest.raises(ValueError, match="must be ints"):
            FlagType(lengths)

    def test_parsing_shares_types_the_constructor_does_not(self):
        # Partitions parsed or built from blocks share one cached FlagType
        # per type; FlagType(...) still builds a fresh object.
        P = core.parse_partition("4|3,0|-2")
        assert core.from_blocks(P.blocks).type is P.type
        assert FlagType((1, 2, 1)) is not FlagType((1, 2, 1))
        assert FlagType((1, 2, 1)) is not P.type
        assert FlagType((1, 2, 1)) == P.type

    @pytest.mark.parametrize("lengths", [(2.0, 1), (True, 1), (1.0, 1)])
    def test_cached_type_lets_no_lookalike_through(self, lengths):
        # (1, 1) is cached; (True, 1) and (1.0, 1) equal it as tuples.
        assert core.parse_partition("1|0").type.lengths == (1, 1)
        with pytest.raises(ValueError, match="must be ints"):
            FlagType(lengths)

    @pytest.mark.parametrize("text, message", [
        ("", "empty partition string"), (" \n", "empty partition string"),
        ("1,x|0", "bad block '1,x' in partition string '1,x|0'"),
    ])
    def test_malformed_string_refused(self, text, message):
        with pytest.raises(ValueError) as info:
            core.parse_partition(text)
        assert str(info.value) == message

    def test_refused_type_is_not_cached(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="two blocks"):
                core.parse_partition("1,0")

    def test_type_cache_is_bounded(self):
        assert core._flag_type.cache_parameters()["maxsize"] is not None


class TestBlockedPartition:
    def test_blocks_and_dimension(self):
        P = core.parse_partition("12,4|3,0|-2,-8")
        assert P.type == FlagType((2, 2, 2))
        assert P.blocks == ((12, 4), (3, 0), (-2, -8))
        assert P.dimension == 12

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            BlockedPartition(FlagType((2, 1)), (3, 3, 1))
        with pytest.raises(ValueError):
            BlockedPartition(FlagType((1, 2)), (3, 1, 2))
        with pytest.raises(ValueError):
            BlockedPartition(FlagType((2, 1)), (3, 1))

    def test_parse_format_roundtrip(self):
        for text in ["5|3,-1,-2,-4|-5", "4|3,0|-2", "1|0", "17,1|0|-3,-7,-9,-11,-15"]:
            P = core.parse_partition(text)
            assert core.format_partition(P) == text
            assert str(P) == text

    def test_parse_unicode_minus(self):
        assert (core.parse_partition("4|3,0|−2")
                == core.parse_partition("4|3,0|-2"))

    def test_parse_empty_middle_block(self):
        P = core.parse_partition("3,1||-1")
        assert P.type == FlagType((2, 0, 1))

    @given(helpers.blocked_partitions())
    def test_roundtrip_random(self, P):
        assert core.parse_partition(core.format_partition(P)) == P


class TestEvolveAndSchedule:
    def test_evolve_at_zero_is_identity(self):
        P = core.parse_partition("8,6|5,0|-2")
        assert core.evolve(P, 0) == P.blocks

    def test_evolve_velocities(self):
        P = core.parse_partition("8,6|5,0|-2")
        assert core.evolve(P, 1) == ((6, 4), (4, -1), (-2,))
        assert core.evolve(P, 3) == ((2, 0), (2, -3), (-2,))

    def test_schedule_of_known_example(self):
        # (4|3,0|-2): five pairs, times 1..5, each once.
        P = core.parse_partition("4|3,0|-2")
        assert core.meeting_mask(P.blocks, 5) == 0b111110
        pairs = helpers.meetings(P.blocks)
        assert len(pairs) == P.dimension == 5
        by_time = {t: (x, y) for t, _, x, _, y in pairs}
        assert by_time == {1: (4, 3), 2: (0, -2), 3: (4, -2),
                           4: (4, 0), 5: (3, -2)}


class TestIsUlrich:
    @pytest.mark.parametrize("text", [
        "4|3,0|-2", "8,6|5,0|-2", "12,4|3,0|-2,-8", "16,10,4|3,0|-2,-12",
        "5|3,-1,-2,-4|-5", "17,5|4,2,-1,-3|-5,-15", "2|1,0|-4",
    ])
    def test_known_ulrich(self, text):
        P = core.parse_partition(text)
        assert core.is_ulrich(P) is True
        assert core.witness(P) is None

    def test_witness_non_integral(self):
        P = core.parse_partition("6,1|0|-3")
        assert core.is_ulrich(P) is False
        kind, t = core.witness(P)
        assert kind == "non-integral-time" and t == Fraction(9, 2)

    def test_witness_duplicate(self):
        P = core.parse_partition("5,3|0|-5")
        assert core.is_ulrich(P) is False
        kind, t = core.witness(P)
        assert kind == "duplicate-time" and t == 5

    def test_witness_missing(self):
        # The single pair meets at time 2 > N = 1, so time 1 goes uncovered.
        P = core.parse_partition("2|0")
        assert core.is_ulrich(P) is False
        assert core.witness(P) == ("missing-time", Fraction(1))

    @given(st.one_of(helpers.blocked_partitions(max_blocks=5),
                     helpers.ulrich_members()))
    @settings(max_examples=300)
    def test_witness_matches_reference(self, P):
        # Five blocks give pair distances d = 1..4, so times in quarters.
        # The family members are Ulrich: both sides give None.
        assert core.witness(P) == helpers.reference_witness(P)

    def test_negative_verdict_loads_no_witness_module(self):
        out = helpers.fresh_stdout(
            "from ulrich import core\n"
            "P = core.parse_partition('5,3|0|-5')\n"
            "print(core.is_ulrich(P), 'fractions' in sys.modules, "
            "'math' in sys.modules)")
        assert out.split() == ["False", "False", "False"]

    @given(helpers.blocked_partitions())
    @settings(max_examples=300)
    def test_matches_brute_force(self, P):
        assert bool(core.is_ulrich(P)) == helpers.brute_is_ulrich(P)

    @given(helpers.ulrich_members())
    def test_matches_brute_force_on_ulrich(self, P):
        assert helpers.brute_is_ulrich(P)
        assert helpers.repeated_position_ulrich(P)
        assert bool(core.is_ulrich(P))

    @given(helpers.blocked_partitions())
    def test_repeated_position_formulation_agrees(self, P):
        assert bool(core.is_ulrich(P)) == helpers.repeated_position_ulrich(P)

    @given(helpers.blocked_partitions())
    def test_congruence_necessary(self, P):
        if core.is_ulrich(P):
            assert core.congruence_ok(P)

    def test_congruence_violation(self):
        # Blocks a and c at distance 2 with entries of different parity.
        assert not core.congruence_ok(core.parse_partition("4|3,0|-1"))

    def test_congruence_with_an_empty_block(self):
        # No pair meets across an empty block, so it constrains nothing.
        P = core.parse_partition("2,1|0|")
        assert core.is_ulrich(P) and core.congruence_ok(P)


class TestSymmetries:
    @given(helpers.blocked_partitions(), st.integers(-30, 30))
    def test_shift_and_equivalence(self, P, c):
        Q = core.shift(P, c)
        assert core.canonicalize(P) == core.canonicalize(Q)
        assert bool(core.is_ulrich(P)) == bool(core.is_ulrich(Q))
        C = core.canonicalize(P)
        assert C.entries[-1] == 0
        assert core.canonicalize(C) == C

    @given(helpers.blocked_partitions())
    def test_symmetric_involution(self, P):
        S = core.symmetric(P)
        assert S.type == P.type.reversed()
        assert core.symmetric(S) == P
        assert bool(core.is_ulrich(S)) == bool(core.is_ulrich(P))

    @given(helpers.blocked_partitions())
    def test_symmetric_preserves_times(self, P):
        assert (sorted(t for t, *_ in helpers.meetings(core.symmetric(P).blocks))
                == sorted(t for t, *_ in helpers.meetings(P.blocks)))

    @given(helpers.ulrich_members())
    def test_dual_on_ulrich(self, P):
        D = core.dual(P)
        assert D.type == P.type.reversed()
        assert bool(core.is_ulrich(D))
        shift_back = core.dual(D)
        assert shift_back == core.shift(P, -(P.dimension + 1) * P.type.r)

    @given(helpers.ulrich_members())
    def test_dual_time_map(self, P):
        """Pairs meeting at time t in P meet at time N+1-t in the dual."""
        N1 = P.dimension + 1
        r = P.type.r
        expected = {(N1 - t, frozenset((x - N1 * (r - i), y - N1 * (r - j))))
                    for t, i, x, j, y in helpers.meetings(P.blocks)}
        got = {(t, frozenset((x, y)))
               for t, _, x, _, y in helpers.meetings(core.dual(P).blocks)}
        assert got == expected

    def test_dual_raises_on_late_pairs(self):
        with pytest.raises(ValueError, match="has not met by time"):
            core.dual(core.parse_partition("40|0|-40"))

    def test_dual_known_value(self):
        P = core.parse_partition("12,4|3,0|-2,-8")
        assert core.format_partition(core.dual(P)) == "-2,-8|-10,-13|-14,-22"

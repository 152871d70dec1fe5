"""Three-block structure theory: growth steps, greedy words, boundary rules."""

import os
import subprocess
import sys
import textwrap

import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from ulrich import analysis, core, families, search
from ulrich.analysis import PreUlrichTriple
from ulrich.core import FlagType


def mask_of(T):
    """core.meeting_mask of the triple; no meeting time exceeds its span."""
    top, bottom = (T.a or T.b)[0], (T.c or T.b)[-1]
    return core.meeting_mask((T.a, T.b, T.c), top - bottom)


def grow(T, letter, mask=None):
    """The growth step on T: (t0, value, the grown mask, the clashes as
    sorted Fractions).  T's meeting times are distinct integers."""
    pairs = []
    t0, value, grown_mask = analysis._step(
        T.a, T.b, T.c, mask_of(T) if mask is None else mask, letter, pairs)
    return t0, value, grown_mask, tuple(sorted({Fraction(d, q)
                                                for d, q in pairs}))


class TestTriples:
    def test_validation(self):
        with pytest.raises(ValueError, match="middle block"):
            PreUlrichTriple((3,), (), (-1,))
        with pytest.raises(ValueError, match="strictly decreasing"):
            PreUlrichTriple((), (2, 2), ())
        with pytest.raises(ValueError, match="exceed"):
            PreUlrichTriple((0,), (1,), ())
        with pytest.raises(ValueError, match="below"):
            PreUlrichTriple((), (1,), (2,))

    def test_meeting_times_and_dimension(self):
        # B = (3, 0) grows cleanly by "ac" into a triple of 5 cross pairs.
        T = PreUlrichTriple((4,), (3, 0), (-2,))
        assert analysis.replay("ac", (3, 0)) == T
        assert T.as_partition().dimension == 5
        assert grow(T, "a")[0] == 6

    def test_parity_breaks_pre_ulrich(self):
        # A and C entries of different parity meet at a half-integer time,
        # so the triple has no first uncovered time to grow at.
        assert mask_of(PreUlrichTriple((4,), (0,), (-3,))) == -1

    def test_triple_of(self):
        P = core.parse_partition("8,6|5,0|-2")
        T = analysis.triple_of(P)
        assert (T.a, T.b, T.c) == ((8, 6), (5, 0), (-2,))
        assert T.as_partition() == P
        with pytest.raises(ValueError):
            analysis.triple_of(core.parse_partition("2|0"))

    @pytest.mark.parametrize("text", ["3,1||-1", "2,1|0|", "|1|0"])
    def test_triple_of_refuses_an_empty_block(self, text):
        # Ulrich partitions all three, but no triple: the greedy word and
        # the boundary rules raise ValueError, not an AssertionError.
        P = core.parse_partition(text)
        assert core.is_ulrich(P)
        for reader in (analysis.triple_of, analysis.greedy_word,
                       analysis.rectangle_check):
            with pytest.raises(ValueError, match="no empty block"):
                reader(P)


class TestGrowthSteps:
    def test_add_a_first_step(self):
        T = PreUlrichTriple((), (5, 0), ())
        t0, value, mask, clashes = grow(T, "a")
        assert (t0, value, clashes) == (1, 6, ())
        assert mask == mask_of(PreUlrichTriple((6,), (5, 0), ()))

    def test_add_c_accounts_for_speed(self):
        # At time t0 the new c entry must sit t0 below b (speed 1) or 2*t0
        # below a (speed 2), whichever is lower.
        T = PreUlrichTriple((6,), (5, 0), ())
        t0, value, _, _ = grow(T, "c")
        assert t0 == 2
        assert value == min(6 - 4, 5 - 2, 0 - 2) == -2

    def test_clash_detection(self):
        # After growing one a over B = (2, 0), the forced c entry would meet
        # the a entry at the half-integral time 5/2.
        T = analysis.replay("a", (2, 0))
        _, _, mask, clashes = grow(T, "c")
        assert mask == -1
        assert Fraction(5, 2) in clashes

    def test_parity_detection(self):
        # A second a entry lands at the wrong parity: no time clash, but the
        # triple stops being pre-Ulrich.
        T = analysis.replay("a", (0,))
        _, value, mask, clashes = grow(T, "a")
        assert mask >= 0 and clashes == ()
        assert (value - T.a[0]) % 2

    def test_replay_word_reconstructs_known(self):
        assert (analysis.replay("aca", (5, 0)).as_partition()
                == core.parse_partition("8,6|5,0|-2"))
        assert (analysis.replay("acca", (3, 0)).as_partition()
                == core.parse_partition("12,4|3,0|-2,-8"))
        assert (analysis.replay("acaca", (3, 0)).as_partition()
                == core.parse_partition("16,10,4|3,0|-2,-12"))

    def test_replay_rejects_bad_word(self):
        with pytest.raises(ValueError, match="parity"):
            analysis.replay("aa", (0,))
        with pytest.raises(ValueError, match="double-books"):
            analysis.replay("ac", (2, 0))

    def test_extend_requires_material(self):
        with pytest.raises(ValueError, match="letter"):
            analysis.replay("x", (0,))

    def test_repeated_time_has_no_mask(self):
        # a - b, (a - c)/2 and b - c all equal 2: integral but repeated, so
        # the triple has no first uncovered time, as with a fractional time.
        assert mask_of(PreUlrichTriple((4,), (2,), (0,))) == -1

    @given(helpers.triples())
    @example(PreUlrichTriple((3,), (0,), (-2,)))      # fractional time 5/2
    @example(PreUlrichTriple((4,), (2,), (0,)))       # repeated time 2
    @example(PreUlrichTriple((8, 6), (5, 0), (-2,)))  # pre-Ulrich, grows
    @example(PreUlrichTriple((2,), (0,), ()))         # grows into a clash
    @settings(max_examples=400)
    def test_growth_matches_reference(self, T):
        mask = mask_of(T)
        for letter in "ac":
            try:
                want = helpers.reference_extension(T, letter)
            except ValueError:
                assert mask == -1
                continue
            time, value, _, clashes, grown = want
            t0, got, grown_mask, got_clashes = grow(T, letter, mask)
            assert (t0, got, got_clashes) == (time, value, clashes)
            assert grown_mask == mask_of(grown)

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=4, unique=True),
           st.text(alphabet="ac", max_size=8))
    @example([0], "aa")        # breaks the outer parity
    @example([2, 0], "ac")     # double-books a time
    @example([3, 0], "acaca")  # grows sporadic 322
    @settings(max_examples=400)
    def test_replay_matches_reference_fold(self, middle, word):
        # Folding the reference step over the word gives replay's triple,
        # or replay's ValueError at the same step, time and reason.
        middle = sorted(middle, reverse=True)
        T, failure = PreUlrichTriple((), middle, ()), None
        for pos, letter in enumerate(word):
            time, _, pre_ulrich, clashes, grown = \
                helpers.reference_extension(T, letter)
            if not pre_ulrich:
                why = (f"double-books times {clashes}" if clashes
                       else "breaks the outer parity invariant")
                failure = f"step {pos} ({letter!r} at t={time}) {why}"
                break
            T = grown
        if failure is None:
            assert analysis.replay(word, middle) == T
        else:
            with pytest.raises(ValueError) as exc:
                analysis.replay(word, middle)
            assert str(exc.value) == failure


class TestGreedyWord:
    @pytest.mark.parametrize("name,word", [
        ("221", "aca"), ("222", "acca"), ("322", "acaca")])
    def test_walkthrough_words(self, name, word):
        assert analysis.greedy_word(families.sporadic(name)).letters == word

    def test_greedy_needs_ulrich(self):
        with pytest.raises(ValueError, match="Ulrich"):
            analysis.greedy_word(core.parse_partition("6,1|0|-3"))

    @given(helpers.ulrich_members())
    @settings(max_examples=60)
    def test_roundtrip_on_families(self, P):
        if len(P.type.lengths) != 3 or not P.type.all_positive:
            return
        word = analysis.greedy_word(P).letters
        assert word.count("a") == P.type.lengths[0]
        assert word.count("c") == P.type.lengths[2]
        assert analysis.replay(word, P.blocks[1]).as_partition() == P

    def test_growth_carries_the_mask(self, monkeypatch):
        # The one meeting_mask of greedy_word is is_ulrich's; every step
        # adds its new times to the mask it was given.
        P = families.p_u(3)
        assert len(P.type.lengths) == 3 and P.type.n >= 10
        calls = []
        mask = core.meeting_mask
        monkeypatch.setattr(core, "meeting_mask",
                            lambda blocks, hi: calls.append(hi) or
                            mask(blocks, hi))
        word = analysis.greedy_word(P).letters
        assert len(calls) == 1
        calls.clear()
        assert analysis.replay(word, P.blocks[1]).as_partition() == P
        assert calls == []

    def test_wrong_step_raises_under_optimize(self):
        code = textwrap.dedent("""
            from ulrich import analysis, families
            assert False, "asserts are stripped under -O"
            step = analysis._step
            def off_by_one(a, b, c, mask, letter, clashes=None):
                t0, value, mask = step(a, b, c, mask, letter, clashes)
                return t0, value + 1, mask
            analysis._step = off_by_one
            try:
                analysis.greedy_word(families.sporadic("222"))
            except AssertionError as exc:
                print("AssertionError:", exc)
            """)
        src = os.path.dirname(os.path.dirname(analysis.__file__))
        result = subprocess.run([sys.executable, "-O", "-c", code],
                                env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("AssertionError: greedy step")

    def test_roundtrip_exhaustive_small(self):
        # Every three-block class with N <= 12.
        classes = 0
        for ft in helpers.all_types(12, max_blocks=3, min_blocks=3):
            for P in search.baseline_oracle(ft):
                word = analysis.greedy_word(P).letters
                assert (word.count("a"), word.count("c")) == \
                    (ft.lengths[0], ft.lengths[2])
                assert analysis.replay(word, P.blocks[1]).as_partition() == P
                classes += 1
        assert classes == 72


class TestSumset:
    def test_requires_singleton_middle(self):
        with pytest.raises(ValueError, match="singleton"):
            analysis.sumset_decompose(core.parse_partition("8,6|5,0|-2"))

    @pytest.mark.parametrize("text", ["2,1|0|", "|0|-1,-2", "1|0|"])
    def test_requires_nonempty_outer_blocks(self, text):
        # These are Ulrich, so "no decomposition" would be wrong.
        with pytest.raises(ValueError, match="nonempty outer blocks"):
            analysis.sumset_decompose(core.parse_partition(text))

    def test_known_decompositions(self):
        assert (analysis.sumset_decompose(families.two_one_k(0))
                == ((0, 4), (2,), 4))
        assert (analysis.sumset_decompose(families.two_one_k(1))
                == ((0, 16), (2, 6, 8, 10, 14), 16))

    def test_decomposes_iff_ulrich(self):
        """Over every (a,1,c) candidate in the window, sumset success is
        exactly the Ulrich property."""
        for ft in helpers.all_types(12, max_blocks=3, min_blocks=3):
            if ft.lengths[1] != 1:
                continue
            for blocks in search._window_candidates(ft):
                P = core.from_blocks(blocks)
                got = analysis.sumset_decompose(P) is not None
                assert got == bool(core.is_ulrich(P)), P

    def test_translation_invariant(self):
        P = families.two_one_k(1)
        assert (analysis.sumset_decompose(core.shift(P, 7))
                == analysis.sumset_decompose(P))


class TestBoundaryRules:
    def test_centered_dual_fixes_middle(self):
        P = families.sporadic("222")
        a_star, b, c_star = analysis.dual_blocks_centered(P)
        assert b == P.blocks[1]
        D = core.dual(P)
        # The centered dual is a translate of core.dual with blocks reversed.
        off = a_star[0] - D.blocks[0][0]
        assert a_star == tuple(x + off for x in D.blocks[0])
        assert c_star == tuple(x + off for x in D.blocks[2])

    def test_trapezoid_holds_on_families(self):
        for P in [families.sporadic("222"), families.sporadic("322"),
                  families.p_u(2), families.two_param(0, 1),
                  families.elongated_family(1, 2)]:
            quads = list(analysis.trapezoid_witnesses(P))
            assert all(analysis.trapezoid_check(P, *q) for q in quads)

    def test_trapezoid_validates_arguments(self):
        # For (12,4|3,0|-2,-8): A* = C + 13 = (11, 5), C* = A - 13 = (-1, -9).
        P = families.sporadic("222")
        with pytest.raises(ValueError, match="lie in A"):
            analysis.trapezoid_check(P, 999, 11, -2, -1)
        with pytest.raises(ValueError, match=r"lie in A\*"):
            analysis.trapezoid_check(P, 12, 10, -2, -1)
        with pytest.raises(ValueError, match="hypothesis"):
            analysis.trapezoid_check(P, 12, 11, -2, -9)

    def test_rules_hold_for_all_small_ulrich(self):
        for ft in helpers.all_types(12, max_blocks=3, min_blocks=3):
            for P in search.baseline_oracle(ft):
                assert analysis.rectangle_check(P)
                for quad in analysis.trapezoid_witnesses(P):
                    assert analysis.trapezoid_check(P, *quad)

    def test_trapezoid_fails_somewhere_off_ulrich(self):
        """The rules have teeth: some valid non-Ulrich partition violates
        the trapezoid conclusion, and another violates the rectangle rule."""
        trapezoid_broken = rectangle_broken = False
        for ft in helpers.all_types(10, max_blocks=3, min_blocks=3):
            for blocks in search._window_candidates(ft):
                P = core.from_blocks(blocks)
                if core.is_ulrich(P):
                    continue
                if not all(analysis.trapezoid_check(P, *q)
                           for q in analysis.trapezoid_witnesses(P)):
                    trapezoid_broken = True
                if not analysis.rectangle_check(P):
                    rectangle_broken = True
                if trapezoid_broken and rectangle_broken:
                    return
        assert trapezoid_broken and rectangle_broken

"""Tests for the family constructors.

Frozen expected partitions were derived by hand from the closed formulas and
double-checked with the brute-force collision oracle; the constructors also
self-verify (type + Ulrich) so these tests mostly pin exact entry values and
the cross-family coincidences.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap

import pytest

import ulrich
from ulrich import core, families, geometry, search
from ulrich.core import parse_partition

from helpers import brute_is_ulrich


def canon(P):
    return core.canonicalize(P)


class TestOneNOne:
    def test_all_plus(self):
        P = families.one_n_one(3, (1, 1, 1))
        assert str(P) == "4|3,2,1|-4"

    def test_mixed_signs(self):
        P = families.one_n_one(3, (1, -1, 1))
        assert str(P) == "4|3,1,-2|-4"

    def test_counts_classes(self):
        for n in range(1, 6):
            classes = {
                canon(families.one_n_one(n, signs))
                for signs in itertools.product((1, -1), repeat=n)
            }
            assert len(classes) == 2 ** n

    def test_dimension(self):
        # type (1, n, 1) has N = n + n + 1 collisions
        for n in (1, 2, 5):
            P = families.one_n_one(n, (1,) * n)
            assert P.dimension == 2 * n + 1

    def test_brute_oracle(self):
        assert brute_is_ulrich(families.one_n_one(4, (1, -1, -1, 1)))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="at least 1"):
            families.one_n_one(0, ())
        with pytest.raises(ValueError, match="signs"):
            families.one_n_one(3, (1, 1))
        with pytest.raises(ValueError, match="signs"):
            families.one_n_one(2, (1, 0))


class TestTwoOneK:
    def test_c_set_levels(self):
        assert families.two_one_k_c_set(0) == (2,)
        assert families.two_one_k_c_set(1) == (2, 6, 8, 10, 14)

    def test_c_set_recursion(self):
        prev = families.two_one_k_c_set(1)
        want = sorted({4 * c for c in prev} | set(range(2, 64, 4)))
        assert families.two_one_k_c_set(2) == tuple(want)
        assert len(want) == 21

    def test_c_set_rejects_negative(self):
        with pytest.raises(ValueError):
            families.two_one_k_c_set(-1)

    def test_level_zero(self):
        assert str(families.two_one_k(0)) == "5,1|0|-3"

    def test_level_one(self):
        assert str(families.two_one_k(1)) == "17,1|0|-3,-7,-9,-11,-15"

    def test_types(self):
        for m in range(3):
            k = (4 ** (m + 1) - 1) // 3
            assert families.two_one_k(m).type.lengths == (2, 1, k)

    def test_brute_oracle(self):
        assert brute_is_ulrich(families.two_one_k(1))


class TestOneTwoK:
    def test_level_zero(self):
        assert str(families.one_two_k(0)) == "2|1,0|-4"

    def test_level_one(self):
        assert str(families.one_two_k(1)) == "2|1,0|-4,-10,-12,-14,-16"

    def test_types(self):
        for m in range(3):
            k = (4 ** (m + 1) - 1) // 3
            assert families.one_two_k(m).type.lengths == (1, 2, k)

    def test_brute_oracle(self):
        assert brute_is_ulrich(families.one_two_k(1))


class TestTwoParam:
    def test_known_members(self):
        assert str(families.two_param(0, 1)) == "20,18,16,14,8,2|1,0|-4"
        assert str(families.two_param(1, 0)) == "20,14,8,6,4,2|1,0|-16"

    def test_type(self):
        # k1 = 1, k2 = 5 either way round
        assert families.two_param(0, 1).type.lengths == (6, 2, 1)
        assert families.two_param(1, 0).type.lengths == (6, 2, 1)

    def test_order_matters(self):
        assert (core.canonicalize(families.two_param(0, 1))
                != core.canonicalize(families.two_param(1, 0)))

    def test_diagonal_matches_search(self):
        # m1 == m2 builds a valid class: the only one of its type for m = 1
        # and m = 2, one of the two (2,2,1) classes for m = 0
        assert str(families.two_param(0, 0)) == "8,2|1,0|-4"
        assert (str(families.two_param(1, 1))
                == "32,30,28,26,20,14,8,6,4,2|1,0|-16")
        for m, lengths, count in ((0, (2, 2, 1), 2), (1, (10, 2, 1), 1),
                                  (2, (42, 2, 1), 1)):
            P = families.two_param(m, m)
            assert P.type.lengths == lengths
            assert geometry.is_ulrich_via_bwb(P)
            report = search.time_branching_search(P.type)
            assert report.completed and report.count == count
            assert core.canonicalize(P) in report.classes

    def test_brute_oracle(self):
        assert brute_is_ulrich(families.two_param(0, 1))

    @pytest.mark.parametrize("m1, m2", [(0, -1), (0, -2), (-1, 0)])
    def test_rejects_negative(self, m1, m2):
        # two_param(0, -1) would be 2|1,0|-4, a (1,2,1) class: k2 = 0
        with pytest.raises(ValueError, match="m must be nonnegative"):
            families.two_param(m1, m2)


class TestElongation:
    def test_fundamental_seeds(self):
        assert str(families.fundamental_F(1)) == "3,1||-1"
        assert str(families.fundamental_F(2)) == "6,2|1|-2"
        assert str(families.fundamental_F(3)) == "9,3|2,1|-3"

    def test_fundamental_degenerate_type(self):
        F1 = families.fundamental_F(1)
        assert F1.type.lengths == (2, 0, 1)
        assert not F1.type.all_positive

    def test_fundamental_rejects_zero(self):
        with pytest.raises(ValueError, match="at least 1"):
            families.fundamental_F(0)

    def test_single_step(self):
        assert str(families.elongate(families.fundamental_F(1))) == "6,4|3,-2|-4"
        assert str(families.elongate(families.fundamental_F(2))) == \
            "12,8|7,6,1,-4,-5|-8"

    def test_double_step(self):
        Q = families.elongate(families.elongate(families.fundamental_F(2)))
        assert str(Q) == "18,14|13,12,7,6,1,-4,-5,-10,-11|-14"

    def test_elongated_family_closed_form(self):
        assert (core.canonicalize(families.elongated_family(1, 3))
                == core.canonicalize(
                    families.elongate(families.fundamental_F(3))))
        assert str(families.elongated_family(1, 3)) == \
            "18,12|11,10,9,2,1,-6,-7,-8|-12"

    def test_zero_steps_is_the_seed(self):
        for m in (1, 2, 4):
            assert families.elongated_family(0, m) == families.fundamental_F(m)

    def test_types(self):
        for k, m in ((1, 1), (2, 1), (1, 2), (3, 2), (2, 3)):
            P = families.elongated_family(k, m)
            assert P.type.lengths == (2, m - 1 + 2 * k * m, 1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"shape \(2, s, 1\)"):
            families.elongate(families.one_n_one(2, (1, 1)))
        with pytest.raises(ValueError, match="a2 = -c1"):
            families.elongate(core.shift(families.fundamental_F(2), 1))
        with pytest.raises(ValueError, match="even"):
            families.elongate(parse_partition("5,2|1|-2"))

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            families.elongated_family(-1, 2)

    def test_brute_oracle(self):
        assert brute_is_ulrich(families.elongated_family(2, 2))


class TestPU:
    def test_known_members(self):
        assert str(families.p_u(1)) == "11,3|2,-1|-3,-9"
        assert str(families.p_u(2)) == "17,5|4,2,-1,-3|-5,-15"

    def test_type(self):
        for u in (1, 2, 3):
            assert families.p_u(u).type.lengths == (2, 2 * u, 2)

    def test_fixed_by_symmetric_dual(self):
        # P_u is fixed by the symmetric-dual composite, up to translation,
        # but NOT by symmetric alone: the type has two mirror-image classes.
        for u in (1, 2, 3):
            P = families.p_u(u)
            assert (core.canonicalize(core.symmetric(core.dual(P)))
                    == core.canonicalize(P))
            assert core.canonicalize(core.symmetric(P)) != core.canonicalize(P)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="at least 1"):
            families.p_u(0)

    def test_brute_oracle(self):
        assert brute_is_ulrich(families.p_u(2))


class TestSporadic:
    def test_names(self):
        assert families.sporadic_names() == ("121", "221", "222", "322", "223")

    def test_frozen_values(self):
        assert str(families.sporadic("121")) == "4|3,0|-2"
        assert str(families.sporadic("221")) == "8,6|5,0|-2"
        assert str(families.sporadic("222")) == "12,4|3,0|-2,-8"
        assert str(families.sporadic("322")) == "16,10,4|3,0|-2,-12"

    def test_types_match_names(self):
        for name in families.sporadic_names():
            lengths = tuple(int(ch) for ch in name)
            assert families.sporadic(name).type.lengths == lengths

    def test_223_mirrors_322(self):
        assert families.sporadic("223") == \
            core.symmetric(families.sporadic("322"))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sporadic"):
            families.sporadic("999")

    def test_brute_oracle(self):
        for name in families.sporadic_names():
            assert brute_is_ulrich(families.sporadic(name))

    def test_named_examples_meet_the_families(self):
        # three of the walkthrough examples coincide with family members
        canonical = core.canonicalize
        assert (canonical(families.sporadic("121"))
                == canonical(families.one_n_one(2, (1, -1))))
        assert (canonical(families.sporadic("221"))
                == canonical(families.elongated_family(1, 1)))
        assert canonical(families.sporadic("222")) == canonical(families.p_u(1))


_NEVER_ULRICH = """
from ulrich import core, families, geometry, search

is_ulrich = core.is_ulrich
core.is_ulrich = lambda P: is_ulrich(core.parse_partition("2|0"))
"""


class TestSelfCheck:
    """A builder whose output fails the Ulrich test must raise, even under -O."""

    def test_raises(self, monkeypatch):
        # every verdict becomes negative
        monkeypatch.setattr(core, "is_ulrich", lambda P: False)
        with pytest.raises(RuntimeError, match="not Ulrich"):
            families.p_u(1)

    def test_wrong_type_raises(self):
        with pytest.raises(RuntimeError,
                           match=r"built type .*\(2, 2, 2\).*wanted \(2, 2, 3\)"):
            families._checked(families.p_u(1), (2, 2, 3))

    def test_raises_under_optimize(self):
        code = _NEVER_ULRICH + textwrap.dedent("""
            assert False, "asserts are stripped under -O"
            try:
                families.p_u(1)
            except RuntimeError as exc:
                print("RuntimeError:", exc)
            """)
        src = os.path.dirname(os.path.dirname(ulrich.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("RuntimeError:"), result.stdout

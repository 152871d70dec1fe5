"""Tests for the geometric side: Bott cohomology, ranks, degrees.

Schur dimensions are pinned to textbook values (binomials for rows/columns),
cross-checked hook-content vs Weyl, and counted against a brute-force
enumeration of semistandard tableaux; degrees are pinned to the classical
closed forms for Grassmannians and two-step flags and checked against the
leading finite difference of the Hilbert function; the rank/degree/sections
identity is verified on the known Ulrich classes.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import textwrap
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich import core, families, geometry
from ulrich.core import FlagType, parse_partition
from ulrich.geometry import (PolarizationWeights, SchurWeight, bundle_rank,
                             bwb_cohomology, flag_degree, flag_dimension,
                             is_ulrich_via_bwb, rho, schur_dim,
                             schur_dim_weyl, to_weight, twist,
                             ulrich_identity_check)

from helpers import (all_types, blocked_partitions, count_ssyt, fresh_stdout,
                     partitions, reference_flag_degree, reference_inversions,
                     reference_schur_dim, ulrich_members)


def euler_characteristic(w: SchurWeight, t: int) -> int:
    """chi of the time-t twist: Bott's one group, signed by its degree."""
    answer = bwb_cohomology(w, t)
    if answer.degree is None:
        assert (answer.dimension, answer.weight) == (0, None)
        return 0
    return (-1) ** answer.degree * answer.dimension


weight_vectors = st.lists(st.integers(-5, 9), min_size=0, max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


class TestWeights:
    def test_rho(self):
        assert rho(4) == (3, 2, 1, 0)
        assert rho(1) == (0,)

    def test_to_weight(self):
        P = parse_partition("4|3,0|-2")
        w = to_weight(P)
        assert w.entries == (1, 1, -1, -2)
        assert w.blocks == ((1,), (1, -1), (-2,))

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="entries"):
            SchurWeight(FlagType((1, 2, 1)), (0, 0, 0))
        with pytest.raises(ValueError, match="weakly decreasing"):
            SchurWeight(FlagType((1, 2, 1)), (5, 0, 1, 0))

    @given(ulrich_members(), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_twist_matches_evolution(self, P, t):
        w = twist(to_weight(P), t)
        flat = tuple(x + s for x, s in zip(w.entries, rho(P.type.n)))
        evolved = tuple(e for block in core.evolve(P, t) for e in block)
        assert flat == evolved


class TestSchurDimensions:
    def test_columns_are_binomials(self):
        for n in range(1, 7):
            for k in range(n + 1):
                assert schur_dim((1,) * k, n) == math.comb(n, k)

    def test_rows_are_multiset_binomials(self):
        for n in range(1, 6):
            for k in range(6):
                assert schur_dim((k,), n) == math.comb(n + k - 1, k)

    def test_known_values(self):
        assert schur_dim((2, 1), 3) == 8          # the adjoint of sl_3
        assert schur_dim((4, 1, 1, 0), 4) == 70
        assert schur_dim((3, 1), 3) == 15

    def test_trivial_weight(self):
        assert schur_dim((), 5) == 1
        assert schur_dim((0, 0, 0), 3) == 1

    def test_too_many_rows(self):
        assert schur_dim((2, 1, 1), 2) == 0

    def test_negative_entries_shift(self):
        # a determinant twist: dims depend only on successive differences
        assert schur_dim((2, 0, -1), 3) == schur_dim((3, 1, 0), 3) == 15

    def test_negative_entries_need_full_length(self):
        with pytest.raises(ValueError, match="negative"):
            schur_dim((2, -1), 3)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="weakly decreasing"):
            schur_dim((1, 2), 3)

    @given(weight_vectors, st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_hook_content_matches_weyl(self, mu, n):
        if mu and mu[-1] < 0 and len(mu) != n:
            return  # rejected by both, nothing to compare
        assert schur_dim(mu, n) == schur_dim_weyl(mu, n)

    def test_both_formulas_count_tableaux(self):
        # Every shape of at most 6 boxes, also those with more than n rows
        # (no tableaux, dimension 0).  A full-length weight shifted below
        # zero is the same module twisted by a power of det, so it has the
        # same dimension.
        for n in range(1, 5):
            for boxes in range(7):
                for shape in partitions(boxes):
                    want = count_ssyt(shape, n)
                    weights = [shape]
                    if len(shape) <= n:
                        full = shape + (0,) * (n - len(shape))
                        weights.append(tuple(x - 2 for x in full))
                    for mu in weights:
                        assert schur_dim(mu, n) == want, (mu, n)
                        assert schur_dim_weyl(mu, n) == want, (mu, n)


    def test_matches_box_by_box_reference(self):
        # Every weakly decreasing weight with 1-7 entries in [-3, 6], in
        # GL(len) and, without negatives, in GL(7) (fewer rows than n).
        for k in range(1, 8):
            for mu in itertools.combinations_with_replacement(
                    range(6, -4, -1), k):
                for n in {k, 7} if mu[-1] >= 0 else {k}:
                    assert schur_dim(mu, n) == reference_schur_dim(mu, n), (
                        mu, n)

    def test_long_rows_cost_little(self):
        # Box by box this weight took over 10 s: one factor per box, on
        # integers of up to 1.5 million bits.  Row runs take one math.perm.
        out = fresh_stdout("from ulrich.geometry import schur_dim, "
                           "schur_dim_weyl\n"
                           "print(schur_dim((100000, 0), 2), "
                           "schur_dim_weyl((100000, 0), 2))", timeout=10)
        assert out.split() == ["100001", "100001"]

    def test_last_row_is_one_binomial(self, monkeypatch):
        # The last row's contents over its hooks are one math.comb, so a
        # one-row shape multiplies out no falling factorial: "100000|0"
        # once took two math.perm products of about 100000 factors each.
        calls = []
        monkeypatch.setattr(geometry, "math", types.SimpleNamespace(
            comb=math.comb,
            perm=lambda *args: calls.append(args) or math.perm(*args)))
        assert schur_dim((100000, 0), 2) == 100001
        assert schur_dim((5,), 3) == math.comb(7, 5)
        assert calls == []
        # Row 0 of (2, 1): its contents and its two column runs.
        assert schur_dim((2, 1), 3) == 8
        assert len(calls) == 3


class TestBundleRank:
    def test_paper_sized_example(self):
        P = parse_partition("5|3,-1,-2,-4|-5")
        assert bundle_rank(to_weight(P)) == 70

    def test_blockwise_product(self):
        w = to_weight(parse_partition("4,2|1,0"))
        assert w.entries == (1, 0, 0, 0)
        assert bundle_rank(w) == 2

    def test_line_bundle(self):
        # one_n_one(2, ++) = (3|2,1|-3) has weight (0,0,0,-3): every block
        # trivial up to determinant twists, so the bundle is a line bundle
        w = to_weight(families.one_n_one(2, (1, 1)))
        assert w.entries == (0, 0, 0, -3)
        assert bundle_rank(w) == 1

    def test_middle_block_rank(self):
        w = to_weight(parse_partition("4|3,1|-2"))
        assert w.blocks[1] == (1, 0)
        assert bundle_rank(w) == schur_dim((1, 0), 2)


class TestBott:
    def test_projective_line_sections(self):
        for d in range(6):
            w = to_weight(parse_partition(f"{d + 1}|0"))
            answer = bwb_cohomology(w)
            assert (answer.degree, answer.dimension) == (0, d + 1)

    def test_projective_line_twists(self):
        # O(d - t) on P^1: vanishes at d - t = -1, else H^1 of dim -m - 1
        w = to_weight(parse_partition("3|0"))  # O(2)
        assert bwb_cohomology(w, 3).dimension == 0
        answer = bwb_cohomology(w, 7)          # O(-5)
        assert (answer.degree, answer.dimension) == (1, 4)

    def test_euler_characteristic_line(self):
        w = to_weight(parse_partition("3|0"))
        assert [euler_characteristic(w, t) for t in range(6)] == \
            [3, 2, 1, 0, -1, -2]

    def test_structure_sheaf(self):
        for lengths in ((1, 1, 1), (2, 2), (1, 2, 1)):
            ft = FlagType(lengths)
            P = core.BlockedPartition(ft, rho(ft.n))
            answer = bwb_cohomology(to_weight(P))
            assert (answer.degree, answer.dimension) == (0, 1)

    def test_singular_twist_vanishes(self):
        w = to_weight(parse_partition("1|0"))
        assert bwb_cohomology(w, 1) == geometry.CohomologyAnswer(None, 0, None)

    def test_degree_counts_inversions(self):
        # Every type with 2-3 blocks and n <= 5, every entry set in [-2, 4]
        # and every twist t <= N + 1: Bott's degree q is the number of
        # increasing pairs of P(t).
        for ft in all_types(6, 2, 3):
            if ft.n > 5:
                continue
            for entries in itertools.combinations(range(4, -3, -1), ft.n):
                P = core.BlockedPartition(ft, entries)
                w = to_weight(P)
                for t in range(P.dimension + 2):
                    v = [e for block in core.evolve(P, t) for e in block]
                    if len(set(v)) == len(v):
                        assert bwb_cohomology(w, t).degree == \
                            reference_inversions(v), (P, t)

    @given(ulrich_members())
    @settings(max_examples=40, deadline=None)
    def test_bwb_agrees_on_members(self, P):
        assert is_ulrich_via_bwb(P)

    @given(blocked_partitions())
    @settings(max_examples=150, deadline=None)
    def test_bwb_agrees_with_schedule(self, P):
        assert is_ulrich_via_bwb(P) == bool(core.is_ulrich(P))

    @given(blocked_partitions())
    @settings(max_examples=25, deadline=None)
    def test_euler_is_a_polynomial_of_degree_dim(self, P):
        # chi(E(t)) is a polynomial in t of degree N = dim X, so its
        # (N+1)-st finite difference vanishes identically
        w = to_weight(P)
        N = P.type.dimension
        values = [euler_characteristic(w, t) for t in range(N + 2)]
        for _ in range(N + 1):
            values = [b - a for a, b in zip(values, values[1:])]
        assert values == [0]


def grassmannian_degree(k: int, n: int) -> int:
    """Textbook closed form: deg G(k, n) = (k(n-k))! * prod i!/(n-k+i)!."""
    N = k * (n - k)
    deg = math.factorial(N)
    for i in range(k):
        deg = deg * math.factorial(i) // math.factorial(n - k + i)
    return deg


class TestFlagGeometry:
    def test_dimension(self):
        assert flag_dimension(FlagType((1, 4, 1))) == 9
        assert flag_dimension(FlagType((2, 2))) == 4
        assert flag_dimension(FlagType((1, 1, 1))) == 3

    def test_grassmannian_degrees(self):
        for n in range(2, 8):
            for k in range(1, n):
                assert flag_degree(FlagType((k, n - k))) == \
                    grassmannian_degree(k, n)

    def test_projective_space_degree_one(self):
        for n in (2, 3, 6):
            assert flag_degree(FlagType((1, n - 1))) == 1

    def test_two_step_point_hyperplane(self):
        # deg Fl(1, n-1; n) = C(2n-2, n-1), the central binomials
        for n, want in ((3, 6), (4, 20), (5, 70), (6, 252), (7, 924)):
            assert flag_degree(FlagType((1, n - 2, 1))) == want
            assert want == math.comb(2 * n - 2, n - 1)

    def test_two_step_point_codim_two(self):
        for n, want in ((4, 40), (5, 560), (6, 9240), (7, 168168)):
            assert flag_degree(FlagType((1, n - 3, 2))) == want

    def test_polarization_levels(self):
        assert PolarizationWeights((2, 3)).block_levels() == (5, 3, 0)
        assert PolarizationWeights((1,)).block_levels() == (1, 0)

    def test_polarization_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            PolarizationWeights(())
        with pytest.raises(ValueError, match=">= 1"):
            PolarizationWeights((1, 0))

    def test_scaled_polarization(self):
        # P^1 under O(a) has degree a; P^2 under O(a) has degree a^2
        assert flag_degree(FlagType((1, 1)), PolarizationWeights((5,))) == 5
        assert flag_degree(FlagType((1, 2)), PolarizationWeights((2,))) == 4

    def test_polarization_arity(self):
        with pytest.raises(ValueError, match="coefficients"):
            flag_degree(FlagType((1, 1, 1)), PolarizationWeights((1,)))

    def test_degree_is_the_leading_difference(self):
        # The Hilbert function k -> dim S_{k*lambda}(C^n), lambda the
        # polarization's level on each block, is a polynomial of degree N
        # with leading coefficient deg/N!, so its N-th finite difference
        # is the degree.  Only the hook-content formula is used here.
        for n in range(2, 7):
            for steps in range(1, n):
                for cuts in itertools.combinations(range(1, n), steps):
                    bounds = (0,) + cuts + (n,)
                    ft = FlagType(tuple(b - a for a, b
                                        in zip(bounds, bounds[1:])))
                    N = ft.dimension
                    for a in itertools.product((1, 2), repeat=steps):
                        pol = PolarizationWeights(a)
                        lam = [c for c, l in zip(pol.block_levels(),
                                                 ft.lengths) for _ in range(l)]
                        diff = sum((-1) ** (N - k) * math.comb(N, k)
                                   * schur_dim([k * x for x in lam], n)
                                   for k in range(N + 1))
                        assert flag_degree(ft, pol) == diff, (ft, a)

    def test_degree_matches_pairwise_reference(self):
        # Every type with 2-5 blocks and dimension <= 30, every
        # polarization in {1, 2, 3}^r.
        for ft in all_types(30, 2, 5):
            for a in itertools.product((1, 2, 3), repeat=ft.r):
                assert flag_degree(ft, PolarizationWeights(a)) == \
                    reference_flag_degree(ft.lengths, a), (ft, a)

    def test_degree_needs_positive_blocks(self):
        with pytest.raises(ValueError, match="nonempty"):
            flag_degree(FlagType((2, 0, 1)))


class TestChecksUnderOptimize:
    def test_checks_raise_under_optimize(self):
        # Hook-content against Weyl, and the exact divisions of schur_dim
        # and flag_degree, are if/raise checks, kept under python -O.
        code = textwrap.dedent("""
            import math
            from ulrich import geometry
            from ulrich.core import FlagType, parse_partition
            assert False, "asserts are stripped under -O"
            def fails(call):
                try:
                    call()
                except RuntimeError as exc:
                    print(str(exc).split(",")[0])
            weyl = geometry.schur_dim_weyl
            geometry.schur_dim_weyl = lambda mu, n: weyl(mu, n) + 1
            w = geometry.to_weight(parse_partition("4|3,0|-2"))
            fails(lambda: geometry.bwb_cohomology(w))
            geometry.schur_dim_weyl = weyl
            sf = geometry._superfactorial
            geometry._superfactorial = lambda k: sf(k) * 10007 ** (k == 0)
            fails(lambda: geometry.flag_degree(FlagType((1, 2, 1))))
            geometry._superfactorial = sf
            perm = math.perm
            math.perm = lambda m, k: perm(m, k) + 1
            fails(lambda: geometry.schur_dim((2, 1), 3))
            """)
        src = os.path.dirname(os.path.dirname(geometry.__file__))
        result = subprocess.run([sys.executable, "-O", "-c", code],
                                env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "hook-content vs Weyl mismatch",
            "cross-pair product must be an integer",
            "hook-content product must divide exactly"]


class TestUlrichIdentity:
    def test_flagship_example(self):
        # Fl(1, 5; 6), rank-70 bundle with 17640 independent sections
        P = parse_partition("5|3,-1,-2,-4|-5")
        h0, rank, degree, holds = ulrich_identity_check(P)
        assert (h0, rank, degree) == (17640, 70, 252)
        assert holds

    def test_all_classes_of_a_type(self):
        from ulrich.search import time_branching_search
        report = time_branching_search(FlagType((1, 4, 1)))
        assert report.count == 16
        for P in report.classes:
            assert ulrich_identity_check(P)[3]

    def test_families_satisfy_identity(self):
        members = [families.sporadic(name) for name in families.sporadic_names()]
        members += [families.p_u(1), families.two_one_k(1),
                    families.elongated_family(1, 2)]
        for P in members:
            assert ulrich_identity_check(P)[3]

    def test_non_ulrich_fails_identity(self):
        h0, rank, degree, holds = \
            ulrich_identity_check(parse_partition("5,3|0|-5"))
        assert not holds

"""The acceptance gate: one test per shipped guarantee.

Each test records a PASS/FAIL summary line (printed at the end of the pytest
run) and enforces a pinned wall-clock budget.  All checks are exact — integer
and rational arithmetic throughout, no tolerances.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from multiprocessing import get_context

from ulrich import analysis, core, families, geometry, search
from ulrich.core import FlagType, parse_partition
from ulrich.geometry import PolarizationWeights, SchurWeight

from conftest import record_criterion
from helpers import all_types, random_partition


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    detail: dict[str, str] = {}
    try:
        yield detail
    except BaseException:
        record_criterion(number, description, False)
        raise
    elapsed = time.monotonic() - start
    within = elapsed <= budget_seconds
    stamp = f"{elapsed:.2f}s of {budget_seconds:.0f}s"
    note = detail.get("note", "")
    record_criterion(number, description, within,
                     f"{note}; {stamp}" if note else stamp)
    assert within, (f"criterion {number} exceeded its time budget: "
                    f"{elapsed:.2f}s > {budget_seconds}s")


def canon(P):
    return core.canonicalize(P)


def test_criterion_01_counting_one_n_one():
    with criterion(1, "type (1,n,1) has exactly 2^n classes, n = 1..6",
                   10) as d:
        for n in range(1, 7):
            report = search.time_branching_search(FlagType((1, n, 1)))
            assert report.completed
            want = {canon(families.one_n_one(n, signs))
                    for signs in itertools.product((1, -1), repeat=n)}
            assert set(report.classes) == want
            assert report.count == 2 ** n
        d["note"] = "counts 2,4,...,64 with matching class sets"


TRUE_EXEMPLARS = [
    "5|3,-1,-2,-4|-5",
    "7|2,1,0|-1,-9",
    "8,6|5,0|-2",
    "12,4|3,0|-2,-8",
    "16,10,4|3,0|-2,-12",
    "17,1|0|-3,-7,-9,-11,-15",
    "2|1,0|-4,-10,-12,-14,-16",
    "20,18,16,14,8,2|1,0|-4",
    "11,3|2,-1|-3,-9",
    "17,5|4,2,-1,-3|-5,-15",
]

FALSE_EXEMPLARS = [
    # both have distinct integral collision times with one out of range,
    # so the verdict reports the earliest uncovered time
    ("10,4|3,0|-2", ("missing-time", Fraction(8))),
    ("4|3,0|-2,-8", ("missing-time", Fraction(7))),
]


def test_criterion_02_exemplars():
    with criterion(2, "every printed exemplar classifies correctly", 1) as d:
        positives = [parse_partition(s) for s in TRUE_EXEMPLARS]
        positives += [families.elongated_family(1, 2),
                      families.elongated_family(2, 2),
                      families.elongated_family(1, 3)]
        for P in positives:
            verdict = core.is_ulrich(P)
            assert verdict, f"{P} should be Ulrich, got {verdict.witness}"
        for text, witness in FALSE_EXEMPLARS:
            verdict = core.is_ulrich(parse_partition(text))
            assert not verdict and verdict.witness == witness
        d["note"] = f"{len(positives)} true, {len(FALSE_EXEMPLARS)} false"


def test_criterion_03_uniqueness_two_one_k():
    with criterion(3, "type (2,1,k) has a unique class, k in {1,5,21}",
                   300) as d:
        for m in (0, 1, 2):
            k = (4 ** (m + 1) - 1) // 3
            P = families.two_one_k(m)
            assert P.type.lengths == (2, 1, k) and core.is_ulrich(P)
            report = search.time_branching_search(FlagType((2, 1, k)))
            assert report.completed
            assert report.classes == (canon(P),)
        d["note"] = "k = 21 (N = 65) enumerated exhaustively, not just constructively"


def test_criterion_04_classification_two_n_one():
    with criterion(4, "type (2,n,1) classes = elongations E^k(F_m), n = 1..10",
                   600) as d:
        counts = []
        for n in range(1, 11):
            want = set()
            for m in range(1, n + 2):
                # decompositions n = 2km + m - 1 with a nonempty middle block
                if (n + 1) % m == 0 and ((n + 1) // m) % 2 == 1:
                    k = ((n + 1) // m - 1) // 2
                    if (m, k) != (1, 0):
                        want.add(canon(families.elongated_family(k, m)))
            report = search.time_branching_search(FlagType((2, n, 1)))
            assert report.completed
            assert set(report.classes) == want
            counts.append(report.count)
        assert counts == [1, 2, 1, 2, 2, 2, 1, 3, 2, 2]
        d["note"] = f"counts {counts}"


def test_criterion_05_classification_two_n_two():
    with criterion(5, "type (2,n,2): two mirror classes iff n even, n = 2..8",
                   900) as d:
        for n in range(2, 9):
            report = search.time_branching_search(FlagType((2, n, 2)))
            assert report.completed
            if n % 2 == 0:
                P = families.p_u(n // 2)
                assert set(report.classes) == {canon(P),
                                               canon(core.symmetric(P))}
            else:
                assert report.classes == ()
        d["note"] = "P_u and its mirror for n = 2,4,6,8; empty for odd n"


def test_criterion_06_no_multistep():
    with criterion(6, "no Ulrich partitions with >= 4 blocks, total <= 7",
                   900) as d:
        done = search.verify_no_multistep(7)
        assert len(done) == 64
        for report in done.values():
            assert report.completed and report.count == 0
        d["note"] = "64 types, all empty"


def test_criterion_07_conjecture_sweep():
    with criterion(7, "no 3-block Ulrich with all lengths >= 3, sum <= 10",
                   3600) as d:
        done = search.verify_conjecture_sweep(10, workers=8)
        assert len(done) == 4
        for report in done.values():
            assert report.completed and report.count == 0
        # the long-run bound is cheap for this engine: cover it here too
        longer = search.verify_conjecture_sweep(12, workers=8)
        assert len(longer) == 20
        assert all(rep.completed and rep.count == 0
                   for rep in longer.values())
        d["note"] = "sum <= 10 (4 types) and long-run sum <= 12 (20 types)"


def test_criterion_08_geometry_triple():
    with criterion(8, "Fl(1,5;6): degree 252, rank 70, h^0 = 17640 = 70*252",
                   1) as d:
        ft = FlagType((1, 4, 1))
        assert geometry.flag_degree(ft, PolarizationWeights((1, 1))) == 252
        w = SchurWeight(ft, (6, 5, 2, 2, 1, 1))
        assert geometry.bundle_rank(w) == 70
        P = parse_partition("5|3,-1,-2,-4|-5")
        # the partition's weight is that weight, up to a determinant twist
        assert tuple(x + 6 for x in geometry.to_weight(P).entries) == w.entries
        h0, rank, degree, holds = geometry.ulrich_identity_check(P)
        assert (h0, rank, degree, holds) == (17640, 70, 252, True)
        d["note"] = "h^0 = 17640 = 70 * 252"


def _bridge_worker(lengths):
    """Check one type: window enumeration vs schedule vs Bott, candidate-wise."""
    ft = FlagType(lengths)
    N = ft.dimension
    candidates = ulrich = 0
    for blocks in search._window_candidates(ft):
        P = core.from_blocks(blocks)
        by_schedule = core.meeting_mask(blocks, N) >= 0
        if by_schedule != geometry.is_ulrich_via_bwb(P):
            return lengths, candidates, ulrich, str(P)
        candidates += 1
        ulrich += by_schedule
    return lengths, candidates, ulrich, None


def test_criterion_09_oracle_bridge():
    with criterion(9, "schedule test == Bott vanishing on every window "
                      "candidate, N <= 12", 600) as d:
        types = all_types(12, min_blocks=2, max_blocks=5)
        assert len(types) == 68
        total = found = 0
        with get_context("fork").Pool(8) as pool:
            jobs = [ft.lengths for ft in types]
            for lengths, candidates, ulrich, bad in pool.imap_unordered(
                    _bridge_worker, jobs):
                assert bad is None, f"disagreement at {bad} in type {lengths}"
                total += candidates
                found += ulrich
        assert total == 896590
        assert found == 127
        d["note"] = f"{total} candidates over 68 types, {found} Ulrich"


def _three_block_classes(max_dim: int):
    for ft in all_types(max_dim, min_blocks=3, max_blocks=3):
        report = search.time_branching_search(ft)
        assert report.completed
        yield from report.classes


def test_criterion_10_structure_rules():
    with criterion(10, "middle gaps, rectangle/trapezoid rules, greedy replay",
                   300) as d:
        classes = list(_three_block_classes(12))
        classes += [families.two_param(0, 1), families.two_param(1, 0),
                    families.p_u(1), families.p_u(2),
                    families.two_one_k(1), families.elongated_family(1, 3)]
        gaps_seen = set()
        for P in classes:
            a, b, c = P.blocks
            if len(b) == 2:
                gap = b[0] - b[1]
                gaps_seen.add(gap)
                assert gap in {1, 3, 5}
            assert analysis.rectangle_check(P)
            for quad in analysis.trapezoid_witnesses(P):
                assert analysis.trapezoid_check(P, *quad)
            word = analysis.greedy_word(P)
            assert analysis.replay(word.letters, b).as_partition() == P
        assert gaps_seen == {1, 3, 5}
        d["note"] = f"{len(classes)} three-block partitions checked"


def test_criterion_11_involutions():
    with criterion(11, "symmetry/duality involutions and the time reversal",
                   60) as d:
        enumerated = list(_three_block_classes(12))
        for ft in all_types(12, min_blocks=2, max_blocks=2):
            enumerated.extend(search.time_branching_search(ft).classes)
        # all Ulrich classes with N <= 12 (>= 4 blocks contribute none);
        # count matches the bridge scan of criterion 9
        assert len(enumerated) == 127
        for P in enumerated:
            N1 = P.dimension + 1
            r = P.type.r
            assert core.symmetric(core.symmetric(P)) == P
            D = core.dual(P)  # defined for every Ulrich partition
            assert core.is_ulrich(D)
            assert core.dual(D) == core.shift(P, -N1 * r)
            assert core.equivalent(core.dual(D), P)
            # the collision of x (block i) with y (block j) at time t maps to
            # the dual's collision of x - N1*(r-i) with y - N1*(r-j), which
            # happens at time N1 - t
            dual_pairs = {}
            for ev in core.collision_schedule(D).events:
                bi, ii = ev.left
                bj, jj = ev.right
                dual_pairs[ev.time] = frozenset((D.blocks[bi][ii],
                                                 D.blocks[bj][jj]))
            for ev in core.collision_schedule(P).events:
                bi, ii = ev.left
                bj, jj = ev.right
                want = frozenset((P.blocks[bi][ii] - N1 * (r - bi),
                                  P.blocks[bj][jj] - N1 * (r - bj)))
                assert dual_pairs[N1 - ev.time] == want

        rng = random.Random(20260822)
        ulrich_hits = dual_defined = 0
        for _ in range(10 ** 4):
            P = random_partition(rng)
            N1 = P.dimension + 1
            r = P.type.r
            assert core.symmetric(core.symmetric(P)) == P
            try:
                D = core.dual(P)
            except ValueError:
                assert not core.is_ulrich(P)
                continue
            dual_defined += 1
            assert core.dual(D) == core.shift(P, -N1 * r)
            if core.is_ulrich(P):
                ulrich_hits += 1
        d["note"] = (f"{len(enumerated)} enumerated classes; 10^4 random "
                     f"({dual_defined} dual-defined, {ulrich_hits} Ulrich)")

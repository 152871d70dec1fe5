"""Shared test utilities: an independent Ulrich oracle, reference formulas
for the geometry, random generators and a fresh interpreter."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

import ulrich
from ulrich import core
from ulrich.analysis import PreUlrichTriple
from ulrich.core import BlockedPartition, FlagType


def fresh_stdout(code: str, timeout: float = 60) -> str:
    """Stdout of ``code`` run in ``python -I -S`` with the package on the path.

    The run must exit 0 within ``timeout`` seconds, so a hang fails the
    calling test.
    """
    src = os.path.dirname(os.path.dirname(ulrich.__file__))
    result = subprocess.run([sys.executable, "-I", "-S", "-c",
                             "import sys; sys.path.insert(0, sys.argv[1]); "
                             + code, src],
                            capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


def meetings(blocks) -> list[tuple[Fraction, int, int, int, int]]:
    """Every cross-block meeting (time, i, x, j, y) from the definition.

    Entry x of block i (0-based) meets entry y of a later block j at the
    exact time (x - y)/(j - i).  Shares no code with src: it is the one
    Fraction reference the other oracles here read their times from.
    """
    return [(Fraction(x - y, j - i), i, x, j, y)
            for i, bi in enumerate(blocks)
            for j in range(i + 1, len(blocks))
            for x in bi for y in blocks[j]]


def brute_is_ulrich(P: BlockedPartition) -> bool:
    """Independent formulation: the collision-time multiset is exactly 1..N.

    Computed straight from the definition with Counter and Fractions, sharing
    no code with core.is_ulrich's scan or the search engine's bitmasks.
    """
    times = Counter(t for t, *_ in meetings(P.blocks))
    want = Counter(Fraction(t) for t in range(1, P.dimension + 1))
    return times == want


def reference_witness(P: BlockedPartition):
    """The Ulrich-test witness from the definition, or None for Ulrich input.

    Every meeting time as a Fraction, sorted: the first one that is
    non-integral or repeats an earlier one, else the first time in 1..N that
    no pair meets at.  Shares no code with core.is_ulrich.
    """
    seen = set()
    for t in sorted(t for t, *_ in meetings(P.blocks)):
        if t.denominator != 1:
            return "non-integral-time", t
        if t in seen:
            return "duplicate-time", t
        seen.add(t)
    for s in range(1, P.dimension + 1):
        if s not in seen:
            return "missing-time", Fraction(s)
    return None


def repeated_position_ulrich(P: BlockedPartition) -> bool:
    """Second independent formulation: every time 1..N has a coincidence."""
    for t in range(1, P.dimension + 1):
        flat = [e for block in core.evolve(P, t) for e in block]
        if len(set(flat)) == len(flat):
            return False
    return True


def meeting_times(T) -> list[Fraction]:
    """All pairwise meeting times of a triple (A|B|C), exact."""
    return [t for t, *_ in meetings((T.a, T.b, T.c))]


def reference_pre_ulrich(T) -> bool:
    """A and C share a parity, and the meeting times are distinct integers."""
    times = meeting_times(T)
    outer = T.a + T.c
    return (all((x - outer[0]) % 2 == 0 for x in outer)
            and all(t.denominator == 1 for t in times)
            and len(set(times)) == len(times))


def reference_extension(T, letter: str):
    """One greedy growth step from the definition, shared with no src code.

    Returns (time, value, pre_ulrich, clashes, grown triple).  The first
    uncovered time t0 exists only when the meeting times are distinct
    integers; otherwise ValueError.  The new A entry is the lowest value
    whose meetings with B and C all come at t0 or later; the new C entry is
    the highest value whose meetings with A and B do.
    """
    times = meeting_times(T)
    if any(t.denominator != 1 for t in times) or len(set(times)) != len(times):
        raise ValueError("no first uncovered time")
    t0 = next(t for t in itertools.count(1) if t not in times)
    if letter == "a":
        value = max([y + t0 for y in T.b] + [y + 2 * t0 for y in T.c])
        grown = PreUlrichTriple(sorted(T.a + (value,), reverse=True), T.b, T.c)
        new = [Fraction(value - y) for y in T.b]
        new += [Fraction(value - y, 2) for y in T.c]
    else:
        value = min([x - 2 * t0 for x in T.a] + [x - t0 for x in T.b])
        grown = PreUlrichTriple(T.a, T.b, sorted(T.c + (value,), reverse=True))
        new = [Fraction(x - value, 2) for x in T.a]
        new += [Fraction(x - value) for x in T.b]
    clashes = {t for t in new
               if t.denominator != 1 or t in times or new.count(t) > 1}
    return (t0, value, reference_pre_ulrich(grown), tuple(sorted(clashes)),
            grown)


def partitions(boxes: int, largest: int | None = None):
    """Every partition of ``boxes`` with parts at most ``largest``, as
    weakly decreasing tuples."""
    if boxes == 0:
        yield ()
        return
    for first in range(min(boxes, largest or boxes), 0, -1):
        for rest in partitions(boxes - first, first):
            yield (first,) + rest


def count_ssyt(shape, n: int) -> int:
    """The number of semistandard tableaux of a partition shape with entries
    1..n, counted by filling the boxes one by one (rows weakly increase,
    columns strictly).  This is dim S_shape(C^n) with no formula at all."""
    boxes = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    filling = {}

    def fill(k):
        if k == len(boxes):
            return 1
        i, j = boxes[k]
        low = max(filling.get((i, j - 1), 1), filling.get((i - 1, j), 0) + 1)
        total = 0
        for v in range(low, n + 1):
            filling[i, j] = v
            total += fill(k + 1)
        filling.pop((i, j), None)
        return total

    return fill(0)


def reference_schur_dim(mu, n: int) -> int:
    """dim S_mu(C^n) by the hook-content formula, box by box.

    Stanley, EC2 Cor. 7.21.4: the product over the boxes (i, j) of the
    shape of (n + j - i) / hook(i, j).  A weight with a negative entry
    must have all n entries and is shifted to a shape first (a power of
    the determinant).  Shares no code with src.
    """
    low = min(mu[-1], 0) if mu else 0
    if low < 0 and len(mu) != n:
        raise ValueError("negative entries need all n weight entries")
    parts = [x - low for x in mu if x > low]
    if len(parts) > n:
        return 0
    # cols[j]: the length of column j, the number of rows longer than j.
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])] \
        if parts else []
    num = den = 1
    for i, row in enumerate(parts):
        for j in range(row):
            num *= n + j - i
            den *= row - j + cols[j] - i - 1
    dim, rem = divmod(num, den)
    assert rem == 0, (mu, n)
    return dim


def reference_flag_degree(lengths, a) -> int:
    """Degree of Fl(k; n) under sum(a_i * omega_{k_i}), pair by pair.

    N! * prod (c_u - c_w) / prod (j - i) over the pairs i < j of positions
    in different blocks u < w, c being each block's level (the suffix sums
    of a, 0 on the last block).  Shares no code with src.
    """
    levels = [sum(a[u:]) for u in range(len(lengths))]
    block_of = [u for u, l in enumerate(lengths) for _ in range(l)]
    n = len(block_of)
    N = sum(1 for i in range(n) for j in range(i + 1, n)
            if block_of[i] != block_of[j])
    num, den = math.factorial(N), 1
    for i in range(n):
        for j in range(i + 1, n):
            u, w = block_of[i], block_of[j]
            if u != w:
                num *= levels[u] - levels[w]
                den *= j - i
    deg, rem = divmod(num, den)
    assert rem == 0, (lengths, a)
    return deg


def reference_inversions(v) -> int:
    """The number of pairs i < j with v[i] < v[j]: Bott's degree q."""
    return sum(1 for i in range(len(v)) for j in range(i + 1, len(v))
               if v[i] < v[j])


def all_types(max_dim: int, min_blocks: int = 2, max_blocks: int = 6):
    """Every all-positive FlagType with pairwise dimension <= max_dim."""
    out = []
    for blocks in range(min_blocks, max_blocks + 1):
        for total in range(blocks, max_dim + 2):
            for cuts in itertools.combinations(range(1, total), blocks - 1):
                bounds = (0,) + cuts + (total,)
                ft = FlagType(tuple(b - a for a, b in zip(bounds, bounds[1:])))
                if ft.dimension <= max_dim:
                    out.append(ft)
    return out


def random_partition(rng: random.Random, max_blocks: int = 4,
                     max_len: int = 3, spread: int = 40) -> BlockedPartition:
    """A random valid blocked partition (rarely Ulrich)."""
    blocks = rng.randint(2, max_blocks)
    lengths = tuple(rng.randint(1, max_len) for _ in range(blocks))
    n = sum(lengths)
    entries = rng.sample(range(-spread, spread + 1), n)
    return BlockedPartition(FlagType(lengths), tuple(sorted(entries, reverse=True)))


@st.composite
def flag_types(draw, max_blocks: int = 4, max_len: int = 4, max_dim: int = 40):
    lengths = draw(
        st.lists(st.integers(1, max_len), min_size=2, max_size=max_blocks)
        .map(tuple)
        .filter(lambda ls: FlagType(ls).dimension <= max_dim))
    return FlagType(lengths)


@st.composite
def blocked_partitions(draw, max_blocks: int = 4, max_len: int = 3,
                       spread: int = 40):
    ft = draw(flag_types(max_blocks=max_blocks, max_len=max_len))
    entries = draw(st.lists(st.integers(-spread, spread), min_size=ft.n,
                            max_size=ft.n, unique=True))
    return BlockedPartition(ft, tuple(sorted(entries, reverse=True)))


@st.composite
def triples(draw, spread: int = 12):
    """A random triple (A|B|C); small spreads give fractional and repeated
    meeting times as often as pre-Ulrich triples."""
    b = sorted(draw(st.lists(st.integers(-spread, spread), min_size=1,
                             max_size=3, unique=True)), reverse=True)
    a = draw(st.lists(st.integers(b[0] + 1, b[0] + spread), max_size=3,
                      unique=True))
    c = draw(st.lists(st.integers(b[-1] - spread, b[-1] - 1), max_size=3,
                      unique=True))
    return PreUlrichTriple(sorted(a, reverse=True), b, sorted(c, reverse=True))


@st.composite
def ulrich_members(draw):
    """A member of one of the known families, for properties of Ulrich inputs."""
    from ulrich import families
    pick = draw(st.sampled_from([
        ("one_n_one", 3), ("two_one_k", 1), ("one_two_k", 1),
        ("fundamental", 2), ("elongated", 2), ("p_u", 2), ("sporadic", 4),
        ("two_param", 1),
    ]))
    kind = pick[0]
    if kind == "one_n_one":
        n = draw(st.integers(1, 5))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        return families.one_n_one(n, signs)
    if kind == "two_one_k":
        return families.two_one_k(draw(st.integers(0, 2)))
    if kind == "one_two_k":
        return families.one_two_k(draw(st.integers(0, 2)))
    if kind == "fundamental":
        return families.fundamental_F(draw(st.integers(1, 6)))
    if kind == "elongated":
        return families.elongated_family(draw(st.integers(0, 3)),
                                         draw(st.integers(1, 4)))
    if kind == "p_u":
        return families.p_u(draw(st.integers(1, 4)))
    if kind == "two_param":
        m1, m2 = draw(st.sampled_from([(0, 1), (1, 0), (0, 2), (2, 0),
                                        (1, 1)]))
        return families.two_param(m1, m2)
    return families.sporadic(draw(st.sampled_from(families.sporadic_names())))

"""Structure theory for three-block partitions.

Three-block partitions (A|B|C) admit a greedy reconstruction: an Ulrich
partition is grown from its middle block by repeatedly adding the entry that
realizes the smallest still-uncovered meeting time, and the added value is
forced (``_step`` below).  This module implements the growth step, the
greedy word of an Ulrich partition, the sumset reformulation for singleton
middle blocks, and two boundary rules (trapezoid, rectangle) that relate a
partition to its dual.

The growth step has one kernel, ``_step``: on plain entry lists and the
covered-time mask it returns the first uncovered time t0, the forced new
entry, and the mask with the entry's meeting times added (-1 on a clash).
``greedy_word`` and ``replay`` grow sorted lists through it and build value
objects only at the ends: the input triple, the word, the replayed triple.
``replay`` words its error from the step's clashes, as ``Fraction``.

All formulas are phrased directly on entry values, which makes them
independent of the velocity normalization used for display.
"""

from __future__ import annotations

import operator

from . import core
from .core import BlockedPartition, Frozen


class PreUlrichTriple(Frozen):
    """Entry sets (A|B|C) of a partial three-block partition.

    A and C may be empty while the triple is being grown; B is fixed
    throughout.  Entries are stored strictly decreasing per block.
    """

    __slots__ = ("a", "b", "c")
    _fields = __slots__

    def __init__(self, a: tuple[int, ...], b: tuple[int, ...],
                 c: tuple[int, ...]):
        a, b, c = tuple(a), tuple(b), tuple(c)
        if not b:
            raise ValueError("the middle block must be nonempty")
        for block in (a, b, c):
            if not all(map(operator.gt, block, block[1:])):
                raise ValueError("blocks must be strictly decreasing")
        if a and a[-1] <= b[0]:
            raise ValueError("A entries must exceed all B entries")
        if c and b[-1] <= c[0]:
            raise ValueError("C entries must lie below all B entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def as_partition(self) -> BlockedPartition:
        return core.from_blocks((self.a, self.b, self.c))


def triple_of(P: BlockedPartition) -> PreUlrichTriple:
    """View a three-block partition with no empty block as a triple."""
    if len(P.type.lengths) != 3 or not P.type.all_positive:
        raise ValueError("expected a three-block partition with no empty "
                         "block")
    a, b, c = P.blocks
    return PreUlrichTriple(a, b, c)


def _first_gap(mask: int) -> int:
    """The smallest time t >= 1 whose bit is clear in a covered-time mask."""
    m = mask | 1
    return (~m & (m + 1)).bit_length() - 1


def _step(a, b, c, mask: int, letter: str, clashes=None):
    """One growth step on plain entry lists: (t0, value, mask or -1).

    ``a``, ``b``, ``c`` hold a triple's blocks, each strictly decreasing,
    and ``mask`` >= 0 its covered-time mask, bit t set for each meeting time
    t (``core.meeting_mask``).  The new entry of block A (letter "a") or C
    (letter "c") meets the triple at its first uncovered time t0; at time t
    an entry x of A, B, C sits at x - 2t, x - t, x (``core.velocity``).
    Returns t0, the new entry, and ``mask`` with the new entry's times
    added, or -1 when one of them is not an integer or is already taken.
    Without ``clashes`` the step stops at the first such time; given a
    list, it goes on and appends each as a (numerator, denominator) pair.
    The lists themselves are not changed.
    """
    t0 = _first_gap(mask)
    # The new entry meets its own side of B at speed 1 and the far outer
    # block at speed 2; ``sign`` orients each difference as a time.
    if letter == "a":
        value = b[0] + t0
        if c and c[0] + 2 * t0 > value:
            value = c[0] + 2 * t0
        far, sign = c, 1
    elif letter == "c":
        value = b[-1] - t0
        if a and a[-1] - 2 * t0 < value:
            value = a[-1] - 2 * t0
        far, sign = a, -1
    else:
        raise ValueError(f"letter must be 'a' or 'c', got {letter!r}")
    clean = True
    for d, block in ((1, b), (2, far)):
        for y in block:
            diff = sign * (value - y)
            t, rem = divmod(diff, d)
            if rem or mask >> t & 1:
                if clashes is None:
                    return t0, value, -1
                clashes.append((diff, d))
                clean = False
            else:
                mask |= 1 << t
    # The triple's times are distinct integers, so the grown triple's are
    # unless a new time clashed.
    return t0, value, mask if clean else -1


class GreedyWord(Frozen):
    """The a/c growth sequence that reconstructs an Ulrich triple from B."""

    __slots__ = ("letters",)
    _fields = __slots__

    def __init__(self, letters: str):
        object.__setattr__(self, "letters", letters)

    def __str__(self) -> str:
        return self.letters


def greedy_word(P: BlockedPartition) -> GreedyWord:
    """Reconstruct the growth word of a three-block Ulrich partition.

    The word is translation-invariant.  At each step the full partition's
    collision at the current uncovered time tells which side grows; the value
    produced by the corresponding growth step must match the partition's
    actual entry, which is checked.  A sub-triple of the Ulrich input keeps
    its outer parity, so a matching value leaves only clashes to check.
    """
    full = triple_of(P)
    if not core.is_ulrich(P):
        raise ValueError("greedy reconstruction is defined for Ulrich input")
    blocks = (full.a, full.b, full.c)
    by_time = {(x - y) // (j - i): (i, j, x, y)
               for i, j in ((0, 1), (0, 2), (1, 2))
               for x in blocks[i] for y in blocks[j]}
    a, b, c = [], full.b, []
    mask = 0  # the middle block alone has no meeting times
    letters = []
    while len(a) < len(full.a) or len(c) < len(full.c):
        t0 = _first_gap(mask)
        bi, bj, x, y = by_time[t0]
        if (bi, bj) == (0, 1):
            letter = "a"
        elif (bi, bj) == (1, 2):
            letter = "c"
        elif x in a:
            letter = "c"
        elif y in c:
            letter = "a"
        else:
            raise AssertionError(
                f"collision at t={t0} involves two unplaced outer entries")
        t0, value, mask = _step(a, b, c, mask, letter)
        grown, expected = (a, x) if letter == "a" else (c, y)
        if value != expected or mask < 0:
            raise AssertionError(
                f"greedy step {letter}@{t0} produced {value}, "
                f"partition has {expected}")
        grown.append(value)
        grown.sort(reverse=True)
        letters.append(letter)
    return GreedyWord("".join(letters))


def replay(word: str, middle) -> PreUlrichTriple:
    """Grow a triple from the given middle block by a word of a/c letters.

    Raises ValueError if any step double-books a meeting time, i.e. if the
    word is not realizable from that middle block, or breaks the outer
    parity.
    """
    b = PreUlrichTriple((), middle, ()).b  # refuses a bad middle block
    a, c = [], []
    mask = 0  # the middle block alone has no meeting times
    for pos, letter in enumerate(word):
        t0, value, grown_mask = _step(a, b, c, mask, letter)
        # Every outer entry so far shares one parity.
        outer = a or c
        if grown_mask < 0 or outer and (value - outer[0]) % 2:
            why = "breaks the outer parity invariant"
            if grown_mask < 0:
                from fractions import Fraction
                pairs = []
                _step(a, b, c, mask, letter, pairs)
                clashes = tuple(sorted({Fraction(d, q) for d, q in pairs}))
                why = f"double-books times {clashes}"
            raise ValueError(f"step {pos} ({letter!r} at t={t0}) {why}")
        mask = grown_mask
        grown = a if letter == "a" else c
        grown.append(value)
        grown.sort(reverse=True)
    return PreUlrichTriple(a, b, c)


def dual_blocks_centered(P: BlockedPartition):
    """Dual entry sets (A*, B, C*) normalized so the middle block is fixed.

    A* = C + (N+1) and C* = A - (N+1); this is the translation of core.dual
    under which the boundary rules below take their stated form.
    """
    T = triple_of(P)
    n1 = P.dimension + 1
    a_star = tuple(c + n1 for c in T.c)
    c_star = tuple(a - n1 for a in T.a)
    return a_star, T.b, c_star


def trapezoid_check(P: BlockedPartition, a: int, a_star: int,
                    c: int, c_star: int) -> bool:
    """Check the trapezoid rule on one quadruple.

    Preconditions: a in A, a* in A*, c in C, c* in C* (middle-fixed dual) and
    a* - a = c - c*.  Returns whether N+1 = a* - c = a - c*; this must hold
    for every such quadruple of an Ulrich partition, and a failure on a
    candidate partition certifies it non-Ulrich.
    """
    T = triple_of(P)
    astars, _, cstars = dual_blocks_centered(P)
    if a not in T.a or c not in T.c:
        raise ValueError("a must lie in A and c in C")
    if a_star not in astars or c_star not in cstars:
        raise ValueError("a* must lie in A* and c* in C*")
    if a_star - a != c - c_star:
        raise ValueError("hypothesis a* - a = c - c* not satisfied")
    n1 = P.dimension + 1
    return a_star - c == n1 and a - c_star == n1


def trapezoid_witnesses(P: BlockedPartition):
    """Yield every (a, a*, c, c*) quadruple satisfying the rule's hypothesis."""
    T = triple_of(P)
    astars, _, cstars = dual_blocks_centered(P)
    for a in T.a:
        for a_star in astars:
            for c in T.c:
                for c_star in cstars:
                    if a_star - a == c - c_star:
                        yield a, a_star, c, c_star


def rectangle_check(P: BlockedPartition) -> bool:
    """Check the rectangle rule: A and A* (resp. C and C*) share at most one entry."""
    T = triple_of(P)
    astars, _, cstars = dual_blocks_centered(P)
    return (len(set(T.a) & set(astars)) <= 1
            and len(set(T.c) & set(cstars)) <= 1)


def sumset_decompose(P: BlockedPartition):
    """Decompose a type (alpha, 1, gamma) partition into sumset form.

    After translating the middle entry to 0, the partition is Ulrich exactly
    when the shifted sets A' = A - 1 and C' = -C - 1 consist of even numbers
    and tile the interval [0, N-1] together with the averages (A' + C')/2,
    with no repeated average.  Returns (a_set, c_set, n_prime) on success and
    None if the decomposition fails; raises ValueError when the middle block
    is not a singleton or an outer block is empty.
    """
    blocks = P.blocks
    if len(blocks) != 3 or len(blocks[1]) != 1:
        raise ValueError("sumset form needs a singleton middle block")
    if not P.type.all_positive:
        raise ValueError("sumset form needs nonempty outer blocks")
    b = blocks[1][0]
    a_entries = [x - b for x in blocks[0]]
    c_entries = [-(x - b) for x in blocks[2]]
    if any(x % 2 == 0 for x in a_entries) or any(x % 2 == 0 for x in c_entries):
        return None
    a_set = {x - 1 for x in a_entries}
    c_set = {x - 1 for x in c_entries}
    n_prime = P.dimension - 1
    averages = [(x + y) // 2 for x in a_set for y in c_set]
    if len(set(averages)) != len(averages):
        return None
    union = a_set | c_set | set(averages)
    if a_set & c_set or (a_set | c_set) & set(averages):
        return None
    if union != set(range(n_prime + 1)):
        return None
    return (tuple(sorted(a_set)), tuple(sorted(c_set)), n_prime)

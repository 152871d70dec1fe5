"""Blocked partitions, their time evolution, and the Ulrich property.

A blocked partition is a strictly decreasing sequence of integers split into
r+1 blocks.  Under evolution, the entries of block i (1-based) drift with
velocity -(r+1-i): the first block moves fastest, the last block stands
still.  Two entries in different blocks therefore meet exactly once, at the
positive rational time (x - y)/(j - i) for x in block i, y in block j, i < j.

The partition is *Ulrich* when those N = sum_{i<j} l_i*l_j meeting times are
exactly the integers 1..N, each hit once.  ``meeting_mask`` is the one test of
that; ``is_ulrich`` adds a witness on failure.  Everything in this module is
exact integer/rational arithmetic; no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class FlagType:
    """Block-length vector (l_1, ..., l_{r+1}) of a blocked partition.

    The partial sums k_i = l_1 + ... + l_i identify the partial flag variety
    F(k_1, ..., k_r; n) on which a partition of this type lives.  Zero-length
    blocks are tolerated so the degenerate elongation seed with an empty
    middle block is representable; searches and the geometric dictionary only
    ever use all-positive types.
    """

    lengths: tuple[int, ...]

    def __post_init__(self):
        lengths = tuple(self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if len(lengths) < 2:
            raise ValueError("a blocked partition needs at least two blocks")
        if any(l < 0 for l in lengths):
            raise ValueError("block lengths must be nonnegative")
        if sum(lengths) < 2:
            raise ValueError("a blocked partition needs at least two entries")

    @property
    def r(self) -> int:
        """Number of steps in the flag; one less than the number of blocks."""
        return len(self.lengths) - 1

    @property
    def n(self) -> int:
        """Total number of entries."""
        return sum(self.lengths)

    @property
    def k(self) -> tuple[int, ...]:
        """Partial sums (k_1, ..., k_r) labelling the flag variety."""
        sums, acc = [], 0
        for l in self.lengths[:-1]:
            acc += l
            sums.append(acc)
        return tuple(sums)

    @property
    def dimension(self) -> int:
        """Number of cross-block pairs, sum of l_i*l_j over i < j."""
        total = 0
        for i, li in enumerate(self.lengths):
            for lj in self.lengths[i + 1:]:
                total += li * lj
        return total

    @property
    def all_positive(self) -> bool:
        return all(l >= 1 for l in self.lengths)

    def reversed(self) -> "FlagType":
        return FlagType(self.lengths[::-1])


@dataclass(frozen=True)
class BlockedPartition:
    """Strictly decreasing integer entries carved into the blocks of `type`."""

    type: FlagType
    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.type.n:
            raise ValueError(
                f"expected {self.type.n} entries for type {self.type.lengths}, "
                f"got {len(entries)}")
        if any(a <= b for a, b in zip(entries, entries[1:])):
            raise ValueError(f"entries must be strictly decreasing: {entries}")

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out, pos = [], 0
        for l in self.type.lengths:
            out.append(self.entries[pos:pos + l])
            pos += l
        return tuple(out)

    @property
    def dimension(self) -> int:
        return self.type.dimension

    def __str__(self) -> str:
        return format_partition(self)


def from_blocks(blocks) -> BlockedPartition:
    """Build a partition from an iterable of entry blocks."""
    blocks = [tuple(b) for b in blocks]
    lengths = tuple(len(b) for b in blocks)
    entries = tuple(e for b in blocks for e in b)
    return BlockedPartition(FlagType(lengths), entries)


def parse_partition(text: str) -> BlockedPartition:
    """Parse the wire format ``5|3,-1,-2,-4|-5`` (blocks |-separated)."""
    text = text.strip().replace("−", "-")
    if not text:
        raise ValueError("empty partition string")
    blocks = []
    for part in text.split("|"):
        part = part.strip()
        if not part:
            blocks.append(())
            continue
        try:
            blocks.append(tuple(int(tok.strip()) for tok in part.split(",")))
        except ValueError:
            raise ValueError(f"bad block {part!r} in partition string {text!r}") from None
    return from_blocks(blocks)


def format_partition(P: BlockedPartition) -> str:
    """Inverse of parse_partition."""
    return "|".join(",".join(str(e) for e in block) for block in P.blocks)


@dataclass(frozen=True)
class CollisionEvent:
    """A meeting of two entries: blocks/indices are 0-based, time is exact."""

    time: Fraction
    left: tuple[int, int]   # (block, index-in-block) of the faster entry
    right: tuple[int, int]  # (block, index-in-block) of the slower entry

    def label(self) -> str:
        return f"{entry_label(*self.left)}-{entry_label(*self.right)}"


def entry_label(block: int, index: int) -> str:
    """Human name for an entry: block letter plus 1-based position, e.g. a2."""
    if block >= 26:
        return f"B{block + 1}.{index + 1}"
    return f"{chr(ord('a') + block)}{index + 1}"


@dataclass(frozen=True)
class CollisionSchedule:
    """All cross-block meetings, sorted by time then by entry indices."""

    events: tuple[CollisionEvent, ...]

    @property
    def times(self) -> tuple[Fraction, ...]:
        return tuple(ev.time for ev in self.events)

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class UlrichVerdict:
    """Outcome of the Ulrich test, with a witness for failures.

    The witness is None on success, otherwise a pair (kind, time) where kind
    is one of "non-integral-time", "duplicate-time", "missing-time".
    """

    is_ulrich: bool
    witness: tuple[str, Fraction] | None

    def __bool__(self) -> bool:
        return self.is_ulrich


def velocity(b: int, r: int) -> int:
    """Velocity -(r - b) of block b (0-based) of an r-step type."""
    return b - r


def evolve(P: BlockedPartition, t: int) -> tuple[tuple[int, ...], ...]:
    """Entry positions at time t, block by block (repeats allowed)."""
    r = P.type.r
    return tuple(
        tuple(e + t * velocity(b, r) for e in block)
        for b, block in enumerate(P.blocks))


def collision_schedule(P: BlockedPartition) -> CollisionSchedule:
    """One event per cross-block pair; exactly N = P.dimension events."""
    blocks = P.blocks
    events = []
    for bi in range(len(blocks)):
        for bj in range(bi + 1, len(blocks)):
            d = bj - bi
            for k, x in enumerate(blocks[bi]):
                for h, y in enumerate(blocks[bj]):
                    events.append(
                        CollisionEvent(Fraction(x - y, d), (bi, k), (bj, h)))
    events.sort(key=lambda ev: (ev.time, ev.left, ev.right))
    return CollisionSchedule(tuple(events))


def meeting_mask(blocks, hi: int) -> int:
    """Covered-time bitmask of integer entry blocks, or -1 at the first bad pair.

    Bit t is set for each meeting time t.  A pair that meets at a non-integer
    time, outside [1, hi], or at a time already taken gives -1.  With hi = N
    a mask >= 0 is the Ulrich test: N distinct times in [1, N] cover it.
    """
    covered = 0
    for i, bi in enumerate(blocks):
        for j in range(i + 1, len(blocks)):
            d = j - i
            for x in bi:
                for y in blocks[j]:
                    t, rem = divmod(x - y, d)
                    if rem or t < 1 or t > hi:
                        return -1
                    bit = 1 << t
                    if covered & bit:
                        return -1
                    covered |= bit
    return covered


def is_ulrich(P: BlockedPartition) -> UlrichVerdict:
    """Test whether the meeting times are exactly the multiset {1, ..., N}.

    On failure the witness is the smallest meeting time that is non-integral
    or repeats an earlier one, else the first time in 1..N that no pair meets
    at.  Invalid partitions (non-decreasing entries) never reach here: the
    BlockedPartition constructor rejects them, which keeps "malformed input"
    distinct from a genuine negative verdict.
    """
    blocks, N = P.blocks, P.dimension
    if meeting_mask(blocks, N) >= 0:
        return UlrichVerdict(True, None)
    # Failures only: sort the times (x - y)/d as the integers (x - y)*(L/d).
    L = math.lcm(*range(1, len(blocks)))
    times = sorted((x - y) * (L // (j - i))
                   for i, bi in enumerate(blocks)
                   for j in range(i + 1, len(blocks))
                   for x in bi for y in blocks[j])
    for T, prev in zip(times, [None] + times):
        if T % L or T == prev:
            kind = "non-integral-time" if T % L else "duplicate-time"
            return UlrichVerdict(False, (kind, Fraction(T, L)))
    seen = set(times)
    s = next(s for s in range(1, N + 1) if s * L not in seen)
    return UlrichVerdict(False, ("missing-time", Fraction(s)))


def shift(P: BlockedPartition, c: int) -> BlockedPartition:
    """Translate every entry by c; an equivalence of partitions."""
    return BlockedPartition(P.type, tuple(e + c for e in P.entries))


def canonicalize(P: BlockedPartition) -> BlockedPartition:
    """The translation representative whose minimum entry is 0."""
    return shift(P, -P.entries[-1])


def equivalent(P: BlockedPartition, Q: BlockedPartition) -> bool:
    """True when P and Q differ by a translation."""
    return canonicalize(P) == canonicalize(Q)


def symmetric(P: BlockedPartition) -> BlockedPartition:
    """Negate and reverse; block lengths reverse.  An involution."""
    return BlockedPartition(
        P.type.reversed(), tuple(-e for e in reversed(P.entries)))


def dual(P: BlockedPartition) -> BlockedPartition:
    """Entries of P(N+1) with the block order reversed.

    For an Ulrich partition every pair has met strictly before time N+1, so
    the reversed-block sequence is strictly decreasing and the result is a
    valid partition whose meeting times are t -> N+1-t.  For other inputs the
    reversal can fail to decrease, in which case ValueError is raised.
    """
    t = P.dimension + 1
    evolved = evolve(P, t)
    blocks = evolved[::-1]
    flat = tuple(e for b in blocks for e in b)
    if any(a <= b for a, b in zip(flat, flat[1:])):
        raise ValueError(
            "dual is not a valid partition here: some pair has not met by "
            f"time {t} (the input is not Ulrich)")
    return from_blocks(blocks)


def congruence_ok(P: BlockedPartition) -> bool:
    """Necessary condition: entries of blocks i and j agree mod (j - i).

    Any failing pair of entries would meet at a non-integral time, so this is
    implied by (and much cheaper than) the full Ulrich test.  ``ulrich
    analyze`` reports it; the search folds the same congruences into the
    residues of its pair move instead of calling this.
    """
    blocks = P.blocks
    for bi in range(len(blocks)):
        for bj in range(bi + 2, len(blocks)):
            d = bj - bi
            residues = {e % d for e in blocks[bi]} | {e % d for e in blocks[bj]}
            if len(residues) > 1:
                return False
    return True

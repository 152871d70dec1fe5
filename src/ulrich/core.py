"""Blocked partitions, their time evolution, and the Ulrich property.

A blocked partition is a strictly decreasing sequence of integers split into
r+1 blocks.  Under evolution, the entries of block i (1-based) drift with
velocity -(r+1-i): the first block moves fastest, the last block stands
still.  Two entries in different blocks therefore meet exactly once, at the
positive rational time (x - y)/(j - i) for x in block i, y in block j, i < j.

The partition is *Ulrich* when those N = sum_{i<j} l_i*l_j meeting times are
exactly the integers 1..N, each hit once.  ``meeting_mask`` is the one test of
that; ``is_ulrich`` is its yes/no answer, and ``witness`` names a failure.
Everything in this module is exact integer arithmetic, no floats; only the
witness time is a rational.

The package's value types derive from ``Frozen``, which gives a
``__slots__`` class the contract of a frozen dataclass without importing
``dataclasses`` (and through it ``inspect`` and ``ast``): equality and hash
on the constructor fields named in ``_fields``, the dataclass ``repr``,
assignment and deletion refused, and pickling and copying through the
constructor.  Each class validates in ``__init__`` with ``if``/``raise``, so
the checks hold under ``python -O``.
"""

from __future__ import annotations

import functools
import operator


class Frozen:
    """Immutable value: equal, hashed and shown by its constructor fields.

    A subclass names its constructor fields, in constructor order, in
    ``_fields`` and lists them, and any derived values it stores, in
    ``__slots__`` (``_fields = __slots__`` when it stores nothing else).
    Its ``__init__`` stores each through
    ``object.__setattr__``; afterwards ``__setattr__`` and ``__delattr__``
    raise AttributeError, the base class of dataclasses'
    FrozenInstanceError.  Derived slots take no part in equality, hash,
    ``repr`` or pickling.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # One attrgetter per class: the field values as a tuple (a bare
        # value for one field), read in C.
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name)
                                     for name in self._fields)


class FlagType(Frozen):
    """Block-length vector (l_1, ..., l_{r+1}) of a blocked partition.

    The partial sums k_i = l_1 + ... + l_i identify the partial flag variety
    F(k_1, ..., k_r; n) on which a partition of this type lives.  Zero-length
    blocks are tolerated so the degenerate elongation seed with an empty
    middle block is representable; searches and the geometric dictionary only
    ever use all-positive types.

    ``n``, the total number of entries, and ``dimension``, the number of
    cross-block pairs sum_{i<j} l_i*l_j = (n^2 - sum l_i^2)/2, are computed
    once, here.
    """

    __slots__ = ("lengths", "n", "dimension")
    _fields = ("lengths",)

    def __init__(self, lengths: tuple[int, ...]):
        lengths = tuple(lengths)
        if len(lengths) < 2:
            raise ValueError("a blocked partition needs at least two blocks")
        # bool is an int subclass; type() refuses it with the floats.
        if not all(type(l) is int for l in lengths):
            raise ValueError(f"block lengths must be ints, got {lengths!r}")
        if min(lengths) < 0:
            raise ValueError("block lengths must be nonnegative")
        n = sum(lengths)
        if n < 2:
            raise ValueError("a blocked partition needs at least two entries")
        setattr_ = object.__setattr__
        setattr_(self, "lengths", lengths)
        setattr_(self, "n", n)
        setattr_(self, "dimension",
                 (n * n - sum([l * l for l in lengths])) // 2)

    @property
    def r(self) -> int:
        """Number of steps in the flag; one less than the number of blocks."""
        return len(self.lengths) - 1

    @property
    def k(self) -> tuple[int, ...]:
        """Partial sums (k_1, ..., k_r) labelling the flag variety."""
        sums, acc = [], 0
        for l in self.lengths[:-1]:
            acc += l
            sums.append(acc)
        return tuple(sums)

    @property
    def all_positive(self) -> bool:
        return all(l >= 1 for l in self.lengths)

    def reversed(self) -> "FlagType":
        return FlagType(self.lengths[::-1])


class BlockedPartition(Frozen):
    """Strictly decreasing integer entries carved into the blocks of `type`."""

    __slots__ = ("type", "entries")
    _fields = __slots__

    def __init__(self, type: FlagType, entries: tuple[int, ...]):
        entries = tuple(entries)
        if len(entries) != type.n:
            raise ValueError(
                f"expected {type.n} entries for type {type.lengths}, "
                f"got {len(entries)}")
        if not all(map(operator.gt, entries, entries[1:])):
            raise ValueError(f"entries must be strictly decreasing: {entries}")
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "entries", entries)

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


@functools.lru_cache(maxsize=512)
def _flag_type(lengths: tuple[int, ...]) -> FlagType:
    """The shared FlagType of block lengths this module has just counted.

    Only for lengths computed here as ``len`` of a block, so every key is a
    tuple of ints and a cache hit cannot let a float or bool length past
    the constructor's checks; a refused type raises and is not cached.
    ``FlagType(...)`` itself still builds a fresh, validated object.
    """
    return FlagType(lengths)


def from_blocks(blocks) -> BlockedPartition:
    """Build a partition from an iterable of entry blocks."""
    blocks = [tuple(b) for b in blocks]
    lengths = tuple([len(b) for b in blocks])
    entries = tuple([e for b in blocks for e in b])
    return BlockedPartition(_flag_type(lengths), entries)


def parse_partition(text: str) -> BlockedPartition:
    """Parse the wire format ``5|3,-1,-2,-4|-5`` (blocks |-separated)."""
    text = text.strip().replace("−", "-")
    if not text:
        raise ValueError("empty partition string")
    entries, lengths = [], []
    for part in text.split("|"):
        part = part.strip()
        if not part:
            lengths.append(0)
            continue
        toks = part.split(",")
        try:
            # int() ignores the whitespace around each token.
            entries += map(int, toks)
        except ValueError:
            raise ValueError(f"bad block {part!r} in partition string {text!r}") from None
        lengths.append(len(toks))
    return BlockedPartition(_flag_type(tuple(lengths)), entries)


@functools.lru_cache(maxsize=256)
def _template(lengths: tuple[int, ...]) -> str:
    """The ``str.format`` template of a type's wire format, e.g. "{},{}|{}"."""
    return "|".join(",".join(["{}"] * l) for l in lengths)


def format_partition(P: BlockedPartition) -> str:
    """Inverse of parse_partition; an empty block is written as nothing."""
    return _template(P.type.lengths).format(*P.entries)


def velocity(b: int, r: int) -> int:
    """Velocity -(r - b) of block b (0-based) of an r-step type."""
    return b - r


def evolve(P: BlockedPartition, t: int) -> tuple[tuple[int, ...], ...]:
    """Entry positions at time t, block by block (repeats allowed)."""
    r = P.type.r
    return tuple(
        tuple(e + t * velocity(b, r) for e in block)
        for b, block in enumerate(P.blocks))


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


def is_ulrich(P: BlockedPartition) -> bool:
    """Test whether the meeting times are exactly the multiset {1, ..., N}.

    Invalid partitions (non-decreasing entries) never reach here: the
    BlockedPartition constructor rejects them, which keeps "malformed input"
    distinct from a genuine negative verdict.
    """
    return meeting_mask(P.blocks, P.dimension) >= 0


def witness(P: BlockedPartition) -> tuple[str, Fraction] | None:
    """Why P is not Ulrich, or None when it is.

    The witness is a pair (kind, time): the smallest meeting time that is
    non-integral ("non-integral-time") or repeats an earlier one
    ("duplicate-time"), else the first time in 1..N that no pair meets at
    ("missing-time").  The time is a ``fractions.Fraction``.
    """
    blocks, N = P.blocks, P.dimension
    if meeting_mask(blocks, N) >= 0:
        return None
    # Sort the times (x - y)/d as the integers (x - y)*(L/d).  math and
    # fractions load here, so a CLI start needs neither.
    import math
    from fractions import Fraction
    L = math.lcm(*range(1, len(blocks)))
    times = sorted((x - y) * (L // (j - i))
                   for i, bi in enumerate(blocks)
                   for j in range(i + 1, len(blocks))
                   for x in bi for y in blocks[j])
    for T, prev in zip(times, [None] + times):
        if T % L or T == prev:
            kind = "non-integral-time" if T % L else "duplicate-time"
            return kind, Fraction(T, L)
    seen = set(times)
    s = next(s for s in range(1, N + 1) if s * L not in seen)
    return "missing-time", Fraction(s)


def shift(P: BlockedPartition, c: int) -> BlockedPartition:
    """Translate every entry by c; an equivalence of partitions."""
    return BlockedPartition(P.type, tuple(e + c for e in P.entries))


def canonicalize(P: BlockedPartition) -> BlockedPartition:
    """The translation representative whose minimum entry is 0."""
    return shift(P, -P.entries[-1])


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

    An empty block agrees with any other.  Any failing pair of entries would
    meet at a non-integral time, so this is implied by (and much cheaper
    than) the full Ulrich test.  ``ulrich analyze`` reports it; the search
    folds the same congruences into the residues of its pair move instead
    of calling this.
    """
    blocks = P.blocks
    for bi in range(len(blocks)):
        for bj in range(bi + 2, len(blocks)):
            d = bj - bi
            residues = {e % d for e in blocks[bi]} | {e % d for e in blocks[bj]}
            if len(residues) > 1 and blocks[bi] and blocks[bj]:
                return False
    return True

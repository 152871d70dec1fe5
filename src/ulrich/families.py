"""Constructors for the known families of Ulrich partitions.

Every constructor returns a verified partition: the Ulrich property and the
expected type are checked before the value is handed back, so a bug here
raises RuntimeError, even under -O, rather than contaminating later counts.

Families covered:

* ``one_n_one(n, signs)``    — type (1, n, 1), one class per sign pattern;
* ``two_one_k(m)``           — type (2, 1, k) with k = (4^(m+1) - 1) / 3;
* ``one_two_k(m)``           — type (1, 2, k), dual shape of the above;
* ``two_param(m1, m2)``      — type (k1 + k2, 2, 1) with two 4-power levels,
                               m1 == m2 included;
* ``fundamental_F(m)``       — type (2, m-1, 1) seeds of the elongation tower;
* ``elongate(P)``            — the tower step (2, s, 1) -> (2, s + 2m, 1);
* ``elongated_family(k, m)`` — E^k(F_m);
* ``p_u(u)``                 — the self-dual type (2, 2u, 2) member;
* ``sporadic(name)``         — the finitely many exceptional classes.
"""

from __future__ import annotations

from . import analysis, core
from .core import BlockedPartition


def _checked(P: BlockedPartition, lengths) -> BlockedPartition:
    if P.type.lengths != lengths:
        raise RuntimeError(f"built type {P.type}, wanted {lengths}")
    if not core.is_ulrich(P):
        raise RuntimeError(
            f"constructed partition {P} is not Ulrich: {core.witness(P)}")
    return P


def one_n_one(n: int, signs) -> BlockedPartition:
    """Type (1, n, 1): (n+1 | s_1*n, s_2*(n-1), ..., s_n*1 | -(n+1)).

    ``signs`` is an iterable of n values +1/-1 choosing the sign of each
    middle entry, largest magnitude first; magnitudes are n, n-1, ..., 1 and
    the resulting middle block is sorted.  Distinct sign patterns give
    inequivalent partitions, so this family has 2**n classes.
    """
    signs = tuple(signs)
    if n < 1:
        raise ValueError("n must be at least 1")
    if len(signs) != n or any(s not in (1, -1) for s in signs):
        raise ValueError(f"signs must be {n} values of +1 or -1")
    middle = sorted((s * (n - i) for i, s in enumerate(signs)), reverse=True)
    P = core.from_blocks(((n + 1,), middle, (-n - 1,)))
    return _checked(P, (1, n, 1))


def _level_length(m: int) -> int:
    """k = (4^(m+1) - 1) / 3, the long block's length at level m >= 0."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return (4 ** (m + 1) - 1) // 3


def two_one_k_c_set(m: int) -> tuple[int, ...]:
    """The set C' of the type (2, 1, k) family at level m, sorted increasing.

    C'(0) = {2}; C'(m) = 4 * C'(m-1) together with all c = 2 (mod 4) below
    4^(m+1).  Its size is k = ``_level_length(m)``.
    """
    _level_length(m)  # refuses a negative m
    cs = {2}
    for step in range(1, m + 1):
        cs = {4 * c for c in cs} | set(range(2, 4 ** (step + 1), 4))
    return tuple(sorted(cs))


def two_one_k(m: int) -> BlockedPartition:
    """Type (2, 1, k), k = (4^(m+1) - 1) / 3: the unique class at that type."""
    cs = two_one_k_c_set(m)
    k = _level_length(m)
    top = 4 ** (m + 1)
    P = core.from_blocks(((top + 1, 1), (0,), [-(c + 1) for c in cs]))
    return _checked(P, (2, 1, k))


def one_two_k(m: int) -> BlockedPartition:
    """Type (1, 2, k), k = (4^(m+1) - 1) / 3: runs of consecutive even entries.

    The third block is, for j = 0..m, the run of 4^j consecutive even
    integers descending from -4^(j+1) + 2*(4^j - 1) to -4^(j+1).
    """
    k = _level_length(m)
    c = []
    for j in range(m + 1):
        top = -(4 ** (j + 1)) + 2 * (4 ** j - 1)
        c.extend(range(top, -(4 ** (j + 1)) - 1, -2))
    P = core.from_blocks(((2,), (1, 0), sorted(c, reverse=True)))
    return _checked(P, (1, 2, k))


def two_param(m1: int, m2: int) -> BlockedPartition:
    """The two-parameter family of type (k1 + k2, 2, 1).

    Built by greedy replay: take the growth word of the dual of
    ``one_two_k(m1)`` (an Ulrich partition of type (k1, 2, 1)) and extend it
    by k2 further 'a' steps from the middle block (1, 0).  The diagonal
    m1 == m2 is included: two_param(0, 0) is 8,2|1,0|-4 of type (2, 2, 1).
    """
    k1, k2 = _level_length(m1), _level_length(m2)
    base = core.dual(one_two_k(m1))
    word = analysis.greedy_word(core.canonicalize(base)).letters
    T = analysis.replay(word + "a" * k2, (1, 0))
    P = T.as_partition()
    return _checked(P, (k1 + k2, 2, 1))


def fundamental_F(m: int) -> BlockedPartition:
    """The elongation seed F_m = (3m, m | m-1, ..., 1 | -m) of type (2, m-1, 1).

    F_1 = (3, 1 | | -1) has an empty middle block; it only serves as a seed
    for ``elongate`` and is excluded from type searches.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    P = core.from_blocks(((3 * m, m), range(m - 1, 0, -1), (-m,)))
    return _checked(P, (2, m - 1, 1))


def elongate(P: BlockedPartition) -> BlockedPartition:
    """One elongation step (y + 2m, y | b | -y) -> longer middle block.

    The input must have shape (y + 2m, y | b | -y) for a positive integer m,
    which the input fixes as m = (a1 - a2) / 2.  The output is

        (y + 5m, y + 3m | y + 3m - 1 .. y + 2m, b, -y - m .. -y - 2m + 1 | -y - 3m)

    of type (2, s + 2m, 1) where s is the input middle length.
    """
    blocks = P.blocks
    if len(blocks) != 3 or len(blocks[0]) != 2 or len(blocks[2]) != 1:
        raise ValueError("elongation needs shape (2, s, 1)")
    (a1, a2), b, (c1,) = blocks
    y = a2
    if c1 != -y:
        raise ValueError(f"elongation needs a2 = -c1, got {a2} and {c1}")
    if (a1 - a2) % 2:
        raise ValueError("elongation needs a1 - a2 even")
    m = (a1 - a2) // 2  # at least 1: blocks strictly decrease, so a1 > a2
    middle = (list(range(y + 3 * m - 1, y + 2 * m - 1, -1))
              + list(b)
              + list(range(-y - m, -y - 2 * m, -1)))
    Q = core.from_blocks(((y + 5 * m, y + 3 * m), middle, (-y - 3 * m,)))
    return _checked(Q, (2, len(b) + 2 * m, 1))


def elongated_family(k: int, m: int) -> BlockedPartition:
    """E^k(F_m): k elongation steps applied to the fundamental seed F_m.

    Type (2, m - 1 + 2km, 1).  Every type (2, n, 1) Ulrich class arises this
    way, once for each factorization n + 1 = m * (2k + 1).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    P = fundamental_F(m)
    for _ in range(k):
        P = elongate(P)
    return P


def p_u(u: int) -> BlockedPartition:
    """The type (2, 2u, 2) class P_u, fixed by the symmetric-dual composite.

    P_u = (6u+5, 2u+1 | 2u, 2u-2, ..., 2, -1, -3, ..., -2u+1 | -2u-1, -6u-3).
    """
    if u < 1:
        raise ValueError("u must be at least 1")
    middle = list(range(2 * u, 0, -2)) + list(range(-1, -2 * u, -2))
    P = core.from_blocks(((6 * u + 5, 2 * u + 1), middle, (-2 * u - 1, -6 * u - 3)))
    return _checked(P, (2, 2 * u, 2))


_SPORADIC = {
    "121": ((4,), (3, 0), (-2,)),
    "221": ((8, 6), (5, 0), (-2,)),
    "222": ((12, 4), (3, 0), (-2, -8)),
    "322": ((16, 10, 4), (3, 0), (-2, -12)),
}


def sporadic_names() -> tuple[str, ...]:
    return (*_SPORADIC, "223")


def sporadic(name: str) -> BlockedPartition:
    """The exceptional classes, keyed by their type string.

    "121", "221", "222" and "322" are stored; "223" is the mirror image of
    "322" (its symmetric partition).  "222" coincides with p_u(1) up to
    translation, but is listed for completeness of the small-type table.
    """
    if name == "223":
        return core.symmetric(sporadic("322"))
    if name not in _SPORADIC:
        raise ValueError(f"unknown sporadic name {name!r}; "
                         f"choose from {sporadic_names()}")
    lengths = tuple(int(ch) for ch in name)
    return _checked(core.from_blocks(_SPORADIC[name]), lengths)

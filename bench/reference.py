"""Answers the benchmark checks against, computed without the package.

Partitions are tuples of blocks, each block a strictly decreasing tuple of
ints.  The family formulas restate the published constructions so that the
benchmark can compare the package's constructors and search results with a
second source.
"""

from __future__ import annotations

import itertools


def dimension(lengths) -> int:
    """N: the number of cross-block pairs."""
    return sum(a * b for a, b in itertools.combinations(lengths, 2))


def text(blocks) -> str:
    """The package's wire format, e.g. ``12,4|3,0|-2,-8``."""
    return "|".join(",".join(str(e) for e in block) for block in blocks)


def is_ulrich(blocks) -> bool:
    """True when the meeting times (x - y)/(j - i) are exactly 1..N."""
    times = []
    for i, j in itertools.combinations(range(len(blocks)), 2):
        d = j - i
        for x in blocks[i]:
            for y in blocks[j]:
                t, rem = divmod(x - y, d)
                if rem:
                    return False
                times.append(t)
    return sorted(times) == list(range(1, len(times) + 1))


def canonical(blocks) -> tuple[tuple[int, ...], ...]:
    """Translate so the smallest entry is 0."""
    low = blocks[-1][-1]
    return tuple(tuple(e - low for e in block) for block in blocks)


def mirror(blocks) -> tuple[tuple[int, ...], ...]:
    """Negate and reverse: the partition of the reversed type."""
    return tuple(tuple(-e for e in reversed(block)) for block in reversed(blocks))


def one_n_one(n: int, signs) -> tuple:
    middle = sorted((s * (n - i) for i, s in enumerate(signs)), reverse=True)
    return ((n + 1,), tuple(middle), (-n - 1,))


def _two_one_k_c(m: int) -> list[int]:
    cs = {2}
    for step in range(1, m + 1):
        cs = {4 * c for c in cs} | set(range(2, 4 ** (step + 1), 4))
    return sorted(cs)


def two_one_k(m: int) -> tuple:
    top = 4 ** (m + 1)
    return ((top + 1, 1), (0,), tuple(-(c + 1) for c in _two_one_k_c(m)))


def one_two_k(m: int) -> tuple:
    c = []
    for j in range(m + 1):
        c.extend(range(-(4 ** (j + 1)) + 2 * (4 ** j - 1), -(4 ** (j + 1)) - 1, -2))
    return ((2,), (1, 0), tuple(sorted(c, reverse=True)))


def fundamental_F(m: int) -> tuple:
    return ((3 * m, m), tuple(range(m - 1, 0, -1)), (-m,))


def elongate(blocks) -> tuple:
    (a1, y), b, _ = blocks
    m = (a1 - y) // 2
    middle = (tuple(range(y + 3 * m - 1, y + 2 * m - 1, -1)) + tuple(b)
              + tuple(range(-y - m, -y - 2 * m, -1)))
    return ((y + 5 * m, y + 3 * m), middle, (-y - 3 * m,))


def elongated_family(k: int, m: int) -> tuple:
    P = fundamental_F(m)
    for _ in range(k):
        P = elongate(P)
    return P


def p_u(u: int) -> tuple:
    middle = tuple(range(2 * u, 0, -2)) + tuple(range(-1, -2 * u, -2))
    return ((6 * u + 5, 2 * u + 1), middle, (-2 * u - 1, -6 * u - 3))


SPORADIC = {
    "121": ((4,), (3, 0), (-2,)),
    "221": ((8, 6), (5, 0), (-2,)),
    "222": ((12, 4), (3, 0), (-2, -8)),
    "322": ((16, 10, 4), (3, 0), (-2, -12)),
}
SPORADIC["223"] = mirror(SPORADIC["322"])


def two_n_one_classes(n: int) -> set:
    """Canonical classes of type (2, n, 1): E^k(F_m) for n + 1 = m(2k + 1)."""
    out = set()
    for m in range(1, n + 2):
        q, rem = divmod(n + 1, m)
        if not rem and q % 2 == 1:
            out.add(canonical(elongated_family((q - 1) // 2, m)))
    return out


def one_n_one_classes(n: int) -> set:
    """Canonical classes of type (1, n, 1): one per sign pattern."""
    return {canonical(one_n_one(n, signs))
            for signs in itertools.product((1, -1), repeat=n)}

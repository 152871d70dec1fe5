"""Geometric counterpart of the collision combinatorics.

A blocked partition P with n entries encodes an equivariant vector bundle on
the partial flag variety Fl(k; n) whose steps are the partial sums of the
block lengths: the bundle's blockwise highest weight is lambda = P - rho,
where rho = (n-1, ..., 1, 0).  Twisting by time t subtracts t times the block
velocity from each entry, exactly as partition evolution does.

Bott's algorithm computes the cohomology of each twist: the weight
v = lambda(t) + rho = P(t) either has a repeated entry (all cohomology
is zero) or sorts to a dominant weight by a permutation with q inversions
(one cohomology group, in degree q, of known Schur dimension).  The partition
is Ulrich exactly when all twists t = 1..N vanish, which is the geometric
reading of the collision-time criterion.

Dimensions are computed by the hook-content formula and independently by
Weyl's dimension formula; degrees of flag varieties come from the leading
term of the Hilbert polynomial.  Each formula is a quotient of two integer
products, taken by one exact division that raises RuntimeError if it leaves
a remainder; no rational arithmetic is used.
"""

from __future__ import annotations

import bisect
import math
import operator

from . import core
from .core import BlockedPartition, FlagType, Frozen


def rho(n: int) -> tuple[int, ...]:
    """The staircase (n-1, n-2, ..., 1, 0)."""
    return tuple(range(n - 1, -1, -1))


class SchurWeight(Frozen):
    """A blockwise-dominant integral weight: weakly decreasing in each block."""

    __slots__ = ("type", "entries")
    _fields = __slots__

    def __init__(self, type: FlagType, entries: tuple[int, ...]):
        entries = tuple(entries)
        if len(entries) != type.n:
            raise ValueError(
                f"type {type} needs {type.n} entries, got {len(entries)}")
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "entries", entries)
        for block in self.blocks:
            if not all(map(operator.ge, block, block[1:])):
                raise ValueError(
                    "weight entries must be weakly decreasing within blocks")

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out, k = [], 0
        for l in self.type.lengths:
            out.append(self.entries[k:k + l])
            k += l
        return tuple(out)


def to_weight(P: BlockedPartition) -> SchurWeight:
    """The blockwise highest weight lambda = P - rho of the bundle of P."""
    n = P.type.n
    lam = [e - s for e, s in zip(P.entries, rho(n))]
    return SchurWeight(P.type, tuple(lam))


def _normalize_weight(mu, n: int):
    """Shift a weakly decreasing integer weight to a partition shape.

    Negative entries are only meaningful for GL(n) when all n entries are
    present (the shift is a determinant twist); fewer entries with negatives
    is rejected.
    """
    mu = tuple(mu)
    if any(x < y for x, y in zip(mu, mu[1:])):
        raise ValueError("weight must be weakly decreasing")
    if mu and mu[-1] < 0:
        if len(mu) != n:
            raise ValueError(
                "negative entries need all n weight entries to shift away")
        mu = tuple(x - mu[-1] for x in mu)
    while mu and mu[-1] == 0:
        mu = mu[:-1]
    return mu


def schur_dim(mu, n: int) -> int:
    """dim of the Schur module S_mu(C^n) by the hook-content formula.

    Taken row by row: the contents of row i are n-i, ..., n-i+row-1, one
    ``math.perm``, and over the columns parts[k+1] <= j < parts[k], all of
    length k+1, the hooks of row i are consecutive integers, one
    ``math.perm`` per run.  The last row's hooks are row, ..., 1, so its
    contents over its hooks are one ``math.comb``.  So the work grows with
    the number of rows, not with the number of boxes.
    """
    parts = _normalize_weight(mu, n)
    if len(parts) > n:
        return 0
    below = parts[1:] + (0,)
    num = den = 1
    for i, row in enumerate(parts[:-1]):
        num *= math.perm(n - i + row - 1, row)
        for k in range(i, len(parts)):
            # The hook of box (i, j) in a column of length k+1 is
            # row - j + k - i; j runs from below[k] up to parts[k] - 1.
            den *= math.perm(row - below[k] + k - i, parts[k] - below[k])
    if parts:
        i = len(parts) - 1
        num *= math.comb(n - i + parts[i] - 1, parts[i])
    dim, rem = divmod(num, den)
    if rem:
        raise RuntimeError("hook-content product must divide exactly")
    return dim


def schur_dim_weyl(mu, n: int) -> int:
    """dim of S_mu(C^n) by Weyl's formula: an independent cross-check.

    The product over i < j of (mu_i - mu_j + j - i) / (j - i), taken as one
    integer product over another and one exact division.  A pair with both
    rows in the zero tail contributes (j - i) / (j - i) = 1, so only the
    nonzero rows start a pair; row i's denominators multiply to (n-1-i)!.
    """
    parts = _normalize_weight(mu, n)
    if len(parts) > n:
        return 0
    full = parts + (0,) * (n - len(parts))
    num = den = 1
    for i, row in enumerate(parts):
        for j in range(i + 1, n):
            num *= row - full[j] + j - i
        den *= math.factorial(n - 1 - i)
    dim, rem = divmod(num, den)
    if rem:
        raise RuntimeError(
            f"Weyl's formula gave a non-integer dimension {num}/{den}")
    return dim


def bundle_rank(w: SchurWeight) -> int:
    """Rank of the bundle: product of blockwise Schur dimensions."""
    out = 1
    for block, l in zip(w.blocks, w.type.lengths):
        if l:
            out *= schur_dim(block, l)
    return out


def twist(w: SchurWeight, t: int) -> SchurWeight:
    """Time-t twist: subtract t times the block velocity from each block.

    Matches partition evolution: to_weight(P) twisted by t has
    v + rho = P(t).
    """
    r = w.type.r
    entries = []
    for b, block in enumerate(w.blocks):
        entries.extend(x - t * (r - b) for x in block)
    return SchurWeight(w.type, tuple(entries))


class CohomologyAnswer(Frozen):
    """Cohomology of one twist: at most one nonzero group, by Bott.

    ``degree`` is None exactly when all cohomology is zero (dimension 0);
    otherwise H^degree is the Schur module of ``weight`` with the given
    dimension.
    """

    __slots__ = ("degree", "dimension", "weight")
    _fields = __slots__

    def __init__(self, degree: int | None, dimension: int,
                 weight: tuple[int, ...] | None):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "weight", weight)


def bwb_cohomology(w: SchurWeight, t: int = 0) -> CohomologyAnswer:
    """Bott's algorithm on the time-t twist of the bundle of w."""
    n = w.type.n
    v = [x + s for x, s in zip(twist(w, t).entries, rho(n))]
    if len(set(v)) < n:
        return CohomologyAnswer(None, 0, None)
    # q counts the pairs i < j with v[i] < v[j]: for each entry, the
    # smaller entries before it, found in the sorted list of those seen.
    q, seen = 0, []
    for x in v:
        k = bisect.bisect_left(seen, x)
        q += k
        seen.insert(k, x)
    mu = tuple(x - s for x, s in zip(sorted(v, reverse=True), rho(n)))
    dim = schur_dim(mu, n)
    if dim != schur_dim_weyl(mu, n):
        raise RuntimeError("hook-content vs Weyl mismatch")
    return CohomologyAnswer(q, dim, mu)


def is_ulrich_via_bwb(P: BlockedPartition) -> bool:
    """The geometric Ulrich test: every twist t = 1..N is Bott-singular.

    Only the repeated-entry check is needed (no dimensions), so this is fast
    and entirely independent of the meeting-time kernel ``core.meeting_mask``.
    """
    r = P.type.r
    moves = [(e, r - b) for b, block in enumerate(P.blocks) for e in block]
    n = len(moves)
    for t in range(1, P.dimension + 1):
        if len({e - t * m for e, m in moves}) == n:
            return False
    return True


def flag_dimension(ft: FlagType) -> int:
    """dim Fl(k; n), computed two ways and cross-checked.

    Sum of l_i * l_j over block pairs, and equivalently the sum over steps of
    (k_i - k_{i-1}) * (n - k_i).
    """
    ft = FlagType(ft.lengths)
    pairs = ft.dimension
    n = ft.n
    ks = (0,) + ft.k
    steps = sum((ks[i] - ks[i - 1]) * (n - ks[i]) for i in range(1, len(ks)))
    if pairs != steps:
        raise RuntimeError("the two dimension formulas disagree")
    return pairs


class PolarizationWeights(Frozen):
    """Ample class sum(a_i * omega_{k_i}) on a flag variety with r steps.

    ``a`` lists one positive coefficient per step; ``block_levels`` converts
    to the constant value the class takes on each block (suffix sums, last
    block 0).
    """

    __slots__ = ("a",)
    _fields = __slots__

    def __init__(self, a: tuple[int, ...]):
        a = tuple(a)
        if not a or any(x < 1 for x in a):
            raise ValueError("polarization coefficients must be >= 1")
        object.__setattr__(self, "a", a)

    def block_levels(self) -> tuple[int, ...]:
        levels, acc = [0], 0
        for x in reversed(self.a):
            acc += x
            levels.append(acc)
        return tuple(reversed(levels))


def _superfactorial(k: int) -> int:
    """1! * 2! * ... * k!: the product of j - i over all 0 <= i < j <= k."""
    out = fact = 1
    for j in range(2, k + 1):
        fact *= j
        out *= fact
    return out


def flag_degree(ft: FlagType, polarization: PolarizationWeights | None = None) -> int:
    """Degree of Fl(k; n) under the polarization (default: all ones).

    The Hilbert polynomial of the polarization is Weyl's dimension formula
    with the weight scaled by t; pairs inside a block contribute 1, and each
    cross-block pair (i, j) contributes (t*(c_u - c_w) + j - i)/(j - i), so
    the leading coefficient gives

        deg = N! * prod_{u<w} (c_u - c_w)^(l_u l_w) / prod_{cross pairs} (j - i).

    The product of j - i over all pairs of the n positions is sf(n-1), and
    over the pairs inside a block of length l it is sf(l-1), where
    sf(k) = 1! * 2! * ... * k!, so the denominator is itself a quotient.
    Each quotient is of two integer products, taken by one exact division.
    """
    ft = FlagType(ft.lengths)
    if not ft.all_positive:
        raise ValueError("degree needs every block nonempty")
    r = ft.r
    polarization = polarization or PolarizationWeights((1,) * r)
    if len(polarization.a) != r:
        raise ValueError(f"{r}-step flag needs {r} polarization coefficients")
    levels = polarization.block_levels()
    lengths = ft.lengths
    num = math.factorial(ft.dimension)
    for u, lu in enumerate(lengths):
        for w in range(u + 1, len(lengths)):
            num *= (levels[u] - levels[w]) ** (lu * lengths[w])
    every = _superfactorial(ft.n - 1)
    inner = math.prod(_superfactorial(l - 1) for l in lengths)
    den, rem = divmod(every, inner)
    if rem:
        raise RuntimeError(
            f"cross-pair product must be an integer, got {every}/{inner}")
    deg, rem = divmod(num, den)
    if rem or deg <= 0:
        raise RuntimeError(
            f"degree must be a positive integer, got {num}/{den}")
    return deg


def ulrich_identity_check(P: BlockedPartition,
                          polarization: PolarizationWeights | None = None):
    """Check h^0(E) = rank(E) * deg(X) for the bundle of P.

    Returns (h0, rank, degree, holds).  The identity is the hallmark of an
    Ulrich bundle: its pushforward to projective space under the polarization
    is a trivial module of rank deg(X) * rank(E).
    """
    w = to_weight(P)
    h0_answer = bwb_cohomology(w, 0)
    h0 = h0_answer.dimension if h0_answer.degree in (0, None) else 0
    rank = bundle_rank(w)
    degree = flag_degree(P.type, polarization)
    return h0, rank, degree, h0 == rank * degree

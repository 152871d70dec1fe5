"""Exhaustive search for Ulrich partitions of a given type.

Two independent engines:

* ``baseline_oracle`` enumerates every canonical partition of the type inside
  the collision-time windows and filters by the Ulrich test.  It is simple
  enough to trust outright but only feasible for small dimension (N <= 14);
  its role is to certify the fast engine on small types.

* ``time_branching_search`` walks times 1..N in order.  At each state the
  smallest uncovered time t0 must be realized by a collision involving at
  least one entry not yet placed, and the geometry of constant-velocity
  motion forces where that entry can sit:

  - one new entry in block b meeting an already-placed entry must sit, at
    time t0, exactly at the highest position among placed entries of later
    blocks (it descends faster than they do, so anything it sits below was
    crossed earlier, double-booking a covered time), or symmetrically at the
    lowest position among placed entries of earlier blocks;

  - two new entries in blocks i < j meeting each other range over a finite
    window of common positions, each placed entry contributing a two-sided
    bound because every pair must cross at an integer time in [t0, N].
    Each open block's window is worked out once per node, and a pair's
    window is the overlap of its two blocks' windows.  Integer crossings
    also force a congruence: a new entry x of block s meets a placed entry
    v of block m at the time (x - v)/(m - s), so x = v (mod |m - s|).  The
    conditions of one block fold into a single x = r (mod M), or into
    none; the two blocks of a pair combine by the Chinese remainder theorem
    into one congruence for the meeting position, and the window is walked
    in steps of its modulus.  The skipped positions are exactly those whose
    crossing test fails on a remainder, so the stepping drops no child and
    only saves the tests.  The residues are worked out only for blocks of
    a pair whose window is not empty.

  Every branch is validated by computing the new entry's crossing times with
  all placed entries: each must be an integer in [t0, N] whose slot is still
  free.  The very first move (time 1, nothing placed) pins the meeting
  position to 0, which fixes the translation gauge, so each equivalence
  class is discovered exactly once.  Partitions are reported in canonical
  form (smallest entry 0).

  Each node is one call of a recursive closure whose arguments are the
  covered-time bitmask and the number of placed entries.  The rest of
  the walk's state is kept per block and updated incrementally, as in
  Knuth's dancing links: the entries, the top and bottom entry, and two
  bitmasks of the entries (bit v + OFF and bit OFF - v) are pushed with
  each entry before a recursive call and restored after it, never rebuilt
  at a node.  Both moves read a block's top and bottom at t0 straight
  from its extremes (only the residues and the crossings with blocks two
  or more apart read every placed entry).  Against an adjacent block the
  crossing times are x - v or v - x; once the block's extremes put them
  all in [t0, N], the whole set of time bits is one right shift of a
  mask, and a clash is one AND with the covered times.

  There are two node functions, chosen by the number of blocks R.  A
  three-block type (a two-step flag, the types the paper classifies) gets
  one written out for R = 3: each block's targets, window and crossing
  test are straight-line code, with no loop over blocks.  Every other
  type gets the general one, which loops over the blocks.  Both visit the
  same children in the same order and share the rest of the walk.  The
  tests pin the node count of several types and digests of the visiting
  order, which guard both node functions.

Both engines report equivalence classes; symmetric partners are separate
classes unless equal as partitions.

``budget_seconds`` bounds the whole search, with any number of workers.
Every walk, serial, split prefix or subtree, reads the clock at its first
node and then every 1024 nodes, and nowhere else; so a spent budget stops
each walk at its root, and a split search stops at the first subtree the
budget stopped.  A sweep gives the budget to each type.
``_pool_map`` is the one runner of worker processes: forked workers, each
on its own pipe, fed from the calling thread with no helper thread.  A
worker that dies is an error, not a hang, and no worker outlives the
call.  It imports ``multiprocessing`` when it starts workers, not when
this module is imported.

Sweeps.  ``verify_no_multistep`` and ``verify_conjecture_sweep`` classify
many types through ``_run_type_sweep``, which keeps each ``SearchReport``
and writes it to the checkpoint as one JSONL line (``report_to_dict``);
only a resume reads lines back.  ``core.symmetric`` (negate, then reverse)
maps the classes of a type one to one onto those of the reversed type, and
the two search trees are isomorphic: meeting times are unchanged when
positions are negated and velocities reversed, and the gauge pairs, the
(B) targets and the (D) windows map onto each other.  So a sweep searches
one orientation of each mirror pair it is asked for and derives the other
(``_mirror_report``): the classes mirrored by ``_mirror_blocks``, the
source's node count and ``completed`` flag, no elapsed time, and
``mirror_of`` naming the source.
Types whose reverse is not requested are searched.  A palindromic type is
its own mirror, and the same isomorphism maps the subtree under its gauge
pair (i, j) onto the one under (R-1-j, R-1-i): ``time_branching_search``
walks one of each such pair and derives the other.  In every report
``nodes`` is the size of the type's whole tree; for a palindromic type
one mirror half of it is counted, not walked.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import sys
import time

from . import core
from .core import BlockedPartition, FlagType, Frozen


class SearchReport(Frozen):
    """Outcome of one type search.

    ``completed`` is False when the time budget stopped the search early,
    in which case ``classes`` and ``nodes`` are lower bounds, not a
    classification.  With ``workers > 1`` they vary from run to run: the
    subtrees still running in other workers are killed and their nodes are
    not counted.

    ``nodes`` is the size of the type's search tree.  For a palindromic
    type one mirror half of it is counted, not walked
    (``time_branching_search``).

    ``mirror_of`` is set on a report that a sweep derived from the search of
    the reversed type (``_mirror_report``): it names that source type, and
    the report inherits the source's ``nodes`` and ``completed`` flag.
    """

    __slots__ = ("type", "classes", "nodes", "elapsed", "completed",
                 "mirror_of")
    _fields = __slots__

    def __init__(self, type: FlagType, classes: tuple[BlockedPartition, ...],
                 nodes: int, elapsed: float, completed: bool,
                 mirror_of: tuple[int, ...] | None = None):
        setattr_ = object.__setattr__
        setattr_(self, "type", type)
        setattr_(self, "classes", classes)
        setattr_(self, "nodes", nodes)
        setattr_(self, "elapsed", elapsed)
        setattr_(self, "completed", completed)
        setattr_(self, "mirror_of", mirror_of)

    @property
    def count(self) -> int:
        return len(self.classes)


def _check_resources(budget_seconds, workers) -> None:
    """Refuse resources a search would misread, before it starts.

    ``budget_seconds`` is None (unlimited) or a real number of seconds >= 0,
    not NaN; ``workers`` is an int >= 1 (not a bool).  Anything else raises
    ValueError.
    """
    if budget_seconds is not None:
        import numbers
        # NaN >= 0 is False, so NaN fails too.
        if not (isinstance(budget_seconds, numbers.Real)
                and budget_seconds >= 0):
            raise ValueError("budget_seconds must be at least 0 or None, "
                             f"got {budget_seconds!r}")
    # bool is an int subclass; type() refuses it with the floats.
    if type(workers) is not int:
        raise ValueError(f"workers must be an int, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


class BudgetExhausted(Exception):
    """Raised internally when the budget trips; callers receive
    completed=False."""


# A node count no search reaches: the next clock read when there is no
# deadline.
_NEVER = 1 << 62


def report_to_dict(report: SearchReport) -> dict:
    data = {
        "schema": 1,
        "type": list(report.type.lengths),
        "classes": [core.format_partition(P) for P in report.classes],
        "count": report.count,
        "nodes": report.nodes,
        "elapsed": round(report.elapsed, 3),
        "completed": report.completed,
    }
    if report.mirror_of is not None:
        data["mirror_of"] = list(report.mirror_of)
    return data


def report_from_dict(data: dict) -> SearchReport:
    """Inverse of ``report_to_dict``; ValueError names a bad or missing field."""
    if not isinstance(data, dict):
        raise ValueError("a report record must be a JSON object")

    def field(key, *kinds, item=None):
        # Exact types: bool is an int subclass, and JSON true is no count.
        value = data.get(key)
        if type(value) not in kinds or item is not None and not all(
                type(v) is item for v in value):
            raise ValueError(f"report field {key!r} is missing or mistyped")
        return value

    mirror_of = data.get("mirror_of")
    ft = FlagType(tuple(field("type", list, item=int)))
    classes = tuple(core.parse_partition(s)
                    for s in field("classes", list, item=str))
    if any(P.type != ft for P in classes):
        raise ValueError("report field 'classes' holds a partition of "
                         "another type")
    if field("count", int) != len(classes):
        raise ValueError("report field 'count' does not match the number "
                         "of classes")
    nodes = field("nodes", int)
    if nodes < 0:
        raise ValueError("report field 'nodes' is negative")
    elapsed = field("elapsed", int, float)
    # NaN compares False, so NaN fails too.
    if not 0 <= elapsed < math.inf:
        raise ValueError("report field 'elapsed' is not a finite time >= 0")
    if mirror_of is not None:
        mirror_of = tuple(field("mirror_of", list, item=int))
        if mirror_of != ft.lengths[::-1] or mirror_of == ft.lengths:
            raise ValueError("report field 'mirror_of' is not the reversed "
                             "type of a type that is not a palindrome")
    return SearchReport(ft, classes, nodes, elapsed, field("completed", bool),
                        mirror_of)


# --------------------------------------------------------------------------
# Baseline oracle
# --------------------------------------------------------------------------

def _window_candidates(ft: FlagType):
    """Yield every canonical entry tuple of the given type inside the windows.

    Canonical means smallest entry 0 (it lives in the last block).  An entry
    of block i must reach position 0 by time N, bounding it by N*(r-i); the
    remaining entries of the last block are bounded by the entries above.
    """
    r = ft.r
    N = ft.dimension
    lengths = ft.lengths

    def rec(i, floor, acc):
        # Blocks are generated from the last (i = r) to the first (i = 0);
        # floor is the value every new entry must exceed.
        if i < 0:
            yield tuple(reversed(acc))
            return
        if i == r:
            pool = range(1, N)
            for picked in itertools.combinations(pool, lengths[i] - 1):
                yield from rec(i - 1, max(picked, default=0),
                               acc + [tuple(sorted(picked + (0,), reverse=True))])
        else:
            ceiling = N * (r - i)
            pool = range(floor + 1, ceiling + 1)
            for picked in itertools.combinations(pool, lengths[i]):
                yield from rec(i - 1, picked[-1],
                               acc + [tuple(sorted(picked, reverse=True))])

    yield from rec(r, 0, [])


def baseline_oracle(ft: FlagType) -> tuple[BlockedPartition, ...]:
    """Classify a type by direct enumeration.  Requires N <= 14."""
    if not ft.all_positive:
        raise ValueError("search types need every block nonempty")
    N = ft.dimension
    if N > 14:
        raise ValueError(f"baseline oracle is limited to N <= 14, got N = {N}")
    found = [core.from_blocks(blocks)
             for blocks in _window_candidates(ft)
             if core.meeting_mask(blocks, N) >= 0]
    return tuple(sorted(found, key=lambda P: P.entries))


# --------------------------------------------------------------------------
# Time-branching engine
# --------------------------------------------------------------------------

def _crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
    """Solve x = r1 (mod m1) and x = r2 (mod m2) for moduli >= 1.

    Returns (r, lcm(m1, m2)) with 0 <= r < lcm, or None when the two
    congruences have no common solution.
    """
    g = math.gcd(m1, m2)
    diff = r2 - r1
    if diff % g:
        return None
    k = diff // g * pow(m1 // g, -1, m2 // g) % (m2 // g)
    m = m1 // g * m2
    return (r1 + m1 * k) % m, m


@functools.lru_cache(maxsize=64)
def _type_tables(lengths):
    """The constants of ``_walk`` for one type, shared by all its walks.

    Entries of block m descend at speed vm[m] = R-1-m: an entry v sits at
    position v - shifts[t][m] at time t, with shifts[t][m] = t*vm[m].
    pairs lists the block pairs i < j; later[b] and earlier[b] the blocks
    after and before b; far[b] the pairs (m, |m - b|) with |m - b| >= 2.
    """
    R = len(lengths)
    N = FlagType(lengths).dimension
    vm = tuple(-core.velocity(m, R - 1) for m in range(R))
    shifts = tuple(tuple(t * v for v in vm) for t in range(N + 1))
    pairs = tuple((i, j) for i in range(R - 1) for j in range(i + 1, R))
    later = tuple(tuple(range(b + 1, R)) for b in range(R))
    earlier = tuple(tuple(range(b)) for b in range(R))
    far = tuple(tuple((m, abs(m - b)) for m in range(R) if abs(m - b) >= 2)
                for b in range(R))
    return N, shifts, pairs, later, earlier, far


def _walk(lengths, state, depth, deadline):
    """Search every completion of a partial placement, depth first.

    ``state`` is a snapshot (det, covered, placed), or None for the empty
    placement: ``det`` holds the placed entries per block, ``covered`` is a
    bitmask with bit t-1 set when time t is realized by a placed pair, and
    ``placed`` counts the placed entries.  States with ``depth`` entries
    placed are not expanded but returned as snapshots, in the order the
    search reaches them, so a worker process can resume them.  The root
    is ``gauge``; every other node is one call of ``dfs(covered, placed)``.
    The placed entries live in ``det``; each block's top and bottom entry,
    its entry masks ``fwd`` and ``rev`` and its ``room`` for more entries
    are built once from ``state``, then ``place`` pushes an entry onto all
    of them before a recursive call and ``unplace`` pops it and restores
    the saved values after it.  ``crosses[b]`` tests a new entry of block
    b: an adjacent block by one shift of its mask, other blocks entry by
    entry.  The constants of the type come from ``_type_tables``.

    There are two node functions, chosen by the number of blocks.  A
    three-block type (a two-step flag) gets one written out for R = 3: it
    reads the six block extremes once, works out each open block's (B)
    targets and (D) window without a loop over blocks, and its three
    crossing tests name their blocks and distances.  Every other type gets
    the general one, which loops over the blocks.  Both visit the same
    children in the same order, and share everything else: the state,
    ``place``/``unplace``, ``descend``, ``leaf``, ``tick``, the gauge move
    and the (D) pair loop ``pair_moves``.

    Returns (found, frontier, nodes, completed): the canonical blocks of
    each class found, the snapshots, the node count, and whether the walk
    ran to the end.  Past ``deadline`` the walk stops with the classes
    found so far and no snapshots: the clock is read at the first node and
    then every 1024 nodes, and nowhere else.
    """
    R = len(lengths)
    N, shifts, pairs, later, earlier, far = _type_tables(lengths)
    total = sum(lengths)
    stop = total if depth is None else min(depth, total)
    det, covered, placed = state or ([()] * R, 0, 0)
    det = [list(block) for block in det]
    found = []
    frontier = []
    # room[b]: how many entries block b still lacks.
    room = [lengths[b] - len(det[b]) for b in range(R)]
    # Every placed entry v obeys |v| <= (R-1)(N+1): it meets an entry e
    # of the gauge pair in another block at a time t in [1, N], so
    # |v - e| = t*|m - b| <= N(R-1), and a gauge entry is in [0, R-1].  A
    # candidate x reaches a mask only as a (B) target, which meets a
    # placed entry at t0, or after an adjacent block's range check, which
    # puts a crossing time in [t0, N]; either way |x - v| <= N(R-1) for a
    # placed v.  So OFF = (R-1)(N+1) + N(R-1) keeps every bit index and
    # shift count >= 0; Python's ValueError on a negative shift would
    # expose a bound that is too small.
    OFF = (R - 1) * (2 * N + 1)
    # Per block: top and bottom entry, and the entries as bit v + OFF of
    # fwd and bit OFF - v of rev.  An empty block has top -FAR and bottom
    # FAR.  A real position, bound or candidate lies within OFF + N(R-1)
    # of 0, and a sentinel moved to t0 stays beyond 2*OFF - N(R-1), which
    # is more; so an empty block never wins a max or a min, passes every
    # range check, and adds no crossing time with its mask 0.  place()
    # pushes an entry and returns what unplace() restores when it is
    # popped.
    FAR = 2 * OFF
    top = [max(blk, default=-FAR) for blk in det]
    bot = [min(blk, default=FAR) for blk in det]
    fwd = [sum(1 << (v + OFF) for v in blk) for blk in det]
    rev = [sum(1 << (OFF - v) for v in blk) for blk in det]
    nodes = 0
    # The node count at which the clock is read next.
    due = _NEVER if deadline is None else 1

    def tick():
        nonlocal due
        if time.monotonic() > deadline:
            raise BudgetExhausted
        due = (nodes // 1024 + 1) * 1024

    def leaf(covered, placed):
        if placed < total:
            frontier.append(([blk[:] for blk in det], covered, placed))
            return
        blocks = [sorted(block, reverse=True) for block in det]
        low = blocks[-1][-1]
        found.append(tuple(tuple(v - low for v in block)
                           for block in blocks))

    def place(b, x):
        saved = top[b], bot[b], fwd[b], rev[b]
        det[b].append(x)
        room[b] -= 1
        if x > saved[0]:
            top[b] = x
        if x < saved[1]:
            bot[b] = x
        fwd[b] |= 1 << (x + OFF)
        rev[b] |= 1 << (OFF - x)
        return saved

    def unplace(b, saved):
        det[b].pop()
        room[b] += 1
        top[b], bot[b], fwd[b], rev[b] = saved

    def descend(b, x, acc, placed):
        """The (B) child: x joins block b, with covered times acc.  Most
        children are (B) children, so place() and unplace() are inlined."""
        blk = det[b]
        saved_top, saved_bot = top[b], bot[b]
        saved_fwd, saved_rev = fwd[b], rev[b]
        blk.append(x)
        room[b] -= 1
        if x > saved_top:
            top[b] = x
        if x < saved_bot:
            bot[b] = x
        fwd[b] = saved_fwd | 1 << (x + OFF)
        rev[b] = saved_rev | 1 << (OFF - x)
        dfs(acc, placed + 1)
        blk.pop()
        room[b] += 1
        top[b], bot[b] = saved_top, saved_bot
        fwd[b], rev[b] = saved_fwd, saved_rev

    def residue(s):
        """The congruence x = r (mod M), as (r, M), that a new entry x
        of block s meets exactly when its crossings with the placed
        entries are all integers; None when no x does."""
        r, M = 0, 1
        for m, d in far[s]:
            blk = det[m]
            if not blk:
                continue
            v0 = blk[0] % d
            for v in blk:
                if v % d != v0:
                    return None
            solved = _crt(r, M, v0, d)
            if solved is None:
                return None
            r, M = solved
        return r, M

    def pair_moves(windows, t0, covered, placed):
        """(D) two new entries in blocks i < j meet each other at t0.

        ``windows`` holds (s, lo, hi) for each open block whose window of
        positions at t0 is not empty; a pair's window is the overlap of
        its blocks' windows.  The crossings of a new entry x of block s
        with a placed entry v of block m are integers only if
        x = v (mod |m-s|); residue(s) folds these into one congruence
        x = r (mod M), worked out once per node and only for blocks of a
        pair whose window is open.
        """
        shift = shifts[t0]
        covered |= 1 << (t0 - 1)
        residues = {}
        for (i, lo, hi), (j, lo_j, hi_j) in itertools.combinations(
                windows, 2):
            if lo_j > lo:
                lo = lo_j
            if hi_j < hi:
                hi = hi_j
            if lo > hi:
                continue
            if i not in residues:
                residues[i] = residue(i)
            if j not in residues:
                residues[j] = residue(j)
            ri, rj = residues[i], residues[j]
            if ri is None or rj is None:
                continue
            si, sj = shift[i], shift[j]
            # x = p + si and y = p + sj: one congruence for p.
            step = _crt(ri[0] - si, ri[1], rj[0] - sj, rj[1])
            if step is None:
                continue
            rp, M = step
            cross_i, cross_j = crosses[i], crosses[j]
            for p in range(lo + (rp - lo) % M, hi + 1, M):
                x = p + si
                y = p + sj
                acc = cross_i(x, t0, covered)
                if acc < 0:
                    continue
                acc = cross_j(y, t0, acc)
                if acc < 0:
                    continue
                saved_i = place(i, x)
                saved_j = place(j, y)
                dfs(acc, placed + 2)
                unplace(j, saved_j)
                unplace(i, saved_i)

    def gauge():
        """The root, with nothing placed: the pair realizing time 1 sits
        at 0, which fixes the translation gauge."""
        nonlocal nodes
        nodes += 1
        if nodes >= due:
            tick()
        for i, j in pairs:
            saved_i = place(i, shifts[1][i])
            saved_j = place(j, shifts[1][j])
            dfs(1, 2)
            unplace(j, saved_j)
            unplace(i, saved_i)

    # (B) one new entry in block b meets a placed one: at the top of the
    # later blocks or at the bottom of the earlier ones.  (D) two new
    # entries in blocks i < j meet each other at a position p.  Every
    # placed entry at position q in block m bounds where a new entry of
    # block s != m may sit at t0, since the two must cross at a time in
    # [t0, N]: p in [q+1, q+span*(m-s)] when m > s and p in
    # [q-span*(s-m), q-1] when m < s.  The block's top and bottom at t0,
    # top[m] - shift[m] and bot[m] - shift[m], give the tightest of these
    # bounds.
    if R == 3:
        # Block m descends at speed 2 - m: shifts[t0] = (2*t0, t0, 0), and
        # a new entry x of block b meets v of block m at (x - v)/(m - b).
        det0, _, det2 = det

        def cross_0(x, t0, acc):
            """The crossing test of block 0: block 1 by a shift, block 2
            entry by entry."""
            if top[1] > x - t0 or bot[1] < x - N:
                return -1
            times = rev[1] >> (OFF + 1 - x)
            if acc & times:
                return -1
            acc |= times
            for v in det2:
                d = x - v
                if d & 1:
                    return -1
                t = d >> 1
                if t < t0 or t > N:
                    return -1
                bit = 1 << (t - 1)
                if acc & bit:
                    return -1
                acc |= bit
            return acc

        def cross_1(x, t0, acc):
            """The crossing test of block 1: blocks 0 and 2 by a shift
            each."""
            if bot[0] < x + t0 or top[0] > x + N:
                return -1
            if top[2] > x - t0 or bot[2] < x - N:
                return -1
            times = fwd[0] >> (x + OFF + 1)
            if acc & times:
                return -1
            times2 = rev[2] >> (OFF + 1 - x)
            if (acc | times) & times2:
                return -1
            return acc | times | times2

        def cross_2(x, t0, acc):
            """The crossing test of block 2: block 1 by a shift, block 0
            entry by entry."""
            if bot[1] < x + t0 or top[1] > x + N:
                return -1
            times = fwd[1] >> (x + OFF + 1)
            if acc & times:
                return -1
            acc |= times
            for v in det0:
                d = v - x
                if d & 1:
                    return -1
                t = d >> 1
                if t < t0 or t > N:
                    return -1
                bit = 1 << (t - 1)
                if acc & bit:
                    return -1
                acc |= bit
            return acc

        crosses = cross_0, cross_1, cross_2

        def dfs(covered, placed):
            nonlocal nodes
            nodes += 1
            if nodes >= due:
                tick()
            if placed >= stop:
                leaf(covered, placed)
                return
            t0 = ((covered + 1) & ~covered).bit_length()
            span = N - t0
            t2 = t0 + t0
            top0, top1, top2 = top
            bot0, bot1, bot2 = bot
            windows = []
            if room[0]:
                # Its one target is the top of blocks 1 and 2 at t0.
                q = top1 - t0
                if top2 > q:
                    q = top2
                hi = bot1 - t0 + span
                if bot2 + span + span < hi:
                    hi = bot2 + span + span
                if q < hi:
                    windows.append((0, q + 1, hi))
                acc = cross_0(q + t2, t0, covered)
                if acc >= 0:
                    descend(0, q + t2, acc, placed)
            if room[1]:
                # The top of block 2 and the bottom of block 0 at t0; the
                # set fixes the order the two targets are tried in.
                high = top2
                low = bot0 - t2
                lo = top0 - t2 - span
                if high >= lo:
                    lo = high + 1
                hi = bot2 + span
                if low <= hi:
                    hi = low - 1
                if lo <= hi:
                    windows.append((1, lo, hi))
                if not det0:
                    targets = (high,)
                elif not det2:
                    targets = (low,)
                else:
                    targets = {high, low}
                for q in targets:
                    acc = cross_1(q + t0, t0, covered)
                    if acc >= 0:
                        descend(1, q + t0, acc, placed)
            if room[2]:
                # Its one target is the bottom of blocks 0 and 1 at t0.
                q = bot0 - t2
                if bot1 - t0 < q:
                    q = bot1 - t0
                lo = top0 - t2 - span - span
                if top1 - t0 - span > lo:
                    lo = top1 - t0 - span
                if lo < q:
                    windows.append((2, lo, q - 1))
                acc = cross_2(q, t0, covered)
                if acc >= 0:
                    descend(2, q, acc, placed)
            if len(windows) > 1:
                pair_moves(windows, t0, covered, placed)
    else:
        # others[b]: (m, m - b, entries) for every block m other than b.
        others = [[(m, m - b, det[m]) for m in range(R) if m != b]
                  for b in range(R)]

        def crosser(b):
            def cross(x, t0, acc):
                """acc plus the crossing-time bits of entry x new in
                block b.

                Every crossing with a placed entry must be an integer
                time in [t0, N] whose bit is clear in acc; otherwise
                returns -1.  Against an adjacent block the crossing times
                are x - v (m = b + 1) or v - x (m = b - 1); once the
                block's top and bottom put them all in [t0, N], bit t-1
                of each is one shift of rev or fwd.
                """
                for m, d, blk in others[b]:
                    # An empty block would pass; skipping it is faster.
                    if not blk:
                        continue
                    if d == 1:
                        if top[m] > x - t0 or bot[m] < x - N:
                            return -1
                        times = rev[m] >> (OFF + 1 - x)
                    elif d == -1:
                        if bot[m] < x + t0 or top[m] > x + N:
                            return -1
                        times = fwd[m] >> (x + OFF + 1)
                    else:
                        for v in blk:
                            t, rem = divmod(x - v, d)
                            if rem or t < t0 or t > N:
                                return -1
                            bit = 1 << (t - 1)
                            if acc & bit:
                                return -1
                            acc |= bit
                        continue
                    if acc & times:
                        return -1
                    acc |= times
                return acc
            return cross

        crosses = [crosser(b) for b in range(R)]

        def dfs(covered, placed):
            nonlocal nodes
            nodes += 1
            if nodes >= due:
                tick()
            if placed >= stop:
                leaf(covered, placed)
                return
            t0 = ((covered + 1) & ~covered).bit_length()
            span = N - t0
            shift = shifts[t0]
            windows = []
            for b in range(R):
                if not room[b]:
                    continue
                high = low = lo = hi = None
                for m in later[b]:
                    if det[m]:
                        q = top[m] - shift[m]
                        if high is None or q > high:
                            high = q
                        q = bot[m] - shift[m] + span * (m - b)
                        if hi is None or q < hi:
                            hi = q
                for m in earlier[b]:
                    if det[m]:
                        q = bot[m] - shift[m]
                        if low is None or q < low:
                            low = q
                        q = top[m] - shift[m] - span * (b - m)
                        if lo is None or q > lo:
                            lo = q
                if high is None:
                    targets = (low,)
                    hi = low - 1
                elif low is None:
                    targets = (high,)
                    lo = high + 1
                else:
                    # The set fixes the order the two targets are tried in.
                    targets = {high, low}
                    if high >= lo:
                        lo = high + 1
                    if low <= hi:
                        hi = low - 1
                if lo <= hi:
                    windows.append((b, lo, hi))
                cross = crosses[b]
                for q in targets:
                    # x is not yet in block b: it meets a placed entry of
                    # another block at t0, so were it placed, t0 would be
                    # covered.
                    x = q + shift[b]
                    acc = cross(x, t0, covered)
                    if acc >= 0:
                        descend(b, x, acc, placed)
            if len(windows) > 1:
                pair_moves(windows, t0, covered, placed)

    try:
        if placed:
            dfs(covered, placed)
        else:
            gauge()
    except BudgetExhausted:
        return found, [], nodes, False
    return found, frontier, nodes, True


def _serve(fn, conn, parent_ends):
    """A worker of ``_pool_map``: answer each job received on ``conn`` with
    (True, fn(job)) or (False, its exception), until the job None.

    The parent's ends of the pipes came with the fork.  They are closed
    first, so that when the parent dies, ``conn`` reads EOF, or a reply
    finds the pipe broken, and the worker stops.
    """
    for end in parent_ends:
        end.close()
    with contextlib.suppress(EOFError, BrokenPipeError):
        for job in iter(conn.recv, None):
            try:
                reply = True, fn(job)
            except Exception as exc:
                reply = False, exc
            conn.send(reply)


def _pool_map(fn, jobs, workers: int):
    """Yield fn(job) for every job of a list, in completion order.

    With one worker, or fewer than two jobs, the jobs run here in order.
    Otherwise min(workers, len(jobs)) forked processes (Linux) run them,
    each ``_serve``-ing one job at a time on its own pipe; ``fn`` is
    inherited through the fork, not pickled, and no job may be None.  This
    thread hands out the jobs and waits for the results: no helper thread
    is started.  A job's exception is raised here with its own type, and a
    worker that dies raises ChildProcessError (an OSError, so the CLI
    reports it as one ``error:`` line) with its exit code.  Closing the
    generator, or any error, kills the workers, and every one is joined;
    if this process dies, each worker stops when it next uses its pipe.
    ``multiprocessing`` is imported only here, when workers are started,
    so a serial search or a CLI start does not load it.
    """
    if workers <= 1 or len(jobs) < 2:
        yield from map(fn, jobs)
        return
    import multiprocessing
    from multiprocessing.connection import wait
    ctx = multiprocessing.get_context("fork")
    todo = iter(jobs)
    started = []
    ends = []
    # busy[conn]: the process working on the job sent on conn.
    busy = {}
    try:
        for job in itertools.islice(todo, workers):
            conn, child = ctx.Pipe()
            ends.append(conn)
            proc = ctx.Process(target=_serve, args=(fn, child, ends),
                               daemon=True)
            proc.start()
            started.append(proc)
            # Only the worker holds its end now, so its death reads as EOF.
            child.close()
            conn.send(job)
            busy[conn] = proc
        while busy:
            for conn in wait(busy):
                try:
                    ok, value = conn.recv()
                except EOFError:
                    proc = busy[conn]
                    proc.join(1)
                    raise ChildProcessError(
                        f"a worker process died with exit code "
                        f"{proc.exitcode}") from None
                if not ok:
                    raise value
                job = next(todo, None)
                conn.send(job)
                if job is None:
                    del busy[conn]
                yield value
    finally:
        for proc in started:
            proc.kill()
        for proc in started:
            proc.join()
        for conn in ends:
            conn.close()


def _mirror_blocks(blocks):
    """The canonical blocks of ``core.symmetric`` of ``blocks``."""
    high = blocks[0][0]
    return tuple(tuple(high - v for v in reversed(block))
                 for block in reversed(blocks))


def _classes(ft: FlagType, sorted_blocks) -> tuple[BlockedPartition, ...]:
    """The partitions of type ``ft`` with the given canonical blocks."""
    return tuple([BlockedPartition(ft, sum(blocks, ()))
                  for blocks in sorted_blocks])


def _subtree_worker(job):
    twin, args = job
    return twin, _walk(*args)


def time_branching_search(ft: FlagType, budget_seconds: float | None = None,
                          workers: int = 1) -> SearchReport:
    """Classify a type with the time-branching engine.

    With workers > 1 the tree is split at 4 placed entries and the
    subtrees are searched by ``_pool_map``.  A serial search of a
    palindromic type is split just below the gauge move, at 2.  Entry
    R-1-b of block b sits at 0 at time 1, and only the gauge pair (i, j)
    of a subtree holds one, since time 1 is covered once.  In a palindromic
    type the subtrees under (i, j) and (R-1-j, R-1-i) are mirror images of
    one size, so only those with i + j <= R-1 are searched: a subtree with
    i + j < R-1 is counted twice and its classes are mirrored by
    ``_mirror_blocks``, and one with i + j = R-1 is its own mirror.
    ``nodes`` is thus the size of the whole tree.

    With any number of workers the report is ``completed`` exactly when
    the tree was searched within ``budget_seconds``; it then has the serial
    node count and classes.  ``budget_seconds`` and ``workers`` are
    checked by ``_check_resources``.
    """
    if not ft.all_positive:
        raise ValueError("search types need every block nonempty")
    _check_resources(budget_seconds, workers)
    start = time.monotonic()
    deadline = None if budget_seconds is None else start + budget_seconds
    lengths = ft.lengths
    R = len(lengths)
    palindrome = lengths == lengths[::-1]
    total = sum(lengths)
    if workers > 1 and total > 3:
        depth = min(4, total - 1)
    else:
        # A serial search is split only to halve a palindrome's tree.
        depth = 2 if palindrome else None
    found, states, nodes, completed = _walk(lengths, None, depth, deadline)
    jobs = []
    for state in states:
        i, j = (b for b in range(R) if R - 1 - b in state[0][b])
        if not palindrome or i + j <= R - 1:
            jobs.append((palindrome and i + j < R - 1,
                         (lengths, state, None, deadline)))
    with contextlib.closing(
            _pool_map(_subtree_worker, jobs, workers)) as results:
        for twin, (sub_found, _, sub_nodes, sub_done) in results:
            found.extend(sub_found)
            nodes += sub_nodes - 1
            if twin:
                found.extend(map(_mirror_blocks, sub_found))
                nodes += sub_nodes - 1
            if not sub_done:
                completed = False
                break
    # Within one type, block tuples sort as their flattened entries do.
    unique = sorted(set(found))
    if len(unique) != len(found):
        raise RuntimeError(f"a class of {ft.lengths} was generated twice")
    return SearchReport(ft, _classes(ft, unique), nodes,
                        time.monotonic() - start, completed)


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

def _types_with_blocks(num_blocks: int, total: int):
    """All compositions of `total` into `num_blocks` positive parts."""
    for cuts in itertools.combinations(range(1, total), num_blocks - 1):
        bounds = (0,) + cuts + (total,)
        yield FlagType(tuple(b - a for a, b in zip(bounds, bounds[1:])))


def _search_type_worker(args):
    lengths, budget_seconds = args
    return time_branching_search(FlagType(lengths), budget_seconds)


def _load_checkpoint(path: str) -> dict[tuple[int, ...], SearchReport]:
    """Read the reports of a JSONL checkpoint, later lines winning.

    A last line without its newline was torn by a crash mid-write: it is
    skipped with a warning on stderr and cut from the file, so the next
    record starts on a line of its own.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    whole, newline, tail = text.rpartition(b"\n")
    if tail:
        print(f"warning: checkpoint {path}: skipped a torn last line "
              f"({len(tail)} bytes)", file=sys.stderr)
        with open(path, "r+b") as fh:
            fh.truncate(len(whole) + len(newline))
    reports = {}
    for number, line in enumerate(whole.decode().splitlines(), 1):
        if line.strip():
            try:
                report = report_from_dict(json.loads(line))
            except ValueError as exc:
                raise ValueError(
                    f"checkpoint {path} line {number}: {exc}") from None
            reports[report.type.lengths] = report
    return reports


def _mirror_report(source: SearchReport) -> SearchReport:
    """The report of the reversed type, derived from ``source`` unsearched.

    ``core.symmetric`` maps the classes of a type one to one onto those of
    the reversed type, and the two search trees are isomorphic, so the
    node count and the ``completed`` flag carry over.  The classes are
    mirrored by ``_mirror_blocks``.
    """
    ft = source.type.reversed()
    mirrored = sorted(_mirror_blocks(P.blocks) for P in source.classes)
    return SearchReport(ft, _classes(ft, mirrored), source.nodes, 0.0,
                        source.completed, source.type.lengths)


def _run_type_sweep(types, budget_seconds: float | None, workers: int,
                    checkpoint_path: str | None):
    """Search many types on ``workers`` processes, with JSONL checkpointing.

    Returns {lengths: SearchReport} for exactly the given types.  A type
    whose checkpointed report was stopped by the budget is searched again.  A
    type whose reversed type is also requested is derived from it by
    ``_mirror_report``, after the searches, when the reverse already has a
    completed report or when both are pending and this type is the
    lexicographically smaller one.  ``budget_seconds`` and ``workers`` are
    checked by ``_check_resources`` before the checkpoint is read.
    """
    _check_resources(budget_seconds, workers)
    done: dict[tuple[int, ...], SearchReport] = {}
    if checkpoint_path and os.path.exists(checkpoint_path):
        done = _load_checkpoint(checkpoint_path)
    requested = {ft.lengths for ft in types}
    pending = [ft.lengths for ft in types
               if ft.lengths not in done or not done[ft.lengths].completed]
    waiting = set(pending)
    # derived[lengths]: the reversed type whose report gives this one.
    derived = {}
    for lengths in pending:
        mirror = lengths[::-1]
        if mirror != lengths and mirror in requested and (
                mirror not in waiting or lengths < mirror):
            derived[lengths] = mirror
    jobs = [(lengths, budget_seconds)
            for lengths in pending if lengths not in derived]
    sink = open(checkpoint_path, "a") if checkpoint_path else None

    def keep(report):
        done[report.type.lengths] = report
        if sink:
            sink.write(json.dumps(report_to_dict(report)) + "\n")
            sink.flush()

    try:
        for report in _pool_map(_search_type_worker, jobs, workers):
            keep(report)
        for mirror in derived.values():
            keep(_mirror_report(done[mirror]))
    finally:
        if sink:
            sink.close()
    return {ft.lengths: done[ft.lengths] for ft in types}


def _check_bound(claim: str, bound: int, least: int) -> None:
    """Refuse a sweep bound that selects no type: it would hold vacuously."""
    if bound < least:
        raise ValueError(f"verify {claim} needs a bound of at least {least}, "
                         f"got {bound}")


def verify_no_multistep(max_total_length: int,
                        budget_seconds: float | None = None,
                        workers: int = 1,
                        checkpoint_path: str | None = None):
    """Search every type with >= 4 blocks up to the given total length.

    Returns {lengths: SearchReport}.  The expectation (checked by callers,
    not here) is that every report is empty: Ulrich partitions stop at three
    blocks.  The least type is (1, 1, 1, 1), so a bound below 4 selects no
    type and raises ValueError.
    """
    _check_bound("multistep", max_total_length, 4)
    types = [ft
             for blocks in range(4, max_total_length + 1)
             for total in range(blocks, max_total_length + 1)
             for ft in _types_with_blocks(blocks, total)]
    return _run_type_sweep(types, budget_seconds, workers, checkpoint_path)


def verify_conjecture_sweep(max_sum: int,
                            budget_seconds: float | None = None,
                            workers: int = 1,
                            checkpoint_path: str | None = None):
    """Search every three-block type with all lengths >= 3, sum <= max_sum.

    The classification of types with a block of length <= 2 is complete; the
    conjecture is that nothing exists beyond it, i.e. all these searches come
    back empty.  The least type is (3, 3, 3), so a bound below 9 selects no
    type and raises ValueError.
    """
    _check_bound("conjecture", max_sum, 9)
    types = [ft
             for total in range(9, max_sum + 1)
             for ft in _types_with_blocks(3, total)
             if min(ft.lengths) >= 3]
    return _run_type_sweep(types, budget_seconds, workers, checkpoint_path)

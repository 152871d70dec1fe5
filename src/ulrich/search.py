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
  free.  The root (time 1, nothing placed) is the pair move with every
  block's window pinned to [0, 0]: the meeting position 0 fixes the
  translation gauge, so each equivalence class is discovered exactly once.
  Classes are found as canonical flat entries: each block in decreasing
  order, the blocks concatenated, the smallest entry (the last) at 0.

  Each node is one call of a recursive closure whose arguments are the
  covered-time bitmask and the number of placed entries.  The rest of
  the walk's state is kept per block and updated incrementally, as in
  Knuth's dancing links: the entries, the top and bottom entry, and two
  bitmasks of the entries (bit v + OFF and bit OFF - v) are pushed with
  each entry before a recursive call and restored after it, by one
  function for both moves, and never rebuilt at a node.  Both moves read
  a block's top and bottom at t0 straight from its extremes (only the
  residues and the crossings with blocks two or more apart read every
  placed entry).  Against an adjacent block the crossing times are x - v
  or v - x; once the block's extremes put them all in [t0, N], the whole
  set of time bits is one right shift of a mask, and a clash is one AND
  with the covered times.

  The node function is generated and compiled once per number of blocks
  R (``_node``): straight-line code with the blocks and their distances
  as literals.  Digests of the visiting order of every type with 2 to 10
  blocks and total at most 10 guard the one generator.

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
(``_mirror_report``): the classes mirrored by ``_mirror_entries``, the
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


# The source of ``_node``, less each block's crossing test and moves.
_NODE_TEMPLATE = '''\
def node(N, OFF, top, bot, fwd, rev, lengths, det, stop, due, tick, leaf,
         descend, pair_moves):
    {dets} = det
    {lengths} = lengths
    nodes = 0
{crosses}
    def dfs(covered, placed):
        nonlocal nodes, due
        nodes += 1
        if nodes >= due:
            due = tick(nodes)
        if placed >= stop:
            leaf(covered, placed)
            return
        t0 = ((covered + 1) & ~covered).bit_length()
        span = N - t0
{multiples}        {tops} = top
        {bots} = bot
        windows = []
{moves}        if len(windows) > 1:
            pair_moves(windows, t0, covered, placed)

    def run(covered, placed):
        nonlocal nodes, due
        try:
            if placed:
                dfs(covered, placed)
            else:
                # The root: the pair meeting at time 1 sits at 0 (gauge),
                # so every window is [0, 0].
                nodes += 1
                if nodes >= due:
                    due = tick(nodes)
                pair_moves({gauge}, 1, 0, 0)
        except BudgetExhausted:
            return nodes, False
        return nodes, True

    return dfs, ({names}), run
'''


@functools.cache
def _node(R):
    """The node function of ``_walk`` for R blocks, compiled once per R.

    ``node(...)`` binds one walk's state and returns (dfs, crosses, run):
    the node ``dfs(covered, placed)``, each block's crossing test, and
    ``run(covered, placed)``, which walks from a state and returns (nodes,
    completed).  When nothing is placed, ``run`` counts the root and makes
    the pair moves at time 1 with every block's window pinned to [0, 0].

    The code has no loop over blocks.  The blocks ``det{m}`` and the
    type's lengths ``L{m}`` are unpacked once per walk, and block b makes
    moves only while ``len(det{b}) < L{b}``; ``descend`` pushes each
    child's entries.  Block m lies k*t0 lower at t0, with k = R-1-m; each
    k*t0 and d*span is computed once per node.  Block b's (B) targets are
    ``high``, the highest top of the later blocks at t0, and ``low``, the
    lowest bottom of the earlier ones.  A placed entry at q in block m
    confines a new entry of block b at t0 to [q+1, q+span*(m-b)] when m > b
    and to [q-span*(b-m), q-1] when m < b, since the two must cross at a
    time in [t0, N]; ``hi`` and ``lo`` are the tightest of these bounds,
    and b's (D) window lies above ``high`` and ``lo`` and below ``low`` and
    ``hi``; it is appended as (b, lo, hi, k*t0), since a position p at t0
    is the entry p + k*t0.  A middle block tries ``low`` alone when its
    later blocks are all empty, ``high`` alone when its earlier ones are,
    and otherwise the set {high, low}, which fixes the order the two are
    tried in.
    ``cross_b(x, t0, acc)`` tests the adjacent blocks first, each by a
    range check and then one shift of its mask, and then the blocks
    further away in order, with their distances as literals: two away by
    parity and a shift, and any other by ``divmod``.
    The source is registered with ``linecache``, so that ``traceback``
    and ``pdb`` show its lines.
    """
    import linecache
    dspan = [None, "span"] + [f"s{d}" for d in range(2, R)]

    def shift(m):
        # How far block m has moved down by t0.
        k = R - 1 - m
        return f"t{k}" if k > 1 else ("0", "t0")[k]

    def at(name, m, sign="-"):
        # A position of block m moved to t0, or back from t0 with sign +.
        return name if m == R - 1 else f"{name} {sign} {shift(m)}"

    def running(name, better, terms):
        # name = the best of terms by `better`; a plain name needs no q.
        lines = [f"    {name} = {terms[0]}"]
        for term in terms[1:]:
            q = term if term.isidentifier() else "q"
            lines += [f"    q = {term}"] * (q == "q") + [
                f"    if {q} {better} {name}:", f"        {name} = {q}"]
        return lines

    def any_entry(blocks):
        return "(" + " or ".join(f"det{m}" for m in blocks) + ")"

    def cross(b):
        lines = ["", f"def cross_{b}(x, t0, acc):"]
        shifts = []
        if b > 0:
            lines += [f"    if bot[{b - 1}] < x + t0 or top[{b - 1}] > x + N:",
                      "        return -1"]
            shifts.append(f"fwd[{b - 1}] >> (x + OFF + 1)")
        if b < R - 1:
            lines += [f"    if top[{b + 1}] > x - t0 or bot[{b + 1}] < x - N:",
                      "        return -1"]
            shifts.append(f"rev[{b + 1}] >> (OFF + 1 - x)")
        clash = ["if acc & times:", "    return -1", "acc |= times"]
        for shift in shifts:
            lines += ["    " + line for line in [f"times = {shift}"] + clash]
        for m in range(R):
            d = m - b
            if abs(d) == 2:
                test = [f"d = {'x - v' if d > 0 else 'v - x'}", "if d & 1:",
                        "    return -1", "t = d >> 1", "if t < t0 or t > N:"]
            elif abs(d) > 2:
                test = [f"t, r = divmod(x - v, {d})",
                        "if r or t < t0 or t > N:"]
            else:
                continue
            lines.append(f"    for v in det{m}:")
            lines += ["        " + line for line in test + [
                "    return -1", "times = 1 << (t - 1)"] + clash]
        return lines + ["    return acc"]

    def moves(b):
        later, earlier = range(b + 1, R), range(b)
        lines = [f"if len(det{b}) < L{b}:"]
        if later:
            lines += running("high", ">", [at(f"top{m}", m) for m in later])
            lines += running("hi", "<", [f"{at(f'bot{m}', m)} + {dspan[m - b]}"
                                         for m in later])
        if earlier:
            lines += running("low", "<", [at(f"bot{m}", m) for m in earlier])
            lines += running("lo", ">", [f"{at(f'top{m}', m)} - {dspan[b - m]}"
                                         for m in earlier])

        def attempt(q):
            # q at t0 is x at time 0, tried as a new entry of block b.
            x = "x" if b < R - 1 else q
            return [f"x = {at(q, b, '+')}"] * (x == "x") + [
                f"acc = cross_{b}({x}, t0, covered)", "if acc >= 0:",
                f"    descend({b}, {x}, acc, placed)"]

        if not (earlier and later):
            # An end block: one target, and a window bounded by it.
            test, window = (("high < hi", "high + 1, hi") if later
                            else ("lo < low", "lo, low - 1"))
            lines += [f"    if {test}:",
                      f"        windows.append(({b}, {window}, {shift(b)}))"]
            attempts = attempt("high" if later else "low")
        else:
            lines += ["    if high >= lo:", "        lo = high + 1",
                      "    if low <= hi:", "        hi = low - 1",
                      "    if lo <= hi:",
                      f"        windows.append(({b}, lo, hi, {shift(b)}))",
                      f"    if not {any_entry(later)}:",
                      "        targets = (low,)",
                      f"    elif not {any_entry(earlier)}:",
                      "        targets = (high,)",
                      "    else:", "        targets = {high, low}",
                      "    for q in targets:"]
            attempts = ["    " + line for line in attempt("q")]
        return lines + ["    " + line for line in attempts]

    def indent(lines, pad):
        return "".join(pad + line + "\n" if line else "\n" for line in lines)

    multiples = [f"t{k} = t0 * {k}" for k in range(2, R)]
    multiples += [f"{dspan[d]} = span * {d}" for d in range(2, R)]
    source = _NODE_TEMPLATE.format(
        dets=", ".join(f"det{m}" for m in range(R)),
        lengths=", ".join(f"L{m}" for m in range(R)),
        crosses=indent(sum(map(cross, range(R)), []), "    "),
        multiples=indent(multiples, "        "),
        tops=", ".join(f"top{m}" for m in range(R)),
        bots=", ".join(f"bot{m}" for m in range(R)),
        moves=indent(sum(map(moves, range(R)), []), "        "),
        # At t0 = 1 the shift k*t0 of block m is its speed k = R-1-m.
        gauge=tuple((m, 0, 0, R - 1 - m) for m in range(R)),
        names=", ".join(f"cross_{b}" for b in range(R)))
    filename = f"<ulrich.search._node({R})>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = {"BudgetExhausted": BudgetExhausted}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["node"]


def _walk(lengths, state, depth, deadline):
    """Search every completion of a partial placement, depth first.

    ``state`` is a snapshot (det, covered, placed), or None for the empty
    placement: ``det`` holds the placed entries per block, ``covered`` is a
    bitmask with bit t-1 set when time t is realized by a placed pair, and
    ``placed`` counts the placed entries.  States with ``depth`` entries
    placed are not expanded but returned as snapshots, in the order the
    search reaches them, so a worker process can resume them.  The placed
    entries live in ``det``; each block's top and bottom entry and its
    entry masks ``fwd`` and ``rev`` are built once from ``state``, and
    ``descend`` alone pushes an entry onto all of them before a recursive
    call and pops it after it.  The node ``dfs(covered, placed)``, the
    crossing tests and ``run``, which makes the root's pair moves, come
    from ``_node(R)``.

    Returns (found, frontier, nodes, completed): the canonical flat entries
    of each class found, the snapshots, the node count, and whether the walk
    ran to the end.  Past ``deadline`` the walk stops with the classes
    found so far and no snapshots: the clock is read at the first node and
    then every 1024 nodes, and nowhere else.
    """
    R = len(lengths)
    N = FlagType(lengths).dimension
    # far[b] lists the pairs (m, |m - b|) with |m - b| >= 2.
    far = [[(m, abs(m - b)) for m in range(R) if abs(m - b) >= 2]
           for b in range(R)]
    total = sum(lengths)
    stop = total if depth is None else min(depth, total)
    det, covered, placed = state or ([()] * R, 0, 0)
    det = [list(block) for block in det]
    found = []
    frontier = []
    # Every placed entry v obeys |v| <= (R-1)(N+1): it meets an entry e
    # of the gauge pair in another block at a time t in [1, N], so
    # |v - e| = t*|m - b| <= N(R-1), and a gauge entry is in [0, R-1].
    # So OFF = (R-1)(N+1) + N(R-1) bounds every placed position at t0 and
    # every (B) target, and every (D) window candidate x too: bounded by
    # a later block m, x <= bot[m] + N(m-b), and the other cases are
    # symmetric.  Every bit index and shift count is thus >= 0, even
    # against an empty block; Python's ValueError on a negative shift
    # would expose a bound that is too small.
    OFF = (R - 1) * (2 * N + 1)
    # Per block: top and bottom entry, and the entries as bit v + OFF of
    # fwd and bit OFF - v of rev.  An empty block has top -FAR and bottom
    # FAR, which moved to t0 stay beyond 2*OFF - N(R-1), further out than
    # any real position, bound or candidate (within OFF + N(R-1) of 0):
    # it never wins a max or a min, passes every range check and adds no
    # crossing time with its mask 0.  descend() pushes an entry and
    # restores the saved values when it pops it.
    FAR = 2 * OFF
    top = [max(blk, default=-FAR) for blk in det]
    bot = [min(blk, default=FAR) for blk in det]
    fwd = [sum(1 << (v + OFF) for v in blk) for blk in det]
    rev = [sum(1 << (OFF - v) for v in blk) for blk in det]

    def tick(nodes):
        # The node count of the next clock read.
        if time.monotonic() > deadline:
            raise BudgetExhausted
        return (nodes // 1024 + 1) * 1024

    def leaf(covered, placed):
        if placed < total:
            frontier.append(([blk[:] for blk in det], covered, placed))
            return
        entries = [v for block in det for v in sorted(block, reverse=True)]
        low = entries[-1]
        found.append(tuple([v - low for v in entries]))

    def descend(b, x, acc, placed, j=-1, y=0):
        """Push x onto block b, with covered times acc, walk the child and
        pop x.  With j < 0 the child is the (B) child; otherwise y joins
        block j first, and the child is the (D) child."""
        blk = det[b]
        saved_top, saved_bot = top[b], bot[b]
        saved_fwd, saved_rev = fwd[b], rev[b]
        blk.append(x)
        if x > saved_top:
            top[b] = x
        if x < saved_bot:
            bot[b] = x
        fwd[b] = saved_fwd | 1 << (x + OFF)
        rev[b] = saved_rev | 1 << (OFF - x)
        if j < 0:
            dfs(acc, placed + 1)
        else:
            descend(j, y, acc, placed + 1)
        blk.pop()
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
            # Never None: placed entries of blocks a != b met at an integer
            # time, so v_a = v_b (mod |a - b|), and gcd(|m1 - s|, |m2 - s|)
            # divides |m1 - m2|: the folded congruences always agree.
            r, M = _crt(r, M, v0, d)
        return r, M

    def pair_moves(windows, t0, covered, placed):
        """(D) two new entries in blocks i < j meet each other at t0.

        ``windows`` holds (s, lo, hi, shift) for each open block whose
        window of positions at t0 is not empty, where a position p is the
        entry p + shift of block s; a pair's window is the overlap of its
        blocks' windows.  The crossings of a new entry x of block s
        with a placed entry v of block m are integers only if
        x = v (mod |m-s|); residue(s) folds these into one congruence
        x = r (mod M), worked out once per node and only for blocks of a
        pair whose window is open.
        """
        covered |= 1 << (t0 - 1)
        residues = {}
        for (i, lo, hi, si), (j, lo_j, hi_j, sj) in itertools.combinations(
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
                descend(i, x, acc, placed, j, y)

    dfs, crosses, run = _node(R)(
        N, OFF, top, bot, fwd, rev, lengths, det, stop,
        _NEVER if deadline is None else 1, tick, leaf, descend, pair_moves)
    nodes, completed = run(covered, placed)
    return found, frontier if completed else [], nodes, completed


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


def _mirror_entries(entries):
    """The canonical entries of ``core.symmetric`` of ``entries``."""
    return tuple([entries[0] - v for v in reversed(entries)])


def _classes(ft: FlagType, sorted_entries) -> tuple[BlockedPartition, ...]:
    """The partitions of type ``ft`` with the given canonical entries."""
    return tuple([BlockedPartition(ft, f) for f in sorted_entries])


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
    ``_mirror_entries``, and one with i + j = R-1 is its own mirror.
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
                found.extend(map(_mirror_entries, sub_found))
                nodes += sub_nodes - 1
            if not sub_done:
                completed = False
                break
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
    mirrored by ``_mirror_entries``.
    """
    ft = source.type.reversed()
    mirrored = sorted(_mirror_entries(P.entries) for P in source.classes)
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

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

  The walk is one recursive closure whose arguments are the covered-time
  bitmask and the number of placed entries; the entries themselves sit in
  per-block lists, appended before a recursive call and popped after it.
  Both moves bound positions by each block's top and bottom at t0 (only
  the residues read every placed entry), and the crossing test against an
  adjacent block needs no division.  The tests pin the node count of
  several types, and a node limit stops the walk at exactly that node.

Both engines report equivalence classes; symmetric partners are separate
classes unless equal as partitions.

``SearchLimits`` mean the same for any number of workers.  ``max_nodes``
caps the nodes of the whole tree: a report is ``completed`` exactly when
the serial search finishes within the cap.  ``budget_seconds`` bounds the
whole search: the clock is read every 1024 nodes and before each subtree,
and a split search stops at the first subtree a limit stopped.  A sweep
gives these limits to each type.  ``_pool_map`` is the one process pool.

Sweeps.  ``verify_no_multistep`` and ``verify_conjecture_sweep`` classify
many types through ``_run_type_sweep``, which checkpoints each report as a
JSONL line.  ``core.symmetric`` (negate, then reverse) maps the classes of
a type one to one onto those of the reversed type, and the two search
trees are isomorphic: meeting times are unchanged when positions are
negated and velocities reversed, and the gauge pairs, the (B) targets and
the (D) windows map onto each other.  So a sweep searches one orientation
of each mirror pair it is asked for and derives the other
(``_mirror_report``): the mirrored classes, the source's node count and
``completed`` flag, no elapsed time, and ``mirror_of`` naming the source.
Palindromic types, and types whose reverse is not requested, are searched.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass

from . import core
from .core import BlockedPartition, FlagType


@dataclass(frozen=True)
class SearchLimits:
    """Resource caps for a search; None means unlimited."""

    budget_seconds: float | None = None
    max_nodes: int | None = None


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one type search.

    ``completed`` is False when a resource limit stopped the search early, in
    which case ``classes`` is a lower bound, not a classification.  A limit
    that stops a search with ``workers > 1`` leaves ``nodes`` a lower bound
    too, which varies from run to run: the subtrees still running in other
    workers are terminated and their nodes are not counted.

    ``mirror_of`` is set on a report that a sweep derived from the search of
    the reversed type (``_mirror_report``): it names that source type, and
    the report inherits the source's ``nodes`` and ``completed`` flag.
    """

    type: FlagType
    classes: tuple[BlockedPartition, ...]
    nodes: int
    elapsed: float
    completed: bool
    mirror_of: tuple[int, ...] | None = None

    @property
    def count(self) -> int:
        return len(self.classes)


class BudgetExhausted(Exception):
    """Raised internally when a limit trips; callers receive completed=False."""


# A node count no search reaches: the next limit check when there are none.
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
    ft = FlagType(tuple(data["type"]))
    classes = tuple(core.parse_partition(s) for s in data["classes"])
    mirror_of = data.get("mirror_of")
    return SearchReport(ft, classes, data["nodes"], data["elapsed"],
                        data["completed"],
                        None if mirror_of is None else tuple(mirror_of))


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
    ft = FlagType(ft.lengths)
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


class _Searcher:
    """Depth-first walk over partial placements, one per equivalence class.

    ``det`` holds the placed entries per block; ``covered`` is a bitmask with
    bit t-1 set when time t is realized by a placed pair; ``placed`` counts
    the placed entries.  A snapshot ``state`` of these three, taken at a
    fixed depth, lets the search resume in a worker process.
    """

    def __init__(self, ft: FlagType, deadline: float | None,
                 max_nodes: int | None, state=None):
        self.lengths = ft.lengths
        self.N = ft.dimension
        det, self.covered, self.placed = state or ([()] * len(ft.lengths), 0, 0)
        self.det = [list(block) for block in det]
        self.nodes = 0
        self.deadline = deadline
        self.max_nodes = max_nodes
        self.found: list[tuple[tuple[int, ...], ...]] = []

    # -- bookkeeping --------------------------------------------------------

    def _next_tick(self, nodes: int) -> int:
        """The first node count after ``nodes`` at which a limit may trip."""
        due = _NEVER
        if self.max_nodes is not None:
            due = self.max_nodes + 1
        if self.deadline is not None:
            due = min(due, (nodes // 1024 + 1) * 1024)
        return due

    def _tick(self, nodes: int) -> int:
        """Check the limits at node count ``nodes``; return the next count due.

        The node cap is exact and the clock is read every 1024 nodes.
        """
        if self.max_nodes is not None and nodes > self.max_nodes:
            raise BudgetExhausted
        if self.deadline is not None and nodes % 1024 == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExhausted
        return self._next_tick(nodes)

    def _record(self):
        blocks = [sorted(block, reverse=True) for block in self.det]
        low = blocks[-1][-1]
        self.found.append(tuple(tuple(v - low for v in block)
                                for block in blocks))

    # -- the search ---------------------------------------------------------

    def _walk(self, depth: int | None = None) -> list:
        """Search every completion of the current state, depth first.

        States with ``depth`` entries placed are not expanded but returned
        as snapshots, in the order the search reaches them.  Each node is
        one call of ``dfs(covered, placed)``; the placed entries live in
        ``det``, appended before a recursive call and popped after it.
        """
        lengths = self.lengths
        R = len(lengths)
        N = self.N
        total = sum(lengths)
        stop = total if depth is None else min(depth, total)
        det = self.det
        record = self._record
        frontier = []
        # Entries of block m descend at speed vm[m]; an entry v sits at
        # position v - t*vm[m] at time t.
        vm = [-core.velocity(m, R - 1) for m in range(R)]
        pairs = [(i, j) for i in range(R - 1) for j in range(i + 1, R)]
        # others[b]: (entries, m - b) for every block m other than b.
        others = [[(det[m], m - b) for m in range(R) if m != b]
                  for b in range(R)]
        nodes = self.nodes
        due = self._next_tick(nodes)

        def cross(b, x, t0, acc):
            """acc plus the crossing-time bits of entry x new in block b.

            Every crossing with a placed entry must be an integer time in
            [t0, N] whose bit is clear in acc; otherwise returns -1.
            """
            for blk, d in others[b]:
                if d == 1 or d == -1:
                    for v in blk:
                        t = (x - v) * d
                        if t < t0 or t > N:
                            return -1
                        bit = 1 << (t - 1)
                        if acc & bit:
                            return -1
                        acc |= bit
                else:
                    for v in blk:
                        t, rem = divmod(x - v, d)
                        if rem or t < t0 or t > N:
                            return -1
                        bit = 1 << (t - 1)
                        if acc & bit:
                            return -1
                        acc |= bit
            return acc

        def residue(s):
            """The congruence x = r (mod M), as (r, M), that a new entry x
            of block s meets exactly when its crossings with the placed
            entries are all integers; None when no x does."""
            r, M = 0, 1
            for m in range(R):
                d = abs(m - s)
                blk = det[m]
                if d < 2 or not blk:
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

        def dfs(covered, placed):
            nonlocal nodes, due
            nodes += 1
            if nodes >= due:
                due = self._tick(nodes)
            if placed >= stop:
                if placed == total:
                    record()
                else:
                    frontier.append(([blk[:] for blk in det], covered, placed))
                return
            t0 = ((covered + 1) & ~covered).bit_length()
            if t0 > N:
                return
            if not placed:
                # Gauge-fixing move: the pair realizing time 1 sits at 0.
                for i, j in pairs:
                    det[i].append(t0 * vm[i])
                    det[j].append(t0 * vm[j])
                    dfs(covered | 1 << (t0 - 1), 2)
                    det[j].pop()
                    det[i].pop()
                return

            # Top and bottom position of each block at time t0.
            tops = []
            bots = []
            for blk, v in zip(det, vm):
                if blk:
                    shift = t0 * v
                    tops.append(max(blk) - shift)
                    bots.append(min(blk) - shift)
                else:
                    tops.append(None)
                    bots.append(None)

            # (B) one new entry in block b meets a placed one: at the top of
            # the later blocks or at the bottom of the earlier ones.
            # (D) two new entries in blocks i < j meet each other at a
            # position p.  Every placed entry at position q in block m bounds
            # where a new entry of block s != m may sit at t0, since the two
            # must cross at a time in [t0, N]: p in [q+1, q+span*(m-s)] when
            # m > s and p in [q-span*(s-m), q-1] when m < s.  The block's
            # top and bottom give the tightest of these bounds; windows holds
            # (s, lo, hi) for each open block whose window is not empty.
            span = N - t0
            windows = []
            for b in range(R):
                blk = det[b]
                if len(blk) >= lengths[b]:
                    continue
                high = low = lo = hi = None
                for m in range(b + 1, R):
                    q = tops[m]
                    if q is not None:
                        if high is None or q > high:
                            high = q
                        q = bots[m] + span * (m - b)
                        if hi is None or q < hi:
                            hi = q
                for m in range(b):
                    q = bots[m]
                    if q is not None:
                        if low is None or q < low:
                            low = q
                        q = tops[m] - span * (b - m)
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
                shift = t0 * vm[b]
                for q in targets:
                    x = q + shift
                    if x in blk:
                        continue
                    acc = cross(b, x, t0, covered)
                    if acc >= 0:
                        blk.append(x)
                        dfs(acc, placed + 1)
                        blk.pop()

            # A pair's window is the overlap of its blocks' windows.  The
            # crossings of a new entry x of block s with a placed entry v of
            # block m are integers only if x = v (mod |m-s|); residue(s)
            # folds these into one congruence x = r (mod M), worked out once
            # per node and only for blocks of a pair whose window is open.
            if len(windows) < 2:
                return
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
                si, sj = t0 * vm[i], t0 * vm[j]
                # x = p + si and y = p + sj: one congruence for p.
                step = _crt(ri[0] - si, ri[1], rj[0] - sj, rj[1])
                if step is None:
                    continue
                rp, M = step
                bi, bj = det[i], det[j]
                for p in range(lo + (rp - lo) % M, hi + 1, M):
                    x = p + si
                    y = p + sj
                    acc = cross(i, x, t0, covered | 1 << (t0 - 1))
                    if acc < 0:
                        continue
                    acc = cross(j, y, t0, acc)
                    if acc < 0:
                        continue
                    bi.append(x)
                    bj.append(y)
                    dfs(acc, placed + 2)
                    bj.pop()
                    bi.pop()

        try:
            dfs(self.covered, self.placed)
        finally:
            self.nodes = nodes
        return frontier

    # -- entry points -------------------------------------------------------

    def run(self, depth: int | None = None):
        """Search; return (resumable states at ``depth``, completed)."""
        try:
            return self._walk(depth), True
        except BudgetExhausted:
            return [], False


def _pool_map(fn, jobs, workers: int):
    """Yield fn(job) for every job of a list, in completion order.

    With one worker, or fewer than two jobs, the jobs run here in order.
    Otherwise one fork pool (Linux) of min(workers, len(jobs)) processes
    runs them, and closing the generator terminates the pool.
    """
    if workers <= 1 or len(jobs) < 2:
        yield from map(fn, jobs)
        return
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(workers, len(jobs))) as pool:
        yield from pool.imap_unordered(fn, jobs)


def _subtree_worker(args):
    lengths, state, deadline, max_nodes = args
    # A subtree smaller than 1024 nodes never reads the clock in the walk.
    if deadline is not None and time.monotonic() > deadline:
        return [], 1, False
    s = _Searcher(FlagType(lengths), deadline, max_nodes, state)
    _, completed = s.run()
    return s.found, s.nodes, completed


def time_branching_search(ft: FlagType, limits: SearchLimits | None = None,
                          workers: int = 1) -> SearchReport:
    """Classify a type with the time-branching engine.

    With workers > 1 the tree is split at a shallow depth and the subtrees
    are searched by ``_pool_map``.  With any number of workers the report
    is ``completed`` exactly when the tree has at most ``max_nodes`` nodes
    and was searched within ``budget_seconds``; it then has the serial node
    count and classes.
    """
    ft = FlagType(ft.lengths)
    if not ft.all_positive:
        raise ValueError("search types need every block nonempty")
    limits = limits or SearchLimits()
    start = time.monotonic()
    deadline = (start + limits.budget_seconds
                if limits.budget_seconds is not None else None)
    cap = limits.max_nodes
    searcher = _Searcher(ft, deadline, cap)
    total = sum(ft.lengths)
    states, completed = searcher.run(
        min(4, total - 1) if workers > 1 and total > 3 else None)
    found, nodes = searcher.found, searcher.nodes
    # A subtree may take the nodes left under the cap plus its own root.
    sub_cap = None if cap is None else cap - nodes + 1
    jobs = [(ft.lengths, st, deadline, sub_cap) for st in states]
    with contextlib.closing(
            _pool_map(_subtree_worker, jobs, workers)) as results:
        for sub_found, sub_nodes, sub_done in results:
            found.extend(sub_found)
            nodes += sub_nodes - 1
            if not sub_done or (cap is not None and nodes > cap):
                completed = False
                break
    classes = tuple(sorted(
        (core.from_blocks(blocks) for blocks in set(found)),
        key=lambda P: P.entries))
    if len(classes) != len(found):
        raise RuntimeError(f"a class of {ft.lengths} was generated twice")
    return SearchReport(ft, classes, nodes, time.monotonic() - start,
                        completed)


def enumerate_ulrich(ft: FlagType, limits: SearchLimits | None = None,
                     workers: int = 1, method: str = "auto") -> SearchReport:
    """Classify a type, dispatching on the requested method.

    ``auto`` and ``time-branching`` run the fast engine; ``baseline`` runs
    the enumeration oracle (N <= 14 only, no limits, one process).
    """
    if method in ("auto", "time-branching"):
        return time_branching_search(ft, limits, workers)
    if method == "baseline":
        if workers != 1 or (limits or SearchLimits()) != SearchLimits():
            raise ValueError("the baseline method takes no limits, 1 worker")
        start = time.monotonic()
        classes = baseline_oracle(ft)
        return SearchReport(FlagType(ft.lengths), classes, 0,
                            time.monotonic() - start, True)
    raise ValueError(f"unknown method {method!r}")


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

def _types_with_blocks(num_blocks: int, total: int):
    """All compositions of `total` into `num_blocks` positive parts."""
    for cuts in itertools.combinations(range(1, total), num_blocks - 1):
        bounds = (0,) + cuts + (total,)
        yield FlagType(tuple(b - a for a, b in zip(bounds, bounds[1:])))


def _search_type_worker(args):
    lengths, budget_seconds, max_nodes = args
    limits = SearchLimits(budget_seconds=budget_seconds, max_nodes=max_nodes)
    report = time_branching_search(FlagType(lengths), limits, workers=1)
    return report_to_dict(report)


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
    for line in whole.decode().splitlines():
        if line.strip():
            report = report_from_dict(json.loads(line))
            reports[report.type.lengths] = report
    return reports


def _mirror_report(source: SearchReport) -> SearchReport:
    """The report of the reversed type, derived from ``source`` unsearched.

    ``core.symmetric`` maps the classes of a type one to one onto those of
    the reversed type, and the two search trees are isomorphic, so the
    node count and the ``completed`` flag carry over.
    """
    classes = sorted((core.canonicalize(core.symmetric(P))
                      for P in source.classes), key=lambda P: P.entries)
    return SearchReport(source.type.reversed(), tuple(classes), source.nodes,
                        0.0, source.completed, source.type.lengths)


def _run_type_sweep(types, limits: SearchLimits, workers: int,
                    checkpoint_path: str | None = None):
    """Search many types on ``workers`` processes, with JSONL checkpointing.

    Returns {lengths: SearchReport} for exactly the given types.  A type
    whose checkpointed report was stopped by a limit is searched again.  A
    type whose reversed type is also requested is derived from it by
    ``_mirror_report``, after the searches, when the reverse already has a
    completed report or when both are pending and this type is the
    lexicographically smaller one.
    """
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
    jobs = [(lengths, limits.budget_seconds, limits.max_nodes)
            for lengths in pending if lengths not in derived]
    sink = open(checkpoint_path, "a") if checkpoint_path else None

    def keep(data):
        done[tuple(data["type"])] = report_from_dict(data)
        if sink:
            sink.write(json.dumps(data) + "\n")
            sink.flush()

    try:
        for data in _pool_map(_search_type_worker, jobs, workers):
            keep(data)
        for lengths, mirror in derived.items():
            keep(report_to_dict(_mirror_report(done[mirror])))
    finally:
        if sink:
            sink.close()
    return {ft.lengths: done[ft.lengths] for ft in types}


def verify_no_multistep(max_total_length: int,
                        limits: SearchLimits | None = None,
                        workers: int = 1,
                        checkpoint_path: str | None = None):
    """Search every type with >= 4 blocks up to the given total length.

    Returns {lengths: SearchReport}.  The expectation (checked by callers,
    not here) is that every report is empty: Ulrich partitions stop at three
    blocks.
    """
    limits = limits or SearchLimits()
    types = [ft
             for blocks in range(4, max_total_length + 1)
             for total in range(blocks, max_total_length + 1)
             for ft in _types_with_blocks(blocks, total)]
    return _run_type_sweep(types, limits, workers, checkpoint_path)


def verify_conjecture_sweep(max_sum: int,
                            limits: SearchLimits | None = None,
                            workers: int = 1,
                            checkpoint_path: str | None = None):
    """Search every three-block type with all lengths >= 3, sum <= max_sum.

    The classification of types with a block of length <= 2 is complete; the
    conjecture is that nothing exists beyond it, i.e. all these searches come
    back empty.
    """
    limits = limits or SearchLimits()
    types = [FlagType(t)
             for total in range(9, max_sum + 1)
             for t in itertools.product(range(3, total + 1), repeat=3)
             if sum(t) == total]
    return _run_type_sweep(types, limits, workers, checkpoint_path)

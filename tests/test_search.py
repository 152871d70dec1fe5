"""Tests for the classification engines.

The time-branching engine is checked class-for-class against an independent
enumeration oracle on every small type, and against the known family
classifications on mid-sized types where plain enumeration is hopeless.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
import types

import pytest

import ulrich
from ulrich import core, families, search
from ulrich.core import FlagType
from ulrich.search import (baseline_oracle, report_from_dict, report_to_dict,
                           time_branching_search, verify_conjecture_sweep,
                           verify_no_multistep)

from helpers import all_types, brute_is_ulrich, fresh_stdout


def classes_of(lengths, **kwargs):
    return time_branching_search(FlagType(lengths), **kwargs).classes


def canon(P):
    return core.canonicalize(P)


SMALL_TYPES = all_types(10, min_blocks=2, max_blocks=5)


class TestBaselineOracle:
    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError, match="N <= 14"):
            baseline_oracle(FlagType((4, 4, 4)))

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError, match="nonempty"):
            baseline_oracle(FlagType((2, 0, 1)))

    def test_small_type(self):
        found = baseline_oracle(FlagType((1, 2, 1)))
        assert len(found) == 4
        for P in found:
            assert brute_is_ulrich(P)
            assert min(P.entries) == 0  # canonical representatives

    def test_two_blocks(self):
        found = baseline_oracle(FlagType((2, 2)))
        assert [str(P) for P in found] == ["4,2|1,0", "4,3|2,0"]


class TestEngineMatchesOracle:
    @pytest.mark.parametrize("ft", SMALL_TYPES,
                             ids=lambda ft: "-".join(map(str, ft.lengths)))
    def test_agreement(self, ft):
        report = time_branching_search(ft)
        assert report.completed
        assert report.classes == baseline_oracle(ft)

    def test_classes_are_canonical_and_ulrich(self):
        for P in classes_of((2, 2, 1)) + classes_of((1, 3, 1)):
            assert brute_is_ulrich(P)
            assert min(P.entries) == 0


class TestKnownClassifications:
    def test_one_n_one_counts(self):
        for n in range(1, 6):
            found = set(classes_of((1, n, 1)))
            want = {canon(families.one_n_one(n, signs))
                    for signs in itertools.product((1, -1), repeat=n)}
            assert found == want
            assert len(found) == 2 ** n

    def test_two_one_k_unique(self):
        for m in (0, 1):
            k = (4 ** (m + 1) - 1) // 3
            assert classes_of((2, 1, k)) == (canon(families.two_one_k(m)),)

    def test_one_two_k_member(self):
        found = classes_of((1, 2, 5))
        assert len(found) == 2
        assert canon(families.one_two_k(1)) in found

    def test_two_n_one_tower(self):
        # one class per factorization n + 1 = m * (2k + 1)
        for n in range(1, 7):
            want = set()
            for m in range(1, n + 2):
                if (n + 1) % m == 0 and ((n + 1) // m) % 2 == 1:
                    k = ((n + 1) // m - 1) // 2
                    if m == 1 and k == 0:
                        continue  # the degenerate seed has an empty block
                    want.add(canon(families.elongated_family(k, m)))
            assert set(classes_of((2, n, 1))) == want

    def test_two_n_two_mirror_pairs(self):
        for n in (2, 3, 4):
            found = set(classes_of((2, n, 2)))
            if n % 2 == 0:
                P = families.p_u(n // 2)
                assert found == {canon(P), canon(core.symmetric(P))}
            else:
                assert found == set()

    def test_sporadic_types_unique(self):
        assert classes_of((3, 2, 2)) == (canon(families.sporadic("322")),)
        assert classes_of((2, 2, 3)) == (canon(families.sporadic("223")),)

    def test_four_blocks_empty(self):
        assert classes_of((1, 1, 1, 1)) == ()
        assert classes_of((2, 1, 1, 1)) == ()
        assert classes_of((1, 2, 1, 1)) == ()

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError, match="nonempty"):
            time_branching_search(FlagType((2, 0, 1)))


class TestSearchTree:
    """The engine's tree is pinned: node counts are exact, not bounds."""

    @pytest.mark.parametrize("lengths, nodes, count", [
        ((2, 8, 1), 3406, 3),
        ((2, 8, 2), 10884, 2),
        ((1, 10, 1), 4004, 1024),
        ((3, 5, 3), 2744, 0),
        ((21, 2, 1), 538, 2),
        ((2, 2, 2, 2), 187, 0),
        ((1, 2, 2, 1, 1), 166, 0),
        ((3, 4, 4), 1616, 0),
        # Many blocks: the pair move's windows are wide here.
        ((1, 1, 1, 1, 1, 2, 1, 1), 459, 0),
        ((1, 1, 2, 1, 2, 1, 1), 590, 0),
        ((1, 1, 1, 1, 1, 1, 1, 1, 1), 373, 0),
        ((1, 1, 1, 3, 1, 1, 1), 760, 0),
        ((1, 2, 1, 2, 1, 2), 382, 0),
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_nodes_and_count(self, lengths, nodes, count):
        report = time_branching_search(FlagType(lengths))
        assert report.completed
        assert (report.nodes, report.count) == (nodes, count)

    @pytest.mark.parametrize("lengths, workers", [
        pytest.param((2, 8, 2), 2, id="2-8-2"),
        pytest.param((1, 10, 1), 2, id="1-10-1"),
        pytest.param((2, 4, 2), 4, id="2-4-2-4workers"),
    ])
    def test_two_workers_match_serial(self, lengths, workers):
        serial = time_branching_search(FlagType(lengths))
        parallel = time_branching_search(FlagType(lengths), workers=workers)
        assert parallel.completed
        assert parallel.classes == serial.classes
        assert parallel.nodes == serial.nodes

    def test_clock_read_at_node_one_then_every_1024(self, monkeypatch):
        # A clock that reads 0, 1, 2, ...: the search reads it at its start
        # (deadline 2.5), the walk at nodes 1, 1024 and 2048, where 3 is
        # past the deadline, and the search once more for ``elapsed``.
        reads = itertools.count()
        monkeypatch.setattr(search, "time", types.SimpleNamespace(
            monotonic=lambda: next(reads)))
        report = time_branching_search(FlagType((2, 8, 1)), 2.5)
        assert (report.nodes, report.completed, report.count) == (
            2048, False, 3)
        assert next(reads) == 5

    @staticmethod
    def walk_digest(types):
        """sha256 of each type's found list in order, node count, completed
        flag, and depth-4 frontier as (block tuples, covered, placed)."""
        h = hashlib.sha256()
        for lengths in types:
            found, _, nodes, completed = search._walk(lengths, None, None,
                                                      None)
            frontier = search._walk(lengths, None, 4, None)[1]
            frontier = [(tuple(map(tuple, det)), covered, placed)
                        for det, covered, placed in frontier]
            h.update(repr((lengths, found, nodes, completed,
                           frontier)).encode())
        return h.hexdigest()

    # One digest per block count over every type of total <= 10, then the
    # types with the widest entry range and the most blocks.
    @pytest.mark.parametrize("types, digest", [
        pytest.param(
            [ft.lengths for total in range(blocks, 11)
             for ft in search._types_with_blocks(blocks, total)],
            digest, id=f"{blocks}-blocks")
        for blocks, digest in [
            (2, "bfb078c064cc62062b764c4baf6e03e2a9ea532c66bca1b4541bb2e51a5773aa"),
            (3, "cf8567d2a2cfc69191f11f025222a243612beaccb034396617e5f5371aa612d3"),
            (4, "bf52b33202bdefd27ae1a93d729d4fdb74f0116239439bdd3eeb6acab5fc545d"),
            (5, "26e7e122eeddc3e1173adce5fd752db7cd459ba28c1ebcf7cc50b20f0c99e875"),
            (6, "e6751423358982d572013a275882eb1d566bded3a208e2832779fd366e6e9ae7"),
        ]
    ] + [
        pytest.param([lengths], digest,
                     id="-".join(map(str, lengths)))
        for lengths, digest in [
            ((1, 2, 21), "5599a733b72a757e0d7e7fe89f904a2084fe266b53dc208e9af2472c8071e1aa"),
            ((21, 2, 1), "2fb12f33b7d43ec096c5f3a82606481ef25bb2bbc7a66beaff4a688415d421b3"),
            ((2, 8, 2), "caf40e0b0eb33fac78cab1b5569ef2f4ff3f6262268a382130f056ea44f02bbb"),
            ((1,) * 9, "49e122443b6aba96095f1bbb2f398127729b8843eff5847b630fab6892d35428"),
        ]
    ] + [
        # The deeper three-block trees: every type of total 11 or 12, then
        # the deepest single types.
        pytest.param(
            [ft.lengths for total in (11, 12)
             for ft in search._types_with_blocks(3, total)],
            "0649f4837cc61bcdbabc62abf0cc4acfdd30977f118f97944c7b86ba9ca1aa62",
            id="3-blocks-11-12"),
    ] + [
        pytest.param([lengths], digest,
                     id="-".join(map(str, lengths)))
        for lengths, digest in [
            ((1, 13, 2), "d1d34167576495885c217b84aab6b4ebb82dee38937dfc2f7e1ccf0b45c00de7"),
            ((2, 11, 2), "cc7fc07c9722a71631f570c9771251ba3b901339eeaacc7c2d0468722ff96e09"),
            ((1, 14, 1), "9f9514c465249693a6f91d7b3c65b9870a1e9a8b9ed1f13e9c939fb81c253873"),
            ((3, 8, 3), "b4382e9b58dad91a8d8e0fb45a276f7ed0892e1d2e1c076934d995b95eb7aff0"),
        ]
    ])
    def test_visit_order_pinned(self, types, digest):
        assert self.walk_digest(types) == digest


PALINDROMES = [ft.lengths for blocks in range(2, 7)
               for total in range(blocks, 13)
               for ft in search._types_with_blocks(blocks, total)
               if ft.lengths == ft.lengths[::-1]
               ] + [(1, 12, 1), (2, 8, 2), (3, 5, 3), (4, 4, 4)]


@pytest.fixture(scope="module")
def full_walks():
    """{lengths: (classes, nodes, completed)} of the full single walk."""
    out = {}
    for lengths in PALINDROMES:
        found, _, nodes, completed = search._walk(lengths, None, None, None)
        classes = tuple(sorted(map(core.from_blocks, found),
                               key=lambda P: P.entries))
        out[lengths] = classes, nodes, completed
    return out


class TestPalindromeHalving:
    """A palindromic type walks one mirror half of its tree and counts two."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_full_walk(self, full_walks, workers):
        assert len(PALINDROMES) == 115
        for lengths in PALINDROMES:
            report = time_branching_search(FlagType(lengths), workers=workers)
            assert ((report.classes, report.nodes, report.completed)
                    == full_walks[lengths]), lengths

    @pytest.mark.parametrize("lengths", [(2, 4, 2), (1, 2, 2, 1),
                                         (1, 1, 3, 1, 1), (1,) * 6])
    def test_mirror_gauges_not_walked(self, monkeypatch, lengths):
        states = []
        walk = search._walk

        def recording(lengths, state, *args):
            states.append(state)
            return walk(lengths, state, *args)

        monkeypatch.setattr(search, "_walk", recording)
        time_branching_search(FlagType(lengths))
        R = len(lengths)
        assert states[0] is None
        # The gauge pair (i, j) of a state: the blocks b holding entry R-1-b.
        gauges = [tuple(b for b in range(R) if R - 1 - b in det[b])
                  for det, _, _ in states[1:]]
        assert gauges == sorted(set(gauges))
        assert all(i + j <= R - 1 for i, j in gauges)
        assert any(i + j < R - 1 for i, j in gauges)
        assert len(gauges) < R * (R - 1) // 2

    def test_mirror_blocks_match_symmetric(self):
        # Every class of total <= 10: types with four or more blocks have
        # none (the paper's theorem; `ulrich verify multistep 10` holds).
        count = 0
        for blocks in (2, 3):
            for total in range(blocks, 11):
                for ft in search._types_with_blocks(blocks, total):
                    for P in time_branching_search(ft).classes:
                        want = core.canonicalize(core.symmetric(P))
                        assert search._mirror_blocks(P.blocks) == want.blocks
                        count += 1
        assert count == 659


class TestCrt:
    """The congruence solver behind the pair move's stepping."""

    def test_matches_brute_force(self):
        for m1, m2 in itertools.product(range(1, 13), repeat=2):
            lcm = m1 * m2 // math.gcd(m1, m2)
            for r1, r2 in itertools.product(range(-3, m1 + 2), range(m2)):
                want = [x for x in range(lcm)
                        if (x - r1) % m1 == 0 and (x - r2) % m2 == 0]
                got = search._crt(r1, m1, r2, m2)
                if want:
                    assert got == (want[0], lcm)
                    assert len(want) == 1
                else:
                    assert got is None

    def test_no_solution(self):
        assert search._crt(0, 4, 1, 6) is None
        assert search._crt(1, 2, 0, 2) is None

    def test_trivial_moduli(self):
        assert search._crt(0, 1, 0, 1) == (0, 1)
        assert search._crt(5, 1, 3, 4) == (3, 4)
        assert search._crt(-7, 3, 9, 1) == (2, 3)


_WALK_TWICE = """
from ulrich import search
from ulrich.core import FlagType

walk = search._walk


def walk_twice(*args):
    found, frontier, nodes, completed = walk(*args)
    return found * 2, frontier, nodes, completed


search._walk = walk_twice
"""


class TestDuplicateClassCheck:
    """A class found twice is an engine fault and must never pass silently."""

    def test_raises(self, monkeypatch):
        walk = search._walk

        def walk_twice(*args):
            found, frontier, nodes, completed = walk(*args)
            return found * 2, frontier, nodes, completed

        monkeypatch.setattr(search, "_walk", walk_twice)
        with pytest.raises(RuntimeError, match="twice"):
            time_branching_search(FlagType((2, 2, 2)))

    def test_raises_under_optimize(self):
        code = _WALK_TWICE + textwrap.dedent("""
            assert False, "asserts are stripped under -O"
            try:
                search.time_branching_search(FlagType((2, 2, 2)))
            except RuntimeError as exc:
                print("RuntimeError:", exc)
            """)
        src = os.path.dirname(os.path.dirname(ulrich.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("RuntimeError:"), result.stdout


class TestWorkers:
    def test_parallel_on_empty_type(self):
        report = time_branching_search(FlagType((1, 1, 1, 2)), workers=3)
        assert report.completed and report.classes == ()


class TestPoolMap:
    """``_pool_map`` runs jobs on forked workers and leaves none behind."""

    def test_every_result_once(self):
        jobs = list(range(-30, 30))
        assert sorted(search._pool_map(abs, jobs, 3)) == sorted(map(abs, jobs))
        assert not multiprocessing.active_children()

    def test_serial_in_order(self):
        jobs = [3, -1, 2]
        assert list(search._pool_map(abs, jobs, 1)) == [3, 1, 2]
        assert list(search._pool_map(abs, jobs[:1], 4)) == [3]

    def test_job_error_keeps_its_type(self):
        with pytest.raises(ValueError, match="invalid literal"):
            list(search._pool_map(int, ["1", "x", "3", "4"], 2))
        assert not multiprocessing.active_children()

    def test_dead_worker_raises(self):
        # A worker killed mid-job must not leave the caller waiting forever;
        # its death is an OSError, which the CLI reports as one line.
        out = fresh_stdout("import os\n"
                           "from ulrich import search\n"
                           "jobs = [3, 3, 3]\n"
                           "try:\n"
                           "    list(search._pool_map(os._exit, jobs, 2))\n"
                           "except ChildProcessError as exc:\n"
                           "    print(exc)")
        assert "exit code 3" in out

    def test_workers_stop_when_the_parent_dies(self, tmp_path):
        # A worker reads EOF once no process holds the parent's end.  The
        # pids go to a file: a worker that lives on would hold a pipe open.
        src = os.path.dirname(os.path.dirname(ulrich.__file__))
        path = tmp_path / "pids"
        code = textwrap.dedent("""
            import multiprocessing, os, sys, time
            sys.path.insert(0, sys.argv[1])
            from ulrich import search
            results = search._pool_map(time.sleep, [0, 0.2, 0.2, 0.2], 2)
            next(results)
            with open(sys.argv[2], "w") as fh:
                print(*[p.pid for p in multiprocessing.active_children()],
                      file=fh)
            os.kill(os.getpid(), 9)
            """)
        subprocess.run([sys.executable, "-I", "-S", "-c", code, src,
                        str(path)], timeout=60)
        pids = [int(pid) for pid in path.read_text().split()]
        assert len(pids) == 2

        def running(pid):
            # An orphan that has exited may stay a zombie until reaped.
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 30
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in pids if running(pid)]
        for pid in left:
            os.kill(pid, 9)
        assert left == []

    def test_closing_kills_workers(self):
        results = search._pool_map(time.sleep, [0, 60, 60], 2)
        start = time.monotonic()
        assert next(results) is None
        results.close()
        assert not multiprocessing.active_children()
        assert time.monotonic() - start < 30

    def test_stopped_split_search_leaves_no_worker(self, monkeypatch):
        # A clock that reads 0, 1, 2, ... in each process: the parent reads
        # 0 and 1, and each forked worker 2 at the root of its first
        # subtree and 3, past the deadline, at its 1024th node or the root
        # of its next subtree.
        reads = itertools.count()
        monkeypatch.setattr(search, "time", types.SimpleNamespace(
            monotonic=lambda: next(reads)))
        report = time_branching_search(
            FlagType((2, 8, 2)), 2.5, workers=2)
        assert report.completed is False
        assert not multiprocessing.active_children()

    def test_sweep_starts_no_helper_thread(self):
        out = fresh_stdout("import threading\n"
                           "from ulrich import search\n"
                           "search.verify_no_multistep(5, workers=2)\n"
                           "print('multiprocessing' in sys.modules, "
                           "'multiprocessing.pool' in sys.modules, "
                           "threading.active_count())")
        assert out.split() == ["True", "False", "1"]


class TestLimits:
    def test_time_cap_reports_incomplete(self):
        report = time_branching_search(FlagType((2, 8, 2)), 1e-4)
        assert not report.completed

    # The budget means the same with one worker and with several: (1,10,1)
    # has 4,004 nodes in subtrees of fewer than 1024 nodes each.  Every walk
    # reads the clock at its root, so a spent budget stops the serial
    # search, or the split prefix, at node 1.

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_budget_stops_at_first_clock_read(self, workers):
        for lengths in [(2, 2, 2), (1, 10, 1)]:
            report = time_branching_search(
                FlagType(lengths), 0, workers)
            assert report.completed is False
            assert report.nodes == 1

    def test_generous_limits_complete(self):
        report = time_branching_search(FlagType((2, 2, 2)), 60)
        assert report.completed
        assert report.count == 2

    # A budget or worker count the search would misread is refused before
    # it starts: a NaN budget never trips, and a worker count below 1 or
    # not an int ran serially or failed after the prefix walk.

    @pytest.mark.parametrize("budget", [float("nan"), -1, -0.5, "1", 1j])
    def test_bad_budget_refused(self, budget, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with pytest.raises(ValueError, match="budget_seconds must be at least"):
            time_branching_search(FlagType((2, 2, 2)), budget)
        with pytest.raises(ValueError, match="budget_seconds must be at least"):
            verify_conjecture_sweep(10, budget, checkpoint_path=str(path))
        assert not path.exists()

    @pytest.mark.parametrize("workers, message", [
        (0, "at least 1"), (-1, "at least 1"), (2.5, "an int"),
        (True, "an int")])
    def test_bad_workers_refused(self, workers, message, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with pytest.raises(ValueError, match=f"workers must be {message}"):
            time_branching_search(FlagType((2, 2, 2)), workers=workers)
        with pytest.raises(ValueError, match=f"workers must be {message}"):
            verify_no_multistep(5, workers=workers, checkpoint_path=str(path))
        assert not path.exists()

    def test_edge_limits_accepted(self):
        report = time_branching_search(FlagType((2, 2, 2)), 0)
        assert report.completed is False
        report = time_branching_search(FlagType((2, 2, 2)), float("inf"))
        assert (report.completed, report.count) == (True, 2)


class TestReportSerialization:
    def test_roundtrip(self):
        report = time_branching_search(FlagType((2, 2, 2)))
        data = report_to_dict(report)
        assert data["schema"] == 1
        assert data["count"] == 2
        back = report_from_dict(data)
        assert back.type == report.type
        assert back.classes == report.classes
        assert back.nodes == report.nodes
        assert back.completed == report.completed
        assert report_to_dict(back) == data
        assert "mirror_of" not in data

    def test_mirror_of_roundtrip(self):
        source = time_branching_search(FlagType((2, 2, 1)))
        derived = search._mirror_report(source)
        data = report_to_dict(derived)
        assert data["mirror_of"] == [2, 2, 1]
        assert data["elapsed"] == 0.0
        back = report_from_dict(data)
        assert back == derived
        assert report_to_dict(back) == data

    def test_line_without_mirror_of_loads(self):
        # A checkpoint line as written before derived reports existed.
        line = ('{"schema": 1, "type": [2, 2, 2], "classes": '
                '["20,12|11,8|6,0", "20,14|12,9|8,0"], "count": 2, '
                '"nodes": 52, "elapsed": 0.001, "completed": true}')
        report = report_from_dict(json.loads(line))
        assert report.mirror_of is None
        assert report.classes == classes_of((2, 2, 2))
        assert (report.nodes, report.completed) == (52, True)
        assert report_to_dict(report) == json.loads(line)

    @pytest.mark.parametrize("field, value", [
        ("nodes", True), ("nodes", 5.0), ("elapsed", False),
        ("completed", 1), ("type", [2, True, 2]), ("count", True),
        ("mirror_of", [True, 1]),
    ])
    def test_bool_or_float_for_another_type_refused(self, field, value):
        # JSON true loads as a bool, which isinstance counts as an int.
        data = report_to_dict(time_branching_search(FlagType((2, 2, 2))))
        data[field] = value
        with pytest.raises(ValueError, match=repr(field)):
            report_from_dict(data)

    @pytest.mark.parametrize("count", [5, 1, None])
    def test_count_must_match_classes(self, count):
        data = report_to_dict(time_branching_search(FlagType((2, 2, 2))))
        assert data["count"] == 2
        data["count"] = count
        with pytest.raises(ValueError, match="'count'"):
            report_from_dict(data)
        data["classes"] = []
        with pytest.raises(ValueError, match="'count'"):
            report_from_dict(data)

    # A hand-edited line could claim values no search reports.

    @pytest.mark.parametrize("field, value", [
        ("nodes", -5), ("elapsed", float("nan")), ("elapsed", float("inf")),
        ("elapsed", -1.0), ("elapsed", -1),
    ])
    def test_impossible_value_refused(self, field, value):
        data = report_to_dict(time_branching_search(FlagType((2, 2, 2))))
        data[field] = value
        with pytest.raises(ValueError, match=repr(field)):
            report_from_dict(data)

    @pytest.mark.parametrize("lengths, mirror_of", [
        ((1, 1, 1, 1), [9, 9]), ((1, 1, 1, 1), [1, 1, 1, 1]),
        ((2, 2, 2), [2, 2, 2]), ((2, 2, 1), [2, 2, 1]),
        ((2, 2, 1), [1, 2, 2, 1]), ((2, 2, 1), [1, 1, 2]),
    ])
    def test_mirror_of_must_be_the_reversed_type(self, lengths, mirror_of):
        data = report_to_dict(time_branching_search(FlagType(lengths)))
        data["mirror_of"] = mirror_of
        with pytest.raises(ValueError, match="'mirror_of'"):
            report_from_dict(data)
        data["mirror_of"] = list(lengths[::-1])
        if lengths != lengths[::-1]:
            assert report_from_dict(data).mirror_of == lengths[::-1]

    def test_zero_values_load(self):
        data = report_to_dict(time_branching_search(FlagType((2, 2, 2))))
        data.update(nodes=0, elapsed=0)
        assert (report_from_dict(data).nodes,
                report_from_dict(data).elapsed) == (0, 0)


class TestSweeps:
    def test_no_multistep_small(self):
        result = verify_no_multistep(5)
        assert len(result) == 6  # four-block totals 4..5, five-block total 5
        for report in result.values():
            assert report.completed and report.count == 0

    def test_conjecture_sweep_smallest(self):
        result = verify_conjecture_sweep(9)
        assert set(result) == {(3, 3, 3)}
        report = result[(3, 3, 3)]
        assert report.completed and report.count == 0

    @pytest.mark.parametrize("sweep, bound, least", [
        (verify_no_multistep, 3, 4), (verify_no_multistep, -3, 4),
        (verify_conjecture_sweep, 8, 9), (verify_conjecture_sweep, 0, 9)])
    def test_bound_selecting_no_type(self, sweep, bound, least, tmp_path):
        # A sweep over no type would read as HOLDS having searched nothing.
        path = tmp_path / "sweep.jsonl"
        with pytest.raises(ValueError, match=f"at least {least}, got {bound}"):
            sweep(bound, checkpoint_path=str(path))
        assert not path.exists()

    def test_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        first = verify_no_multistep(5, checkpoint_path=path)
        with open(path) as fh:
            lines_after_first = sum(1 for line in fh if line.strip())
        assert lines_after_first == 6
        second = verify_no_multistep(5, checkpoint_path=path)
        with open(path) as fh:
            lines_after_second = sum(1 for line in fh if line.strip())
        assert lines_after_second == 6  # nothing recomputed, nothing appended
        assert set(second) == set(first)

    def test_checkpoint_extends(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        verify_no_multistep(4, checkpoint_path=path)
        result = verify_no_multistep(5, checkpoint_path=path)
        assert len(result) == 6
        with open(path) as fh:
            assert sum(1 for line in fh if line.strip()) == 6

    def test_stopped_report_is_searched_again(self, tmp_path, monkeypatch):
        # A finished checkpoint, then a later line that reports (3,4,3)
        # stopped: only (3,4,3) is searched again.
        path = str(tmp_path / "sweep.jsonl")
        fresh = verify_conjecture_sweep(10, checkpoint_path=path)
        stopped = search.SearchReport(FlagType((3, 4, 3)), (), 1, 0.0, False)
        with open(path, "a") as fh:
            fh.write(json.dumps(report_to_dict(stopped)) + "\n")
        searched = _count_searches(monkeypatch)
        resumed = verify_conjecture_sweep(10, checkpoint_path=path)
        assert searched == [(3, 4, 3)]
        assert all(report.completed for report in resumed.values())
        assert ({k: r.nodes for k, r in resumed.items()}
                == {k: r.nodes for k, r in fresh.items()})
        # A third run finds every type finished and appends nothing.
        with open(path) as fh:
            lines = fh.readlines()
        verify_conjecture_sweep(10, checkpoint_path=path)
        with open(path) as fh:
            assert fh.readlines() == lines

    def test_torn_last_line_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        verify_no_multistep(4, checkpoint_path=str(path))
        with open(path, "a") as fh:
            fh.write('{"schema": 1, "type": [2, 1, 1')
        result = verify_no_multistep(5, checkpoint_path=str(path))
        assert "torn" in capsys.readouterr().err
        assert len(result) == 6
        assert all(r.completed and r.count == 0 for r in result.values())
        text = path.read_text()
        assert text.endswith("\n")
        records = [json.loads(line) for line in text.splitlines()]
        assert sorted(tuple(d["type"]) for d in records) == sorted(result)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_finished_resume_starts_no_pool(self, tmp_path, monkeypatch,
                                            workers):
        path = str(tmp_path / "sweep.jsonl")
        first = verify_no_multistep(5, workers=workers, checkpoint_path=path)

        def no_pool(*args, **kwargs):
            raise AssertionError("a resume with nothing to search made a pool")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        again = verify_no_multistep(5, workers=workers, checkpoint_path=path)
        assert ({k: report_to_dict(r) for k, r in again.items()}
                == {k: report_to_dict(r) for k, r in first.items()})

    def test_results_only_for_requested_types(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        verify_conjecture_sweep(9, checkpoint_path=path)
        result = verify_no_multistep(4, checkpoint_path=path)
        assert set(result) == {(1, 1, 1, 1)}
        assert set(verify_conjecture_sweep(9, checkpoint_path=path)) \
            == {(3, 3, 3)}


def _count_searches(monkeypatch):
    """Record the type of every call of the sweep's per-type worker."""
    searched = []
    worker = search._search_type_worker

    def counting(args):
        searched.append(tuple(args[0]))
        return worker(args)

    monkeypatch.setattr(search, "_search_type_worker", counting)
    return searched


class TestMirrorDerivation:
    """A sweep searches one orientation of each mirror pair it is asked for."""

    def test_derived_equals_direct(self):
        # Every type with at most 6 blocks and total <= 10, palindromes too.
        direct = {ft.lengths: time_branching_search(ft)
                  for blocks in range(2, 7)
                  for total in range(blocks, 11)
                  for ft in search._types_with_blocks(blocks, total)}
        assert len(direct) == 837
        for lengths, report in direct.items():
            derived = search._mirror_report(report)
            want = direct[lengths[::-1]]
            assert derived.type == want.type
            assert derived.mirror_of == lengths
            assert ((derived.classes, derived.nodes, derived.completed)
                    == (want.classes, want.nodes, want.completed)), lengths

    def test_sweep_searches_one_of_each_pair(self, monkeypatch):
        searched = _count_searches(monkeypatch)
        result = verify_no_multistep(5)
        assert len(result) == 6 and len(searched) == 4
        assert {k for k, r in result.items() if r.mirror_of} \
            == {(1, 1, 1, 2), (1, 1, 2, 1)}
        assert result[(1, 1, 1, 2)].mirror_of == (2, 1, 1, 1)
        assert all(r.completed and r.count == 0 for r in result.values())

    def test_resume_from_source_derives(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.jsonl"
        fresh = verify_conjecture_sweep(10, checkpoint_path=str(path))
        lines = [line for line in path.read_text().splitlines()
                 if json.loads(line)["type"] != [3, 3, 4]]
        path.write_text("".join(line + "\n" for line in lines))
        searched = _count_searches(monkeypatch)
        resumed = verify_conjecture_sweep(10, checkpoint_path=str(path))
        assert searched == []
        assert resumed[(3, 3, 4)].mirror_of == (4, 3, 3)
        assert ({k: report_to_dict(r) for k, r in resumed.items()}
                == {k: report_to_dict(r) for k, r in fresh.items()})

    def test_resumed_reports_equal_fresh(self, tmp_path, monkeypatch):
        # A palindrome and a mirror pair, all with classes: the reports kept
        # in memory, searched or derived, match those read back from the
        # checkpoint in every serialized field.
        path = str(tmp_path / "sweep.jsonl")
        types = [FlagType(t) for t in ((1, 2, 1), (1, 2, 2), (2, 2, 1))]
        fresh = search._run_type_sweep(types, None, 1, path)
        assert fresh[(1, 2, 2)].mirror_of == (2, 2, 1)
        assert all(report.count for report in fresh.values())
        searched = _count_searches(monkeypatch)
        resumed = search._run_type_sweep(types, None, 1, path)
        assert searched == []
        for lengths, report in fresh.items():
            want = report_to_dict(report)
            got = report_to_dict(resumed[lengths])
            assert list(got) == list(want)
            for key, value in want.items():
                assert got[key] == value, (lengths, key)
            assert resumed[lengths].classes == report.classes

    def test_stopped_source_redoes_both(self, tmp_path, monkeypatch):
        path = str(tmp_path / "sweep.jsonl")
        stopped = verify_conjecture_sweep(
            10, 0, checkpoint_path=path)
        assert not stopped[(4, 3, 3)].completed
        assert not stopped[(3, 3, 4)].completed
        assert stopped[(3, 3, 4)].mirror_of == (4, 3, 3)
        searched = _count_searches(monkeypatch)
        resumed = verify_conjecture_sweep(10, checkpoint_path=path)
        assert sorted(searched) == [(3, 3, 3), (3, 4, 3), (4, 3, 3)]
        assert all(r.completed for r in resumed.values())
        assert (resumed[(3, 3, 4)].nodes, resumed[(3, 3, 4)].mirror_of) \
            == (456, (4, 3, 3))

    def test_unrequested_mirror_is_searched(self, tmp_path, monkeypatch):
        path = str(tmp_path / "sweep.jsonl")
        search._run_type_sweep([FlagType((4, 3, 3))], None, 1, path)
        searched = _count_searches(monkeypatch)
        result = search._run_type_sweep([FlagType((3, 3, 4))], None, 1, path)
        assert searched == [(3, 3, 4)]
        assert result[(3, 3, 4)].mirror_of is None
        assert result[(3, 3, 4)].nodes == 456

    @pytest.mark.parametrize("budget", [0, None])
    def test_same_budget_same_completed(self, budget):
        result = search._run_type_sweep(
            [FlagType((3, 3, 4)), FlagType((4, 3, 3))], budget, 1, None)
        derived, source = result[(3, 3, 4)], result[(4, 3, 3)]
        assert derived.mirror_of == (4, 3, 3)
        assert derived.completed == source.completed == (budget is None)
        direct = time_branching_search(FlagType((3, 3, 4)), budget)
        assert derived.completed == direct.completed

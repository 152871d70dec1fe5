"""Tests for the classification engines.

The time-branching engine is checked class-for-class against an independent
enumeration oracle on every small type, and against the known family
classifications on mid-sized types where plain enumeration is hopeless.
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap

import pytest

import ulrich
from ulrich import core, families, search
from ulrich.core import FlagType
from ulrich.search import (SearchLimits, baseline_oracle,
                           enumerate_ulrich, report_from_dict, report_to_dict,
                           time_branching_search, verify_conjecture_sweep,
                           verify_no_multistep)

from helpers import all_types, brute_is_ulrich


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

    def test_node_cap_is_exact(self):
        ft = FlagType((2, 8, 1))
        for cap in (10, 1024, 3405):
            report = time_branching_search(ft, SearchLimits(max_nodes=cap))
            assert not report.completed
            assert report.nodes == cap + 1
        report = time_branching_search(ft, SearchLimits(max_nodes=3406))
        assert report.completed and report.nodes == 3406


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


_RECORD_TWICE = """
from ulrich import search
from ulrich.core import FlagType

record = search._Searcher._record


def record_twice(self):
    record(self)
    record(self)


search._Searcher._record = record_twice
"""


class TestDuplicateClassCheck:
    """A class found twice is an engine fault and must never pass silently."""

    def test_raises(self, monkeypatch):
        record = search._Searcher._record

        def record_twice(self):
            record(self)
            record(self)

        monkeypatch.setattr(search._Searcher, "_record", record_twice)
        with pytest.raises(RuntimeError, match="twice"):
            time_branching_search(FlagType((2, 2, 2)))

    def test_raises_under_optimize(self):
        code = _RECORD_TWICE + textwrap.dedent("""
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


class TestLimits:
    def test_node_cap_reports_incomplete(self):
        limits = SearchLimits(max_nodes=10)
        report = time_branching_search(FlagType((2, 4, 2)), limits)
        assert not report.completed
        assert report.nodes <= 11

    def test_time_cap_reports_incomplete(self):
        limits = SearchLimits(budget_seconds=1e-4)
        report = time_branching_search(FlagType((2, 8, 2)), limits)
        assert not report.completed

    # The limits mean the same with one worker and with several: (2,8,2)
    # has 10,884 nodes, and (1,10,1) has 4,004 in subtrees of fewer than
    # 1024 nodes each, none of which reaches a clock read of its own.

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cap", [5000, 10883, 10884])
    def test_node_cap_counts_whole_tree(self, cap, workers):
        report = time_branching_search(
            FlagType((2, 8, 2)), SearchLimits(max_nodes=cap), workers)
        assert report.completed == (cap >= 10884)
        if report.completed:
            assert (report.nodes, report.count) == (10884, 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_budget_stops_at_first_clock_read(self, workers):
        report = time_branching_search(
            FlagType((1, 10, 1)), SearchLimits(budget_seconds=0), workers)
        assert not report.completed
        assert report.nodes <= 1024

    def test_generous_limits_complete(self):
        limits = SearchLimits(budget_seconds=60, max_nodes=10 ** 7)
        report = time_branching_search(FlagType((2, 2, 2)), limits)
        assert report.completed
        assert report.count == 2


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


class TestEnumerateDispatch:
    def test_default_method(self):
        report = enumerate_ulrich(FlagType((2, 2, 2)))
        assert report.count == 2

    def test_baseline_method(self):
        report = enumerate_ulrich(FlagType((1, 2, 1)), method="baseline")
        assert report.completed
        assert report.classes == baseline_oracle(FlagType((1, 2, 1)))

    @pytest.mark.parametrize("kwargs", [
        {"workers": 2},
        {"limits": SearchLimits(budget_seconds=0)},
        {"limits": SearchLimits(max_nodes=10)},
    ], ids=["workers", "budget", "nodes"])
    def test_baseline_rejects_resources(self, kwargs):
        with pytest.raises(ValueError, match="baseline method takes no"):
            enumerate_ulrich(FlagType((1, 2, 1)), method="baseline", **kwargs)

    def test_spec_object(self):
        # The full request (limits, workers, method) given as keywords.
        report = enumerate_ulrich(FlagType((2, 2, 1)),
                                  limits=SearchLimits(max_nodes=10 ** 6),
                                  workers=1, method="time-branching")
        assert report.completed and report.count == 2

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            enumerate_ulrich(FlagType((1, 1, 1)), method="sorcery")


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

    def test_stopped_report_is_searched_again(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        stopped = verify_conjecture_sweep(
            10, SearchLimits(max_nodes=500), checkpoint_path=path)
        assert not stopped[(3, 4, 3)].completed
        resumed = verify_conjecture_sweep(10, checkpoint_path=path)
        fresh = verify_conjecture_sweep(10)
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

    def test_stopped_source_redoes_both(self, tmp_path, monkeypatch):
        path = str(tmp_path / "sweep.jsonl")
        stopped = verify_conjecture_sweep(
            10, SearchLimits(max_nodes=400), checkpoint_path=path)
        assert not stopped[(4, 3, 3)].completed
        assert not stopped[(3, 3, 4)].completed
        assert stopped[(3, 3, 4)].mirror_of == (4, 3, 3)
        searched = _count_searches(monkeypatch)
        resumed = verify_conjecture_sweep(10, checkpoint_path=path)
        assert sorted(searched) == [(3, 4, 3), (4, 3, 3)]
        assert all(r.completed for r in resumed.values())
        assert (resumed[(3, 3, 4)].nodes, resumed[(3, 3, 4)].mirror_of) \
            == (456, (4, 3, 3))

    def test_unrequested_mirror_is_searched(self, tmp_path, monkeypatch):
        path = str(tmp_path / "sweep.jsonl")
        search._run_type_sweep([FlagType((4, 3, 3))], SearchLimits(), 1, path)
        searched = _count_searches(monkeypatch)
        result = search._run_type_sweep([FlagType((3, 3, 4))],
                                        SearchLimits(), 1, path)
        assert searched == [(3, 3, 4)]
        assert result[(3, 3, 4)].mirror_of is None
        assert result[(3, 3, 4)].nodes == 456

    @pytest.mark.parametrize("cap", [455, 456])
    def test_same_cap_same_completed(self, cap):
        limits = SearchLimits(max_nodes=cap)
        result = search._run_type_sweep(
            [FlagType((3, 3, 4)), FlagType((4, 3, 3))], limits, 1)
        derived, source = result[(3, 3, 4)], result[(4, 3, 3)]
        assert derived.mirror_of == (4, 3, 3)
        assert derived.completed == source.completed == (cap >= 456)
        direct = time_branching_search(FlagType((3, 3, 4)), limits)
        assert derived.completed == direct.completed

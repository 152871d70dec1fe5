"""Tests of the benchmark's own helpers: ``python3 -m pytest bench``.

They need neither the package nor a timed run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_has_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_verdict_stream_is_long_enough_for_p99():
    assert stats.tail_percentile(workloads.VERDICT_OPS) >= 99.0


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.5], 99) == 7.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_quartiles_match_statistics_module():
    assert stats.quartiles([1, 2, 3, 4, 5]) == (1.5, 3.0, 4.5)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [Span("a", 0.0, 10.0, -1, 0),
             Span("b", 1.0, 3.0, 0, 0),
             Span("c", 2.0, 2.5, 1, 0),   # grandchild: counted in b, not a
             Span("d", 5.0, 6.0, 0, 0)]
    assert self_times(spans) == pytest.approx([7.0, 1.5, 0.5, 1.0])


def test_self_time_merges_overlapping_children_and_clips_them():
    spans = [Span("a", 0.0, 10.0, -1, 0),
             Span("b", 1.0, 4.0, 0, 0),
             Span("c", 3.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def _fake_package():
    """Modules shaped like the package, with one call chain core -> core."""
    core = SimpleNamespace()
    core.collision_schedule = lambda x: x
    core.is_ulrich = lambda x: core.collision_schedule(x) > 0
    core.dual = lambda x: 1 // x
    cli = SimpleNamespace(main=lambda argv: core.is_ulrich(len(argv)))
    return SimpleNamespace(core=core, cli=cli, search=SimpleNamespace(),
                           geometry=SimpleNamespace(), analysis=SimpleNamespace(),
                           families=SimpleNamespace())


def test_tracer_records_parents_tags_errors_and_restores():
    pkg = _fake_package()
    original = pkg.core.is_ulrich
    tracer = Tracer()
    tracer.install(pkg)
    tracer.op = 7
    pkg.cli.main(["check", "x"])
    with pytest.raises(ZeroDivisionError):
        pkg.core.dual(0)
    tracer.uninstall()
    spans = tracer.take()
    assert pkg.core.is_ulrich is original
    assert [s.name for s in spans] == ["cli.main", "core.is_ulrich",
                                       "core.collision_schedule", "core.dual"]
    assert [s.parent for s in spans] == [-1, 0, 1, -1]
    assert [s.tag for s in spans[:2]] == ["check", "pos"]
    assert all(s.op == 7 for s in spans)
    assert [s.error for s in spans] == [False, False, False, True]
    assert "search.time_branching_search" in tracer.missing
    figures = tracing.span_figures(spans)
    assert figures["core.is_ulrich.calls"] == 1
    assert figures["core.errors"] == 1
    assert figures["cli.main.self_us.check"] > 0


def test_span_figures_are_per_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(tracing.span_figures([])) <= names


# -- seeded inputs -----------------------------------------------------------

def test_classify_inputs_are_seeded():
    assert workloads.classify_inputs(1) == workloads.classify_inputs(1)
    assert workloads.classify_inputs(1) != workloads.classify_inputs(2)


def test_classify_draw_only_uses_recorded_types():
    recorded = json.loads((HERE / "expected.json").read_text())["classify"]
    drawn = {"enumerate " + workloads.type_text(t)
             for seed in range(64) for t in workloads.classify_inputs(seed)}
    assert drawn == set(recorded)


def test_verdict_inputs_are_seeded():
    first = workloads.verdict_inputs(1)
    assert first == workloads.verdict_inputs(1)
    assert first != workloads.verdict_inputs(2)
    kinds = {op[0] for op in first[0]}
    assert kinds == {"judge", "build", "cli"}


# -- reference answers -------------------------------------------------------

def test_reference_verdict():
    assert ref.is_ulrich(((12, 4), (3, 0), (-2, -8)))
    assert not ref.is_ulrich(((10, 4), (3, 0), (-2,)))
    assert not ref.is_ulrich(((3,), (1,)))


def test_reference_families_are_ulrich():
    for name, *params in workloads.FAMILY_SPECS:
        if name == "one_n_one":
            params = [params[0], (1, -1) * (params[0] // 2) + (1,) * (params[0] % 2)]
        blocks = (ref.SPORADIC[params[0]] if name == "sporadic"
                  else getattr(ref, name)(*params))
        assert ref.is_ulrich(blocks), (name, params)


def test_reference_class_counts():
    assert len(ref.one_n_one_classes(5)) == 32
    assert len(ref.two_n_one_classes(12)) == 2   # 13 = 13 * 1 = 1 * 13
    assert len(ref.two_n_one_classes(14)) == 4   # 15 = 15, 5 * 3, 3 * 5, 1 * 15
    assert ref.canonical(ref.mirror(ref.mirror(ref.p_u(2)))) == ref.canonical(ref.p_u(2))

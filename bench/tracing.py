"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` replaces each listed module attribute with a wrapper that
records a span (name, start, end, parent span, operation id).  Calls written
as ``core.is_ulrich(...)`` and calls to module globals inside the package go
through the attribute, so both are caught; names bound by ``from x import y``
before installation are not.  Spans stay in memory until the benchmark writes
them out.  A span recorded in a forked worker process stays in that process.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from time import perf_counter

# Public functions wrapped per module.  A name the package no longer has is
# skipped and listed in ``Tracer.missing``.
TRACED = {
    "core": ("from_blocks", "parse_partition", "collision_schedule",
             "is_ulrich", "dual", "symmetric", "canonicalize",
             "congruence_ok"),
    "search": ("enumerate_ulrich", "time_branching_search", "baseline_oracle",
               "verify_no_multistep", "verify_conjecture_sweep",
               "report_to_dict", "report_from_dict"),
    "geometry": ("to_weight", "is_ulrich_via_bwb", "ulrich_identity_check",
                 "bwb_cohomology", "bundle_rank", "flag_degree"),
    "analysis": ("greedy_word", "replay", "rectangle_check",
                 "trapezoid_check", "sumset_decompose"),
    "families": ("one_n_one", "two_one_k", "one_two_k", "two_param",
                 "fundamental_F", "elongate", "elongated_family", "p_u",
                 "sporadic"),
    "cli": ("main",),
}

LAYERS = tuple(TRACED)

# cli.main self time is reported per subcommand.
CLI_SUBCOMMANDS = ("enumerate", "verify", "check", "analyze", "geometry")


def _verdict_tag(args, result):
    return "pos" if result else "neg"


def _subcommand_tag(args, result):
    argv = args[0] if args else None
    return argv[0] if argv else None


# Spans of these functions carry a tag derived from the call.
TAGGERS = {
    "core.is_ulrich": _verdict_tag,
    "cli.main": _subcommand_tag,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    tag: str | None = None
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped module attributes while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, tagger = self.spans, self._stack, TAGGERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if tagger is not None:
                span.tag = tagger(args, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every listed function of the package's modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for layer, names in TRACED.items():
            module = getattr(package, layer)
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{layer}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans.

    Children are merged as intervals clipped to the parent, so overlapping
    children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def write_spans(path, passes: list[list[Span]]) -> None:
    """One JSON object per span; times are seconds from the pass start."""
    with open(path, "w") as fh:
        for number, spans in enumerate(passes):
            origin = spans[0].start if spans else 0.0
            for span in spans:
                row = asdict(span)
                row["pass"] = number
                row["start"] = round(span.start - origin, 9)
                row["end"] = round(span.end - origin, 9)
                fh.write(json.dumps(row) + "\n")


def span_figures(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced pass; 0 where a function was not called."""
    own = self_times(spans)
    calls, total, self_total = {}, {}, {}
    for span, s in zip(spans, own):
        for key in (span.name, f"{span.name}.{span.tag}") if span.tag else (span.name,):
            calls[key] = calls.get(key, 0) + 1
            total[key] = total.get(key, 0.0) + span.duration
            self_total[key] = self_total.get(key, 0.0) + s

    def us_per_call(key, times=total):
        return times.get(key, 0.0) / calls[key] * 1e6 if calls.get(key) else 0.0

    def in_families(idx):
        return idx >= 0 and spans[idx].name.startswith("families.")

    builds = sum(1 for i, span in enumerate(spans)
                 if in_families(i) and not in_families(span.parent))
    build_self = sum(s for i, s in enumerate(own) if in_families(i))
    out = {
        "search.time_branching_search.self_s":
            self_total.get("search.time_branching_search", 0.0),
        "core.is_ulrich.calls": calls.get("core.is_ulrich", 0),
        "core.is_ulrich.us_per_call.neg": us_per_call("core.is_ulrich.neg"),
        "core.is_ulrich.us_per_call.pos": us_per_call("core.is_ulrich.pos"),
        "core.from_blocks.calls": calls.get("core.from_blocks", 0),
        "families.build.self_us": build_self / builds * 1e6 if builds else 0.0,
    }
    for name in ("core.collision_schedule", "core.dual", "core.parse_partition",
                 "core.from_blocks", "geometry.is_ulrich_via_bwb",
                 "geometry.ulrich_identity_check", "analysis.greedy_word",
                 "analysis.replay"):
        out[f"{name}.us_per_call"] = us_per_call(name)
    for name in ("geometry.bwb_cohomology", "geometry.flag_degree",
                 "geometry.bundle_rank", "analysis.greedy_word"):
        out[f"{name}.self_s"] = self_total.get(name, 0.0)
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main.self_us.{sub}"] = us_per_call(f"cli.main.{sub}", self_total)
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(1 for span in spans
                                     if span.error and span.name.startswith(layer + "."))
    return out

"""The three benchmark workloads: seeded inputs, one timed pass, the gate.

Each workload drives the package only through its public functions and
``cli.main``.  A pass runs the whole input set once; the caller repeats
passes and takes medians.  Answers are checked after the timed part of each
pass, against ``reference`` and against the first pass of the same run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import reference as ref
import stats


@dataclass
class PassResult:
    """What one pass measured, and what its gate found."""

    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)  # per operation, verdict only
    figures: dict[str, float] = field(default_factory=dict)
    answers: dict[str, dict] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def call_cli(pkg, argv):
    """Run ``cli.main(argv)`` with its output captured: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_blocks(s: str) -> tuple:
    return tuple(tuple(int(x) for x in part.split(",")) if part else ()
                 for part in s.split("|"))


def digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16]


def type_text(lengths) -> str:
    return ",".join(map(str, lengths))


def check_repeat(workload, result: PassResult) -> None:
    """Exact answers must repeat those of the workload's first pass."""
    if workload.first is None:
        workload.first = result.answers
        return
    for key, answer in result.answers.items():
        if workload.first.get(key) != answer:
            result.fail(f"{key}: {answer} differs from the first pass "
                        f"{workload.first.get(key)}")


# --------------------------------------------------------------------------
# classify: a few deep searches through `ulrich enumerate`
# --------------------------------------------------------------------------

def classify_inputs(seed: int) -> list[tuple[int, ...]]:
    """Five types, drawn so that every seed costs about the same.

    The (2,n,1) and (2,n,2) draws are coupled: (2,12,1) + (2,11,2) and
    (2,13,1) + (2,10,2) each search for about 3.6 s, while each band alone
    doubles in cost from one n to the next.  (3,n,3) with n in {5,6} adds
    under 0.2 s.  (1,14,1) is in every draw: its 16,384 classes set the peak
    memory, which would change by a quarter if n were drawn from {13,14}.
    The seed also picks the orientation of (2,n,1) and (1,2,21), whose
    mirror types search the same number of nodes, and the order.
    """
    rng = random.Random(f"classify-{seed}")
    b = rng.randrange(2)
    types = [(2, 12 + b, 1), (2, 11 - b, 2), (3, 5 + rng.randrange(2), 3),
             (1, 14, 1), (1, 2, 21)]
    if rng.randrange(2):
        types[0] = types[0][::-1]
    if rng.randrange(2):
        types[4] = types[4][::-1]
    rng.shuffle(types)
    return types


def expected_classes(lengths) -> tuple[int, set, bool]:
    """(class count, classes known to be present, whether they are all)."""
    a, n, c = lengths
    if (a, c) == (1, 1):
        known = ref.one_n_one_classes(n)
        return len(known), known, True
    if (a, c) in ((2, 1), (1, 2)):
        known = ref.two_n_one_classes(n)
        if a == 1:
            known = {ref.canonical(ref.mirror(P)) for P in known}
        return len(known), known, True
    if (a, c) == (2, 2):
        if n % 2:
            return 0, set(), True
        P = ref.p_u(n // 2)
        return 2, {ref.canonical(P), ref.canonical(ref.mirror(P))}, True
    if (a, c) == (3, 3):
        return 0, set(), True
    if lengths in ((1, 2, 21), (21, 2, 1)):
        P = ref.one_two_k(2)
        return 2, {ref.canonical(P if a == 1 else ref.mirror(P))}, False
    raise ValueError(f"no reference for type {lengths}")


class Classify:
    name = "classify"

    def __init__(self, seed: int, scratch: str):
        self.types = classify_inputs(seed)
        self.first: dict | None = None

    def describe(self) -> list[str]:
        return ["inputs: enumerate " + "; ".join(map(type_text, self.types))
                + " (one worker each)"]

    def run_pass(self, pkg, tracer) -> PassResult:
        result = PassResult()
        raw = []
        start = perf_counter()
        for op, lengths in enumerate(self.types):
            if tracer:
                tracer.op = op
            try:
                raw.append(call_cli(pkg, ["enumerate", type_text(lengths), "--json"]))
            except Exception as exc:  # a crash is a failed operation
                raw.append(exc)
        result.wall = perf_counter() - start
        nodes = classes = 0
        for lengths, outcome in zip(self.types, raw):
            result.attempted += 1
            key = "enumerate " + type_text(lengths)
            try:
                code, out, err = outcome
                report = json.loads(out)
                found = report["classes"]
                result.answers[key] = {"count": len(found), "nodes": report["nodes"],
                                       "digest": digest(found)}
                nodes += report["nodes"]
                classes += len(found)
                problem = self._gate(lengths, code, report) if self.first is None else None
            except (TypeError, ValueError, KeyError) as exc:
                problem = f"unreadable result {outcome!r:.200}: {exc!r}"
            if problem:
                result.fail(f"{key}: {problem}")
        result.figures = {"search.nodes": nodes,
                          "search.yield": classes / nodes if nodes else 0.0}
        check_repeat(self, result)
        return result

    def _gate(self, lengths, code, report) -> str | None:
        if code != 0 or not report["completed"]:
            return f"exit {code}, completed={report['completed']}"
        found = {parse_blocks(s) for s in report["classes"]}
        if len(found) != report["count"] or report["count"] != len(report["classes"]):
            return "class list and count disagree"
        count, known, exact = expected_classes(lengths)
        if len(found) != count:
            return f"{len(found)} classes, expected {count}"
        if not known <= found or (exact and known != found):
            return "class set differs from the reference families"
        if count <= 64 and not all(ref.is_ulrich(P) for P in found):
            return "a reported class is not Ulrich"
        return None


# --------------------------------------------------------------------------
# sweep: hundreds of small searches through `ulrich verify`, with resume
# --------------------------------------------------------------------------

SWEEP_WORKERS = 2
SWEEP_CALLS = (("multistep", 9), ("conjecture", 14))
_ELAPSED = re.compile(r'"elapsed": [-+0-9.eE]+')


def checkpoint_bytes(path: str) -> int:
    """Checkpoint size with every elapsed time written as 0.

    The elapsed values are wall times, so the raw size changes by a few bytes
    from run to run; with them pinned the size is exact.
    """
    with open(path) as fh:
        return sum(len(_ELAPSED.sub('"elapsed": 0', line).encode())
                   for line in fh)


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, scratch: str):
        self.scratch = scratch
        self.first: dict | None = None

    def describe(self) -> list[str]:
        calls = "; ".join(f"verify {c} {b}" for c, b in SWEEP_CALLS)
        return [f"inputs: {calls} (--threads {SWEEP_WORKERS}, fresh checkpoint "
                "each), then each again on its finished checkpoint (resume)",
                "note: spans from forked sweep workers stay in the workers; "
                "per-type figures come from the program's --json report"]

    @staticmethod
    def _argv(claim, bound, path):
        return ["verify", claim, str(bound), "--threads", str(SWEEP_WORKERS),
                "--checkpoint", path, "--json"]

    def run_pass(self, pkg, tracer) -> PassResult:
        result = PassResult()
        tmp = tempfile.mkdtemp(prefix="sweep-", dir=self.scratch)
        try:
            paths = [os.path.join(tmp, f"{claim}.jsonl") for claim, _ in SWEEP_CALLS]
            raw, times = [], []
            start = perf_counter()
            for phase in ("sweep", "resume"):
                for op, ((claim, bound), path) in enumerate(zip(SWEEP_CALLS, paths)):
                    if tracer:
                        tracer.op = op if phase == "sweep" else op + len(SWEEP_CALLS)
                    t = perf_counter()
                    try:
                        raw.append(call_cli(pkg, self._argv(claim, bound, path)))
                    except Exception as exc:  # a crash is a failed operation
                        raw.append(exc)
                    times.append(perf_counter() - t)
            result.wall = perf_counter() - start
            sizes = [checkpoint_bytes(p) if os.path.exists(p) else 0 for p in paths]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self._gate(result, raw, times, sizes)
        check_repeat(self, result)
        return result

    def _gate(self, result, raw, times, sizes):
        n = len(SWEEP_CALLS)
        elapsed, sweeps = [], {}
        for k, outcome in enumerate(raw):
            claim, bound = SWEEP_CALLS[k % n]
            key = f"verify {claim} {bound}"
            label = key if k < n else key + " (resume)"
            result.attempted += 1
            try:
                code, out, err = outcome
                report = json.loads(out)
                types = report["types"]
                if k < n:
                    sweeps[key] = types
                    elapsed.extend(t["elapsed"] for t in types)
                    result.answers[key] = {
                        "types": len(types),
                        "count": sum(1 for t in types if t["count"]),
                        "nodes": sum(t["nodes"] for t in types),
                        "digest": digest(f"{type_text(t['type'])} {t['count']} "
                                         f"{t['nodes']}" for t in types),
                        "checkpoint_bytes": sizes[k]}
                elif types != sweeps.get(key):
                    result.fail(f"{label}: resumed report differs from the sweep")
                    continue
                if code != 0 or not report["holds"] or any(t["count"] for t in types):
                    result.fail(f"{label}: exit {code}, holds={report['holds']}")
            except (TypeError, ValueError, KeyError) as exc:
                result.fail(f"{label}: unreadable result {outcome!r:.200}: {exc!r}")
        result.figures = {
            "search.sweep.nodes": sum(a["nodes"] for a in result.answers.values()),
            "search.sweep.type_p50_ms":
                stats.percentile(elapsed, 50) * 1e3 if elapsed else 0.0,
            "search.sweep.type_p90_ms":
                stats.percentile(elapsed, 90) * 1e3 if elapsed else 0.0,
            "search.sweep.pool_overhead_s":
                sum(times[:n]) - sum(elapsed) / SWEEP_WORKERS,
            "search.resume_s": sum(times[n:]),
            "search.checkpoint_bytes": sum(sizes),
        }


# --------------------------------------------------------------------------
# verdict: a stream of single-partition operations
# --------------------------------------------------------------------------

VERDICT_OPS = 7000
ORACLE_TYPES = ((2, 3, 1), (2, 2, 2), (3, 2, 1), (1, 6, 1), (2, 1, 3))


def _family_specs():
    """(constructor, params-without-signs) for members with N <= 65."""
    specs = [("one_n_one", n) for n in range(1, 15)]
    specs += [(name, m) for m in range(3) for name in ("two_one_k", "one_two_k")]
    specs += [("fundamental_F", m) for m in range(2, 23)]
    specs += [("elongated_family", k, m) for k in range(1, 11)
              for m in range(1, 22) if m - 1 + 2 * k * m <= 21]
    specs += [("p_u", u) for u in range(1, 8)]
    specs += [("sporadic", name) for name in sorted(ref.SPORADIC)]
    return specs


FAMILY_SPECS = _family_specs()
TWO_PARAM = (("two_param", 0, 1), ("two_param", 1, 0))


def _member(rng, spec):
    """A family member for one spec: (constructor name, params, blocks)."""
    name, *params = spec
    if name == "one_n_one":
        n = params[0]
        params = [n, tuple(rng.choice((1, -1)) for _ in range(n))]
    if name == "sporadic":
        return name, params, ref.SPORADIC[params[0]]
    return name, params, getattr(ref, name)(*params)


def _window_candidate(rng):
    """Random entries inside the collision windows of a type with 12 <= N <= 65."""
    while True:
        lengths = [rng.randint(1, 7) for _ in range(rng.choice((2, 3, 3, 3, 4)))]
        N = ref.dimension(lengths)
        if not 12 <= N <= 65 or lengths[-1] > N:
            continue
        r = len(lengths) - 1
        blocks = [None] * (r + 1)
        blocks[r] = tuple(sorted([0] + rng.sample(range(1, N), lengths[r] - 1),
                                 reverse=True))
        floor = blocks[r][0]
        for i in range(r - 1, -1, -1):
            pool = range(floor + 1, N * (r - i) + 1)
            if len(pool) < lengths[i]:
                break
            blocks[i] = tuple(sorted(rng.sample(pool, lengths[i]), reverse=True))
            floor = blocks[i][0]
        else:
            return tuple(blocks)


def _near_miss(rng, blocks):
    """The partition with one entry moved by +-1 or +-2, still decreasing."""
    while True:
        flat = [e for block in blocks for e in block]
        i = rng.randrange(len(flat))
        flat[i] += rng.choice((-2, -1, 1, 2))
        if all(a > b for a, b in zip(flat, flat[1:])):
            out, pos = [], 0
            for block in blocks:
                out.append(tuple(flat[pos:pos + len(block)]))
                pos += len(block)
            return tuple(out)


def verdict_inputs(seed: int):
    """(operations, oracle type) for one seed.

    Operations are ("judge", text, is_ulrich), ("build", name, params, blocks)
    with blocks None where no reference formula exists, and
    ("cli", argv, exit code, is_ulrich).  The mix is fixed: 1% CLI calls, 10%
    builds, and judged inputs that are 70% window candidates, 20% near-misses
    and 10% family members.  Family members take the constructors and
    parameters of FAMILY_SPECS in turn, so every seed certifies the same
    members; the seed draws the windows, the signs of (1,n,1) members, the
    near-miss moves and the order.
    """
    rng = random.Random(f"verdict-{seed}")
    specs = itertools.cycle(FAMILY_SPECS)
    n_cli, n_build = VERDICT_OPS // 100, VERDICT_OPS // 10
    n_judge = VERDICT_OPS - n_cli - n_build
    judged = [_window_candidate(rng) for _ in range(n_judge * 7 // 10)]
    judged += [_near_miss(rng, _member(rng, next(specs))[2])
               for _ in range(n_judge // 5)]
    judged += [_member(rng, next(specs))[2] for _ in range(n_judge - len(judged))]
    ops = [("judge", ref.text(b), ref.is_ulrich(b)) for b in judged]
    for k in range(n_build):
        if k % 20 == 0:
            name, *params = TWO_PARAM[k // 20 % len(TWO_PARAM)]
            ops.append(("build", name, params, None))
        else:
            ops.append(("build", *_member(rng, next(specs))))
    for k in range(n_cli):
        sub = ("check", "analyze", "geometry")[k % 3]
        blocks = _member(rng, next(specs))[2] if sub == "geometry" else rng.choice(judged)
        good = ref.is_ulrich(blocks)
        ops.append(("cli", [sub, ref.text(blocks), "--json"], 0 if good else 1, good))
    rng.shuffle(ops)
    return ops, rng.choice(ORACLE_TYPES)


def certify(pkg, P) -> str | None:
    """Checks that must hold for every Ulrich partition."""
    if not pkg.geometry.ulrich_identity_check(P)[3]:
        return "h0 = rank * degree fails"
    shift = (P.dimension + 1) * P.type.r
    if pkg.core.dual(pkg.core.dual(P)).entries != tuple(e - shift for e in P.entries):
        return "dual is not an involution"
    if len(P.type.lengths) == 3:
        word = pkg.analysis.greedy_word(P).letters
        if pkg.analysis.replay(word, P.blocks[1]).as_partition() != P:
            return f"greedy word {word} does not replay"
    return None


def run_op(pkg, op) -> str | None:
    """One stream operation; returns a problem description or None."""
    kind = op[0]
    if kind == "judge":
        _, text, good = op
        P = pkg.core.parse_partition(text)
        kernel = bool(pkg.core.is_ulrich(P))
        bott = pkg.geometry.is_ulrich_via_bwb(P)
        if kernel != good or bott != good:
            return f"{text}: is_ulrich={kernel} bwb={bott}, reference {good}"
        return certify(pkg, P) if good else None
    if kind == "build":
        _, name, params, blocks = op
        P = getattr(pkg.families, name)(*params)
        if blocks is not None:
            ok = P.blocks == blocks
        else:
            k1, k2 = ((4 ** (m + 1) - 1) // 3 for m in params)
            ok = P.type.lengths == (k1 + k2, 2, 1) and ref.is_ulrich(P.blocks)
        return None if ok else f"{name}{tuple(params)} built {P}"
    _, argv, want, good = op
    code, out, err = call_cli(pkg, argv)
    report = json.loads(out) if out else {}
    field_ok = (report.get("identity_holds") if argv[0] == "geometry"
                else report.get("ulrich") == good)
    if code != want or not field_ok:
        return f"ulrich {' '.join(argv)}: exit {code} {err.strip()}"
    return None


class Verdict:
    name = "verdict"

    def __init__(self, seed: int, scratch: str):
        self.ops, self.oracle_type = verdict_inputs(seed)
        self.first: dict | None = None

    def describe(self) -> list[str]:
        kinds = {}
        for op in self.ops:
            kinds[op[0]] = kinds.get(op[0], 0) + 1
        good = sum(1 for op in self.ops if op[0] == "judge" and op[2])
        return [f"inputs: {len(self.ops)} operations "
                + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items()))
                + f" ({good} judged inputs are Ulrich and certified); "
                f"baseline_oracle on {type_text(self.oracle_type)}"]

    def run_pass(self, pkg, tracer) -> PassResult:
        result = PassResult()
        outcomes = []
        start = perf_counter()
        for k, op in enumerate(self.ops):
            if tracer:
                tracer.op = k
            t = perf_counter()
            try:
                outcomes.append(run_op(pkg, op))
            except Exception as exc:  # a crash is a failed operation
                outcomes.append(f"{op[:3]}: {exc!r}")
            result.latencies.append(perf_counter() - t)
        if tracer:
            tracer.op = len(self.ops)
        t = perf_counter()
        try:
            ft = pkg.core.FlagType(self.oracle_type)
            oracle = pkg.search.baseline_oracle(ft)
            fast = pkg.search.time_branching_search(ft)
        except Exception as exc:  # a crash is a failed operation
            oracle = exc
        oracle_s = perf_counter() - t
        result.wall = perf_counter() - start
        for problem in outcomes:
            result.attempted += 1
            if problem:
                result.fail(problem)
        result.attempted += 1
        key = "oracle " + type_text(self.oracle_type)
        if isinstance(oracle, Exception):
            result.fail(f"{key}: {oracle!r}")
        else:
            slow = {P.blocks for P in oracle}
            if slow != {P.blocks for P in fast.classes}:
                result.fail(f"{key}: baseline and time-branching classes differ")
            elif not all(ref.is_ulrich(P) for P in slow):
                result.fail(f"{key}: a class is not Ulrich")
            result.answers[key] = {"count": len(slow), "nodes": fast.nodes,
                                   "digest": digest(ref.text(P) for P in slow)}
        lat = result.latencies
        result.figures = {
            "search.baseline_oracle_s": oracle_s,
            "verdict.per_s": len(lat) / result.wall,
            "verdict.p50_us": stats.percentile(lat, 50) * 1e6 if lat else 0.0,
            "verdict.p99_us": stats.percentile(lat, 99) * 1e6 if lat else 0.0,
        }
        check_repeat(self, result)
        return result


WORKLOADS = {"classify": Classify, "sweep": Sweep, "verdict": Verdict}

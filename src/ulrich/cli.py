"""Command-line interface.

Partitions are written block by block: entries comma-separated, blocks
separated by '|', e.g. "5|3,-1,-2,-4|-5".  Types are comma-separated lengths,
e.g. "2,8,2".

Exit codes: 0 success / positive verdict; 1 negative verdict (not Ulrich,
identity fails, counterexample found); 2 usage error, unreadable or
unwritable file, or malformed checkpoint; 3 resource budget exhausted before
completion; 141 (128 + SIGPIPE, as a shell reports a tool killed by SIGPIPE)
the reader closed stdout, which is not reported on stderr.

Only what parsing needs loads at start-up: ``core``, ``families`` (for the
``family`` table) and ``analysis``, which ``families`` imports.  Each
handler imports the modules it runs, ``search``, ``geometry``, ``diagram``
and ``json``, so a ``check`` never loads the search engine; a given
``--threads`` or ``--budget-seconds`` loads it while parsing, to be checked
by the search's own rule.  The help formatter works out the terminal
width without argparse's ``shutil`` import, which would load ``zlib``,
``bz2`` and ``lzma`` on every start.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import analysis, core, families
from .core import FlagType

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141


def _parse_type(text: str) -> FlagType:
    try:
        return FlagType(tuple(int(x) for x in text.replace("|", ",").split(",")))
    except ValueError as exc:
        raise ValueError(f"bad type {text!r}: {exc}")


def _resource_type(convert, field: str):
    """An argparse ``type`` for a resource option: ``convert`` the text,
    then check it as ``field`` of ``search._check_resources``.  A refusal
    is raised as ArgumentTypeError, so argparse names the option and exits
    with 2.  ``search`` is imported only when the option is given."""
    def parse(text):
        value = convert(text)
        from . import search
        limits = {"budget_seconds": None, "workers": 1, field: value}
        try:
            search._check_resources(**limits)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    # argparse names the type in "invalid int value: 'x'".
    parse.__name__ = convert.__name__
    return parse


class _StdoutClosed(Exception):
    """Raised by ``_print`` when the reader has closed stdout."""


def _print(lines) -> None:
    """Print each line to stdout and flush.  On a closed stdout, point fd 1
    at os.devnull (the SIGPIPE note in the Python docs), so that the flush
    at exit cannot fail again, and raise _StdoutClosed."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _StdoutClosed from None


def _emit(args, payload: dict, lines) -> None:
    if args.json:
        import json
        payload["schema"] = 1
        lines = [json.dumps(payload)]
    _print(lines)


def _verdict(P) -> tuple[bool, str | None]:
    """Whether P is Ulrich, and the witness as text when it is not."""
    witness = core.witness(P)
    if witness is None:
        return True, None
    kind, t = witness
    return False, f"{kind} {t}"


# -- subcommands -------------------------------------------------------------

def _cmd_check(args) -> int:
    P = core.parse_partition(args.partition)
    verdict, witness = _verdict(P)
    lines = ["ULRICH" if verdict else f"NOT-ULRICH: {witness}"]
    _emit(args, {
        "command": "check",
        "partition": core.format_partition(P),
        "type": list(P.type.lengths),
        "N": P.dimension,
        "ulrich": verdict,
        "witness": witness,
    }, lines)
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _cmd_diagram(args) -> int:
    from . import diagram
    P = core.parse_partition(args.partition)
    if args.svg is not None:
        text = diagram.render_svg(P)
        if args.svg == "-":
            _print([text])
        else:
            with open(args.svg, "w") as fh:
                fh.write(text)
    table = diagram.evolution_table(P)
    _emit(args, {
        "command": "diagram",
        "partition": core.format_partition(P),
        "velocities": list(table.velocities),
        "rows": [list(row) for row in table.rows],
        "coincidences": {
            str(t): [list(g) for g in groups]
            for t in table.times if (groups := table.coincidences(t))},
    }, [] if args.svg is not None else [diagram.render_ascii(P)])
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from . import search
    ft = _parse_type(args.type)
    if args.method == "baseline":
        if args.threads != 1 or args.budget_seconds is not None:
            raise ValueError("the baseline method takes no limits, 1 worker")
        start = time.monotonic()
        classes = search.baseline_oracle(ft)
        report = search.SearchReport(ft, classes, 0, time.monotonic() - start,
                                     True)
    else:
        report = search.time_branching_search(ft, args.budget_seconds,
                                              args.threads)
    payload = search.report_to_dict(report)
    payload["command"] = "enumerate"
    # The text lines reuse the class strings already formatted for the JSON.
    lines = payload["classes"] + [
        f"count {report.count} "
        f"({'complete' if report.completed else 'INCOMPLETE'}, "
        f"{report.nodes} nodes, {report.elapsed:.2f}s)"]
    _emit(args, payload, lines)
    return EXIT_OK if report.completed else EXIT_BUDGET


_FAMILIES = {
    "one_n_one": (families.one_n_one, "n signs   e.g.: one_n_one 4 +-+-"),
    "two_one_k": (families.two_one_k, "m         type (2,1,k), k=(4^(m+1)-1)/3"),
    "one_two_k": (families.one_two_k, "m         type (1,2,k)"),
    "two_param": (families.two_param, "m1 m2     type (k1+k2,2,1)"),
    "fundamental": (families.fundamental_F, "m         seed F_m, type (2,m-1,1)"),
    "elongated": (families.elongated_family, "k m       E^k(F_m), type (2,m-1+2km,1)"),
    "p_u": (families.p_u, "u         type (2,2u,2)"),
    "sporadic": (families.sporadic, "name      one of " + ",".join(families.sporadic_names())),
}


def _cmd_family(args) -> int:
    builder, _ = _FAMILIES[args.name]
    params = []
    for raw in args.params:
        if args.name == "sporadic":
            params.append(raw)
        elif args.name == "one_n_one" and set(raw) <= {"+", "-"}:
            params.append(tuple(1 if ch == "+" else -1 for ch in raw))
        else:
            try:
                params.append(int(raw))
            except ValueError:
                raise ValueError(f"bad parameter {raw!r} for {args.name}")
    try:
        P = builder(*params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"family {args.name}: {exc}")
    _emit(args, {
        "command": "family",
        "family": args.name,
        "partition": core.format_partition(P),
        "type": list(P.type.lengths),
        "N": P.dimension,
    }, [core.format_partition(P)])
    return EXIT_OK


def _cmd_analyze(args) -> int:
    P = core.parse_partition(args.partition)
    verdict, witness = _verdict(P)
    payload = {
        "command": "analyze",
        "partition": core.format_partition(P),
        "type": list(P.type.lengths),
        "N": P.dimension,
        "ulrich": verdict,
        "witness": witness,
        "congruences_ok": core.congruence_ok(P),
    }
    lines = [f"partition: {core.format_partition(P)}",
             f"type: {','.join(map(str, P.type.lengths))}  N: {P.dimension}",
             "verdict: ULRICH" if verdict else f"verdict: NOT-ULRICH ({witness})",
             f"congruences: {'ok' if payload['congruences_ok'] else 'VIOLATED'}"]
    payload["symmetric"] = core.format_partition(core.symmetric(P))
    lines.append(f"symmetric: {payload['symmetric']}")
    if verdict:
        D = core.dual(P)
        payload["dual"] = core.format_partition(D)
        lines.append(f"dual: {core.format_partition(D)}")
    # The greedy word, the boundary rules and the sumset form need three
    # nonempty blocks.
    triple = len(P.type.lengths) == 3 and P.type.all_positive
    if triple and verdict:
        word = analysis.greedy_word(P).letters
        payload["greedy_word"] = word
        lines.append(f"greedy word: {word}")
        rect = analysis.rectangle_check(P)
        quads = list(analysis.trapezoid_witnesses(P))
        trap = analysis.trapezoid_check(P)
        payload["rectangle_ok"] = rect
        payload["trapezoid_ok"] = trap
        payload["trapezoid_quadruples"] = len(quads)
        lines.append(f"rectangle rule: {'holds' if rect else 'FAILS'}")
        lines.append(f"trapezoid rule: {'holds' if trap else 'FAILS'} "
                     f"({len(quads)} quadruples)")
    if triple and len(P.blocks[1]) == 1:
        decomposition = analysis.sumset_decompose(P)
        if decomposition is None:
            payload["sumset"] = None
            lines.append("sumset decomposition: none")
        else:
            a_set, c_set, n_prime = decomposition
            payload["sumset"] = {"a": list(a_set), "c": list(c_set),
                                 "interval": [0, n_prime]}
            lines.append(f"sumset decomposition: A'={list(a_set)} "
                         f"C'={list(c_set)} tiling [0,{n_prime}]")
    _emit(args, payload, lines)
    return EXIT_OK if verdict else EXIT_NEGATIVE


# The bound ``verify`` sweeps to when none is given, per claim.
_VERIFY_BOUNDS = {"multistep": 7, "conjecture": 10}


def _cmd_verify(args) -> int:
    from . import search
    bound = args.bound
    if bound is None:
        bound = _VERIFY_BOUNDS[args.claim]
    if args.claim == "multistep":
        done = search.verify_no_multistep(bound, args.budget_seconds,
                                          args.threads, args.checkpoint)
        claim = f"no Ulrich partition with >= 4 blocks, total length <= {bound}"
    else:
        done = search.verify_conjecture_sweep(bound, args.budget_seconds,
                                              args.threads, args.checkpoint)
        claim = f"no three-block Ulrich partition with all lengths >= 3, sum <= {bound}"
    reports = sorted(done.values(), key=lambda rep: rep.type.lengths)
    incomplete = [rep for rep in reports if not rep.completed]
    nonempty = [rep for rep in reports if rep.count]
    lines = []
    for rep in reports:
        notes = [f"{rep.nodes} nodes"]
        if rep.mirror_of is not None:
            notes.append(f"mirror of {','.join(map(str, rep.mirror_of))}")
        if not rep.completed:
            notes.append("INCOMPLETE")
        lines.append(f"type {','.join(map(str, rep.type.lengths))}: "
                     f"{rep.count} classes ({', '.join(notes)})")
    derived = sum(rep.mirror_of is not None for rep in reports)
    lines.append(f"{derived} of {len(reports)} types derived from their mirror")
    if nonempty:
        lines.append(f"COUNTEREXAMPLE to: {claim}")
        code = EXIT_NEGATIVE
    elif incomplete:
        lines.append(f"INCONCLUSIVE (budget exhausted): {claim}")
        code = EXIT_BUDGET
    else:
        lines.append(f"HOLDS: {claim}")
        code = EXIT_OK
    _emit(args, {
        "command": "verify",
        "claim": claim,
        "types": [search.report_to_dict(rep) for rep in reports],
        "holds": not nonempty and not incomplete,
        "completed": not incomplete,
    }, lines)
    return code


def _cmd_geometry(args) -> int:
    from . import geometry
    P = core.parse_partition(args.partition)
    pol = None
    # An empty value is refused, not read as "use the default".
    if args.polarization is not None:
        try:
            pol = geometry.PolarizationWeights(
                tuple(int(x) for x in args.polarization.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad --polarization {args.polarization!r}: {exc}")
    w = geometry.to_weight(P)
    h0, rank, degree, holds = geometry.ulrich_identity_check(P, pol)
    dim = geometry.flag_dimension(P.type)
    lines = [
        f"partition: {core.format_partition(P)}",
        f"flag variety: steps {','.join(map(str, P.type.k))} in n={P.type.n}"
        f"  dim {dim}  deg {degree}",
        f"bundle rank: {rank}",
        f"h^0: {h0}",
        f"identity h^0 = rank * deg: {'holds' if holds else 'FAILS'} "
        f"({rank} * {degree} = {rank * degree})",
    ]
    _emit(args, {
        "command": "geometry",
        "partition": core.format_partition(P),
        "weight": list(w.entries),
        "dim": dim,
        "degree": degree,
        "rank": rank,
        "h0": h0,
        "identity_holds": holds,
    }, lines)
    return EXIT_OK if holds else EXIT_NEGATIVE


def _terminal_columns() -> int:
    """``shutil.get_terminal_size().columns``, without importing shutil.

    A positive integer in ``COLUMNS`` wins; else the width of the terminal
    on ``sys.__stdout__``; else 80.
    """
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
    except (AttributeError, ValueError, OSError):
        columns = 0
    return columns or 80


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter at argparse's default width, found by
    ``_terminal_columns``: argparse builds one per ``add_argument``."""

    def __init__(self, prog, indent_increment=2, max_help_position=24,
                 width=None):
        if width is None:
            width = _terminal_columns() - 2
        super().__init__(prog, indent_increment, max_help_position, width)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose formatter is ``_HelpFormatter``; its
    subparsers are ``_Parser`` too."""

    def __init__(self, *args, formatter_class=_HelpFormatter, **kwargs):
        super().__init__(*args, formatter_class=formatter_class, **kwargs)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``ulrich`` parser, built once per process.

    Parsing does not change it.  Each subcommand's ``func`` is the
    ``_cmd_*`` function as it was at this first build.
    """
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one JSON object instead of text")
    # Only the subcommands that run searches take resource options.
    searching = _Parser(add_help=False, parents=[common])
    searching.add_argument("--budget-seconds", default=None,
                           type=_resource_type(float, "budget_seconds"),
                           help="stop long searches after this wall time")
    searching.add_argument("--threads", default=1,
                           type=_resource_type(int, "workers"),
                           help="worker processes for searches")

    parser = _Parser(
        prog="ulrich",
        description="Classify, construct, and verify Ulrich partitions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="test one partition for the Ulrich property")
    p.add_argument("partition", help='e.g. "5|3,-1,-2,-4|-5"')
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("diagram", parents=[common],
                       help="draw the evolution of a partition")
    p.add_argument("partition")
    p.add_argument("--svg", metavar="PATH",
                   help="write an SVG ('-' for stdout) instead of ASCII")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("enumerate", parents=[searching],
                       help="classify all Ulrich partitions of a type")
    p.add_argument("type", help='comma-separated block lengths, e.g. "2,8,2"')
    p.add_argument("--method", default="time-branching",
                   choices=["time-branching", "baseline"])
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("family", parents=[common],
                       help="construct a member of a known family")
    p.add_argument("name", choices=sorted(_FAMILIES))
    p.add_argument("params", nargs="*",
                   help="; ".join(f"{k}: {v[1]}" for k, v in sorted(_FAMILIES.items())))
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("analyze", parents=[common],
                       help="structure report for one partition")
    p.add_argument("partition")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", parents=[searching],
                       help="sweep a nonexistence claim over many types")
    p.add_argument("claim", choices=list(_VERIFY_BOUNDS))
    p.add_argument("bound", nargs="?", type=int, default=None,
                   help="total-length bound (defaults: " + ", ".join(
                       f"{k} {v}" for k, v in _VERIFY_BOUNDS.items()) + ")")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="JSONL file to record and resume per-type results")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("geometry", parents=[common],
                       help="rank, degree, h^0 and the Ulrich identity")
    p.add_argument("partition")
    p.add_argument("--polarization", metavar="A1,A2,...",
                   help="ample coefficients per step (default all ones)")
    p.set_defaults(func=_cmd_geometry)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; SystemExit comes only
    from argparse (a parse error or ``--help``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _StdoutClosed:
        return EXIT_PIPE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

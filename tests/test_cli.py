"""End-to-end tests of the command-line interface.

Each test drives ``main`` with an argv list and checks stdout and the exit
code; exit conventions are 0 = positive, 1 = negative verdict, 2 = usage,
3 = budget exhausted.
"""

from __future__ import annotations

import importlib.metadata as md
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ulrich import cli, search
from ulrich.cli import main
from ulrich.core import FlagType
from ulrich.search import SearchReport

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = Path(cli.__file__).resolve().parent.parent


def declared_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def installed_distribution():
    try:
        return md.distribution("ulrich")
    except md.PackageNotFoundError:
        return None


def run(argv):
    """main() returns an int normally, raises SystemExit on usage errors."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


class TestCheck:
    def test_positive(self, capsys):
        assert run(["check", "12,4|3,0|-2,-8"]) == 0
        assert capsys.readouterr().out == "ULRICH\n"

    def test_negative_duplicate(self, capsys):
        assert run(["check", "5,3|0|-5"]) == 1
        assert capsys.readouterr().out == "NOT-ULRICH: duplicate-time 5\n"

    def test_negative_fractional(self, capsys):
        assert run(["check", "6,1|0|-3"]) == 1
        assert capsys.readouterr().out == "NOT-ULRICH: non-integral-time 9/2\n"

    def test_json(self, capsys):
        assert run(["check", "--json", "4|3,0|-2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "schema": 1,
            "command": "check",
            "partition": "4|3,0|-2",
            "type": [1, 2, 1],
            "N": 5,
            "ulrich": True,
            "witness": None,
        }

    def test_bad_partition(self, capsys):
        assert run(["check", "1|1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestFamily:
    def test_p_u(self, capsys):
        assert run(["family", "p_u", "2"]) == 0
        assert capsys.readouterr().out == "17,5|4,2,-1,-3|-5,-15\n"

    def test_sign_string(self, capsys):
        assert run(["family", "one_n_one", "2", "+-"]) == 0
        assert capsys.readouterr().out == "3|2,-1|-3\n"

    def test_sporadic(self, capsys):
        assert run(["family", "sporadic", "322"]) == 0
        assert capsys.readouterr().out == "16,10,4|3,0|-2,-12\n"

    def test_json_fields(self, capsys):
        assert run(["family", "--json", "elongated", "1", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["partition"] == "12,8|7,6,1,-4,-5|-8"
        assert payload["type"] == [2, 5, 1]
        assert payload["N"] == 17

    def test_bad_parameter_value(self, capsys):
        assert run(["family", "p_u", "zero"]) == 2
        assert "bad parameter" in capsys.readouterr().err

    def test_family_rejects_bad_arguments(self, capsys):
        assert run(["family", "p_u", "0"]) == 2
        assert "family p_u:" in capsys.readouterr().err

    @pytest.mark.parametrize("m2", ["-1", "-2"])
    def test_two_param_rejects_negative(self, capsys, m2):
        assert run(["family", "two_param", "0", m2]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "family two_param: m must be nonnegative" in captured.err

    def test_wrong_arity(self, capsys):
        assert run(["family", "p_u"]) == 2
        assert "family p_u:" in capsys.readouterr().err

    def test_unknown_family(self):
        assert run(["family", "mystery", "1"]) == 2


class TestEnumerate:
    def test_small_type(self, capsys):
        assert run(["enumerate", "1,2,1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert lines[-1].startswith("count 4 (complete,")

    def test_json(self, capsys):
        assert run(["enumerate", "--json", "2,2,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["count"] == 2
        assert payload["completed"] is True
        # p_u(1) and its mirror, shifted to canonical position
        assert payload["classes"] == ["20,12|11,8|6,0", "20,14|12,9|8,0"]

    def test_baseline_method(self, capsys):
        assert run(["enumerate", "--method", "baseline", "1,2,1"]) == 0
        assert "count 4 (complete" in capsys.readouterr().out

    def test_baseline_method_json(self, capsys):
        assert run(["enumerate", "--method", "baseline", "1,2,1",
                    "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] is True
        want = search.baseline_oracle(FlagType((1, 2, 1)))
        assert payload["classes"] == [str(P) for P in want]

    def test_auto_method_is_gone(self, capsys):
        # time-branching is the default; there is no second name for it.
        assert run(["enumerate", "--method", "auto", "1,2,1"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--threads", "2"],
        ["--budget-seconds", "0"],
        ["--threads", "2", "--budget-seconds", "0"],
    ], ids=" ".join)
    def test_baseline_rejects_resource_options(self, extra, capsys):
        # The oracle runs in one process with no clock: it must not accept
        # these and then ignore them.
        assert run(["enumerate", "1,3,1", "--method", "baseline"] + extra) == 2
        captured = capsys.readouterr()
        assert "baseline method takes no limits" in captured.err
        assert "complete" not in captured.out

    def test_budget_exhausted(self, capsys):
        assert run(["enumerate", "2,8,2", "--budget-seconds", "0.0001"]) == 3
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_pipe_type_syntax(self, capsys):
        assert run(["enumerate", "2|2|2"]) == 0
        assert "count 2" in capsys.readouterr().out

    def test_bad_type(self, capsys):
        assert run(["enumerate", "2,x,2"]) == 2
        assert "bad type" in capsys.readouterr().err


class TestAnalyze:
    def test_three_block_ulrich(self, capsys):
        assert run(["analyze", "12,4|3,0|-2,-8"]) == 0
        out = capsys.readouterr().out
        assert "verdict: ULRICH" in out
        assert "type: 2,2,2  N: 12" in out
        assert "congruences: ok" in out
        assert "greedy word: acca" in out
        assert "dual: -2,-8|-10,-13|-14,-22" in out
        assert "rectangle rule: holds" in out
        assert "trapezoid rule: holds" in out

    def test_sumset_line(self, capsys):
        assert run(["analyze", "5,1|0|-3"]) == 0
        assert "sumset decomposition: A'=[0, 4] C'=[2] tiling [0,4]" \
            in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["3,1||-1", "2,1|0|", "|1|0"])
    def test_ulrich_with_an_empty_block(self, text, capsys):
        # The greedy word and the boundary rules need three nonempty blocks.
        assert run(["analyze", text]) == 0
        captured = capsys.readouterr()
        assert "verdict: ULRICH" in captured.out
        assert "congruences: ok" in captured.out
        assert "dual: " in captured.out
        assert "greedy word" not in captured.out
        assert "rule" not in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("text", ["2,1|0|", "|0|-1,-2"])
    def test_no_sumset_with_an_empty_outer_block(self, text, capsys):
        assert run(["analyze", text]) == 0
        out = capsys.readouterr().out
        assert "verdict: ULRICH" in out and "sumset" not in out
        assert run(["analyze", "--json", text]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ulrich"] is True and "sumset" not in payload

    def test_non_ulrich(self, capsys):
        assert run(["analyze", "5,3|0|-5"]) == 1
        out = capsys.readouterr().out
        assert "verdict: NOT-ULRICH (duplicate-time 5)" in out
        assert "sumset decomposition: none" in out
        assert "greedy word" not in out

    def test_congruence_violation(self, capsys):
        assert run(["analyze", "4|3,0|-1"]) == 1
        assert "congruences: VIOLATED" in capsys.readouterr().out

    def test_json(self, capsys):
        assert run(["analyze", "--json", "8,6|5,0|-2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["greedy_word"] == "aca"
        assert payload["rectangle_ok"] and payload["trapezoid_ok"]
        assert payload["ulrich"] is True


class TestVerify:
    def test_multistep_holds(self, capsys):
        assert run(["verify", "multistep", "5"]) == 0
        out = capsys.readouterr().out
        assert "type 1,1,1,1: 0 classes" in out
        assert out.splitlines()[-1] == \
            "HOLDS: no Ulrich partition with >= 4 blocks, total length <= 5"

    def test_conjecture_smallest(self, capsys):
        assert run(["verify", "conjecture", "9"]) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_checkpoint(self, tmp_path, capsys):
        path = str(tmp_path / "ck.jsonl")
        assert run(["verify", "multistep", "5", "--checkpoint", path]) == 0
        capsys.readouterr()
        assert run(["verify", "multistep", "5", "--checkpoint", path]) == 0
        assert "HOLDS" in capsys.readouterr().out
        with open(path) as fh:
            assert sum(1 for line in fh if line.strip()) == 6

    def test_rerun_after_budget(self, tmp_path, capsys):
        # The clock is read every 1024 nodes, so a zero budget stops the
        # 1116-node type 3,4,3 and no other type of the sweep.
        path = str(tmp_path / "ck.jsonl")
        argv = ["verify", "conjecture", "10", "--checkpoint", path]
        assert run(argv + ["--budget-seconds", "0"]) == 3
        assert "INCONCLUSIVE" in capsys.readouterr().out
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert "type 3,4,3: 0 classes (1116 nodes)" in out
        assert out.splitlines()[-1].startswith("HOLDS")

    def test_torn_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "ck.jsonl"
        assert run(["verify", "multistep", "4", "--checkpoint", str(path)]) == 0
        with open(path, "a") as fh:
            fh.write('{"schema": 1, "type": [1, 1, 1')
        capsys.readouterr()
        assert run(["verify", "multistep", "5", "--checkpoint", str(path)]) == 0
        captured = capsys.readouterr()
        assert "skipped a torn last line" in captured.err
        assert "HOLDS" in captured.out
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        assert all(json.loads(line)["completed"] for line in lines)

    def test_checkpoint_of_other_claim(self, tmp_path, capsys):
        path = str(tmp_path / "ck.jsonl")
        assert run(["verify", "conjecture", "9", "--checkpoint", path]) == 0
        capsys.readouterr()
        assert run(["verify", "multistep", "4", "--checkpoint", path]) == 0
        out = capsys.readouterr().out
        assert "3,3,3" not in out
        assert "type 1,1,1,1: 0 classes" in out

    def test_checkpoint_in_missing_directory(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "ck.jsonl")
        assert run(["verify", "multistep", "4", "--checkpoint", path]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("record, field", [
        ({"schema": 1, "type": [1, 1, 1, 1]}, "classes"),
        ({"schema": 1, "type": [1, 1, 1, 1], "classes": [], "count": 0,
          "nodes": "many", "elapsed": 0.0, "completed": True}, "nodes"),
        # A class must have the report's type: a sweep mirrors it blockwise.
        ({"schema": 1, "type": [2, 1, 1], "classes": ["|2|1,0"], "count": 1,
          "nodes": 1, "elapsed": 0.0, "completed": True}, "classes"),
        ({"schema": 1, "type": [1, 1, 1, 1], "classes": [], "count": 0,
          "nodes": True, "elapsed": 0.0, "completed": True}, "nodes"),
        ({"schema": 1, "type": [1, 1, 1, 1], "classes": [], "count": 5,
          "nodes": 1, "elapsed": 0.0, "completed": True}, "count"),
        ({"schema": 1, "type": [1, 1, 1, 1], "classes": [], "count": 0,
          "nodes": -5, "elapsed": 0.0, "completed": True}, "nodes"),
        ({"schema": 1, "type": [1, 1, 1, 1], "classes": [], "count": 0,
          "nodes": 1, "elapsed": float("nan"), "completed": True}, "elapsed"),
        ({"schema": 1, "type": [1, 1, 1, 1], "classes": [], "count": 0,
          "nodes": 1, "elapsed": 0.0, "completed": True,
          "mirror_of": [9, 9]}, "mirror_of"),
    ], ids=["missing", "mistyped", "class-of-another-type", "bool-for-int",
            "count-without-classes", "negative-nodes", "nan-elapsed",
            "mirror-of-another-type"])
    def test_bad_checkpoint_record(self, record, field, tmp_path, capsys):
        path = tmp_path / "ck.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n")
        assert run(["verify", "multistep", "4", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {path} line 2:")
        assert repr(field) in err

    def test_checkpoint_line_that_is_no_object(self, tmp_path, capsys):
        path = tmp_path / "ck.jsonl"
        path.write_text("[]\n")
        assert run(["verify", "multistep", "4", "--checkpoint", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint {path} line 1: "
            "a report record must be a JSON object\n")

    @pytest.mark.parametrize("claim, bound, types", [
        ("multistep", "total length <= 7", 64),
        ("conjecture", "sum <= 10", 4),
    ])
    def test_default_bound(self, claim, bound, types, capsys):
        # With no bound, each claim sweeps to its default.
        assert run(["verify", "--json", claim]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["claim"].endswith(bound)
        assert payload["holds"] is True
        assert len(payload["types"]) == types

    @pytest.mark.parametrize("claim, bound, least", [
        ("multistep", "-3", 4), ("multistep", "3", 4),
        ("conjecture", "8", 9), ("conjecture", "0", 9),
    ])
    def test_bound_selecting_no_type(self, claim, bound, least, capsys):
        # A sweep over no type proves nothing, so it must not say HOLDS.
        assert run(["verify", claim, bound]) == 2
        captured = capsys.readouterr()
        assert "HOLDS" not in captured.out
        assert f"at least {least}" in captured.err

    def test_long_run_is_gone(self, capsys):
        assert run(["verify", "multistep", "4", "--long-run"]) == 2
        assert "--long-run" in capsys.readouterr().err

    def test_json(self, capsys):
        assert run(["verify", "--json", "multistep", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert payload["completed"] is True
        assert len(payload["types"]) == 1

    def test_derived_types(self, capsys):
        assert run(["verify", "conjecture", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "type 3,3,4: 0 classes (456 nodes, mirror of 4,3,3)" in lines
        assert "type 4,3,3: 0 classes (456 nodes)" in lines
        assert lines[-2] == "1 of 4 types derived from their mirror"
        assert lines[-1].startswith("HOLDS")
        assert run(["verify", "--json", "conjecture", "10"]) == 0
        types = json.loads(capsys.readouterr().out)["types"]
        assert {tuple(t["type"]): t.get("mirror_of") for t in types} == {
            (3, 3, 3): None, (3, 3, 4): [4, 3, 3], (3, 4, 3): None,
            (4, 3, 3): None}

    def test_inconclusive(self, capsys, monkeypatch):
        def fake_sweep(bound, budget_seconds, workers, checkpoint):
            ft = FlagType((3, 3, 3))
            return {ft.lengths: SearchReport(ft, (), 10, 0.01, False)}
        monkeypatch.setattr(search, "verify_conjecture_sweep", fake_sweep)
        assert run(["verify", "conjecture", "9"]) == 3
        out = capsys.readouterr().out
        assert "INCONCLUSIVE (budget exhausted)" in out
        assert "INCOMPLETE" in out

    def test_counterexample(self, capsys, monkeypatch):
        from ulrich.core import parse_partition
        def fake_sweep(bound, budget_seconds, workers, checkpoint):
            ft = FlagType((1, 1, 1, 1))
            fake = parse_partition("3|2|1|0")
            return {ft.lengths: SearchReport(ft, (fake,), 10, 0.01, True)}
        monkeypatch.setattr(search, "verify_no_multistep", fake_sweep)
        assert run(["verify", "multistep", "4"]) == 1
        assert "COUNTEREXAMPLE to:" in capsys.readouterr().out


class TestGeometry:
    def test_flagship(self, capsys):
        assert run(["geometry", "5|3,-1,-2,-4|-5"]) == 0
        out = capsys.readouterr().out
        assert "flag variety: steps 1,5 in n=6  dim 9  deg 252" in out
        assert "bundle rank: 70" in out
        assert "h^0: 17640" in out
        assert "identity h^0 = rank * deg: holds (70 * 252 = 17640)" in out

    def test_json(self, capsys):
        assert run(["geometry", "--json", "4|3,0|-2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identity_holds"] is True
        assert payload["rank"] * payload["degree"] == payload["h0"]

    def test_non_ulrich_fails(self, capsys):
        assert run(["geometry", "5,3|0|-5"]) == 1
        assert "FAILS" in capsys.readouterr().out

    def test_explicit_polarization(self, capsys):
        assert run(["geometry", "--polarization", "1,1",
                    "5|3,-1,-2,-4|-5"]) == 0
        assert "deg 252" in capsys.readouterr().out

    def test_polarization_arity_error(self, capsys):
        assert run(["geometry", "--polarization", "1,1,1", "4|3,0|-2"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_polarization_refused(self, value, capsys):
        # An empty value is not the default polarization.
        assert run(["geometry", "--polarization", value, "4|3,0|-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad --polarization")


class TestDiagram:
    def test_ascii(self, capsys):
        assert run(["diagram", "4|3,0|-2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t=  0")
        assert "#" in out

    def test_svg_stdout(self, capsys):
        assert run(["diagram", "4|3,0|-2", "--svg", "-"]) == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_svg_file(self, tmp_path, capsys):
        path = tmp_path / "out.svg"
        assert run(["diagram", "4|3,0|-2", "--svg", str(path)]) == 0
        assert path.read_text().startswith("<svg")
        assert capsys.readouterr().out == ""

    def test_svg_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "out.svg"
        assert run(["diagram", "4|3,0|-2", "--svg", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_json(self, capsys):
        assert run(["diagram", "--json", "4|3,0|-2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0] == [4, 3, 0, -2]
        assert payload["coincidences"]["2"] == [[2, 3]]


class TestParser:
    def test_no_arguments(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["transmogrify"]) == 2

    def test_resource_options_only_on_searches(self, capsys):
        # check runs no search, so it must not accept and then ignore these
        assert run(["check", "12,4|3,0|-2,-8", "--threads", "2"]) == 2
        assert run(["geometry", "4|3,0|-2", "--budget-seconds", "5"]) == 2
        assert run(["enumerate", "2,2,2", "--threads", "2"]) == 0
        assert "count 2 (complete" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["verify", "multistep", "4", "--threads", "0"],
        ["enumerate", "2,2,2", "--threads", "-1"],
        ["enumerate", "2,2,2", "--budget-seconds", "-1"],
        ["verify", "multistep", "4", "--budget-seconds", "nan"],
    ], ids=lambda argv: " ".join(argv[-2:]))
    def test_bad_resource_values(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "must be at least" in err
        # The message names the option that was given, not the parameter.
        assert f"argument {argv[-2]}:" in err

    def test_parser_built_once_and_reused(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        assert run(["check", "5|3,-1,-2,-4|-5", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert run(["enumerate", "1,2,1", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert (first["command"], first["ulrich"]) == ("check", True)
        assert (second["command"], second["count"]) == ("enumerate", 4)
        # --json of an earlier call does not stick to the next one.
        assert run(["check", "5|3,-1|-5"]) == 1
        assert capsys.readouterr().out == "NOT-ULRICH: missing-time 1\n"

    def test_console_script_entry(self):
        # the console script declared in pyproject.toml resolves to cli.main
        scripts = declared_scripts()
        assert "ulrich" in scripts
        ep = md.EntryPoint(name="ulrich", value=scripts["ulrich"],
                           group="console_scripts")
        assert ep.load() is cli.main

    @pytest.mark.skipif(installed_distribution() is None,
                        reason="the ulrich distribution is not installed")
    def test_installed_console_script_matches_pyproject(self):
        # an installed ulrich must carry the console script pyproject declares
        eps = installed_distribution().entry_points
        ours = [ep.value for ep in eps
                if ep.group == "console_scripts" and ep.name == "ulrich"]
        assert ours == [declared_scripts()["ulrich"]]


class TestFreshInterpreter:
    """Each subcommand in its own ``python -I -S``.

    In process, an earlier test has already loaded every module, so a
    handler that forgot one of its deferred imports shows only here.
    """

    @pytest.mark.parametrize("argv, code", [
        (["check", "4|3,0|-2"], 0),
        # A negative verdict runs the failure branch of is_ulrich.
        (["check", "5,3|0|-5"], 1),
        (["analyze", "4|3,0|-2"], 0),
        (["geometry", "4|3,0|-2"], 0),
        (["diagram", "4|3,0|-2"], 0),
        (["family", "p_u", "2"], 0),
        (["enumerate", "1,2,1"], 0),
        (["enumerate", "1,2,1", "--method", "baseline"], 0),
        (["verify", "multistep", "5", "--threads", "2"], 0),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_subcommand(self, argv, code):
        run_main = ("import sys; sys.path.insert(0, sys.argv[1]); "
                    "from ulrich.cli import main; sys.exit(main(sys.argv[2:]))")
        result = subprocess.run(
            [sys.executable, "-I", "-S", "-c", run_main, str(SRC), *argv,
             "--json"], capture_output=True, text=True, timeout=60)
        assert result.returncode == code, result.stderr
        assert json.loads(result.stdout)["command"] == argv[0]

    def test_dead_worker_is_one_error_line(self):
        # A worker that dies mid-sweep (as under the OOM killer) ends the
        # command like any other failure: exit 2, one ``error:`` line.
        run_main = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
                    "from ulrich import cli, search; "
                    "search._search_type_worker = lambda job: os._exit(3); "
                    "sys.exit(cli.main(sys.argv[2:]))")
        result = subprocess.run(
            [sys.executable, "-I", "-S", "-c", run_main, str(SRC), "verify",
             "multistep", "5", "--threads", "2"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 2, result.stderr
        assert result.stderr.splitlines() == [
            "error: a worker process died with exit code 3"]

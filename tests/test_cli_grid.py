"""The byte-equivalence grid tool runs on the present tree."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_grid.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_grid", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_grid_covers_every_subcommand_and_workload():
    invocations = _tool().grid()
    assert len(invocations) >= 462
    argvs = [argv for argv, _ in invocations]
    assert {"verify", "classify", "compat-check", "norm-profile"} <= {a[0] for a in argvs if a}
    suites = {a[a.index("--suite") + 1] for a in argvs if "--suite" in a}
    assert {"exp-log", "product-distance", "contraction", "compat", "all"} <= suites
    # workload inputs are written under relative names, so no record names a path
    for argv, files in invocations:
        assert all(not name.startswith("/") for name in files)
        assert all(not arg.startswith("/") for arg in argv)


def test_reduced_grid_records_every_invocation_the_same_way_twice():
    tool = _tool()
    reduced = tool.grid()[::10]
    records = tool.run(str(ROOT), reduced)
    assert tool.run(str(ROOT), reduced) == records
    assert [(r["argv"], r["files"]) for r in records] == [(a, f) for a, f in reduced]
    for r in records:
        assert set(r) == {"argv", "files", "exit", "stdout", "stderr", "written"}
        assert r["exit"] in range(5), r
        assert isinstance(r["stdout"], str) and isinstance(r["stderr"], str)
        if r["stdout"] and "--help" not in r["argv"]:
            assert r["stdout"].endswith("\n")
            json.loads(r["stdout"])
        if r["exit"] in (2, 3, 4) and "--help" not in r["argv"]:
            assert r["stdout"] == "" and r["stderr"]
    assert {r["exit"] for r in records} >= {0, 1}


def _record(argv, exit=0, stdout="{}\n", stderr="", written=None):
    return {"argv": argv, "files": {}, "exit": exit, "stdout": stdout, "stderr": stderr,
            "written": written}


def test_diff_records_names_each_differing_record_by_argv_and_field():
    diff = _tool().diff_records
    old = [_record(["classify"]), _record(["verify", "--suite", "all"]),
           _record(["compat-check", "--out", "o.json"], written="{}\n"), _record(["bogus"], 2)]
    new = [_record(["classify"]), _record(["verify", "--suite", "all"], 1, "", "violation\n"),
           _record(["compat-check", "--out", "o.json"], written="{\"holds\": true}\n"),
           _record(["bogus"], 2)]
    assert diff(old, old) == []
    assert diff(old, new) == [
        (["verify", "--suite", "all"], ["exit", "stdout", "stderr"]),
        (["compat-check", "--out", "o.json"], ["written"]),
    ]


def test_diff_records_refuses_lists_out_of_step():
    diff = _tool().diff_records
    with pytest.raises(ValueError):
        diff([_record(["classify"])], [_record(["verify"])])
    with pytest.raises(ValueError):
        diff([_record(["classify"])], [])


def test_every_unrun_line_of_the_package_is_named_with_its_reason(capsys):
    tool = _tool()
    run, traced = tool.run, []

    def run_once(*args, **kwargs):  # one traced grid run serves both checks below
        if not traced:
            traced.extend(run(*args, **kwargs))
        return traced

    tool.run = run_once
    assert tool.coverage(str(ROOT)) == 0, capsys.readouterr().out
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith(f"unrun over {len(tool.grid())} invocations, "
                              f"in {len(lines) - 1} functions")
    # the same trace against a table that misses one function and names one
    # whose every line runs
    missing = lines[0].split()[0]
    tool.UNRUN = {reason: tuple(f for f in functions if f != missing) + ("cli.main",)
                  for reason, functions in tool.UNRUN.items()}
    assert tool.coverage(str(ROOT)) == 1
    out = capsys.readouterr().out
    assert f"unrun lines in functions UNRUN does not name: {missing}\n" in out
    assert "named in UNRUN, yet every line runs: cli.main\n" in out

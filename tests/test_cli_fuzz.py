"""Property tests: no input ends `cli.main` in a traceback.

Table text, DIMACS text and argv are drawn with `hypothesis` and run
through `cli.main` in-process; every subcommand also runs under each of a
set of bad or odd DISTGROVER_MAX_QUBITS values. Every call must return exit
code 0, 1, 2 or 3; a non-zero exit prints an `error:` line, a zero exit
prints one JSON report (or, when the argv asks for help, the usage), and
stderr never holds a traceback.
Because the parser is built once per process, each fuzzed call is followed
by one fixed valid `grover` call whose report must not change apart from
`duration_seconds`.

Every call runs with its working directory in a scratch folder, so a
drawn `--out` or `--json` name (never one holding a "/") lands there, and
with DISTGROVER_MAX_QUBITS=12, so no drawn input allocates more than a few
MiB. The examples are derandomized, so the suite draws the same inputs on
every run.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distgrover.cli import main

from conftest import marked_function

EXAMPLES = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

COMMANDS = ["grover", "count", "dist-serial", "dist-parallel", "compile"]
NUMBERS = ["-1", "0", "1", "2", "3", "4", "5", "8", "64", "x", "1.5", "",
           "99999999999999999999"]
# free text for any argv slot; no "/", so a drawn path stays in the cwd
TOKENS = st.text(st.characters(blacklist_characters="/"), max_size=6)


def _call(argv):
    """(exit code, stdout, stderr) of one in-process `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _asks_for_help(argv):
    # -h, -h joined with more short flags, or any abbreviation of --help
    return any(token.startswith("-h") or len(token) > 2
               and "--help".startswith(token.partition("=")[0])
               for token in argv)


def _check(argv):
    """Check one call's output contract and return its exit code."""
    code, out, err = _call(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    lines = err.splitlines()
    if code:
        assert any(line.startswith("error: ") for line in lines), (argv, err)
        assert out == "", argv
    elif out.startswith("usage: distgrover"):
        assert _asks_for_help(argv), argv
        assert err == "", (argv, err)
    else:
        assert all(line.startswith("warning: ") for line in lines), err
        assert json.loads(out)["command"] == argv[0]
    return code


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scratch cwd with fuzz inputs, plus the fixed call and its report."""
    root = tmp_path_factory.mktemp("fuzz")
    work = root / "work"
    work.mkdir()
    table = marked_function(4, [3, 12]).truth_values()
    (work / "f.table").write_text("4\n" + "".join(map(str, table)) + "\n")
    (work / "f.cnf").write_text("p cnf 4 3\n1 -2 0\n2 -2 3 0\n3 4 0\n")
    (root / "fixed.table").write_text("5\n" + "".join(
        map(str, marked_function(5, [9]).truth_values())) + "\n")
    fixed = ["grover", "--input", str(root / "fixed.table"), "--a", "1",
             "--seed", "5"]
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        mp.setenv("DISTGROVER_MAX_QUBITS", "12")
        yield work, fixed, _fixed_report(fixed)


def _fixed_report(fixed):
    code, out, err = _call(fixed)
    assert (code, err) == (0, "")
    report = json.loads(out)
    report.pop("duration_seconds")
    return report


def _check_then_fixed(workspace, argv):
    _, fixed, report = workspace
    _check(argv)
    assert _fixed_report(fixed) == report, argv


def _table_line(n):
    return st.text("01", min_size=1 << n, max_size=1 << n)


TABLE_TEXT = st.one_of(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(str(n)), _table_line(n))).map(
        "\n".join),
    st.lists(st.one_of(st.sampled_from(NUMBERS + ["27", "12"]),
                       st.text("01 x", max_size=20), TOKENS),
             max_size=4).map("\n".join))


def _dimacs(n):
    """Well-formed DIMACS on n variables (tautologies included)."""
    clause = st.lists(st.integers(-n, n).filter(bool), max_size=3)
    return st.lists(clause, max_size=5).map(
        lambda clauses: "\n".join([f"p cnf {n} {len(clauses)}"] + [
            " ".join(map(str, c + [0])) for c in clauses]))


DIMACS_LINE = st.one_of(
    st.tuples(st.sampled_from(["p", "p cnf", "p dnf", "q cnf"]),
              st.sampled_from(["-1", "0", "1", "2", "3", "4", "30", "x"]),
              st.sampled_from(["-1", "0", "1", "2", "3", "5", ""])).map(
        " ".join),
    st.lists(st.integers(-5, 5), max_size=5).map(
        lambda lits: " ".join(map(str, lits))),
    st.just("c comment"), TOKENS)
DIMACS_TEXT = st.one_of(st.integers(1, 4).flatmap(_dimacs),
                        st.lists(DIMACS_LINE, max_size=6).map("\n".join))


@EXAMPLES
@given(data=st.one_of(TABLE_TEXT.map(str.encode), st.binary(max_size=40)),
       command=st.sampled_from(COMMANDS[:4]),
       k=st.sampled_from(["1", "2", "3"]), a=st.sampled_from(["1", "2", "5"]))
def test_fuzzed_table_text_never_crashes(workspace, data, command, k, a):
    work = workspace[0]
    (work / "in.table").write_bytes(data)
    argv = [command, "--input", "in.table", "--seed", "1"]
    if command != "count":
        argv += ["--a", a]
    if command.startswith("dist-"):
        argv += ["--k", k]
    _check_then_fixed(workspace, argv)


@EXAMPLES
@given(text=DIMACS_TEXT, command=st.sampled_from(COMMANDS),
       oracle=st.sampled_from(["table", "compiled"]))
def test_fuzzed_dimacs_text_never_crashes(workspace, text, command, oracle):
    work = workspace[0]
    (work / "in.cnf").write_text(text, encoding="utf-8")
    argv = {"grover": ["--a", "1", "--oracle", oracle],
            "count": [],
            "dist-serial": ["--k", "1", "--a", "2"],
            "dist-parallel": ["--k", "1", "--a", "1"],
            "compile": ["--out", "out.ir", "--elementary"]}[command]
    _check_then_fixed(workspace, [command, "--input", "in.cnf"] + argv)


FLAG = st.one_of(
    st.tuples(st.just("--input"), st.sampled_from(
        ["f.table", "f.cnf", "missing.table", ".", "", "nul\x00.table"])),
    st.tuples(st.sampled_from(["--a", "--k", "--seed", "--grid"]),
              st.sampled_from(NUMBERS)),
    st.tuples(st.just("--oracle"), st.sampled_from(["table", "compiled",
                                                    "z"])),
    st.tuples(st.sampled_from(["--out", "--json"]),
              st.sampled_from(["out.ir", "report.jsonl", ".", "nul\x00"])),
    st.tuples(st.sampled_from(["--elementary", "-h", "--help", "--bogus"])),
    st.tuples(TOKENS))


# each command's required arguments, valid, for argv that parses
REQUIRED = {"grover": ["--input", "f.table", "--a", "2"],
            "count": ["--input", "f.cnf"],
            "dist-serial": ["--input", "f.table", "--k", "1", "--a", "2"],
            "dist-parallel": ["--input", "f.cnf", "--k", "2", "--a", "1"],
            "compile": ["--input", "f.cnf", "--out", "out.ir"]}


@EXAMPLES
@given(command=st.one_of(st.sampled_from(COMMANDS), TOKENS),
       required=st.booleans(), flags=st.lists(FLAG, max_size=5))
def test_fuzzed_argv_never_crashes(workspace, command, required, flags):
    argv = [command] + (REQUIRED.get(command, []) if required else []) + [
        token for flag in flags for token in flag]
    _check_then_fixed(workspace, argv)


# small calls only: the workspace's 4-variable inputs and a grid of at most
# 64, so even an unbounded capacity allocates little
ENV_ARGV = [["grover", "--input", "f.table", "--a", "2"],
            ["grover", "--input", "f.cnf", "--a", "1", "--oracle",
             "compiled"],
            ["count", "--input", "f.table"],
            ["count", "--input", "f.cnf", "--grid", "64"],
            ["dist-serial", "--input", "f.table", "--k", "1", "--a", "2"],
            ["dist-parallel", "--input", "f.cnf", "--k", "2", "--a", "1"],
            ["compile", "--input", "f.cnf", "--out", "out.ir"]]


@pytest.mark.parametrize("value", ["", "abc", "-1", "0", "1.5", " 12 ",
                                   "99999999999999999999"])
def test_odd_max_qubits_never_crashes(workspace, value):
    # a value that is not an integer >= 1 is a usage error wherever the cap
    # is read; compile allocates nothing sized by it and never reads it
    bad = value in ("abc", "-1", "0", "1.5")
    for argv in ENV_ARGV:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("DISTGROVER_MAX_QUBITS", value)
            code = _check(argv)
        if bad and argv[0] != "compile":
            assert code == 1, (value, argv)
        assert _fixed_report(workspace[1]) == workspace[2], (value, argv)

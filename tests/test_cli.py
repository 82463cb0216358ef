import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from distgrover import cli, distributed
from distgrover.cli import REPORT_SCHEMA, main

from conftest import marked_function


def write_table(tmp_path, n, marked, name="f.table"):
    table = marked_function(n, marked).truth_values()
    path = tmp_path / name
    path.write_text(f"{n}\n" + "".join(map(str, table)) + "\n")
    return path


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


def test_grover_report(tmp_path, capsys):
    path = write_table(tmp_path, 4, [11])
    code, report = run_cli(capsys, ["grover", "--input", str(path),
                                    "--a", "1", "--seed", "5"])
    assert code == 0
    assert report["schema"] == REPORT_SCHEMA
    assert report["command"] == "grover"
    assert set(report) >= {"input", "parameters", "outcome", "ledger",
                           "duration_seconds"}
    assert len(report["input"]["sha256"]) == 64
    assert report["outcome"]["iterations"] == 3
    assert report["ledger"]["quantum_queries"] == 3
    if report["outcome"]["is_solution"]:
        assert report["outcome"]["measured_x"] == "1011"


def test_input_digest_is_the_file_digest(tmp_path, capsys):
    path = tmp_path / "crlf.table"
    path.write_bytes(b"3\r\n00100001\r\n")
    code, report = run_cli(capsys, ["grover", "--input", str(path),
                                    "--a", "2"])
    assert code == 0
    assert report["input"]["sha256"] == \
        hashlib.sha256(path.read_bytes()).hexdigest()


def test_grover_deterministic(tmp_path, capsys):
    path = write_table(tmp_path, 5, [7, 19])
    argv = ["grover", "--input", str(path), "--a", "2", "--seed", "9"]
    _, a = run_cli(capsys, argv)
    _, b = run_cli(capsys, argv)
    a.pop("duration_seconds"), b.pop("duration_seconds")
    assert a == b


def test_dist_checks_a_against_the_domain_before_any_work(tmp_path, capsys,
                                                         monkeypatch):
    # a promise of more solutions than inputs is refused, with grover's
    # message and exit code 1, before the input is decomposed or any
    # machine counts
    def no_work(*_args):
        raise AssertionError("work started before a was checked")

    monkeypatch.setattr(distributed, "run_count", no_work)
    monkeypatch.setattr(distributed, "decompose", no_work)
    path = str(write_table(tmp_path, 3, [1, 6]))
    for mode in ("serial", "parallel"):
        assert main([f"dist-{mode}", "--input", path, "--k", "2",
                     "--a", "100"]) == 1
        assert capsys.readouterr() == (
            "", "error: solution count 100 exceeds domain size 2^3\n")
    # k is checked before a
    assert main(["dist-parallel", "--input", path, "--k", "3",
                 "--a", "100"]) == 1
    assert "k=3 must satisfy" in capsys.readouterr().err


def test_grover_compiled_oracle_matches_table(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 4 2\n1 -2 0\n3 4 0\n")
    base = ["grover", "--input", str(cnf), "--a", "5", "--seed", "3"]
    _, via_table = run_cli(capsys, base + ["--oracle", "table"])
    _, via_circuit = run_cli(capsys, base + ["--oracle", "compiled"])
    assert via_table["outcome"]["measured_x"] == \
        via_circuit["outcome"]["measured_x"]


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    path = write_table(tmp_path, 3, [1])
    assert main(["grover", "--input", str(path)]) == 1
    assert main(["dist-serial", "--input", str(path), "--a", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_unreadable_input_is_usage_error(tmp_path, capsys):
    assert main(["grover", "--input", str(tmp_path / "nope"),
                 "--a", "1"]) == 1


def test_help_prints_usage_and_returns_0(capsys):
    for argv, usage in ((["--help"], "usage: distgrover [-h]"),
                        (["grover", "-h"], "usage: distgrover grover")):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(usage)
        assert captured.err == ""


def test_path_with_a_nul_byte_is_usage_error(tmp_path, capsys):
    path = write_table(tmp_path, 3, [1])
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    for argv in (["grover", "--input", "f\0.table", "--a", "1"],
                 ["grover", "--input", str(path), "--a", "1",
                  "--json", "r\0.jsonl"],
                 ["compile", "--input", str(cnf), "--out", "f\0.ir"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot ")
        assert "\0" not in captured.err     # the path is printed as a repr
        assert captured.out == ""


def test_dimacs_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 7 0\n")
    code = main(["count", "--input", str(bad)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_malformed_dimacs_header_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    for header, why in (("p cnf x 3", "malformed header 'p cnf x 3'"),
                        ("p cnf 0 0", "variable count must be >= 1")):
        bad.write_text(f"{header}\n")
        assert main(["count", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: line 1: {why}\n"


def test_table_arity_not_integer_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    bad.write_text("x3\n00100001\n")
    assert main(["grover", "--input", str(bad), "--a", "1"]) == 2
    assert "error: line 1:" in capsys.readouterr().err


def test_table_length_or_alphabet_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    for table in ("0010000", "0010000x"):
        bad.write_text(f"\n3\n\n{table}\n")
        assert main(["count", "--input", str(bad)]) == 2
        assert "error: line 4:" in capsys.readouterr().err


def test_text_after_the_table_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    bad.write_text("2\n0101\ngarbage\n")
    assert main(["grover", "--input", str(bad), "--a", "1"]) == 2
    assert "error: line 3:" in capsys.readouterr().err
    bad.write_text("2\n0101\n\n  \n")        # trailing blank lines are fine
    assert main(["grover", "--input", str(bad), "--a", "1"]) == 0


def test_undecodable_input_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_bytes(b"p cnf 2 1\n\xff\xfe 0\n")
    assert main(["count", "--input", str(bad)]) == 2
    assert main(["compile", "--input", str(bad),
                 "--out", str(tmp_path / "bad.ir")]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_bad_max_qubits_env_is_usage_error(tmp_path, capsys, monkeypatch):
    path = write_table(tmp_path, 3, [1])
    monkeypatch.setenv("DISTGROVER_MAX_QUBITS", "abc")
    assert main(["grover", "--input", str(path), "--a", "1"]) == 1
    assert "DISTGROVER_MAX_QUBITS" in capsys.readouterr().err


def test_nonpositive_max_qubits_env_is_usage_error(tmp_path, capsys,
                                                   monkeypatch):
    # a cap below 1 is a bad value, not a capacity every input exceeds;
    # compile allocates nothing sized by the cap, so it ignores the variable
    table = write_table(tmp_path, 3, [1])
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
    for value in ("0", "-1"):
        monkeypatch.setenv("DISTGROVER_MAX_QUBITS", value)
        for argv in (["grover", "--a", "1"], ["count"],
                     ["dist-serial", "--k", "1", "--a", "1"],
                     ["dist-parallel", "--k", "1", "--a", "1"]):
            for path in (table, cnf):
                assert main(argv + ["--input", str(path)]) == 1, argv
                err = capsys.readouterr().err
                assert err.startswith("error: DISTGROVER_MAX_QUBITS="), err
        assert main(["compile", "--input", str(cnf),
                     "--out", str(tmp_path / "f.ir")]) == 0
        capsys.readouterr()


def test_capacity_exit_code(tmp_path, capsys, monkeypatch):
    path = write_table(tmp_path, 6, [3])
    monkeypatch.setenv("DISTGROVER_MAX_QUBITS", "4")
    assert main(["grover", "--input", str(path), "--a", "1"]) == 3
    huge = tmp_path / "huge.table"
    huge.write_text("1000000000000\n01\n")
    assert main(["grover", "--input", str(huge), "--a", "1"]) == 3
    # a DIMACS header over capacity exits 3 before anything is sized from it
    monkeypatch.delenv("DISTGROVER_MAX_QUBITS")
    wide = tmp_path / "wide.cnf"
    wide.write_text("p cnf 2000 1\n1 0\n")
    for argv in (["grover", "--a", "1"],
                 ["grover", "--a", "1", "--oracle", "compiled"],
                 ["dist-parallel", "--k", "1", "--a", "1"]):
        assert main(argv + ["--input", str(wide)]) == 3
    assert "error:" in capsys.readouterr().err


def test_count_report_and_default_grid(tmp_path, capsys):
    path = write_table(tmp_path, 4, range(4))
    code, report = run_cli(capsys, ["count", "--input", str(path),
                                    "--seed", "1"])
    assert code == 0
    assert report["parameters"]["grid"] == 4      # 2^ceil(4/2)
    assert report["ground_truth"]["t"] == 4
    assert report["ground_truth"]["within_bound"]
    assert report["ledger"]["quantum_queries"] == 3   # grid - 1


def test_count_rejects_bad_grid(tmp_path, capsys):
    path = write_table(tmp_path, 4, [0])
    for grid in ("6", "0"):
        assert main(["count", "--input", str(path), "--grid", grid]) == 1


def test_dist_serial_report(tmp_path, capsys):
    target = 0b101101
    path = write_table(tmp_path, 6, [target])
    code, report = run_cli(capsys, ["dist-serial", "--input", str(path),
                                    "--k", "2", "--a", "1", "--seed", "8"])
    assert code == 0
    assert report["outcome"]["status"] == "found"
    assert report["outcome"]["solution"] == format(target, "06b")
    # serial mode stops at the first swept machine (index 1 here)
    assert report["outcome"]["found_by_machine"] == 1
    assert len(report["outcome"]["per_machine"]) == 2
    assert report["outcome"]["serial_total"] <= \
        report["bounds"]["serial_worst_case"]


def test_dist_parallel_fast_path(tmp_path, capsys):
    target = 0b0110101
    path = write_table(tmp_path, 7, [target])
    code, report = run_cli(capsys, ["dist-parallel", "--input", str(path),
                                    "--k", "1", "--a", "1", "--seed", "4"])
    assert code == 0
    assert report["outcome"]["status"] == "found"
    # a=1 auto fast path: no counting, so every machine skipped the estimate
    assert all(m["estimate"] is None
               for m in report["outcome"]["per_machine"])


def test_dist_k_too_large(tmp_path, capsys):
    path = write_table(tmp_path, 3, [1])
    for command in ("dist-serial", "dist-parallel"):
        for k in ("0", "3"):
            assert main([command, "--input", str(path), "--k", k,
                         "--a", "1"]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert "Traceback" not in captured.err
            assert captured.out == ""


def test_compile_writes_ir(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n")
    out = tmp_path / "f.ir"
    code, report = run_cli(capsys, ["compile", "--input", str(cnf),
                                    "--out", str(out), "--elementary"])
    assert code == 0
    assert report["outcome"]["ir_blocks"] == 7
    assert report["outcome"]["counter_qubits"] == 2
    assert report["outcome"]["elementary_gates"] > 0
    text = out.read_text()
    assert text.startswith("oracle n=3 m=3 counter=2\n")
    assert text.count("Z0C") == 1


def test_compile_reports_dropped_tautologies(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 4\n1 -2 0\n2 -2 3 0\n2 3 0\n-1 0\n")
    for _ in range(2):      # a repeated warning is printed again
        code = main(["compile", "--input", str(cnf),
                     "--out", str(tmp_path / "f.ir")])
        captured = capsys.readouterr()
        assert captured.err == \
            "warning: dropping tautological clause at line 3\n"
    assert code == 0
    outcome = json.loads(captured.out)["outcome"]
    assert outcome["original_clause_count"] == 4
    assert outcome["dropped_tautologies"] == 1
    assert outcome["m"] == 3 and outcome["ir_blocks"] == 7
    # a warning raised before a parse error is still printed, first
    cnf.write_text("p cnf 2 2\n1 -1 0\n2 x 0\n")
    assert main(["grover", "--input", str(cnf), "--a", "1"]) == 2
    assert capsys.readouterr().err == (
        "warning: dropping tautological clause at line 2\n"
        "error: line 3: bad literal 'x'\n")


def test_json_file_append(tmp_path, capsys):
    path = write_table(tmp_path, 3, [2])
    log = tmp_path / "runs.jsonl"
    for seed in ("1", "2"):
        assert main(["grover", "--input", str(path), "--a", "1",
                     "--seed", seed, "--json", str(log)]) == 0
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 2
    assert {json.loads(line)["parameters"]["seed"]
            for line in lines} == {1, 2}


def test_unwritable_output_paths_are_usage_errors(tmp_path, capsys):
    path = write_table(tmp_path, 3, [2])
    missing = tmp_path / "no" / "such" / "dir"
    assert main(["grover", "--input", str(path), "--a", "1",
                 "--json", str(missing / "x.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""        # no report when --json cannot be written
    assert captured.err.startswith("error: cannot write")
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    assert main(["compile", "--input", str(cnf),
                 "--out", str(missing / "x.ir")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write")


def test_count_capacity_is_the_reading_register(tmp_path, capsys,
                                                monkeypatch):
    # the reading register's 4^m controlled-powers work is budgeted, not
    # 2^(m+n) amplitudes
    monkeypatch.setenv("DISTGROVER_MAX_QUBITS", "8")
    small = write_table(tmp_path, 2, [1], name="small.table")
    assert main(["count", "--input", str(small), "--grid", "32"]) == 3
    assert "error:" in capsys.readouterr().err
    wide = write_table(tmp_path, 8, [5, 77], name="wide.table")
    code, report = run_cli(capsys, ["count", "--input", str(wide)])
    assert code == 0 and report["parameters"]["grid"] == 16


def test_report_blocks_of_every_command(tmp_path, capsys):
    table = write_table(tmp_path, 4, [3, 12])
    cnf = tmp_path / "f.dimacs"          # .dimacs is read as DIMACS too
    cnf.write_text("p cnf 4 2\n1 -2 0\n3 4 0\n")
    envelope = {"schema", "command", "input", "parameters", "outcome",
                "duration_seconds"}
    dist = (envelope | {"bounds", "ledger"}, {"n", "k", "a", "seed"})
    expected = {
        "grover": (envelope | {"ledger"}, {"n", "a", "seed", "oracle"}),
        "count": (envelope | {"ground_truth", "ledger"},
                  {"n", "grid", "seed"}),
        "dist-serial": dist,
        "dist-parallel": dist,
        "compile": (envelope, {"out", "elementary"}),
    }
    argvs = {
        "grover": ["--input", str(table), "--a", "2"],
        "count": ["--input", str(cnf)],
        "dist-serial": ["--input", str(cnf), "--k", "1", "--a", "2"],
        "dist-parallel": ["--input", str(table), "--k", "2", "--a", "2"],
        "compile": ["--input", str(cnf), "--out", str(tmp_path / "f.ir")],
    }
    for command, (keys, parameters) in expected.items():
        code, report = run_cli(capsys, [command] + argvs[command])
        assert code == 0
        assert set(report) == keys, command
        assert set(report["parameters"]) == parameters, command
        assert report["command"] == command
    assert report["outcome"]["n"] == 4      # compile parsed the .dimacs


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    path = write_table(tmp_path, 3, [2])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)              # nobody will read the report
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "distgrover.cli", "grover", "--input",
             str(path), "--a", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert b"BrokenPipeError" not in proc.stderr


def _outputs(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = captured.out.strip()
    report = json.loads(out) if out else None
    if report is not None:
        report.pop("duration_seconds")
    return code, report, captured.err


def test_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    # 20 calls, failing ones included, build one parser; each call gives
    # the exit code, report and stderr a freshly built parser gives
    roots = []

    class CountingParser(cli._Parser):
        def __init__(self, **kwargs):
            if kwargs["prog"] == "distgrover":
                roots.append(self)
            super().__init__(**kwargs)

    table = write_table(tmp_path, 4, [3, 12])
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 4 2\n1 -2 0\n3 4 0\n")
    argvs = [
        ["grover", "--input", str(table), "--a", "2", "--seed", "3"],
        ["grover", "--input", str(table), "--a", "2", "--bogus"],
        ["count", "--input", str(tmp_path / "missing.table")],
        ["count", "--input", str(cnf), "--seed", "4"],
        ["dist-serial", "--input", str(table), "--k", "1", "--a", "2"],
        ["dist-parallel", "--input", str(table), "--k", "2", "--a", "1"],
        ["dist-parallel", "--input", str(table), "--k", "x", "--a", "1"],
        ["compile", "--input", str(cnf), "--out", str(tmp_path / "f.ir")],
        ["frobnicate"],
        [],
    ] * 2
    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli.build_parser.cache_clear()
    try:
        shared = [_outputs(capsys, argv) for argv in argvs]
        assert len(roots) == 1
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(_outputs(capsys, argv))
        assert len(roots) == 1 + len(argvs)
    finally:
        cli.build_parser.cache_clear()
    assert shared == fresh
    assert {code for code, _, _ in shared} == {0, 1}

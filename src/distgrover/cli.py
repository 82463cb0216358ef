"""Command-line front end.

Subcommands: grover, count, dist-serial, dist-parallel, compile. Each run
emits one JSON report (schema "distgrover-report/1") to stdout and, with
--json PATH, to a file. Exit codes: 0 success, 1 usage, 2 parse, 3 capacity,
4 internal invariant.

Capacity defaults to 2^26 amplitudes; override with DISTGROVER_MAX_QUBITS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import cnf as cnfmod
from . import compiler, distributed, estimation, grover
from .errors import DistGroverError, UsageError
from .ledger import QueryLedger
from .oracle import BooleanFunction, read_text
from .statevector import check_capacity

REPORT_SCHEMA = "distgrover-report/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _input_descriptor(path: Path, text: str) -> dict:
    return {"path": str(path),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _load_function(args) -> tuple[BooleanFunction, dict,
                                  cnfmod.CnfFormula | None]:
    path = Path(args.input)
    text = read_text(path)
    fmt = args.format
    if fmt == "auto":
        fmt = "dimacs" if path.suffix in (".cnf", ".dimacs") else "table"
    if fmt == "dimacs":
        formula = cnfmod.parse_dimacs(text)
        check_capacity(formula.variable_count)
        if getattr(args, "oracle", "table") == "compiled":
            f = compiler.oracle_from_formula(formula, label=str(path))
        else:
            f = BooleanFunction.from_cnf(formula, label=str(path))
        return f, _input_descriptor(path, text), formula
    return (BooleanFunction.from_table_text(text, label=str(path)),
            _input_descriptor(path, text), None)


def _base_report(command: str, descriptor: dict, params: dict) -> dict:
    return {"schema": REPORT_SCHEMA, "command": command, "input": descriptor,
            "parameters": params}


def _write(path, text: str, mode: str) -> None:
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _emit(report: dict, args) -> None:
    """Append the report to --json first, so a failed write prints none."""
    line = json.dumps(report, sort_keys=True)
    if args.json:
        _write(args.json, line + "\n", "a")
    print(line)


def cmd_grover(args) -> dict:
    f, descriptor, _ = _load_function(args)
    n = f.arity
    ledger = QueryLedger()
    started = time.perf_counter()
    outcome = grover.run_grover(f, args.a, args.seed, ledger)
    report = _base_report("grover", descriptor,
                          {"n": n, "a": args.a, "seed": args.seed,
                           "oracle": args.oracle})
    report["outcome"] = {
        "measured_x": outcome.measured_bits(n),
        "is_solution": bool(outcome.is_solution),
        "iterations": grover.grover_iterations(n, args.a),
        "predicted_success": grover.success_probability(n, args.a),
    }
    report["ledger"] = ledger.snapshot()
    report["duration_seconds"] = time.perf_counter() - started
    return report


def cmd_count(args) -> dict:
    f, descriptor, _ = _load_function(args)
    n = f.arity
    grid = args.grid if args.grid is not None \
        else estimation.counting_grid_for(n)
    ledger = QueryLedger()
    started = time.perf_counter()
    estimate = estimation.run_count(f, grid, args.seed, ledger)
    true_t = f.solution_count()
    bound = estimation.relaxed_error_bound(true_t, n)
    report = _base_report("count", descriptor,
                          {"n": n, "grid": grid, "seed": args.seed})
    report["outcome"] = {
        "y": estimate.y,
        "a_tilde": estimate.a_tilde,
        "t_prime": estimate.t_prime,
        "t_prime_rounded": estimate.t_prime_rounded,
    }
    report["ground_truth"] = {       # harness data, not algorithm output
        "t": true_t,
        "relaxed_bound": bound,
        "within_bound": abs(estimate.t_prime - true_t) <= bound,
    }
    report["ledger"] = ledger.snapshot()
    report["duration_seconds"] = time.perf_counter() - started
    return report


def cmd_dist(args, mode: str) -> dict:
    f, descriptor, _ = _load_function(args)
    n = f.arity
    started = time.perf_counter()
    if mode == "serial":
        outcome = distributed.run_serial(f, args.k, args.a, args.seed)
    else:
        outcome = distributed.run_parallel(f, args.k, args.a, args.seed)
    serial_bound, parallel_bound = distributed.worst_case_query_bound(
        n, args.k, args.a)
    report = _base_report(f"dist-{mode}", descriptor,
                          {"n": n, "k": args.k, "a": args.a,
                           "seed": args.seed})
    report["outcome"] = {
        "status": outcome.status,
        "solution": outcome.solution_bits(n),
        "found_by_machine": outcome.found_by_machine,
        "total_quantum": outcome.total_quantum,
        "total_classical": outcome.total_classical,
        "parallel_depth": outcome.parallel_depth,
        "serial_total": outcome.serial_total,
        "per_machine": [
            {"machine": m.index,
             "ledger": m.ledger.snapshot(),
             "estimate": None if m.candidate_set is None
             else m.candidate_set.estimate,
             "attempts": len(m.attempts)}
            for m in outcome.machines],
    }
    report["bounds"] = {
        "serial_worst_case": serial_bound,
        "parallel_worst_case": parallel_bound,
        "statement_form": distributed.statement_form_bound(n, args.k),
        "single_machine_grover": grover.grover_iterations(n, args.a),
    }
    report["ledger"] = {"quantum_queries": outcome.total_quantum,
                        "classical_queries": outcome.total_classical,
                        "total": outcome.serial_total}
    report["duration_seconds"] = time.perf_counter() - started
    return report


def cmd_compile(args) -> dict:
    path = Path(args.input)
    text = read_text(path)
    formula = cnfmod.parse_dimacs(text)
    started = time.perf_counter()
    circuit = compiler.compile_phase_oracle(formula)
    _write(args.out, circuit.to_text(), "w")
    m = circuit.clause_count
    reference = m * circuit.counter_qubits
    report = _base_report("compile", _input_descriptor(path, text),
                          {"out": str(args.out),
                           "elementary": bool(args.elementary)})
    report["outcome"] = {
        "n": circuit.input_qubits,
        "m": m,
        "counter_qubits": circuit.counter_qubits,
        "ir_blocks": compiler.gate_count(circuit, elementary=False),
        "elementary_gates": compiler.gate_count(circuit, elementary=True)
        if args.elementary else None,
        "m_logm_reference": reference,
        "dropped_tautologies": formula.dropped_tautologies,
        "original_clause_count": formula.original_clause_count,
    }
    report["duration_seconds"] = time.perf_counter() - started
    return report


def build_parser() -> _Parser:
    parser = _Parser(prog="distgrover",
                     description="Exact simulation of distributed Grover "
                                 "search with query accounting")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_oracle=False):
        p.add_argument("--input", required=True, help="function source file")
        p.add_argument("--format", choices=["auto", "table", "dimacs"],
                       default="auto")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", help="append the JSON report to this file")
        if needs_oracle:
            p.add_argument("--oracle", choices=["table", "compiled"],
                           default="table")

    p = sub.add_parser("grover", help="single-machine Grover run")
    common(p, needs_oracle=True)
    p.add_argument("--a", type=int, required=True,
                   help="assumed solution count")

    p = sub.add_parser("count", help="quantum counting run")
    common(p)
    p.add_argument("--grid", type=int, help="power-of-two reading grid")

    for mode in ("serial", "parallel"):
        p = sub.add_parser(f"dist-{mode}",
                           help=f"distributed search, {mode} mode")
        common(p)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--a", type=int, required=True)

    p = sub.add_parser("compile", help="compile a DIMACS CNF to oracle IR")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--elementary", action="store_true")
    p.add_argument("--json", help="append the JSON report to this file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "grover":
            report = cmd_grover(args)
        elif args.command == "count":
            report = cmd_count(args)
        elif args.command == "dist-serial":
            report = cmd_dist(args, "serial")
        elif args.command == "dist-parallel":
            report = cmd_dist(args, "parallel")
        else:
            report = cmd_compile(args)
        _emit(report, args)
    except DistGroverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands grover, count, dist-serial, dist-parallel and compile are one row
each of `build_parser`, which runs once per process, on the first `main`
call. `main` emits each run's JSON report (schema "distgrover-report/1") to
stdout and, with --json PATH, to a file. Exit codes: 0 success, 1 usage,
2 parse, 3 capacity, 4 internal invariant; -h/--help prints the usage to
stdout and returns 0. Inputs named *.cnf or *.dimacs are DIMACS; any other
is a truth table. A warning raised while loading the input, such as a
dropped tautological clause, is one `warning:` line on stderr.

Capacity defaults to 2^26 amplitudes; override with DISTGROVER_MAX_QUBITS.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
import warnings
from pathlib import Path

from . import cnf as cnfmod
from . import compiler, distributed, estimation, grover
from .errors import DistGroverError, UsageError
from .ledger import QueryLedger
from .oracle import BooleanFunction, read_text

REPORT_SCHEMA = "distgrover-report/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_function(args, text: str) -> BooleanFunction:
    if args.input.suffix not in (".cnf", ".dimacs"):
        return BooleanFunction.from_table_text(text)
    formula = cnfmod.parse_dimacs(text)
    if args.oracle == "compiled":
        return compiler.oracle_from_formula(formula)
    return BooleanFunction.from_cnf(formula)


def _write(path, text: str, mode: str) -> None:
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:     # ValueError: a NUL in the path
        raise UsageError(f"cannot write {str(path)!r}: {exc}") from None


def cmd_grover(args, f: BooleanFunction) -> dict:
    n = f.arity
    iterations = grover.grover_iterations(n, args.a)
    ledger = QueryLedger()
    outcome = grover.run_grover(grover.Evolution(f), args.a, args.seed, ledger)
    return {
        "parameters": {"n": n, "a": args.a, "seed": args.seed,
                       "oracle": args.oracle},
        "outcome": {
            "measured_x": format(outcome.measured_x, f"0{n}b"),
            "is_solution": bool(outcome.is_solution),
            "iterations": iterations,
            "predicted_success": grover.success_probability(n, args.a),
        },
        "ledger": ledger.snapshot(),
    }


def cmd_count(args, f: BooleanFunction) -> dict:
    n = f.arity
    grid = args.grid if args.grid is not None \
        else estimation.counting_grid_for(n)
    ledger = QueryLedger()
    estimate = estimation.run_count(f, grid, args.seed, ledger)
    true_t = f.solution_count()
    bound = estimation.relaxed_error_bound(true_t, n)
    return {
        "parameters": {"n": n, "grid": grid, "seed": args.seed},
        "outcome": {
            "y": estimate.y,
            "a_tilde": estimate.a_tilde,
            "t_prime": estimate.t_prime,
            "t_prime_rounded": estimate.t_prime_rounded,
        },
        "ground_truth": {       # harness data, not algorithm output
            "t": true_t,
            "relaxed_bound": bound,
            "within_bound": abs(estimate.t_prime - true_t) <= bound,
        },
        "ledger": ledger.snapshot(),
    }


def cmd_dist(args, f: BooleanFunction) -> dict:
    n = f.arity
    search = distributed.run_serial if args.command == "dist-serial" \
        else distributed.run_parallel
    outcome = search(f, args.k, args.a, args.seed)
    serial_bound, parallel_bound = distributed.worst_case_query_bound(
        n, args.k, args.a)
    return {
        "parameters": {"n": n, "k": args.k, "a": args.a, "seed": args.seed},
        "outcome": {
            "status": outcome.status,
            "solution": None if outcome.solution is None
            else format(outcome.solution, f"0{n}b"),
            "found_by_machine": outcome.found_by_machine,
            "total_quantum": outcome.total_quantum,
            "total_classical": outcome.total_classical,
            "parallel_depth": outcome.parallel_depth,
            "serial_total": outcome.serial_total,
            "per_machine": [
                {"machine": m.index,
                 "ledger": m.ledger.snapshot(),
                 "estimate": m.estimate,
                 "attempts": len(m.attempts)}
                for m in outcome.machines],
        },
        "bounds": {
            "serial_worst_case": serial_bound,
            "parallel_worst_case": parallel_bound,
            "statement_form": distributed.statement_form_bound(n, args.k),
            "single_machine_grover": grover.grover_iterations(n, args.a),
        },
        "ledger": {"quantum_queries": outcome.total_quantum,
                   "classical_queries": outcome.total_classical,
                   "total": outcome.serial_total},
    }


def cmd_compile(args, formula: cnfmod.CnfFormula) -> dict:
    circuit = compiler.compile_phase_oracle(formula)
    _write(args.out, circuit.to_text(), "w")
    m = circuit.clause_count
    return {
        "parameters": {"out": str(args.out),
                       "elementary": bool(args.elementary)},
        "outcome": {
            "n": circuit.input_qubits,
            "m": m,
            "counter_qubits": circuit.counter_qubits,
            "ir_blocks": compiler.gate_count(circuit, elementary=False),
            "elementary_gates": compiler.gate_count(circuit, elementary=True)
            if args.elementary else None,
            "m_logm_reference": m * circuit.counter_qubits,
            "dropped_tautologies": formula.dropped_tautologies,
            "original_clause_count": formula.original_clause_count,
        },
    }


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every
    later one, so callers must not change it."""
    parser = _Parser(prog="distgrover",
                     description="Exact simulation of distributed Grover "
                                 "search with query accounting")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, load=_load_function, seed=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, load=load, oracle="table")
        p.add_argument("--input", type=Path, required=True,
                       help="function source file")
        p.add_argument("--json", help="append the JSON report to this file")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        return p

    p = command("grover", "single-machine Grover run", cmd_grover)
    p.add_argument("--oracle", choices=["table", "compiled"], default="table")
    p.add_argument("--a", type=int, required=True,
                   help="assumed solution count")

    p = command("count", "quantum counting run", cmd_count)
    p.add_argument("--grid", type=int, help="power-of-two reading grid")

    for mode in ("serial", "parallel"):
        p = command(f"dist-{mode}", f"distributed search, {mode} mode",
                    cmd_dist)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--a", type=int, required=True)

    p = command("compile", "compile a DIMACS CNF to oracle IR", cmd_compile,
                lambda _args, text: cnfmod.parse_dimacs(text), seed=False)
    p.add_argument("--out", required=True)
    p.add_argument("--elementary", action="store_true")
    return parser


def _print_warning(message, *_details) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = read_text(args.input)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _print_warning
            loaded = args.load(args, text)
        started = time.perf_counter()
        report = {"schema": REPORT_SCHEMA, "command": args.command,
                  "input": {"path": str(args.input), "sha256":
                            hashlib.sha256(text.encode()).hexdigest()},
                  **args.run(args, loaded)}
        report["duration_seconds"] = time.perf_counter() - started
        line = json.dumps(report, sort_keys=True)
        if args.json:       # first, so a failed write prints no report
            _write(args.json, line + "\n", "a")
        print(line, flush=True)
    except DistGroverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:       # -h/--help, after printing the usage
        return exc.code
    except BrokenPipeError:
        # stdout closed early (`| head`): quiet the flush at exit as well
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

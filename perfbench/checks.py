"""Per-op correctness checks, the untimed exactness pass and the behaviour
fingerprint.

Checks compare a CLI report with ground truth kept by the generator, with
closed forms computed here, or (for `dist` ledgers) a report's totals with
its own per-machine parts.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Op, Workload, grover_iterations

SCHEMA = "distgrover-report/1"
EXACT_TOL = 1e-9


def counting_grid(n: int) -> int:
    return 1 << ((n + 1) // 2)


class Checker:
    """Checks each op result and keeps what later checks compare against:
    the first record of every op (so repeats must reproduce it) and the
    outcome of the first Grover oracle backend of each formula."""

    def __init__(self):
        self.records: dict[str, dict] = {}
        self._pair: dict[str, dict] = {}

    def check(self, op: Op, rc, report: dict | None,
              workdir: Path) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        if report is None or report.get("schema") != SCHEMA:
            return ["report missing or schema is not " + SCHEMA]
        command = op.argv[0]
        if report.get("command") != command:
            return [f"command {report.get('command')!r} != {command!r}"]
        handler = {"grover": self._grover, "count": self._count,
                   "dist-serial": self._dist, "dist-parallel": self._dist,
                   "compile": self._compile}[command]
        errors = handler(op, report, workdir)
        record = fingerprint_record(op, report)
        first = self.records.setdefault(op.key, record)
        if first != record:
            errors.append("repeat of the op gave a different outcome")
        return errors

    def _grover(self, op: Op, report: dict, workdir: Path) -> list[str]:
        t = op.truth
        n, a = t["n"], t["a"]
        errors = []
        k = grover_iterations(n, a)
        ledger = report["ledger"]
        if (ledger["quantum_queries"], ledger["classical_queries"]) != (k, 1):
            errors.append(f"ledger {ledger['quantum_queries']}q/"
                          f"{ledger['classical_queries']}c, closed form "
                          f"{k}q/1c")
        out = report["outcome"]
        x = int(out["measured_x"], 2)
        if bool(out["is_solution"]) != (x in t["marked"]):
            errors.append(f"is_solution={out['is_solution']} for x={x} "
                          "contradicts ground truth")
        if "formula" in t:
            seen = self._pair.setdefault(t["formula"], out)
            if seen != out:
                errors.append("compiled and table oracles disagree: "
                              f"{seen} vs {out}")
        return errors

    def _count(self, op: Op, report: dict, workdir: Path) -> list[str]:
        n, t = op.truth["n"], op.truth["t"]
        grid = counting_grid(n)
        errors = []
        ledger = report["ledger"]
        if (ledger["quantum_queries"], ledger["classical_queries"]) != \
                (grid - 1, 0):
            errors.append(f"ledger {ledger['quantum_queries']}q/"
                          f"{ledger['classical_queries']}c, closed form "
                          f"{grid - 1}q/0c")
        out = report["outcome"]
        y = out["y"]
        if report["parameters"]["grid"] != grid or not 0 <= y < grid:
            errors.append(f"grid {report['parameters']['grid']} or y={y} "
                          f"off the grid {grid}")
        elif not math.isclose(out["t_prime"],
                              (1 << n) * math.sin(math.pi * y / grid) ** 2,
                              rel_tol=1e-12, abs_tol=1e-9):
            errors.append(f"t'={out['t_prime']} is not 2^n sin^2(pi y/grid)")
        if report["ground_truth"]["t"] != t:
            errors.append(f"reported t={report['ground_truth']['t']}, "
                          f"generated t={t}")
        return errors

    def _dist(self, op: Op, report: dict, workdir: Path) -> list[str]:
        t = op.truth
        k = t["k"]
        errors = []
        out = report["outcome"]
        machines = out["per_machine"]
        q = sum(m["ledger"]["quantum_queries"] for m in machines)
        c = sum(m["ledger"]["classical_queries"] for m in machines)
        ledger = report["ledger"]
        if (ledger["quantum_queries"], ledger["classical_queries"],
                ledger["total"]) != (q, c, q + c):
            errors.append(f"ledger totals {ledger} != per-machine sums "
                          f"{q}q/{c}c")
        if op.argv[0] == "dist-parallel" and len(machines) != 1 << k:
            errors.append(f"{len(machines)} machines reported, 2^k={1 << k}")
        if out["status"] == "found":
            x = int(out["solution"], 2)
            if x not in t["marked"]:
                errors.append(f"found x={x} is not a solution")
            if out["found_by_machine"] != x & ((1 << k) - 1):
                errors.append(f"x={x} is not owned by machine "
                              f"{out['found_by_machine']}")
        elif out["status"] != "not_found":
            errors.append(f"unknown status {out['status']!r}")
        return errors

    def _compile(self, op: Op, report: dict, workdir: Path) -> list[str]:
        n, m = op.truth["n"], op.truth["m"]
        width = max(1, math.ceil(math.log2(m + 1)))
        out = report["outcome"]
        errors = []
        got = (out["n"], out["m"], out["counter_qubits"], out["ir_blocks"])
        if got != (n, m, width, 2 * m + 1):
            errors.append(f"(n, m, counter, blocks) = {got}, expected "
                          f"{(n, m, width, 2 * m + 1)}")
        if not isinstance(out["elementary_gates"], int) or \
                out["elementary_gates"] <= 0:
            errors.append("--elementary gave no elementary gate count")
        lines = (workdir / op.argv[op.argv.index("--out") + 1]) \
            .read_text().splitlines()
        header = f"oracle n={n} m={m} counter={width}"
        kinds = [ln.split()[0] for ln in lines[1:]]
        if lines[0] != header or (kinds.count("CADD"), kinds.count("CSUB"),
                                  kinds.count("Z0C")) != (m, m, 1):
            errors.append(f"IR file is not {header!r} with m CADD, m CSUB "
                          "and one Z0C")
        return errors


def _canonical(value):
    """Floats to 12 significant digits so last-bit noise in derived floats
    (predicted_success, t_prime) cannot change a digest."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    return value


def fingerprint_record(op: Op, report: dict) -> dict:
    """argv (file names relative to the work dir), outcome and ledger;
    durations and paths are left out."""
    return _canonical({"argv": op.argv, "outcome": report.get("outcome"),
                       "ledger": report.get("ledger")})


def digest(workload: Workload, records: dict[str, dict]) -> str:
    """sha256 over the op records in op-list order."""
    h = hashlib.sha256()
    for op in workload.ops:
        h.update(json.dumps(records.get(op.key), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- untimed exactness pass ------------------------------------------------

def _phase_kernel(delta: float, grid: int) -> float:
    d = delta % 1.0
    if d < 1e-15 or 1.0 - d < 1e-15:
        return 1.0
    return math.sin(math.pi * grid * d) ** 2 / (
        grid ** 2 * math.sin(math.pi * d) ** 2)


def counting_kernel(t: int, n: int, m: int) -> np.ndarray:
    """Closed-form reading-register distribution of counting t of 2^n."""
    grid = 1 << m
    p = np.zeros(grid)
    if t in (0, 1 << n):
        p[0 if t == 0 else grid // 2] = 1.0
        return p
    phi = math.asin(math.sqrt(t / (1 << n))) / math.pi
    return np.array([0.5 * _phase_kernel(phi - y / grid, grid)
                     + 0.5 * _phase_kernel(1.0 - phi - y / grid, grid)
                     for y in range(grid)])


def grover_success_mass(f, marked, a: int) -> float:
    """Exact mass on `marked` after the CLI's iterate count, simulated by
    the library's own iterate."""
    from distgrover import grover, statevector
    n = f.arity
    state = statevector.init_basis(n, 0)
    statevector.apply_hadamard_all(state, range(n))
    for _ in range(grover_iterations(n, a)):
        grover.apply_grover_iterate(f, state)
    p = statevector.measurement_distribution(state, range(n)).probabilities
    return float(p[list(marked)].sum())


def grover_closed_form(n: int, t: int, a: int) -> float:
    theta = math.asin(math.sqrt(t / (1 << n)))
    return math.sin((2 * grover_iterations(n, a) + 1) * theta) ** 2


def exactness_pass(workload: Workload, workdir: Path) -> dict[str, str]:
    """Exact distributions of a few listed ops against closed forms; returns
    {op key: error} for every op that misses by more than EXACT_TOL."""
    from distgrover import cnf, compiler, estimation
    from distgrover.oracle import BooleanFunction
    errors: dict[str, str] = {}
    first = workload.passes[0]

    def table(op):
        return BooleanFunction.from_file(workdir / op.argv[2])

    def expect(op, got, want, what):
        if abs(got - want) > EXACT_TOL:
            errors[op.key] = f"{what}: exact {got!r}, closed form {want!r}"

    if workload.name == "grover-table":
        for n in (12, 14):
            op = next(o for o in first if o.truth["n"] == n)
            t = op.truth
            expect(op, grover_success_mass(table(op), t["marked"], t["a"]),
                   grover_closed_form(n, len(t["marked"]), t["a"]),
                   "Grover success mass")
    elif workload.name == "count":
        for n in sorted({o.truth["n"] for o in first}):
            for op in [o for o in first if o.truth["n"] == n][1:3]:
                m = counting_grid(n).bit_length() - 1
                p = estimation.est_amp_distribution(table(op), m).probabilities
                want = counting_kernel(op.truth["t"], n, m)
                expect(op, float(np.abs(p - want).max()), 0.0,
                       "counting distribution max error")
    elif workload.name == "dist":
        for op in first[:2]:
            t = op.truth
            n, k = t["n"], t["k"]
            f0 = table(op).restrict(format(0, f"0{k}b"))
            sub = [x >> k for x in t["marked"] if x & ((1 << k) - 1) == 0]
            if f0.truth_values().nonzero()[0].tolist() != sub:
                errors[op.key] = "machine 0 subfunction != ground truth"
                continue
            m = counting_grid(n - k).bit_length() - 1
            p = estimation.est_amp_distribution(f0, m).probabilities
            expect(op, float(np.abs(p - counting_kernel(len(sub), n - k, m))
                             .max()), 0.0, "machine-0 counting distribution")
    else:
        op = next(o for o in first if o.truth["n"] == min(
            x.truth["n"] for x in first) and o.key.endswith(".compiled"))
        formula = cnf.parse_dimacs((workdir / op.argv[2]).read_text())
        want = grover_closed_form(op.truth["n"], 1, 1)
        for f, what in ((compiler.oracle_from_formula(formula), "compiled"),
                        (BooleanFunction.from_cnf(formula), "table")):
            expect(op, grover_success_mass(f, op.truth["marked"], 1), want,
                   f"{what}-oracle Grover success mass")
    return errors

"""Acceptance gate: one test per numbered criterion, each printing a
single PASS/FAIL line (written past pytest's capture so it always shows).

Every probability below is an exact integrated mass from the simulated
distribution, never a sampled frequency, so the stated tolerances are
numerical only.
"""

import contextlib
import math
import random

import numpy as np
import pytest

from distgrover import (
    BooleanFunction,
    Evolution,
    QueryLedger,
    candidate_window,
    compile_phase_oracle,
    decompose,
    est_amp_distribution,
    gate_count,
    oracle_from_formula,
    run_grover,
    run_parallel,
    run_serial,
    threshold_t_a,
    worst_case_query_bound,
)
from distgrover.compiler import (
    ELEMENTARY_SCALING_CONSTANT,
    circuit_diagonal,
    counter_width,
)
from distgrover.estimation import relaxed_error_bound, counting_grid_for
from distgrover.grover import (
    apply_grover_iterate,
    grover_iterations,
    success_probability,
)
from distgrover.statevector import apply_hadamard_all, init_basis

from conftest import first_k_marked, marked_function, random_3cnf
from reference import simulate_oracle_circuit

CONFIDENCE = 8.0 / math.pi ** 2

_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_bridge(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = (f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
            + (f"  [{detail}]" if detail else ""))
    ctx = _CAPTURE.disabled() if _CAPTURE else contextlib.nullcontext()
    with ctx:
        print(line, flush=True)
    assert ok, line


def _solution_mass(n: int, a: int) -> float:
    f = first_k_marked(n, a)
    state = init_basis(n, 0)
    apply_hadamard_all(state, range(0, n))
    for _ in range(grover_iterations(n, a)):
        apply_grover_iterate(f, state)
    return float(np.sum(np.abs(state.amps[:a]) ** 2))


def _rounded_estimate(y: int, grid: int, sub_arity: int) -> int:
    t_prime = (1 << sub_arity) * math.sin(math.pi * y / grid) ** 2
    return int(math.floor(t_prime + 0.5))


def test_criterion_01_grover_closed_form():
    worst = 0.0
    for n in range(1, 13):
        for a in range(1, (1 << n) + 1):
            dev = abs(_solution_mass(n, a) - success_probability(n, a))
            worst = max(worst, dev)
    _report(1, "grover-closed-form", worst <= 1e-9,
            f"max deviation {worst:.3e}")


def test_criterion_02_exact_rotation():
    dev = abs(_solution_mass(2, 1) - 1.0)
    out = run_grover(Evolution(first_k_marked(2, 1)), 1, 0, QueryLedger())
    ok = dev <= 1e-12 and out.is_solution == 1 and out.measured_x == 0
    _report(2, "exact-rotation-n2", ok, f"deviation {dev:.3e}")


def test_criterion_03_counting_certainty_edges():
    worst = 0.0
    ok = True
    for n in range(1, 9):
        for m in range(1, 6):
            grid = 1 << m
            for t, y_expected in [(0, 0), (1 << n, grid // 2)]:
                p = est_amp_distribution(marked_function(n, range(t)),
                                         m).probabilities
                worst = max(worst, abs(p[y_expected] - 1.0))
                ok &= abs(p[y_expected] - 1.0) <= 1e-12
                ok &= _rounded_estimate(y_expected, grid, n) == t
    _report(3, "counting-certainty-edges", ok,
            f"max point-mass deviation {worst:.3e}")


def test_criterion_04_counting_confidence():
    worst = 1.0
    for n in range(1, 7):
        grid = counting_grid_for(n)
        m = grid.bit_length() - 1
        for t in range(0, (1 << n) + 1):
            p = est_amp_distribution(marked_function(n, range(t)),
                                     m).probabilities
            bound = relaxed_error_bound(t, n)
            mass = sum(
                p[y] for y in range(grid)
                if abs((1 << n) * math.sin(math.pi * y / grid) ** 2 - t)
                <= bound)
            worst = min(worst, mass)
    _report(4, "counting-confidence", worst >= CONFIDENCE - 1e-12,
            f"min in-bound mass {worst:.6f} vs {CONFIDENCE:.6f}")


def test_criterion_05_candidate_window():
    worst = 1.0
    sizes_ok = True
    for s in range(1, 9):
        grid = counting_grid_for(s)
        m = grid.bit_length() - 1
        for a in range(1, (1 << s) + 1):
            p = est_amp_distribution(first_k_marked(s, a), m).probabilities
            t_a = threshold_t_a(a)
            mass = 0.0
            for y in range(grid):
                window = candidate_window(_rounded_estimate(y, grid, s),
                                          t_a, s)
                sizes_ok &= len(window) <= 2 * t_a + 1
                if window and window[0] <= a <= window[-1]:
                    mass += p[y]
            worst = min(worst, mass)
    _report(5, "candidate-window", sizes_ok and worst >= CONFIDENCE - 1e-12,
            f"min containment mass {worst:.6f}")


def test_criterion_06_fast_path_queries():
    ok = True
    for n in (8, 10, 12):
        target = (1 << n) - 2
        f = marked_function(n, [target])
        single = QueryLedger()
        run_grover(Evolution(f), 1, 7, single)
        ok &= single.quantum_queries == grover_iterations(n, 1)
        for k in (1, 2, 3):
            out = run_parallel(f, k, 1, seed=7)
            per = grover_iterations(n - k, 1)
            ok &= all(mac.ledger.quantum_queries == per
                      for mac in out.machines)
    _report(6, "fast-path-query-equality", ok)


def test_criterion_07_query_bounds():
    rng = random.Random(20260826)
    instances = 0
    ok = True
    while instances < 200:
        n = rng.randint(5, 12)
        k = rng.randint(1, min(3, n - 1))
        a = rng.randint(1, 8)
        f = marked_function(n, rng.sample(range(1 << n), a))
        serial_bound, parallel_bound = worst_case_query_bound(n, k, a)
        seed = rng.getrandbits(32)
        out_s = run_serial(f, k, a, seed)
        ok &= out_s.serial_total <= serial_bound
        out_p = run_parallel(f, k, a, seed)
        ok &= all(mac.ledger.total <= parallel_bound
                  for mac in out_p.machines)
        instances += 1
    _report(7, "worst-case-query-bounds", ok, f"{instances} instances")


def test_criterion_08_distributed_success_probability():
    rng = random.Random(8)
    worst_ratio = math.inf
    checked = 0
    for n in range(4, 9):
        for _ in range(4):
            total_a = rng.randint(1, 6)
            f = marked_function(n, rng.sample(range(1 << n), total_a))
            subs = decompose(f, 1)
            i = next((j for j, g in enumerate(subs)
                      if g.solution_count() > 0), None)
            if i is None:
                continue
            f_i = subs[i]
            s, a_i = n - 1, f_i.solution_count()
            theta = math.asin(math.sqrt(a_i / (1 << s)))
            grid = counting_grid_for(s)
            p = est_amp_distribution(f_i,
                                     grid.bit_length() - 1).probabilities
            t_a = threshold_t_a(total_a)

            def attempt_success(b):
                return math.sin(
                    (2 * grover_iterations(s, b) + 1) * theta) ** 2

            p_found = 0.0
            for y in range(grid):
                window = candidate_window(_rounded_estimate(y, grid, s),
                                          t_a, s)
                miss = 1.0
                for b in window:
                    miss *= 1.0 - attempt_success(b)
                p_found += p[y] * (1.0 - miss)
            p_single = attempt_success(a_i)
            if p_single > 0:
                worst_ratio = min(worst_ratio, p_found / p_single)
            checked += 1
    ok = checked >= 15 and worst_ratio >= CONFIDENCE - 1e-12
    _report(8, "distributed-success-probability", ok,
            f"min P(found)/P_single {worst_ratio:.6f} over {checked}")


def test_criterion_09_oracle_compiler():
    rng = random.Random(9)
    plans = [(n, rng.randint(1, 24))
             for n in list(range(3, 9)) * 8 + [9, 10, 9, 10, 11, 12]]
    ok = True
    distribution_checks = 0
    for n, m in plans:
        formula = random_3cnf(n, m, rng)
        circuit = compile_phase_oracle(formula)
        truth = formula.truth_values()
        for y in range(1 << n):
            phase, restored = simulate_oracle_circuit(circuit, y)
            ok &= restored == 1 and phase == 1 - 2 * int(truth[y])
        ok &= np.array_equal(circuit_diagonal(circuit), truth == 1)
        a = int(truth.sum())
        if n <= 8 and a >= 1:
            compiled = oracle_from_formula(formula)
            table = BooleanFunction.from_truth_table(truth)
            dists = []
            for oracle in (compiled, table):
                state = init_basis(n, 0)
                apply_hadamard_all(state, range(0, n))
                for _ in range(grover_iterations(n, a)):
                    apply_grover_iterate(oracle, state)
                dists.append(np.abs(state.amps) ** 2)
            ok &= np.array_equal(dists[0], dists[1])
            distribution_checks += 1
    ok &= len(plans) >= 50 and distribution_checks >= 10
    _report(9, "oracle-compiler-exactness", ok,
            f"{len(plans)} formulas, {distribution_checks} "
            "distribution checks")


def test_criterion_10_gate_scaling():
    rng = random.Random(10)
    ok = True
    worst_ratio = 0.0
    for m in (1, 2, 4, 8, 16, 32, 64):
        clauses = [tuple(v if rng.random() < 0.5 else -v
                         for v in rng.sample(range(1, 13), 3))
                   for _ in range(m)]
        from distgrover import CnfFormula
        circuit = compile_phase_oracle(CnfFormula(variable_count=12,
                                                  clauses=clauses))
        ok &= gate_count(circuit) == 2 * m + 1
        budget = ELEMENTARY_SCALING_CONSTANT * m * counter_width(m)
        elementary = gate_count(circuit, elementary=True)
        ok &= elementary <= budget
        worst_ratio = max(worst_ratio, elementary / budget)
    _report(10, "elementary-gate-scaling", ok,
            f"max count/budget {worst_ratio:.3f}")


def test_criterion_11_decomposition_conservation():
    rng = random.Random(11)
    ok = True
    for n in range(2, 13):
        table = np.array([rng.randint(0, 1) for _ in range(1 << n)],
                         dtype=np.uint8)
        f = BooleanFunction.from_truth_table(table)
        for k in range(1, n):
            subs = decompose(f, k)
            ok &= sum(g.solution_count() for g in subs) == f.solution_count()
            for i, g in enumerate(subs):
                ok &= np.array_equal(g.truth_values(), table[i::1 << k])
        # pointwise evaluate consistency on the full domain
        ledger = QueryLedger()
        for k in (1, min(3, n - 1)):
            subs = decompose(f, k)
            for x in range(1 << n):
                ok &= subs[x & ((1 << k) - 1)].evaluate(x >> k, ledger) == \
                    f.evaluate(x, ledger)
    _report(11, "decomposition-conservation", ok)

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import distgrover
from distgrover import (BooleanFunction, Evolution, QueryLedger,
                        StateVector, UsageError, apply_grover_iterate,
                        apply_hadamard_all, grover, grover_iterations,
                        init_basis, measurement_distribution, run_grover,
                        success_probability)

from conftest import first_k_marked, marked_function
from reference import reference_hadamard_all


def solution_mass(f, iterations):
    n = f.arity
    state = apply_hadamard_all(init_basis(n, 0), range(0, n))
    for _ in range(iterations):
        apply_grover_iterate(f, state)
    probs = measurement_distribution(state, range(0, n)).probabilities
    return float(probs[f.truth_values() == 1].sum())


def test_iteration_counts():
    assert grover_iterations(2, 1) == 1
    assert grover_iterations(4, 1) == 3
    for n in (1, 3, 6):
        assert grover_iterations(n, 1 << n) == 0


def test_iteration_count_matches_high_precision():
    # floor in doubles agrees with a much finer evaluation at desk scale
    for n in range(1, 27):
        for a in {1, min(3, 1 << n), (1 << n) // 2 or 1, 1 << n}:
            k = grover_iterations(n, a)
            value = math.pi / 4 * math.sqrt((1 << n) / a)
            assert abs(value - round(value)) > 1e-9 or k == round(value)
            assert k <= value < k + 1


def test_iteration_count_errors():
    with pytest.raises(UsageError):
        grover_iterations(3, 0)
    with pytest.raises(UsageError):
        grover_iterations(3, 9)


def test_success_probability_examples():
    assert success_probability(2, 1) == pytest.approx(1.0, abs=1e-12)
    for n in (2, 4, 5):
        assert success_probability(n, 1 << n) == pytest.approx(1.0)
    f = first_k_marked(4, 1)
    assert solution_mass(f, 3) == pytest.approx(success_probability(4, 1),
                                                abs=1e-9)


def test_exact_rotation_case():
    # n=2, a=1: theta = pi/6, one iterate lands exactly on the solution
    f = marked_function(2, [2])
    n = 2
    state = apply_hadamard_all(init_basis(n, 0), range(0, n))
    apply_grover_iterate(f, state)
    probs = measurement_distribution(state, range(0, n)).probabilities
    assert probs[2] == pytest.approx(1.0, abs=1e-12)


def test_iterate_constant_one_returns_uniform_up_to_sign():
    f = BooleanFunction.constant(2, 1)
    state = apply_hadamard_all(init_basis(2, 0), range(0, 2))
    apply_grover_iterate(f, state)
    assert np.abs(np.abs(state.amps) - 0.5).max() < 1e-12


def test_iterate_preserves_two_dim_span():
    # from the uniform start, amplitudes stay equal within each of the
    # solution / non-solution sets
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(1, 1 << n))
        marked = rng.choice(1 << n, size=t, replace=False)
        f = marked_function(n, marked)
        good = f.truth_values() == 1
        state = apply_hadamard_all(init_basis(n, 0), range(0, n))
        for _ in range(3):
            apply_grover_iterate(f, state)
            for group in (state.amps[good], state.amps[~good]):
                if group.size:
                    assert np.abs(group - group[0]).max() < 1e-12


def test_closed_form_matches_simulation_small():
    for n in range(1, 7):
        for a in range(1, (1 << n) + 1):
            f = first_k_marked(n, a)
            assert solution_mass(f, grover_iterations(n, a)) == pytest.approx(
                success_probability(n, a), abs=1e-9)


def test_run_grover_exact_case():
    f = marked_function(2, [1])
    for seed in (0, 1, 17):
        ledger = QueryLedger()
        out = run_grover(f, 1, seed, ledger)
        assert out.is_solution == 1
        assert out.measured_x == 1
        assert ledger.quantum_queries == 1
        assert ledger.classical_queries == 1


def test_run_grover_no_solutions():
    f = BooleanFunction.constant(3, 0)
    for seed in range(5):
        out = run_grover(f, 1, seed, QueryLedger())
        assert out.is_solution == 0


def test_run_grover_query_accounting():
    f = first_k_marked(6, 3)
    ledger = QueryLedger()
    run_grover(f, 2, 5, ledger)
    assert ledger.quantum_queries == grover_iterations(6, 2)
    assert ledger.classical_queries == 1


def test_run_grover_charges_each_shot_all_its_iterates():
    # a shot's k iterates are charged even when its evolution holds them,
    # and a shot with k = 0 adds no "oracle" entry
    f = first_k_marked(6, 3)
    evolution = Evolution(f)
    for a, k in ((4, 3), (2, 4), (2, 4), (64, 0)):
        ledger = QueryLedger()
        fresh = QueryLedger()
        assert run_grover(f, a, 7, ledger, evolution) == \
            run_grover(f, a, 7, fresh)
        assert ledger.snapshot() == fresh.snapshot()
        assert ledger.breakdown == ({"oracle": k, "verify": 1} if k
                                    else {"verify": 1})
    with pytest.raises(UsageError):
        run_grover(first_k_marked(6, 3), 2, 7, QueryLedger(), evolution)


def test_evolution_matches_a_fresh_run_for_any_count_sequence(monkeypatch):
    # counts that rise, repeat and fall (a fall restarts from the uniform
    # start); each distribution is the fresh run's, bit for bit, and only
    # the iterates beyond the current count are applied
    n = 6
    f = marked_function(n, [5, 40, 41])
    applied = []

    def counted_iterate(g, state):
        applied.append(g)
        return apply_grover_iterate(g, state)

    monkeypatch.setattr(grover, "apply_grover_iterate", counted_iterate)
    evolution = Evolution(f)
    expected_iterates = previous = 0
    for k in (0, 0, 2, 3, 3, 7, 1, 1, 4, 0, 5):
        fresh = apply_hadamard_all(init_basis(n, 0), range(n))
        for _ in range(k):
            apply_grover_iterate(f, fresh)
        want = measurement_distribution(fresh, range(n)).probabilities
        assert np.array_equal(evolution.distribution(k).probabilities, want)
        assert evolution.iterations == k
        expected_iterates += k - previous if k >= previous else k
        previous = k
    assert len(applied) == expected_iterates
    with pytest.raises(UsageError):
        evolution.distribution(-1)


def _complex_copy(state):
    return StateVector(state.qubit_count, state.amps.astype(np.complex128))


def test_real_start_matches_a_complex_copy_bit_for_bit():
    # every operator of a Grover shot is real, so an Evolution's state is
    # float64 from start to end (8 bytes per amplitude); a real amplitude
    # with a zero imaginary part goes through the same IEEE operations, so
    # its distribution is, to the bit, that of a complex copy of its start
    # driven through Evolution or through the bare iterate
    rng = np.random.default_rng(31)
    for n in range(1, 15):
        register = range(n)
        for a in sorted({min(a, 1 << n) for a in (1, 2, 3, 5)}):
            f = marked_function(n, rng.choice(1 << n, size=a, replace=False))
            k = grover_iterations(n, a)
            real = Evolution(f)
            assert real.state.amps.dtype == np.float64
            twin = Evolution(f)
            twin.state = _complex_copy(real.state)
            copy = _complex_copy(real.state)
            for _ in range(k):
                apply_grover_iterate(f, copy)
            want = real.distribution(k).probabilities
            assert real.state.amps.dtype == np.float64
            assert twin.state.amps.dtype == copy.amps.dtype == np.complex128
            assert np.array_equal(twin.distribution(k).probabilities, want)
            assert np.array_equal(
                measurement_distribution(copy, register).probabilities, want)


def test_run_grover_empirical_frequency():
    n, trials = 6, 4000
    f = first_k_marked(n, 1)
    p = success_probability(n, 1)
    hits = sum(run_grover(f, 1, seed, QueryLedger()).is_solution
               for seed in range(trials))
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) <= 3 * sigma


def test_run_grover_deterministic():
    f = first_k_marked(5, 2)
    a = run_grover(f, 2, 99, QueryLedger())
    b = run_grover(f, 2, 99, QueryLedger())
    assert a == b


def test_run_grover_peaks_below_three_and_a_half_states():
    # a shot holds its state, the sign array and one distribution (8 bytes
    # per amplitude each) or, while an iterate runs, the Hadamard scratch
    # (6) in place of the distribution; the truth table is built beforehand
    n, a = 18, 1024
    f = first_k_marked(n, a)
    f.truth_values()
    tracemalloc.start()
    try:
        outcome = run_grover(f, a, 3, QueryLedger())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.is_solution == f.evaluate(outcome.measured_x)
    assert peak <= 3.5 * (8 << n)


def _run_grover_distribution(monkeypatch, f, a, hadamard):
    # the measurement distribution run_grover samples from, with `hadamard`
    # as its Walsh-Hadamard kernel
    captured = []

    def measure(state, register):
        distribution = measurement_distribution(state, register)
        captured.append(distribution.probabilities)
        return distribution

    monkeypatch.setattr(grover, "measurement_distribution", measure)
    monkeypatch.setattr(grover, "apply_hadamard_all", hadamard)
    run_grover(f, a, 0, QueryLedger())
    (probabilities,) = captured
    return probabilities


def test_run_grover_distribution_matches_butterfly_reference(monkeypatch):
    rng = np.random.default_rng(23)
    for n in range(2, 15):
        for a in range(1, 5):
            f = marked_function(n, rng.choice(1 << n, size=a, replace=False))
            blocked = _run_grover_distribution(monkeypatch, f, a,
                                               apply_hadamard_all)
            butterfly = _run_grover_distribution(monkeypatch, f, a,
                                                 reference_hadamard_all)
            assert np.abs(blocked - butterfly).max() <= 1e-12


_THREADS_SCRIPT = """
import hashlib, sys
from distgrover import (BooleanFunction, apply_grover_iterate,
                        apply_hadamard_all, init_basis)
from distgrover.cli import main
path = sys.argv[1]
f = BooleanFunction.from_file(path)
state = apply_hadamard_all(init_basis(f.arity, 0), range(f.arity))
for _ in range(20):
    apply_grover_iterate(f, state)
print(hashlib.sha256(state.amps.tobytes()).hexdigest())
main(["grover", "--input", path, "--a", "64", "--seed", "11"])
"""


def _run_with_blas_threads(threads, table_path):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(Path(distgrover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT,
                           str(table_path)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    digest, report = done.stdout.strip().split("\n", 1)
    report = json.loads(report)
    report.pop("duration_seconds")
    return digest, report


def test_results_do_not_depend_on_blas_threads(tmp_path):
    # a run depends only on its seed: the same amplitudes, to the bit, and
    # the same report with one BLAS thread as with two. n = 16 keeps the
    # state large enough that OpenBLAS would split a product in the iterate
    # over two threads; at n = 12 it would not.
    n = 16
    path = tmp_path / "f.table"
    table = marked_function(n, [5, 30001]).truth_values()
    path.write_text(f"{n}\n" + "".join(map(str, table)) + "\n")
    one = _run_with_blas_threads(1, path)
    two = _run_with_blas_threads(2, path)
    assert len(one[0]) == 64
    assert one == two

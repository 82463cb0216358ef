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
from distgrover import (BooleanFunction, Evolution, Plane, QueryLedger,
                        StateVector, UsageError, apply_grover_iterate,
                        apply_hadamard_all, grover, grover_iterations,
                        init_basis, measurement_distribution, run_grover,
                        sample, statevector, success_probability)

from conftest import first_k_marked, marked_function
from reference import exact_draw, exact_levels, reference_hadamard_all


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


def test_iterate_rejects_a_state_of_another_width_untouched():
    # the phase oracle runs first and checks the width, so no amplitude
    # changes before the UsageError
    f = marked_function(3, [1, 6])
    for q in (2, 4):
        state = apply_hadamard_all(init_basis(q, 1), range(0, q))
        before = state.amps.copy()
        with pytest.raises(UsageError):
            apply_grover_iterate(f, state)
        assert np.array_equal(state.amps, before)


def test_iterate_constant_one_returns_uniform_up_to_sign():
    f = marked_function(2, range(2**2))
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
        out = run_grover(Evolution(f), 1, seed, ledger)
        assert out.is_solution == 1
        assert out.measured_x == 1
        assert ledger.quantum_queries == 1
        assert ledger.classical_queries == 1


def test_run_grover_no_solutions():
    f = marked_function(3, [])
    for seed in range(5):
        out = run_grover(Evolution(f), 1, seed, QueryLedger())
        assert out.is_solution == 0


def test_run_grover_query_accounting():
    f = first_k_marked(6, 3)
    ledger = QueryLedger()
    run_grover(Evolution(f), 2, 5, ledger)
    assert ledger.quantum_queries == grover_iterations(6, 2)
    assert ledger.classical_queries == 1


def test_run_grover_charges_each_shot_all_its_iterates():
    # on either engine a shot charges its k iterates as k oracle queries and
    # its verification as one classical query, and a shot with k = 0 adds
    # no "oracle" entry
    f = first_k_marked(6, 3)
    for a, k in ((4, 3), (2, 4), (64, 0)):
        for register in (Evolution(f), Plane(f)):
            ledger = QueryLedger()
            run_grover(register, a, 7, ledger)
            assert ledger.breakdown == ({"oracle": k, "verify": 1} if k
                                        else {"verify": 1})


def _two_level_cases():
    # (f, k): s = 1..10 qubits, t in {0, 1, 2, 3, N/3, N - 1, N} inputs
    # marked at random, k the iterates of every valid b in {1, 2, t, t + 3}
    rng = np.random.default_rng(37)
    for s in range(1, 11):
        size = 1 << s
        for t in sorted({0, 1, 2, 3, size // 3, size - 1, size}
                        & set(range(size + 1))):
            f = marked_function(s, rng.choice(size, size=t, replace=False))
            for b in sorted({1, 2, t, t + 3} & set(range(1, size + 1))):
                yield f, grover_iterations(s, b)


def test_plane_levels_match_the_dense_distribution():
    for f, k in _two_level_cases():
        good, bad = Plane(f).levels(k)
        levels = np.where(f.truth_values() == 1, good, bad)
        want = Evolution(f).distribution(k).probabilities
        assert np.abs(levels - want).max() <= 1e-12


def test_plane_draws_equal_the_dense_sample(monkeypatch):
    # 60 seeds on each of the 200 cases; then the largest u, 1 - 2^-53,
    # where some dense running sums end at or below u, so those draws take
    # the last-index rule
    cases = list(_two_level_cases())
    assert len(cases) == 200
    for f, k in cases:
        dense = Evolution(f).distribution(k)
        for seed in range(60):
            assert Plane(f).draw(k, seed) == sample(dense, seed)
    u = 1.0 - 2.0 ** -53
    monkeypatch.setattr(grover, "unit_double", lambda seed: u)
    monkeypatch.setattr(statevector, "unit_double", lambda seed: u)
    last_index_rule = 0
    for f, k in cases:
        dense = Evolution(f).distribution(k)
        assert Plane(f).draw(k, 0) == sample(dense, 0)
        last_index_rule += np.cumsum(dense.probabilities)[-1] <= u
    assert last_index_rule


def test_draws_match_the_exact_draw_away_from_cdf_edges(monkeypatch):
    # 1,680 fixed-u draws decided at 50 digits: s = 2..8, t in {1, N/4,
    # N/2, 3N/4, N - 1} with two random marked sets each, k in {1, 2, 4,
    # 7}, six values of u. A plane draw never lands on an index of exact
    # probability 0 (at t = N/4 or 3N/4 with 3 | 2k+1 one level is 0). A
    # plane or dense draw may miss the exact draw only where u lies within
    # the float64 error of a running sum of 2^n probabilities, 2^n * 2^-52,
    # of an exact CDF edge; such edge draws are counted, not hidden.
    rng = np.random.default_rng(31)
    draws = edge_draws = 0
    for s in range(2, 9):
        size = 1 << s
        band = size * 2.0 ** -52
        for t in (1, size // 4, size // 2, 3 * size // 4, size - 1):
            for _ in range(2):
                f = marked_function(s, rng.choice(size, size=t,
                                                  replace=False))
                for k in (1, 2, 4, 7):
                    good, bad = exact_levels(s, t, k)
                    dense = Evolution(f).distribution(k)
                    for u in (0.0, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -40,
                              1.0 - 2.0 ** -53):
                        monkeypatch.setattr(grover, "unit_double",
                                            lambda seed: u)
                        monkeypatch.setattr(statevector, "unit_double",
                                            lambda seed: u)
                        want, gap = exact_draw(f, k, u)
                        plane = Plane(f).draw(k, 0)
                        level = good if plane in f.marked else bad
                        assert level > 0, (s, t, k, u, plane)
                        for got in (plane, sample(dense, 0)):
                            assert got == want or gap <= band, \
                                (s, t, k, u, got, want, float(gap))
                        draws += 1
                        edge_draws += gap <= band
    assert draws == 1680 and edge_draws


def test_plane_levels_and_success_probability_match_50_digits():
    # 301 cases: n in {2, 4, 8, 12, 16, 20}; t in {1, 2, 3, N/3, N/2, N - 3,
    # N - 2, N - 1}; k in {0, 1, 7, 64, 256, 1024, 4096}. The angle
    # (2k+1)θ carries θ's rounding 2k+1 times, so each level times its
    # index count, and the success probability at k = grover_iterations,
    # must lie within 2·(2k+1)·2^-52 of the 50-digit value. With θ from
    # asin(sqrt(t/2^n)) the worst case read 8.2 of those units, at n = 12,
    # t = 4095, k = 4096; from atan2 it reads 1.0.
    cases = 0
    for n in (2, 4, 8, 12, 16, 20):
        size = 1 << n
        for t in sorted({1, 2, 3, size // 3, size // 2, size - 3, size - 2,
                         size - 1}):
            plane = Plane(BooleanFunction(n, np.arange(t)))
            for k in (0, 1, 7, 64, 256, 1024, 4096):
                bound = 2 * (2 * k + 1) * 2.0 ** -52
                for level, exact, count in zip(plane.levels(k),
                                               exact_levels(n, t, k),
                                               (t, size - t)):
                    assert abs(float(exact - level)) * count <= bound, \
                        (n, t, k, count)
                cases += 1
            k = grover_iterations(n, t)
            exact = exact_levels(n, t, k)[0] * t
            assert abs(float(exact - success_probability(n, t))) <= \
                2 * (2 * k + 1) * 2.0 ** -52, (n, t, k)
    assert cases == 301


def _complex_copy(state):
    return StateVector(state.amps.astype(np.complex128))


def test_real_start_matches_a_complex_copy_to_rounding(monkeypatch):
    # every operator of a Grover shot is real, so the dense shot measures a
    # float64 state (8 bytes per amplitude); its distribution matches, to
    # rounding, that of a complex copy of its start driven through the bare
    # iterate
    measured = []

    def measure(state, register):
        measured.append(state.amps.dtype)
        return measurement_distribution(state, register)

    monkeypatch.setattr(grover, "measurement_distribution", measure)
    rng = np.random.default_rng(31)
    for n in range(1, 15):
        register = range(n)
        for a in sorted({min(a, 1 << n) for a in (1, 2, 3, 5)}):
            f = marked_function(n, rng.choice(1 << n, size=a, replace=False))
            k = grover_iterations(n, a)
            want = Evolution(f).distribution(k).probabilities
            assert measured.pop() == np.float64
            copy = _complex_copy(apply_hadamard_all(init_basis(n, 0),
                                                    register))
            for _ in range(k):
                apply_grover_iterate(f, copy)
            assert copy.amps.dtype == np.complex128
            assert np.abs(measurement_distribution(copy, register)
                          .probabilities - want).max() <= 1e-15


def test_run_grover_empirical_frequency():
    n, trials = 6, 4000
    f = first_k_marked(n, 1)
    p = success_probability(n, 1)
    hits = sum(run_grover(Evolution(f), 1, seed, QueryLedger()).is_solution
               for seed in range(trials))
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) <= 3 * sigma


def test_run_grover_deterministic():
    f = first_k_marked(5, 2)
    a = run_grover(Evolution(f), 2, 99, QueryLedger())
    b = run_grover(Evolution(f), 2, 99, QueryLedger())
    assert a == b


def test_run_grover_peaks_below_two_and_a_half_states():
    # a shot holds its state and one distribution (8 bytes per amplitude
    # each) or, while an iterate runs, the Hadamard scratch (8) in place of
    # the distribution; the phase oracle negates the marked amplitudes in
    # place and allocates nothing of the state's size; the marked set is
    # built beforehand
    n, a = 18, 1024
    f = first_k_marked(n, a)
    f.solution_count()
    tracemalloc.start()
    try:
        outcome = run_grover(Evolution(f), a, 3, QueryLedger())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.is_solution == (outcome.measured_x < a)
    assert peak <= 2.5 * (8 << n)


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
    run_grover(Evolution(f), a, 0, QueryLedger())
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

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from distgrover import (QOperator, QueryLedger, UsageError,
                        apply_grover_iterate, apply_hadamard_all,
                        count_distribution, counting_grid_for,
                        est_amp_distribution, estimation, init_basis,
                        relaxed_error_bound, run_count, sample)
from distgrover.statevector import StateVector

from conftest import (closed_form_count_distribution, first_k_marked,
                      marked_function)
import reference


def _apply_q(f, state):
    # the dense reference Q, on the state as a one-row block
    reference.DenseQOperator(f).apply_batch(state.amps.reshape(1, -1))
    return state


def test_q_operator_equals_grover_iterate():
    # with uniform preparation, the estimation iterate is exactly G
    f = marked_function(3, [1, 6])
    a = apply_hadamard_all(init_basis(3, 0), range(0, 3))
    b = StateVector(a.amps.copy())
    _apply_q(f, a)
    apply_grover_iterate(f, b)
    assert np.abs(a.amps - b.amps).max() < 1e-12


def test_q_operator_preserves_good_bad_span():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(1, 1 << n))
        f = marked_function(n, rng.choice(1 << n, size=t, replace=False))
        good = f.truth_values() == 1
        state = apply_hadamard_all(init_basis(n, 0), range(0, n))
        for _ in range(4):
            _apply_q(f, state)
            for group in (state.amps[good], state.amps[~good]):
                if group.size:
                    assert np.abs(group - group[0]).max() < 1e-12


def test_q_squared_rotates_by_four_theta():
    for (n, t) in [(4, 4), (5, 3), (6, 1)]:
        f = first_k_marked(n, t)
        good = f.truth_values() == 1
        theta = math.asin(math.sqrt(t / (1 << n)))
        state = apply_hadamard_all(init_basis(n, 0), range(0, n))

        def angle(s):
            c_good = s.amps[good].sum().real / math.sqrt(t)
            c_bad = s.amps[~good].sum().real / math.sqrt((1 << n) - t)
            return math.atan2(c_good, c_bad)

        before = angle(state)
        _apply_q(f, state)
        _apply_q(f, state)
        after = angle(state)
        delta = (after - before) % (2 * math.pi)
        assert delta == pytest.approx(4 * theta, abs=1e-9)


def test_q_on_constant_zero_is_identity_up_to_sign():
    f = marked_function(3, [])
    state = apply_hadamard_all(init_basis(3, 0), range(0, 3))
    before = state.amps.copy()
    _apply_q(f, state)
    assert (np.abs(state.amps - before).max() < 1e-12
            or np.abs(state.amps + before).max() < 1e-12)


def test_q_batch_matches_single():
    f = marked_function(4, [3, 9, 12])
    rng = np.random.default_rng(8)
    mat = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    singles = np.stack([
        apply_grover_iterate(f, StateVector(row.copy())).amps
        for row in mat])
    batched = mat.copy()
    reference.DenseQOperator(f).apply_batch(batched)
    assert np.abs(singles - batched).max() < 1e-12


def test_plane_q_is_dense_q_on_good_bad_plane():
    # rows (c_good, c_bad) embed as c_good |good> + c_bad |bad> with the
    # normalised good and bad states; dense Q keeps that plane
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(1, 8))
        t = int(rng.integers(1, 1 << n))
        f = marked_function(n, rng.choice(1 << n, size=t, replace=False))
        good = f.truth_values() == 1
        basis = np.stack([good / math.sqrt(t),
                          ~good / math.sqrt((1 << n) - t)])
        plane = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        dense = plane @ basis
        reference.DenseQOperator(f).apply_batch(dense)
        QOperator(f).apply_batch(plane)
        assert np.abs(dense @ basis.T - plane).max() < 1e-12
        assert np.abs(plane @ basis - dense).max() < 1e-12


def test_plane_distribution_matches_dense_reference():
    rng = np.random.default_rng(5)
    cases = [(n, m, t) for n, m in [(1, 1), (3, 6), (10, 6)]
             for t in (0, 1, (1 << n) - 1, 1 << n)]
    cases += [(10, 6, None), (10, 1, None)]
    cases += [(int(rng.integers(1, 11)), int(rng.integers(1, 7)), None)
              for _ in range(30)]
    for n, m, t in cases:
        if t is None:
            t = int(rng.integers(0, (1 << n) + 1))
        f = marked_function(n, rng.choice(1 << n, size=t, replace=False))
        plane = est_amp_distribution(f, m).probabilities
        dense = reference.est_amp_distribution(f, m).probabilities
        assert np.abs(plane - dense).max() <= 1e-12, (n, m, t)


def test_closed_form_matches_controlled_powers():
    # the kernel run_count samples against the step-by-step reference on
    # every n <= 10 and m <= 6; the kernel reads only t, so t marked inputs
    # anywhere give the same distribution
    rng = np.random.default_rng(32)
    for n in range(1, 11):
        big_n = 1 << n
        for m in range(1, 7):
            for t in (0, 1, big_n - 1, big_n,
                      int(rng.integers(0, big_n + 1))):
                f = first_k_marked(n, t)
                closed = count_distribution(f, m)
                stepped = est_amp_distribution(f, m)
                assert np.abs(closed.probabilities
                              - stepped.probabilities).max() <= 1e-12
                for seed in rng.integers(0, 1 << 62, size=8):
                    assert sample(closed, int(seed)) == \
                        sample(stepped, int(seed)), (n, m, t, seed)


def test_both_counting_engines_match_50_digits():
    # 32 units in the last place of 1 bounds both float64 engines; over
    # n = 1..10 and m = 1..6 the closed form read 8.6 of them and the
    # controlled powers 5.9, and a theta from asin(sqrt(t/2^n)) read 100
    # at n = 10, t = 2^n - 1, m = 6
    bound = 32 * 2.0 ** -52
    for n in (1, 3, 6, 10):
        big_n = 1 << n
        for t in sorted({0, 1, big_n // 4, big_n // 3, big_n // 2,
                         big_n - 1, big_n}):
            f = first_k_marked(n, t)
            for m in (1, 3, 6):
                exact = reference.exact_count_distribution(n, t, m)
                for engine in (count_distribution, est_amp_distribution):
                    p = engine(f, m).probabilities
                    assert max(abs(float(e - x)) for e, x
                               in zip(exact, p)) <= bound, \
                        (engine.__name__, n, t, m)


def test_run_count_runs_no_controlled_powers(monkeypatch):
    f = first_k_marked(8, 37)
    expected = run_count(f, 16, 5, QueryLedger())

    def refuse(*args):
        raise AssertionError("run_count ran the controlled powers")

    monkeypatch.setattr(estimation, "apply_controlled_powers", refuse)
    monkeypatch.setattr(QOperator, "apply_batch", refuse)
    ledger = QueryLedger()
    assert run_count(f, 16, 5, ledger) == expected
    assert ledger.quantum_queries == 15


def test_certainty_edges():
    for engine, n, m in itertools.product(
            (count_distribution, est_amp_distribution), (2, 4), (1, 3, 5)):
        dist = engine(marked_function(n, []), m)
        expected = np.zeros(1 << m)
        expected[0] = 1.0
        assert np.abs(dist.probabilities - expected).max() < 1e-9

        dist = engine(marked_function(n, range(2**n)), m)
        expected = np.zeros(1 << m)
        expected[(1 << m) // 2] = 1.0
        assert np.abs(dist.probabilities - expected).max() < 1e-9


def test_distribution_matches_closed_form():
    for (n, t, m) in [(2, 1, 3), (4, 4, 3), (3, 5, 4), (5, 1, 3), (6, 32, 2)]:
        f = first_k_marked(n, t)
        oracle = closed_form_count_distribution(t / (1 << n), m)
        for engine in (count_distribution, est_amp_distribution):
            sim = engine(f, m).probabilities
            assert np.abs(sim - oracle).max() < 1e-12


def test_real_start_matches_a_complex_start(monkeypatch):
    # the plane state is real until the inverse QFT; started as complex128
    # instead, the distribution moves by rounding only, and both match the
    # closed form
    real = {}
    for n in range(1, 13):
        big_n = 1 << n
        for t in sorted({0, 1, 2, big_n // 3, big_n - 1, big_n}):
            for m in range(1, 8):
                real[n, t, m] = est_amp_distribution(first_k_marked(n, t), m)
    monkeypatch.setattr(estimation, "StateVector", lambda amps:
                        StateVector(amps.astype(np.complex128)))
    for (n, t, m), dist in real.items():
        p = dist.probabilities
        q = est_amp_distribution(first_k_marked(n, t), m).probabilities
        assert np.abs(p - q).max() <= 1e-15, (n, t, m)
        closed = closed_form_count_distribution(t / (1 << n), m)
        assert np.abs(p - closed).max() < 1e-12, (n, t, m)


def test_m12_distribution_matches_closed_form_in_little_memory():
    # the inverse QFT is one FFT: no 4^m matrix (640 MiB at m = 12) is built
    for engine in (count_distribution, est_amp_distribution):
        tracemalloc.start()
        try:
            p = engine(marked_function(4, [3]), 12).probabilities
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(p - closed_form_count_distribution(1 / 16, 12)).max() \
            <= 1e-12
        assert peak < 4 << 20


def test_distribution_mirror_symmetry():
    for (n, t, m) in [(4, 3, 4), (5, 7, 3)]:
        p = est_amp_distribution(first_k_marked(n, t), m).probabilities
        grid = 1 << m
        for y in range(1, grid):
            assert p[y] == pytest.approx(p[grid - y], abs=1e-9)


def test_n4_t4_m3_concentrates_on_exact_outcomes():
    # a_g = 1/4, theta = pi/6: grid 8 puts the nearest outcomes at
    # y in {1, 2} and mirrors {6, 7}
    p = est_amp_distribution(first_k_marked(4, 4), 3).probabilities
    assert p[[1, 2, 6, 7]].sum() > 0.85
    assert set(np.argsort(p)[-4:]) <= {1, 2, 6, 7}
    # frozen from the closed-form kernel oracle
    assert p[1] == pytest.approx(0.3532281518405972, abs=1e-9)
    assert p[2] == pytest.approx(0.09375, abs=1e-9)


def test_run_est_amp_endpoints_and_queries():
    f = marked_function(4, [])
    ledger = QueryLedger()
    est = run_count(f, 16, 0, ledger)
    assert est.a_tilde == 0.0 and est.y == 0
    assert ledger.quantum_queries == 15

    f = marked_function(4, range(2**4))
    est = run_count(f, 8, 0, QueryLedger())
    assert est.y == 4 and est.a_tilde == pytest.approx(1.0)


def test_run_count_certainty_and_rounding():
    f = marked_function(4, [])
    est = run_count(f, 8, 123, QueryLedger())
    assert est.t_prime == 0.0 and est.t_prime_rounded == 0

    f = marked_function(4, range(2**4))
    est = run_count(f, 8, 123, QueryLedger())
    assert est.t_prime == pytest.approx(16.0) and est.t_prime_rounded == 16


def test_run_count_query_accounting():
    ledger = QueryLedger()
    run_count(first_k_marked(4, 2), 8, 0, ledger)
    assert ledger.quantum_queries == 7


def test_run_count_rejects_bad_grid():
    with pytest.raises(UsageError):
        run_count(first_k_marked(3, 1), 6, 0, QueryLedger())


def test_relaxed_bound_value():
    assert relaxed_error_bound(0, 6) == pytest.approx(11.0)
    t, n = 4, 6
    assert relaxed_error_bound(t, n) == pytest.approx(
        2 * math.pi * math.sqrt(t * (64 - t) / 64) + 11)


def test_counting_grid_for():
    assert counting_grid_for(4) == 4
    assert counting_grid_for(6) == 8
    assert counting_grid_for(5) == 8
    assert counting_grid_for(1) == 2
    with pytest.raises(UsageError, match="arity must be >= 1"):
        counting_grid_for(0)


def test_estimation_needs_a_reading_qubit():
    for engine in (count_distribution, est_amp_distribution):
        with pytest.raises(UsageError,
                           match="precision qubits m must be >= 1"):
            engine(first_k_marked(3, 1), 0)


def test_confidence_small_sweep():
    # k=1 coverage at a couple of (n, m) points; the acceptance suite does
    # the full n <= 6 sweep
    for (n, m) in [(3, 3), (4, 5)]:
        big_n = 1 << n
        for t in range(big_n + 1):
            a_g = t / big_n
            p = est_amp_distribution(first_k_marked(n, t), m).probabilities
            bound = (2 * math.pi * math.sqrt(a_g * (1 - a_g)) / (1 << m)
                     + math.pi ** 2 / (1 << (2 * m)))
            grid = 1 << m
            mass = sum(p[y] for y in range(grid)
                       if abs(math.sin(math.pi * y / grid) ** 2 - a_g)
                       <= bound + 1e-12)
            assert mass >= 8 / math.pi ** 2 - 1e-9


def test_determinism():
    f = first_k_marked(5, 3)
    a = run_count(f, 8, 77, QueryLedger())
    b = run_count(f, 8, 77, QueryLedger())
    assert a == b

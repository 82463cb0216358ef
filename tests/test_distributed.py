import math
import tracemalloc

import numpy as np
import pytest

from distgrover import (
    BooleanFunction,
    DistOutcome,
    QueryLedger,
    build_candidate_set,
    candidate_window,
    decompose,
    run_parallel,
    run_serial,
    threshold_t_a,
    worst_case_query_bound,
)
from distgrover import distributed, grover
from distgrover.distributed import statement_form_bound
from distgrover.errors import UsageError
from distgrover.grover import grover_iterations

from conftest import first_k_marked, marked_function
from reference import reference_run_grover


def test_decompose_blocks_and_conservation(rng):
    for n, k in [(4, 1), (5, 2), (6, 3)]:
        table = np.array([rng.randint(0, 1) for _ in range(1 << n)],
                         dtype=np.uint8)
        f = BooleanFunction.from_truth_table(table)
        subs = decompose(f, k)
        assert len(subs) == 1 << k
        total = 0
        for i, f_i in enumerate(subs):
            assert f_i.arity == n - k
            # machine i owns the indices whose low k bits equal i
            block = table[i::1 << k]
            assert np.array_equal(f_i.truth_values(), block)
            total += f_i.solution_count()
        assert total == f.solution_count()


def test_decompose_rejects_bad_k():
    f = marked_function(4, [3])
    for k in (0, 4, 5):
        with pytest.raises(UsageError):
            decompose(f, k)


def test_threshold_values():
    assert threshold_t_a(1) == 18          # ceil(2 pi + 11)
    assert threshold_t_a(4) == 24          # ceil(4 pi + 11)
    assert threshold_t_a(16) == 37         # ceil(8 pi + 11)
    for a in range(1, 50):
        assert threshold_t_a(a) == math.ceil(2 * math.pi * math.sqrt(a) + 11)
    with pytest.raises(UsageError):
        threshold_t_a(0)


def test_candidate_window_clamping():
    assert candidate_window(5, 3, 4) == range(2, 9)
    assert candidate_window(0, 3, 4) == range(1, 4)        # clamp at 1
    assert candidate_window(15, 3, 4) == range(12, 17)     # clamp at 2^s
    assert candidate_window(8, 20, 3) == range(1, 9)       # both sides
    assert len(candidate_window(8, 20, 3)) <= 2 * 20 + 1


def test_candidate_set_constant_zero_stops():
    f_i = marked_function(4, [])
    ledger = QueryLedger()
    estimate, window = build_candidate_set(f_i, 2, 7, ledger)
    assert len(window) == 0
    assert estimate == 0
    # counting was still charged
    assert ledger.quantum_queries > 0


def test_candidate_set_rejects_a_below_1_when_constant_zero():
    # the constant-zero branch builds no window, but a is still checked
    with pytest.raises(UsageError):
        build_candidate_set(marked_function(4, []), 0, 1, QueryLedger())


def test_candidate_set_zero_estimate_nonconstant_keeps_window():
    # one solution in 2^7: the estimate often rounds to zero, but the window
    # must survive because the subfunction is not constant zero
    f_i = marked_function(7, [100])
    _, window = build_candidate_set(f_i, 1, 3, QueryLedger())
    assert len(window) != 0
    assert window[0] == 1
    assert len(window) <= 2 * threshold_t_a(1) + 1


def test_sweeps_try_largest_first_and_verify_every_shot(rng):
    for _ in range(12):
        n = rng.randint(4, 8)
        k = rng.randint(1, min(3, n - 1))
        a = rng.randint(1, 4)
        f = marked_function(n, rng.sample(range(1 << n), rng.randint(0, 4)))
        for runner in (run_serial, run_parallel):
            out = runner(f, k, a, seed=rng.getrandbits(32))
            for m in out.machines:
                tried = [b for b, _, _ in m.attempts]
                assert tried == sorted(tried, reverse=True)
                assert m.ledger.classical_queries == len(m.attempts)
            if out.status == "not_found":
                assert not any(s for m in out.machines
                               for _, _, s in m.attempts)


def test_serial_visits_plan_like_parallel_and_sweep_a_prefix(rng):
    for _ in range(12):
        n = rng.randint(4, 8)
        k = rng.randint(1, min(3, n - 1))
        marked = rng.sample(range(1 << n), rng.randint(2, 4))
        f = marked_function(n, marked)
        seed = rng.getrandbits(32)
        serial = run_serial(f, k, len(marked), seed)
        parallel = run_parallel(f, k, len(marked), seed)
        for s_m in serial.machines:
            p_m = parallel.machines[s_m.index]
            assert (s_m.estimate, s_m.plan) == (p_m.estimate, p_m.plan)
            assert p_m.attempts == s_m.attempts[:len(p_m.attempts)]
        # serial sweeps the last machine it visits, and only that one
        assert all(not m.attempts for m in serial.machines[:-1])


def test_serial_finds_unique_solution():
    n, k = 6, 2
    target = 0b101101
    f = marked_function(n, [target])
    out = run_serial(f, k, 1, seed=42)
    assert out.status == "found"
    assert out.solution == target
    assert out.found_by_machine == target & ((1 << k) - 1)
    assert out.serial_total == out.total_quantum + out.total_classical


def test_serial_stops_after_first_swept_machine():
    # machine 0 has a solution-free but non-constant-looking block? simplest:
    # machine 0 constant zero (skipped), machine 1 holds the solution
    f = marked_function(5, [0b10101])   # low bit 1 -> machine 1 of k=1
    out = run_serial(f, 1, 1, seed=9)
    assert out.status == "found"
    assert out.found_by_machine == 1
    # machine 0 only counted (constant zero -> empty plan, no sweep)
    m0 = out.machines[0]
    assert len(m0.plan) == 0
    assert m0.attempts == []


def test_serial_not_found_on_constant_zero():
    f = marked_function(5, [])
    out = run_serial(f, 2, 1, seed=1)
    assert out.status == "not_found"
    assert out.solution is None
    assert all(len(m.plan) == 0 for m in out.machines)


def test_parallel_finds_and_reports_depth():
    n, k = 6, 2
    f = marked_function(n, [7, 33, 48])
    out = run_parallel(f, k, 3, seed=123)
    assert out.status == "found"
    assert f.truth_values()[out.solution] == 1
    assert out.parallel_depth == max(m.ledger.total for m in out.machines)
    assert out.parallel_depth <= out.serial_total


def test_parallel_fast_path_query_counts():
    n, k = 8, 2
    target = 0b10011010
    f = marked_function(n, [target])
    out = run_parallel(f, k, 1, seed=77)
    assert out.status == "found"
    assert out.solution == target
    per_machine = grover_iterations(n - k, 1)
    for m in out.machines:
        assert m.estimate is None               # counting skipped
        assert m.plan == range(1, 2)
        assert m.ledger.quantum_queries == per_machine
        assert m.ledger.classical_queries == 1


def test_outcome_reads_status_and_totals_from_its_machines():
    out = run_parallel(marked_function(6, [7, 33, 48]), 2, 3, seed=123)
    assert out.status == "found"
    quantum, classical = out.total_quantum, out.total_classical
    serial, depth = out.serial_total, out.parallel_depth
    winner = out.machines[out.found_by_machine]
    winner.ledger.add_classical(depth)       # now the deepest machine
    assert out.total_quantum == quantum
    assert out.total_classical == classical + depth
    assert out.serial_total == serial + depth
    assert out.parallel_depth == winner.ledger.total > depth
    empty = DistOutcome(None, None, [])
    assert empty.status == "not_found"
    assert (empty.total_quantum, empty.total_classical, empty.serial_total,
            empty.parallel_depth) == (0, 0, 0, 0)


def test_runs_are_deterministic():
    f = marked_function(7, [19, 64, 100])
    for runner in (run_serial, run_parallel):
        a = runner(f, 2, 3, seed=2024)
        b = runner(f, 2, 3, seed=2024)
        assert a.status == b.status
        assert a.solution == b.solution
        assert a.total_quantum == b.total_quantum
        assert a.total_classical == b.total_classical
        assert [m.attempts for m in a.machines] == [m.attempts
                                                    for m in b.machines]


def test_worst_case_bound_example():
    # n=5, k=1, a=1: t_a=18, sub=4 so 37*3 + 2*4 + 37 = 156
    serial, parallel = worst_case_query_bound(5, 1, 1)
    assert serial == 156
    assert parallel == 156 - 4     # one counting term instead of two


def test_ledgers_within_worst_case_bounds(rng):
    for _ in range(25):
        n = rng.randint(4, 9)
        k = rng.randint(1, min(3, n - 1))
        marked = rng.sample(range(1 << n), rng.randint(1, 4))
        f = marked_function(n, marked)
        a = len(marked)
        serial_bound, parallel_bound = worst_case_query_bound(n, k, a)
        out_s = run_serial(f, k, a, seed=rng.randint(0, 2 ** 32))
        assert out_s.serial_total <= serial_bound
        out_p = run_parallel(f, k, a, seed=rng.randint(0, 2 ** 32))
        assert max(m.ledger.total for m in out_p.machines) <= parallel_bound


def test_statement_bound_is_reporting_only():
    # exposed for reports; just check it is finite and positive
    assert statement_form_bound(6, 2) > 0


def _random_instances(rng, count):
    # small n - k puts the whole domain in the window, so some shots have
    # b > 0.62 * 2^(n-k) and k_b = 0
    for _ in range(count):
        n = rng.randint(3, 10)
        k = rng.randint(1, min(3, n - 1))
        marked = rng.sample(range(1 << n), rng.randint(0, min(8, 1 << n)))
        yield (marked_function(n, marked), k, rng.randint(1, 8),
               rng.getrandbits(32))


def _record(out):
    return (out.status, out.solution, out.found_by_machine,
            out.total_quantum, out.total_classical, out.parallel_depth,
            [(m.index, m.estimate, m.plan, m.attempts, m.ledger.snapshot())
             for m in out.machines])


def test_sweep_runs_no_iterate_and_matches_the_dense_reference(rng,
                                                               monkeypatch):
    # every sweep shot draws from its machine's two-level distribution, so
    # a sweep applies no Grover iterate; every machine's counting result,
    # attempts, ledger and the outcome equal a sweep whose every shot builds
    # and measures a dense state
    iterates = []

    def counted_iterate(f, state):
        iterates.append(f)
        return apply_iterate(f, state)

    apply_iterate = grover.apply_grover_iterate
    monkeypatch.setattr(grover, "apply_grover_iterate", counted_iterate)
    reached_zero = 0
    for f, k, a, seed in _random_instances(rng, 40):
        for runner in (run_serial, run_parallel):
            out = runner(f, k, a, seed)
            assert not iterates
            reached_zero += sum(grover_iterations(f.arity - k, b) == 0
                                for m in out.machines
                                for b, _, _ in m.attempts)
            with monkeypatch.context() as m:
                m.setattr(distributed, "run_grover",
                          lambda register, b, s, ledger:
                          reference_run_grover(register.f, b, s, ledger))
                reference = runner(f, k, a, seed)
            assert _record(out) == _record(reference)
    assert reached_zero


def test_parallel_sweep_peaks_below_one_machine_state():
    # a shot holds nothing per amplitude, so a parallel run that sweeps 8
    # machines peaks below one machine's state, 8 bytes per amplitude of its
    # 2^(n-k); the function is built, and one run imports numpy.fft and
    # builds its plan for the counting grid, before tracing starts
    n, k, a = 20, 5, 8
    f = first_k_marked(n, a)          # one solution on each of machines 0-7
    run_parallel(f, k, a, 1)
    tracemalloc.start()
    try:
        out = run_parallel(f, k, a, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [m.index for m in out.machines if m.attempts] == list(range(a))
    assert out.status == "found"
    assert peak < 8 << (n - k)

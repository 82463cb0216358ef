import math
import tracemalloc

import numpy as np
import pytest

from distgrover import (CapacityError, InvariantError,
                        MeasurementDistribution, QOperator,
                        UsageError, apply_controlled_powers,
                        apply_diagonal_phase, apply_grover_iterate,
                        apply_hadamard_all, apply_zero_reflection, init_basis,
                        measurement_distribution, sample)
from distgrover import statevector
from distgrover.statevector import StateVector, check_capacity

from conftest import marked_function
from reference import reference_hadamard_all


def test_init_basis_examples():
    assert np.allclose(init_basis(2, 0).amps, [1, 0, 0, 0])
    assert np.allclose(init_basis(1, 1).amps, [0, 1])
    s = init_basis(3, 5)
    assert s.amps[5] == 1 and abs(s.amps).sum() == 1
    assert s.amps.dtype == np.float64


def test_init_basis_errors():
    with pytest.raises(UsageError):
        init_basis(2, 4)
    with pytest.raises(UsageError):
        init_basis(2, -1)
    with pytest.raises(CapacityError):
        init_basis(40, 0)


def test_state_vector_reads_its_width_from_its_array():
    # q comes from the length alone, and the array is kept, not copied
    for q in (1, 2, 5):
        amps = np.zeros(1 << q)
        s = StateVector(amps)
        assert s.qubit_count == q and s.amps is amps
    # a length that is not 2^q with q >= 1, or a second axis, is refused
    # when the state is made, not inside a later layer's reshape
    for amps in (np.zeros(0), np.zeros(1), np.zeros(3), np.zeros(12),
                 np.zeros((2, 2))):
        with pytest.raises(UsageError):
            StateVector(amps)


def test_capacity_and_register_checks_refuse_bad_sizes():
    with pytest.raises(UsageError, match="qubit_count must be >= 1"):
        check_capacity(0)
    for register in (range(0, 0), range(0, 2, 2)):
        with pytest.raises(UsageError, match="non-empty contiguous"):
            apply_hadamard_all(init_basis(2, 0), register)
    with pytest.raises(UsageError, match="out of bounds"):
        apply_hadamard_all(init_basis(2, 0), range(1, 3))


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv("DISTGROVER_MAX_QUBITS", "3")
    with pytest.raises(CapacityError):
        init_basis(4, 0)
    init_basis(3, 0)


def test_hadamard_examples():
    s = apply_hadamard_all(init_basis(1, 0), range(0, 1))
    assert np.allclose(s.amps, [math.sqrt(0.5)] * 2)
    s = apply_hadamard_all(init_basis(2, 0), range(0, 2))
    assert np.allclose(s.amps, [0.5] * 4)
    s = init_basis(1, 1)
    apply_hadamard_all(s, range(0, 1))
    apply_hadamard_all(s, range(0, 1))
    assert np.allclose(s.amps, [0, 1])


def test_hadamard_subregister_msb_convention():
    # qubit 0 is the MSB: H on qubit 0 of |10> spreads over indices {0b00,0b10}
    s = apply_hadamard_all(init_basis(2, 2), range(0, 1))
    assert np.allclose(s.amps, [math.sqrt(0.5), 0, -math.sqrt(0.5), 0])


def test_hadamard_involution_random():
    rng = np.random.default_rng(5)
    for q in (1, 3, 5):
        amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
        amps /= np.linalg.norm(amps)
        s = StateVector(amps.copy())
        apply_hadamard_all(s, range(0, q))
        apply_hadamard_all(s, range(0, q))
        assert np.abs(s.amps - amps).max() < 1e-9


def test_hadamard_matches_butterfly_reference():
    # every contiguous register of up to 9 qubits: one group or two, odd
    # widths, registers not starting at qubit 0, and the
    # estimation shape (a 2-amplitude trailing target after the register)
    rng = np.random.default_rng(17)
    for q in range(1, 10):
        for start in range(q):
            for stop in range(start + 1, q + 1):
                amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
                amps /= np.linalg.norm(amps)
                s = StateVector(amps.copy())
                ref = StateVector(amps.copy())
                apply_hadamard_all(s, range(start, stop))
                reference_hadamard_all(ref, range(start, stop))
                assert np.abs(s.amps - ref.amps).max() <= 1e-12


def _random_real_state(rng, q):
    amps = rng.normal(size=1 << q)
    return StateVector(amps / np.linalg.norm(amps))


def _assert_matches_reference(state, register):
    ref = StateVector(state.amps.copy())
    apply_hadamard_all(state, register)
    reference_hadamard_all(ref, register)
    assert np.abs(state.amps - ref.amps).max() <= 1e-12, register


def test_hadamard_matches_butterfly_reference_on_wide_registers():
    # registers of 10-13 qubits anywhere in a 13-qubit state (two groups,
    # or three, whose odd count scales the result on its way back), whole
    # states of 13-16 qubits (three groups, or the fixed splits of 14 and
    # 16), four groups at 17 qubits, and estimation's shape: range(0, m) of
    # m + 1 qubits, with one qubit after the register
    rng = np.random.default_rng(29)
    q = 13
    for start in range(q - 9):
        for stop in range(start + 10, q + 1):
            _assert_matches_reference(_random_real_state(rng, q),
                                      range(start, stop))
    for q in range(13, 17):
        _assert_matches_reference(_random_real_state(rng, q), range(0, q))
    _assert_matches_reference(_random_real_state(rng, 17), range(1, 17))
    for m in range(1, 17):
        _assert_matches_reference(_random_real_state(rng, m + 1),
                                  range(0, m))


def test_hadamard_groups_partition_every_register_width():
    # every width up to the default cap splits into groups that H_5 covers
    for width in range(1, 27):
        groups = statevector._group_widths(width)
        assert sum(groups) == width, width
        assert all(1 <= b <= 5 for b in groups), (width, groups)


def test_hadamard_real_state_matches_a_complex_copy_to_rounding():
    # a complex copy of a real state runs the same block products in complex
    # arithmetic: its real part matches the real result to rounding and its
    # imaginary part stays exactly zero, on every register
    rng = np.random.default_rng(37)
    for q in range(1, 10):
        for start in range(q):
            for stop in range(start + 1, q + 1):
                real = _random_real_state(rng, q)
                twin = StateVector(real.amps.astype(np.complex128))
                apply_hadamard_all(real, range(start, stop))
                apply_hadamard_all(twin, range(start, stop))
                assert np.abs(twin.amps.real - real.amps).max() <= 1e-15
                assert not twin.amps.imag.any()


def test_hadamard_layer_allocates_one_state():
    # the products run through one scratch array of the state's size; the
    # slack, 1/64 of a state, covers small objects
    n = 18
    rng = np.random.default_rng(41)
    for register in (range(0, n), range(0, n - 1)):
        s = _random_real_state(rng, n)
        tracemalloc.start()
        try:
            apply_hadamard_all(s, register)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (8 << n) + (8 << n) // 64, register


def test_diagonal_phase_examples():
    s = apply_hadamard_all(init_basis(2, 0), range(0, 2))
    apply_diagonal_phase(s, np.array([0]))
    assert np.allclose(s.amps, [-0.5, 0.5, 0.5, 0.5])

    s = apply_hadamard_all(init_basis(2, 0), range(0, 2))
    apply_diagonal_phase(s, np.array([], dtype=np.intp))
    assert np.allclose(s.amps, [0.5] * 4)

    s = apply_hadamard_all(init_basis(2, 0), range(0, 2))
    apply_diagonal_phase(s, np.array([3]))
    assert np.allclose(s.amps, [0.5, 0.5, 0.5, -0.5])


def test_diagonal_phase_involution():
    rng = np.random.default_rng(7)
    marked = np.flatnonzero(rng.integers(0, 2, size=32))
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    s = StateVector(amps.copy())
    apply_diagonal_phase(s, marked)
    apply_diagonal_phase(s, marked)
    assert np.abs(s.amps - amps).max() < 1e-12


def test_diagonal_phase_rejects_an_index_outside_the_state():
    # the ends of the ascending index array are checked before any write
    for marked in ([-1, 2], [3, 8], [8]):
        amps = np.full(8, math.sqrt(1 / 8))
        s = StateVector(amps.copy())
        with pytest.raises(UsageError, match="marked indices"):
            apply_diagonal_phase(s, np.array(marked))
        assert np.array_equal(s.amps, amps)


def _z_transform(block):
    # sign flip of target basis value 1 (Z on a one-qubit target), every row
    block[:, 1] *= -1.0


def test_controlled_powers_examples():
    # m=1, control |0>: target untouched
    s = init_basis(2, 1)  # control=0, target=|1>
    apply_controlled_powers(s, 1, _z_transform)
    assert np.allclose(s.amps, init_basis(2, 1).amps)

    # m=2, control |11> (j=3), Z^3 = Z on target |1>
    s = init_basis(3, 0b111)
    apply_controlled_powers(s, 2, _z_transform)
    expected = np.zeros(8, dtype=complex)
    expected[0b111] = -1.0
    assert np.allclose(s.amps, expected)


def test_controlled_powers_matches_direct_powers():
    # |j>|psi> -> |j>(U^j|psi>) for all j, against explicit repetition
    rng = np.random.default_rng(11)
    m, rest = 3, 2

    def u(block):
        # a real rotation on the first target qubit, every row
        mat = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
        arr = block.reshape(-1, 2, 2)
        arr[:] = np.einsum("ij,rjk->rik", mat, arr)

    psi = rng.normal(size=1 << rest) + 1j * rng.normal(size=1 << rest)
    psi /= np.linalg.norm(psi)
    for j in range(1 << m):
        s = StateVector(np.kron(init_basis(m, j).amps, psi))
        apply_controlled_powers(s, m, u)
        expected = psi.copy()
        for _ in range(j):
            u(expected.reshape(1, -1))
        assert np.abs(s.amps - np.kron(init_basis(m, j).amps,
                                       expected)).max() < 1e-9


def test_controlled_powers_register_not_leading():
    # the control register is the leading `width` qubits, and it must
    # leave a non-empty target
    s = init_basis(3, 0b010)
    for width in (0, 3):
        with pytest.raises(UsageError):
            apply_controlled_powers(s, width, _z_transform)
    assert np.array_equal(s.amps, init_basis(3, 0b010).amps)


def test_measurement_distribution_examples():
    s = apply_hadamard_all(init_basis(2, 0), range(0, 2))
    assert np.allclose(measurement_distribution(s, range(0, 2)).probabilities,
                       [0.25] * 4)
    s = init_basis(3, 5)
    d = measurement_distribution(s, range(0, 3))
    assert d.probabilities[5] == 1.0
    # marginal of a sub-register
    s = apply_hadamard_all(init_basis(3, 0), range(1, 3))
    d = measurement_distribution(s, range(0, 1))
    assert np.allclose(d.probabilities, [1.0, 0.0])


def test_sample_point_masses():
    d = MeasurementDistribution(np.eye(8)[5])
    for seed in (0, 1, 12345, 2**63):
        assert sample(d, seed) == 5
    d = MeasurementDistribution(np.eye(8)[0])
    assert sample(d, 99) == 0


def test_sample_frequencies_match_distribution():
    probs = np.array([0.5, 0.25, 0.125, 0.125])
    d = MeasurementDistribution(probs)
    trials = 100_000
    counts = np.zeros(4)
    for seed in range(trials):
        counts[sample(d, seed)] += 1
    sigma = np.sqrt(trials * probs * (1 - probs))
    assert (np.abs(counts - trials * probs) <= 3 * sigma).all()


def test_measurement_distribution_allocates_one_array():
    # a whole-state measurement of a real 2^20 state builds one float64
    # array, 8 MiB, and no temporaries beside it
    rng = np.random.default_rng(20)
    amps = rng.normal(size=1 << 20)
    s = StateVector(amps / np.sqrt(np.square(amps).sum()))
    tracemalloc.start()
    try:
        d = measurement_distribution(s, range(0, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.5 * 2**20
    assert np.array_equal(d.probabilities, np.abs(s.amps) ** 2)


def _cumsum_draw(p, u):
    return min(int(np.searchsorted(np.cumsum(p), u, side="right")),
               p.shape[0] - 1)


def _assert_draws_match(monkeypatch, p, us):
    # `sample` with the seed standing in for u (for the rest of the test),
    # against a search of cumsum
    monkeypatch.setattr(statevector, "unit_double", lambda u: u)
    d = MeasurementDistribution(p)
    for u in us:
        draw = sample(d, float(u))
        assert type(draw) is int
        assert draw == _cumsum_draw(p, float(u)), u


def test_sample_matches_a_cumsum_search_on_random_distributions(monkeypatch):
    rng = np.random.default_rng(7)
    chunk = statevector._SAMPLE_CHUNK
    for size in (1, 3, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        p = rng.random(size)
        p /= p.sum()
        cumulative = np.cumsum(p)
        on_values = cumulative[rng.integers(0, size, 20)]
        _assert_draws_match(monkeypatch, p, np.concatenate(
            [[0.0], rng.random(50), on_values, cumulative[-1:]]))


def test_sample_skips_runs_of_zero_probability(monkeypatch):
    # u on the cumulative value shared by a run of zeros that crosses chunk
    # boundaries draws the first index after the run
    rng = np.random.default_rng(8)
    chunk = statevector._SAMPLE_CHUNK
    p = rng.random(4 * chunk) * (rng.random(4 * chunk) < 0.3)
    p[chunk - 10:2 * chunk + 10] = 0.0
    p[-chunk // 2:] = 0.0
    p /= p.sum()
    cumulative = np.cumsum(p)
    zeros = np.flatnonzero(p == 0.0)
    _assert_draws_match(monkeypatch, p, np.concatenate(
        [cumulative[rng.choice(zeros, 50)], rng.random(50)]))


def test_sample_draws_past_the_first_chunk(monkeypatch):
    chunk = statevector._SAMPLE_CHUNK
    p = np.zeros(4 * chunk)
    p[0] = 0.25
    p[3 * chunk + 7] = 0.75
    _assert_draws_match(monkeypatch, p, [0.0, 0.2, 0.25, 0.5, 0.9999])
    assert sample(MeasurementDistribution(p), 0.25) == 3 * chunk + 7


def test_sample_at_or_past_the_total_draws_the_last_index(monkeypatch):
    chunk = statevector._SAMPLE_CHUNK
    for p in (np.full(3, 1 / 3), np.full(2 * chunk, 1 / (2 * chunk)),
              np.array([0.5, 0.5 - 1e-12, 0.0, 0.0])):
        total = float(np.cumsum(p)[-1])
        us = [total, np.nextafter(total, 2.0), 1.0]
        _assert_draws_match(monkeypatch, p, us)
        assert sample(MeasurementDistribution(p), total) == p.shape[0] - 1


def test_norm_preserved_after_operations():
    s = init_basis(4, 3)
    apply_hadamard_all(s, range(0, 4))
    apply_diagonal_phase(s, np.array([4, 5, 12, 13]))   # qubits 1, 2 read 10
    apply_controlled_powers(s, 2, _z_transform)
    assert abs(s.norm_squared() - 1.0) < 1e-9


def test_norm_checks_reject_nan():
    # a NaN norm or sum is never within the tolerance of 1
    with pytest.raises(InvariantError):
        apply_zero_reflection(StateVector(np.full(4, np.nan)))
    with pytest.raises(InvariantError):
        MeasurementDistribution(np.full(4, np.nan))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_real_kernels_keep_dtype_in_place(dtype):
    # a real operator on a real state stays real, and on a complex one stays
    # complex: each kernel writes into the array it was given, never into an
    # upcast copy
    rng = np.random.default_rng(3)
    f = marked_function(4, [2, 9])
    kernels = [
        lambda s: apply_hadamard_all(s, range(1, 4)),
        lambda s: apply_diagonal_phase(s, np.flatnonzero(f.truth_values())),
        apply_zero_reflection,
        lambda s: apply_grover_iterate(f, s),
        lambda s: apply_controlled_powers(s, 3, QOperator(f).apply_batch),
    ]
    for kernel in kernels:
        amps = rng.normal(size=16).astype(dtype)
        s = StateVector(amps / np.linalg.norm(amps))
        before = s.amps
        assert kernel(s) is s
        assert s.amps is before and before.dtype == dtype

"""References: the butterfly Hadamard kernel, a Grover shot from a fresh
state, the counting engine, and scalar CNF and oracle-circuit evaluation.

`reference_hadamard_all` is the per-qubit butterfly Walsh-Hadamard transform
that `distgrover.statevector.apply_hadamard_all` replaced with ±1 block
products, one matrix product per group of up to five qubits; the block
kernel is checked against it.

`reference_run_grover` is a Grover shot that builds its own dense state
and charges one query per oracle call. A distributed sweep's shots draw
from the closed-form two-level distribution (`grover.Plane`); the sweep is
checked against the same sweep run with this shot. It takes f itself,
where `grover.run_grover` takes f's register, an `Evolution` or a `Plane`.

`distgrover.estimation` runs phase estimation on the reading register
tensored with the 2-D plane of the normalised good and bad states. This
module keeps the full-state engine it is checked against: the estimation
iterate Q = A U0_perp A^{-1} U_f applied to every target branch of a
2^(m+n) state, the dense forward and inverse QFT on a contiguous register,
and the exact reading-register distribution. Kept for n <= 10.

`exact_levels` and `exact_draw` decide a Grover shot's draw at 50 digits
with mpmath: the two probability levels a `grover.Plane` computes in
float64, and the first index whose exact cumulative probability exceeds u,
the rule `statevector.sample` applies to rounded running sums. A level
below 1e-40 is read as 0, an exact rotation by a multiple of π/2, where
float64 leaves a residue near 1e-33. Both engines are checked against it.

`reference_truth_values` evaluates a CNF formula one assignment and one
literal at a time, the check on `CnfFormula.truth_values`'s mask tests.
`step_oracle_circuit` carries one basis input through a compiled oracle
circuit one gate at a time, testing one bit per control, the check on
`compiler.circuit_diagonal`'s whole-domain stepper.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from distgrover import BooleanFunction, CnfFormula, QueryLedger, UsageError
from distgrover.compiler import CircuitIR, MultiControlledAdd, PauliX
from distgrover.grover import GroverOutcome, grover_iterations
from distgrover.statevector import (MeasurementDistribution, StateVector,
                                    apply_controlled_powers,
                                    apply_hadamard_all, apply_zero_reflection,
                                    check_capacity, init_basis,
                                    measurement_distribution, sample)

_SQRT_HALF = math.sqrt(0.5)
_QFT_CACHE: dict[tuple[int, bool], np.ndarray] = {}
_DIGITS = 50
_ZERO_LEVEL = mpmath.mpf("1e-40")


def _hadamard_layers(amps: np.ndarray, rows: int, qubits) -> None:
    """H on each listed qubit of every row of a contiguous (rows, 2^q)
    block, in place."""
    for j in qubits:
        m = amps.reshape(rows << j, 2, -1)
        top = m[:, 0, :].copy()
        bot = m[:, 1, :]
        m[:, 0, :] = (top + bot) * _SQRT_HALF
        m[:, 1, :] = (top - bot) * _SQRT_HALF


def reference_hadamard_all(state: StateVector,
                           register: range) -> StateVector:
    """Walsh-Hadamard transform on every qubit of `register` (in place) as
    one strided butterfly pass per qubit: the kernel that
    `statevector.apply_hadamard_all`'s block products are checked
    against."""
    _hadamard_layers(state.amps, 1, register)
    return state


def reference_run_grover(f: BooleanFunction, assumed_a: int, seed: int,
                         ledger: QueryLedger) -> GroverOutcome:
    """Uniform start, k iterates G = -H Z0 H Z_f each charging its oracle
    call, one sampled measurement, one classical verification."""
    n = f.arity
    register = range(0, n)
    state = apply_hadamard_all(init_basis(n, 0), register)
    for _ in range(grover_iterations(n, assumed_a)):
        f.apply_phase_oracle(state, register)
        ledger.add_quantum(1, "oracle")
        apply_hadamard_all(state, register)
        apply_zero_reflection(state)
        apply_hadamard_all(state, register)
        state.amps *= -1.0
    measured = sample(measurement_distribution(state, register), seed)
    return GroverOutcome(measured, f.evaluate(measured, ledger))


def exact_levels(n: int, t: int, iterations: int) -> tuple:
    """(probability of each marked index, of each unmarked index) after
    `iterations` iterates on n qubits with t marked, as 50-digit mpmath
    numbers: sin²((2k+1)θ)/t and cos²((2k+1)θ)/(2^n - t) with
    sin²θ = t/2^n. A level below 1e-40, or one with no index, is 0."""
    with mpmath.workdps(_DIGITS):
        size = 1 << n
        angle = (2 * iterations + 1) * mpmath.asin(mpmath.sqrt(
            mpmath.mpf(t) / size))

        def level(mass, count: int):
            if count == 0 or mass / count < _ZERO_LEVEL:
                return mpmath.mpf(0)
            return mass / count

        return (level(mpmath.sin(angle) ** 2, t),
                level(mpmath.cos(angle) ** 2, size - t))


def exact_draw(f: BooleanFunction, iterations: int, u: float) -> tuple:
    """(draw, gap) of a shot on f after `iterations` iterates at the
    uniform double u, at 50 digits: the first index whose exact cumulative
    probability exceeds u (the last index if none does), and u's distance
    from the nearest edge of the exact CDF, 0 or a cumulative
    probability."""
    marked = f.marked
    with mpmath.workdps(_DIGITS):
        good, bad = exact_levels(f.arity, f.solution_count(), iterations)

        def cdf(j: int):
            """Exact mass of the indices 0..j."""
            count = int(marked.searchsorted(j, side="right"))
            return good * count + bad * (j + 1 - count)

        u = mpmath.mpf(u)
        lo, hi = 0, (1 << f.arity) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf(mid) > u:
                hi = mid
            else:
                lo = mid + 1
        below = cdf(lo - 1) if lo else mpmath.mpf(0)
        return lo, min(u - below, abs(cdf(lo) - u))


class DenseQOperator:
    """The estimation iterate for f with uniform state preparation, on
    full 2^n-amplitude target branches."""

    def __init__(self, f: BooleanFunction):
        self.f = f
        self._signs = f.phase_signs()

    def apply_batch(self, mat: np.ndarray) -> None:
        """Q in place on every row of a contiguous (rows, 2^n) block of
        target branches: U_f, A^{-1}, U0_perp = 2|0><0| - I, A."""
        rows, qubits = mat.shape[0], range(self.f.arity)
        mat *= self._signs[None, :]
        _hadamard_layers(mat, rows, qubits)
        mat *= -1.0
        mat[:, 0] *= -1.0
        _hadamard_layers(mat, rows, qubits)


def _qft_matrix(width: int, inverse: bool) -> np.ndarray:
    key = (width, inverse)
    if key not in _QFT_CACHE:
        dim = 1 << width
        j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
        sign = -1.0 if inverse else 1.0
        _QFT_CACHE[key] = np.exp(sign * 2j * np.pi * j * k / dim) / \
            math.sqrt(dim)
    return _QFT_CACHE[key]


def apply_qft(state: StateVector, register: range,
              inverse: bool = False) -> StateVector:
    """Exact QFT_{2^m} (dense matrix) on a contiguous register."""
    width = len(register)
    matrix = _qft_matrix(width, inverse)
    before = 1 << register.start
    after = 1 << (state.qubit_count - register.stop)
    arr = state.amps.reshape(before, 1 << width, after)
    state.amps = np.einsum("yk,akb->ayb", matrix, arr).reshape(-1)
    return state


def est_amp_distribution(f: BooleanFunction,
                         m: int) -> MeasurementDistribution:
    """Exact distribution of the reading-register outcome y, with the target
    register prepared in the uniform superposition."""
    n = f.arity
    if m < 1:
        raise UsageError("precision qubits m must be >= 1")
    check_capacity(m + n)
    state = init_basis(m + n, 0)
    target = range(m, m + n)
    apply_hadamard_all(state, target)
    control = range(0, m)
    apply_qft(state, control)
    apply_controlled_powers(state, m, DenseQOperator(f).apply_batch)
    apply_qft(state, control, inverse=True)
    return measurement_distribution(state, control)


def reference_truth_value(formula: CnfFormula, y: int) -> int:
    """f(y), each clause tested one literal at a time (variable 1 is the
    most significant bit of y)."""
    n = formula.variable_count
    return int(all(any(((y >> (n - abs(lit))) & 1) == (lit > 0)
                       for lit in clause)
                   for clause in formula.clauses))


def reference_truth_values(formula: CnfFormula) -> np.ndarray:
    """f over all 2^n assignments in ascending index order, by
    `reference_truth_value`."""
    return np.array([reference_truth_value(formula, y)
                     for y in range(1 << formula.variable_count)],
                    dtype=np.uint8)


def step_oracle_circuit(circuit: CircuitIR,
                        y: int) -> tuple[int, list[int], int]:
    """|y>|0>_C carried through the gates one at a time, one bit per
    control, the counter stepped modulo 2^M: (final index, the counter after
    each non-X gate, phase in {+1, -1})."""
    n = circuit.input_qubits
    index, counter, phase = y, 0, 1
    counters = []
    for gate in circuit.gates:
        if isinstance(gate, PauliX):
            index ^= 1 << (n - 1 - gate.qubit)
            continue
        if isinstance(gate, MultiControlledAdd):
            if all((index >> (n - 1 - q)) & 1 for q in gate.controls):
                step = -1 if gate.subtract else 1
                counter = (counter + step) % (1 << circuit.counter_qubits)
        elif counter == 0:
            phase = -phase
        counters.append(counter)
    return index, counters, phase


def simulate_oracle_circuit(circuit: CircuitIR, y: int) -> tuple[int, int]:
    """(phase in {+1, -1}, 1 if the input bits and the counter are both
    restored) on |y>|0>_C."""
    index, counters, phase = step_oracle_circuit(circuit, y)
    return phase, int(index == y and counters[-1] == 0)

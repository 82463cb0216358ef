import math
import random

import numpy as np
import pytest

from distgrover import BooleanFunction
from distgrover.cnf import CnfFormula
from distgrover.compiler import MultiControlledAdd, PauliX
from distgrover.errors import InvariantError


def marked_function(n: int, marked) -> BooleanFunction:
    """Truth-table function marking the given basis indices."""
    table = np.zeros(1 << n, dtype=np.uint8)
    table[list(marked)] = 1
    return BooleanFunction.from_truth_table(table)


def first_k_marked(n: int, t: int) -> BooleanFunction:
    return marked_function(n, range(t))


def _phase_kernel(delta: float, grid: int) -> float:
    d = delta % 1.0
    if d < 1e-15 or 1.0 - d < 1e-15:
        return 1.0
    return math.sin(math.pi * grid * d) ** 2 / (
        grid ** 2 * math.sin(math.pi * d) ** 2)


def closed_form_count_distribution(a_g: float, m: int) -> np.ndarray:
    """Independent oracle for the reading-register distribution: the uniform
    start splits evenly over the two conjugate eigenphases of the iterate,
    each contributing the finite-geometric-series kernel."""
    grid = 1 << m
    if a_g == 0.0:
        p = np.zeros(grid)
        p[0] = 1.0
        return p
    if a_g == 1.0:
        p = np.zeros(grid)
        p[grid // 2] = 1.0
        return p
    phi = math.asin(math.sqrt(a_g)) / math.pi
    return np.array([0.5 * _phase_kernel(phi - y / grid, grid)
                     + 0.5 * _phase_kernel(1.0 - phi - y / grid, grid)
                     for y in range(grid)])


def random_3cnf(n: int, m: int, rng: random.Random) -> CnfFormula:
    clauses = []
    for _ in range(m):
        width = rng.choice([1, 2, 3]) if n >= 3 else rng.randint(1, n)
        variables = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in variables))
    return CnfFormula(variable_count=n, clauses=clauses)


def live_counter_apply(circuit, amps: np.ndarray) -> np.ndarray:
    """Reference execution of an oracle circuit with a live counter
    register: the M counter qubits are appended after the n input qubits as
    the least significant bits of a 2^(n+M) state, every gate permutes that
    state's amplitudes (CADD/CSUB step the counter modulo 2^M), and the
    counter is projected back out after checking that it returned to |0..0>
    on every branch. Kept for n <= 8 only."""
    n = circuit.input_qubits
    width = circuit.counter_qubits
    assert n <= 8, "the live-counter reference is for small circuits"
    big_q = n + width
    dim = 1 << big_q
    counter_mask = (1 << width) - 1

    ext = np.zeros(dim, dtype=np.complex128)
    ext.reshape(-1, 1 << width)[:, 0] = amps
    idx = np.arange(dim)
    cval = idx & counter_mask
    for gate in circuit.gates:
        if isinstance(gate, PauliX):
            ext = ext[idx ^ (1 << (big_q - 1 - gate.qubit))]
        elif isinstance(gate, MultiControlledAdd):
            ok = np.ones(dim, dtype=bool)
            for q in gate.controls:
                ok &= ((idx >> (big_q - 1 - q)) & 1) == 1
            delta = 1 if gate.subtract else -1   # source counter offset
            src_counter = (cval + delta) & counter_mask
            ext = ext[np.where(ok, (idx & ~counter_mask) | src_counter, idx)]
        else:
            ext = ext.copy()
            ext[cval == 0] *= -1.0
    final = ext.reshape(-1, 1 << width)
    if np.abs(final[:, 1:]).max(initial=0.0) > 0.0:
        raise InvariantError("counter register not restored")
    return final[:, 0].copy()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

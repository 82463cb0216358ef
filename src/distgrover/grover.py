"""Grover search: the iterate G, iteration count, closed-form success
probability, and a full seeded run with query accounting.

G = -H Z_0 H Z_f. The leading global phase is applied literally so that the
simulated operator matches the textbook identity; it is observationally
irrelevant and no test may depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ledger import QueryLedger
from .oracle import BooleanFunction, apply_zero_reflection
from .statevector import (StateVector, apply_hadamard_all, init_basis,
                          measurement_distribution, sample)
from .errors import UsageError


@dataclass(frozen=True)
class GroverOutcome:
    measured_x: int
    is_solution: int

    def measured_bits(self, arity: int) -> str:
        return format(self.measured_x, f"0{arity}b")


def grover_iterations(n: int, a: int) -> int:
    """floor(pi/4 * sqrt(2^n / a))."""
    if a < 1:
        raise UsageError("assumed solution count must be >= 1")
    if a > (1 << n):
        raise UsageError(f"solution count {a} exceeds domain size 2^{n}")
    return int(math.floor(math.pi / 4.0 * math.sqrt((1 << n) / a)))


def success_probability(n: int, a: int) -> float:
    """sin^2((2k+1) * arcsin(sqrt(a/2^n))) with k = grover_iterations(n, a)."""
    k = grover_iterations(n, a)
    theta = math.asin(math.sqrt(a / (1 << n)))
    return math.sin((2 * k + 1) * theta) ** 2


def apply_grover_iterate(f: BooleanFunction, state: StateVector,
                         ledger: QueryLedger | None = None) -> StateVector:
    """One application of G; charges one quantum query."""
    n = f.arity
    if state.qubit_count != n:
        raise UsageError(f"state width {state.qubit_count} does not match "
                         f"arity {n}")
    register = range(0, n)
    f.apply_phase_oracle(state, register, ledger)
    apply_hadamard_all(state, register)
    apply_zero_reflection(state, register)
    apply_hadamard_all(state, register)
    state.amps *= -1.0
    return state


def run_grover(f: BooleanFunction, assumed_a: int, seed: int,
               ledger: QueryLedger) -> GroverOutcome:
    """Full search run: uniform start, k iterates, one sampled
    measurement, one classical verification."""
    n = f.arity
    iterations = grover_iterations(n, assumed_a)
    state = init_basis(n, 0)
    apply_hadamard_all(state, range(0, n))
    for _ in range(iterations):
        apply_grover_iterate(f, state, ledger)
    distribution = measurement_distribution(state, range(0, n))
    measured = sample(distribution, seed)
    is_solution = f.evaluate(measured, ledger, phase="verify")
    return GroverOutcome(measured_x=measured, is_solution=is_solution)

"""Grover search: the iterate G, iteration count, closed-form success
probability, and a full seeded run with query accounting.

G = -H Z_0 H Z_f. The leading global phase is applied literally so that the
simulated operator matches the textbook identity; it is observationally
irrelevant and no test may depend on it.

An `Evolution` holds one function's register from the uniform start and
advances it to the iterate count a shot asks for. Shots that ask for
non-decreasing counts, as a distributed sweep's do, therefore simulate each
iterate once, while `run_grover` still charges every shot all k of its
oracle queries. The state after k iterates is the same array whichever way
it was reached, so every draw samples the same distribution as a fresh run.

Memory of one shot, per amplitude of its 2^n: the state (8 bytes) and f's
cached sign array (8), plus either an iterate's Hadamard scratch (6) or the
final distribution (8), never both, since `Evolution` drops a distribution
before it moves the state. A shot therefore peaks near 3 times its state,
plus f's 1-byte truth table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ledger import QueryLedger
from .oracle import BooleanFunction, apply_zero_reflection
from .statevector import (MeasurementDistribution, StateVector,
                          apply_hadamard_all, init_basis,
                          measurement_distribution, sample)
from .errors import UsageError


@dataclass(frozen=True)
class GroverOutcome:
    measured_x: int
    is_solution: int


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


def apply_grover_iterate(f: BooleanFunction,
                         state: StateVector) -> StateVector:
    """One application of G. Charges nothing: the caller's ledger counts
    the shot's queries (see `run_grover`)."""
    n = f.arity
    if state.qubit_count != n:
        raise UsageError(f"state width {state.qubit_count} does not match "
                         f"arity {n}")
    register = range(0, n)
    f.apply_phase_oracle(state, register)
    apply_hadamard_all(state, register)
    apply_zero_reflection(state, register)
    apply_hadamard_all(state, register)
    state.amps *= -1.0
    return state


class Evolution:
    """f's register from the uniform start, advanced on request.

    `distribution(k)` applies only the iterates beyond those already
    applied, restarts from the uniform start when asked for fewer, and
    returns the last distribution again when asked for the same k. It holds
    one real state and one distribution, 16 bytes per amplitude, and drops
    the distribution before the state moves.
    """

    def __init__(self, f: BooleanFunction):
        self.f = f
        self._distribution: MeasurementDistribution | None = None
        self._restart()

    def _restart(self) -> None:
        n = self.f.arity
        self.state = apply_hadamard_all(init_basis(n, 0), range(0, n))
        self.iterations = 0

    def distribution(self, iterations: int) -> MeasurementDistribution:
        """Exact measurement distribution after `iterations` iterates."""
        if iterations < 0:
            raise UsageError("iteration count must be >= 0")
        if self._distribution is None or iterations != self.iterations:
            self._distribution = None
            if iterations < self.iterations:
                self._restart()
            for _ in range(iterations - self.iterations):
                apply_grover_iterate(self.f, self.state)
            self.iterations = iterations
            self._distribution = measurement_distribution(
                self.state, range(0, self.f.arity))
        return self._distribution


def run_grover(f: BooleanFunction, assumed_a: int, seed: int,
               ledger: QueryLedger,
               evolution: Evolution | None = None) -> GroverOutcome:
    """Full search run: uniform start, k iterates, one sampled
    measurement, one classical verification. The k iterates are charged as
    k oracle queries even when `evolution`, one of f's kept across shots,
    already holds some of them."""
    iterations = grover_iterations(f.arity, assumed_a)
    if evolution is None:
        evolution = Evolution(f)
    elif evolution.f is not f:
        raise UsageError("evolution belongs to another function")
    measured = sample(evolution.distribution(iterations), seed)
    if iterations:
        ledger.add_quantum(iterations, "oracle")
    is_solution = f.evaluate(measured, ledger)
    return GroverOutcome(measured_x=measured, is_solution=is_solution)

"""Grover search: the iterate G, iteration count, closed-form success
probability, and a full seeded run with query accounting.

G = -H Z_0 H Z_f. The leading global phase changes no probability, but it
is applied literally so that G equals estimation's Q = A U0_perp A^{-1} U_f
amplitude for amplitude, as tests/test_estimation.py checks.

An `Evolution` holds one function's register from the uniform start and
advances it to the iterate count a shot asks for; asking for fewer is a
UsageError. A shot, `run_grover`, takes an `Evolution` and searches its
function: a lone shot passes a fresh `Evolution(f)`, and a distributed
sweep passes the one its machine keeps. Shots that ask for non-decreasing
counts, as a sweep's do, therefore simulate each iterate once, while
`run_grover` still charges every shot all k of its oracle queries. The
state after k iterates is the same array whichever way it was reached, so
every draw samples the same distribution as a fresh run.

Memory, per amplitude of the 2^n: an `Evolution` holds its state (8 bytes)
and nothing else between shots. A shot adds either an iterate's Hadamard
scratch (8) or its distribution (8), never both, and the distribution is
dropped once the draw is made. The phase oracle negates f's marked
amplitudes in place and holds nothing of the state's size. A shot therefore
peaks near 2 times its state, plus f's marked set (8 bytes per marked
input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ledger import QueryLedger
from .oracle import BooleanFunction
from .statevector import (MeasurementDistribution, StateVector,
                          apply_hadamard_all, apply_zero_reflection,
                          init_basis, measurement_distribution, sample)
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
    the shot's queries (see `run_grover`). A state that is not f's n
    qubits raises UsageError in the phase oracle, before any amplitude
    changes."""
    register = range(0, f.arity)
    f.apply_phase_oracle(state, register)
    apply_hadamard_all(state, register)
    apply_zero_reflection(state)
    apply_hadamard_all(state, register)
    state.amps *= -1.0
    return state


class Evolution:
    """f's register from the uniform start, advanced on request.

    It holds f, one real state (8 bytes per amplitude) and the count of
    iterates applied to it. `distribution(k)` applies only the iterates
    beyond that count and measures the state afresh; a k below it, negative
    k included, raises UsageError. Its f is the function every
    `run_grover` shot on it searches and verifies against.
    """

    def __init__(self, f: BooleanFunction):
        self.f = f
        self.state = apply_hadamard_all(init_basis(f.arity, 0),
                                        range(0, f.arity))
        self.iterations = 0

    def distribution(self, iterations: int) -> MeasurementDistribution:
        """Exact measurement distribution after `iterations` iterates."""
        if iterations < self.iterations:
            raise UsageError(f"iteration count {iterations} is below the "
                             f"{self.iterations} already applied")
        for _ in range(iterations - self.iterations):
            apply_grover_iterate(self.f, self.state)
        self.iterations = iterations
        return measurement_distribution(self.state, range(0, self.f.arity))


def run_grover(evolution: Evolution, assumed_a: int, seed: int,
               ledger: QueryLedger) -> GroverOutcome:
    """Full search run on `evolution.f`: uniform start, k iterates, one
    sampled measurement, one classical verification. The k iterates are
    charged as k oracle queries even when `evolution`, kept across shots,
    already holds some of them; a fresh `Evolution(f)` runs them all."""
    f = evolution.f
    iterations = grover_iterations(f.arity, assumed_a)
    measured = sample(evolution.distribution(iterations), seed)
    if iterations:
        ledger.add_quantum(iterations, "oracle")
    is_solution = f.evaluate(measured, ledger)
    return GroverOutcome(measured_x=measured, is_solution=is_solution)

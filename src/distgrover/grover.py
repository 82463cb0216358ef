"""Grover search: the iterate G, iteration count, closed-form success
probability, and a full seeded run with query accounting.

G = -H Z_0 H Z_f. The leading global phase changes no probability, but it
is applied literally so that G equals estimation's Q = A U0_perp A^{-1} U_f
amplitude for amplitude, as tests/test_estimation.py checks.

A shot, `run_grover`, takes f's register in one of two forms, and the form
is the engine. An `Evolution` simulates the register densely: the uniform
start, k iterates on all 2^n amplitudes and a measurement of them. A
`Plane` draws from the closed form the dense state reaches. Under a uniform
start and a ±1 oracle the state stays in the plane of the good and bad
states, rotated by 2θ per iterate with sin²θ = t/2^n (Brassard, Høyer,
Mosca and Tapp, quant-ph/0005055), so after k iterates each of the t
marked indices has probability sin²((2k+1)θ)/t and each other index
cos²((2k+1)θ)/(2^n - t). The `grover` subcommand runs the dense engine, the
reference; a distributed sweep runs the plane. Either way `run_grover`
charges the shot's k oracle queries and one classical verification.

Memory, per amplitude of the 2^n: a dense shot holds its state (8 bytes)
and either an iterate's Hadamard scratch (8) or its distribution (8),
never both, so it peaks near 2 times its state; the phase oracle negates
f's marked amplitudes in place. A plane shot holds nothing per amplitude,
only a few float arrays the size of f's marked set. Both add f's marked
set itself (8 bytes per marked input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ledger import QueryLedger
from .oracle import BooleanFunction
from .seeding import unit_double
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


def rotation(n: int, count: int,
             iterations: int | np.ndarray) -> float | np.ndarray:
    """(2k+1) * theta for k = `iterations` (an int or an integer array):
    the angle from the bad axis after k iterates when `count` of the 2^n
    indices are good, sin^2 theta = count/2^n. The one place the plane's
    angle is computed. theta is atan2(sqrt(count), sqrt(2^n - count)),
    whose relative error stays near one rounding for every count;
    asin(sqrt(count/2^n)) loses sqrt(2^n) of it as count nears 2^n, and
    the factor 2k+1 multiplies the error."""
    theta = math.atan2(math.sqrt(count), math.sqrt((1 << n) - count))
    return (2 * iterations + 1) * theta


def success_probability(n: int, a: int) -> float:
    """sin^2((2k+1) theta) with k = grover_iterations(n, a), the angle
    from `rotation`."""
    return math.sin(rotation(n, a, grover_iterations(n, a))) ** 2


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
    """f's register on the dense engine, the reference every faster shot
    is checked against. Each shot builds its own uniform start (8 bytes per
    amplitude), so nothing is kept between shots."""

    def __init__(self, f: BooleanFunction):
        self.f = f

    def distribution(self, iterations: int) -> MeasurementDistribution:
        """Exact measurement distribution after `iterations` iterates on the
        uniform start."""
        register = range(0, self.f.arity)
        state = apply_hadamard_all(init_basis(self.f.arity, 0), register)
        for _ in range(iterations):
            apply_grover_iterate(self.f, state)
        return measurement_distribution(state, register)

    def draw(self, iterations: int, seed: int) -> int:
        return sample(self.distribution(iterations), seed)


class Plane:
    """f's register in the plane of its good and bad states: after k
    iterates every marked index has one probability and every other index
    another, so a shot needs no amplitude array."""

    def __init__(self, f: BooleanFunction):
        self.f = f

    def levels(self, iterations: int) -> tuple[float, float]:
        """(probability of each marked index, of each unmarked index) after
        `iterations` iterates. A level with no index is 0 or a rounding
        residue, and no draw lands on it. By Niven's theorem the rotation
        (2k+1)θ is a multiple of π/2 for a 0 < t < 2^n only when t/2^n is
        1/4 or 3/4 and 3 divides 2k+1; there one level is exactly 0, where
        sin and cos would leave a residue."""
        t, size = self.f.solution_count(), 1 << self.f.arity
        if 4 * t in (size, 3 * size) and (2 * iterations + 1) % 3 == 0:
            return (1.0 / t, 0.0) if 4 * t == size else (0.0, 1.0 / (size - t))
        angle = rotation(self.f.arity, t, iterations)
        return (math.sin(angle) ** 2 / max(t, 1),
                math.cos(angle) ** 2 / max(size - t, 1))

    def draw(self, iterations: int, seed: int) -> int:
        """The draw of `statevector.sample` on the two-level distribution:
        the first index whose cumulative probability exceeds u, the last
        index if none does. One search over the marked set finds the marked
        indices whose cumulative mass stays at or below u; the draw is the
        next marked index or, when u ends inside the run of unmarked
        indices before it, the unmarked index where it ends. An unmarked
        level of 0 leaves the next marked index."""
        good, bad = self.levels(iterations)
        marked, t = self.f.marked, self.f.solution_count()
        u = unit_double(seed)
        before = np.arange(t)
        # cumulative mass up to and including each marked index
        ends = good * (before + 1) + bad * (marked - before)
        i = int(ends.searchsorted(u, side="right"))
        start, mass = (int(marked[i - 1]) + 1, ends[i - 1]) if i else (0, 0.0)
        stop = int(marked[i]) if i < t else (1 << self.f.arity) - 1
        if bad == 0.0:          # no unmarked index can take the draw
            return stop
        return min(start + int((u - mass) // bad), stop)


def run_grover(register: Evolution | Plane, assumed_a: int, seed: int,
               ledger: QueryLedger) -> GroverOutcome:
    """Full search run on `register.f`: uniform start, k iterates, one
    sampled measurement, one classical verification, on the engine
    `register` is (see the module docstring). The k iterates are charged as
    k oracle queries."""
    f = register.f
    iterations = grover_iterations(f.arity, assumed_a)
    measured = register.draw(iterations, seed)
    if iterations:
        ledger.add_quantum(iterations, "oracle")
    is_solution = f.evaluate(measured, ledger)
    return GroverOutcome(measured_x=measured, is_solution=is_solution)

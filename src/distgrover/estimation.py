"""Amplitude estimation and quantum counting with exact output
distributions.

The estimation operator is Q = A U0_perp A^{-1} U_f with
U0_perp = 2|0^n><0^n| - I, driven by the first stage of phase estimation:
QFT on an m-qubit reading register, the controlled powers Lambda_{2^m}(Q),
then the inverse QFT. The reading-register distribution is computed exactly
by full simulation, so every confidence claim can be integrated rather than
sampled. One estimation run charges 2^m - 1 quantum queries (each Q contains
one oracle call; the controlled powers apply it 1 + 2 + ... + 2^{m-1} times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .ledger import QueryLedger
from .oracle import BooleanFunction
from .statevector import (MeasurementDistribution, StateVector,
                          _hadamard_layers, apply_controlled_powers,
                          apply_hadamard_all, check_capacity, init_basis,
                          measurement_distribution, sample)

_QFT_CACHE: dict[tuple[int, bool], np.ndarray] = {}


@dataclass(frozen=True)
class CountEstimate:
    y: int
    grid: int
    a_tilde: float
    t_prime: float
    t_prime_rounded: int
    ledger: dict


class QOperator:
    """The estimation iterate for f with uniform state preparation."""

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
    apply_controlled_powers(state, control, QOperator(f).apply_batch)
    apply_qft(state, control, inverse=True)
    return measurement_distribution(state, control)


def _estimate_from_y(f: BooleanFunction, y: int, m: int,
                     ledger: QueryLedger) -> CountEstimate:
    a_tilde = math.sin(math.pi * y / (1 << m)) ** 2
    t_prime = (1 << f.arity) * a_tilde
    return CountEstimate(y=y, grid=1 << m, a_tilde=a_tilde, t_prime=t_prime,
                         t_prime_rounded=int(math.floor(t_prime + 0.5)),
                         ledger=ledger.snapshot())


def run_est_amp(f: BooleanFunction, m: int, seed: int,
                ledger: QueryLedger) -> CountEstimate:
    """Sample one estimation outcome; charges 2^m - 1 quantum queries."""
    distribution = est_amp_distribution(f, m)
    y = sample(distribution, seed)
    ledger.add_quantum((1 << m) - 1, phase="counting")
    return _estimate_from_y(f, y, m, ledger)


def run_count(f: BooleanFunction, grid: int, seed: int,
              ledger: QueryLedger) -> CountEstimate:
    """Quantum counting: estimation with uniform preparation, output
    t' = 2^n sin^2(pi y / grid), rounded half-up to an integer."""
    if grid < 2 or grid & (grid - 1):
        raise UsageError(f"grid {grid} is not a power of two >= 2")
    return run_est_amp(f, grid.bit_length() - 1, seed, ledger)


def count_error_bound(t: int, n: int, m: int, k: int) -> float:
    """|t' - t| bound: 2 pi k sqrt(t(2^n - t))/2^m + k^2 pi^2 2^n / 2^{2m}."""
    if k < 1:
        raise UsageError("confidence parameter k must be >= 1")
    big_n = 1 << n
    grid = 1 << m
    return (2.0 * math.pi * k * math.sqrt(t * (big_n - t)) / grid
            + k * k * math.pi ** 2 * big_n / (grid * grid))


def relaxed_error_bound(t: int, n: int) -> float:
    """Relaxed bound at grid ~ sqrt(2^n): 2 pi sqrt(t(2^n - t)/2^n) + 11."""
    big_n = 1 << n
    return 2.0 * math.pi * math.sqrt(t * (big_n - t) / big_n) + 11.0


def counting_grid_for(sub_arity: int) -> int:
    """Smallest power of two >= sqrt(2^sub_arity), i.e. 2^ceil(n/2).

    The nominal grid ceil(sqrt(2^n)) is not a power of two for odd n; the
    QFT needs one, so we round up. Query counts are charged as grid - 1.
    """
    if sub_arity < 1:
        raise UsageError("arity must be >= 1")
    return 1 << ((sub_arity + 1) // 2)

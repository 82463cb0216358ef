"""Amplitude estimation and quantum counting with exact output
distributions.

The estimation operator is Q = A U0_perp A^{-1} U_f with A = H^n and
U0_perp = 2|0^n><0^n| - I, driven by the first stage of phase estimation:
QFT on an m-qubit reading register, the controlled powers Lambda_{2^m}(Q),
then the inverse QFT. Under the uniform start, Q keeps the plane spanned by
the normalised good and bad states and rotates it by 2 theta, with
sin^2 theta = t/2^n (Brassard-Hoyer-Mosca-Tapp, quant-ph/0005055). The
reading-register distribution is therefore computed exactly on the m-qubit
reading register tensored with that 2-D plane, so every confidence claim
can be integrated rather than sampled. Every step before the inverse QFT is
real (the Hadamard layer and the plane rotation), so the 2^(m+1) state is
float64 and Q is a real matrix product. The inverse QFT is one orthonormal
FFT down the reading register and the only step that returns complex
amplitudes; no 4^m matrix is built and no state is kept between runs.
`run_count` samples one outcome and charges its 2^m - 1 quantum queries
under "counting" (each Q contains one oracle call; the controlled powers
apply it 1 + 2 + ... + 2^{m-1} times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .ledger import QueryLedger
from .oracle import BooleanFunction
from .statevector import (MeasurementDistribution, StateVector,
                          apply_controlled_powers, apply_hadamard_all,
                          check_capacity, measurement_distribution, sample)

@dataclass(frozen=True)
class CountEstimate:
    y: int
    a_tilde: float
    t_prime: float
    t_prime_rounded: int


class QOperator:
    """The estimation iterate for f with uniform state preparation, in
    (good, bad) coordinates of the normalised good and bad states.

    The start vector is (sqrt(t/N), sqrt((N - t)/N)) and Q is the rotation
    [[c, s], [-s, c]] with c = (N - 2t)/N and s = 2 sqrt(t(N - t))/N. Reading
    t is simulator bookkeeping: no algorithm decision uses it, and the
    queries are charged per run by `run_count`."""

    def __init__(self, f: BooleanFunction):
        big_n, t = 1 << f.arity, f.solution_count()
        self.start = np.sqrt(np.array([t, big_n - t]) / big_n)
        c = (big_n - 2 * t) / big_n
        s = 2.0 * math.sqrt(t * (big_n - t)) / big_n
        self.rotation = np.array([[c, s], [-s, c]])

    def apply_batch(self, mat: np.ndarray) -> None:
        """Q in place on every row of a contiguous (rows, 2) block of
        target branches."""
        mat[:] = mat @ self.rotation.T


def apply_qft(state: StateVector, width: int) -> StateVector:
    """Exact inverse QFT_{2^width} on the leading `width` qubits, as one
    orthonormal FFT of each target column: y gets
    sum_j e^(-2 pi i jy/M) x_j / sqrt(M), with M = 2^width."""
    arr = state.amps.reshape(1 << width, -1)
    state.amps = np.fft.fft(arr, axis=0, norm="ortho").reshape(-1)
    return state


def est_amp_distribution(f: BooleanFunction,
                         m: int) -> MeasurementDistribution:
    """Exact distribution of the reading-register outcome y, with the target
    prepared in the uniform superposition."""
    if m < 1:
        raise UsageError("precision qubits m must be >= 1")
    # the controlled powers push 2^m (2^m - 1)/2 rows through Q, so the work
    # grows as 4^m; checking 2m qubits bounds it (and the 2^(m+1) amplitudes)
    check_capacity(2 * m)
    q = QOperator(f)
    state = StateVector(np.zeros(2 << m))
    state.amps[:2] = q.start
    control = range(0, m)
    # the forward QFT of |0> on the reading register is H^m |0>
    apply_hadamard_all(state, control)
    apply_controlled_powers(state, m, q.apply_batch)
    apply_qft(state, m)
    return measurement_distribution(state, control)


def run_count(f: BooleanFunction, grid: int, seed: int,
              ledger: QueryLedger) -> CountEstimate:
    """Quantum counting: sample one estimation outcome y on an m-qubit
    reading register, grid = 2^m, and charge grid - 1 quantum queries under
    "counting". Output t' = 2^n sin^2(pi y / grid), rounded half-up."""
    if grid < 2 or grid & (grid - 1):
        raise UsageError(f"grid {grid} is not a power of two >= 2")
    y = sample(est_amp_distribution(f, grid.bit_length() - 1), seed)
    ledger.add_quantum(grid - 1, "counting")
    a_tilde = math.sin(math.pi * y / grid) ** 2
    t_prime = (1 << f.arity) * a_tilde
    return CountEstimate(y=y, a_tilde=a_tilde, t_prime=t_prime,
                         t_prime_rounded=int(math.floor(t_prime + 0.5)))


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

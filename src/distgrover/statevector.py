"""Dense state-vector simulation of up to 26 qubits.

Bit convention, used everywhere in this package: qubit 0 is the MOST
significant bit of a basis index, so for a q-qubit state the bit of qubit j
in basis index i is ``(i >> (q - 1 - j)) & 1``. Registers are contiguous
qubit ranges given as Python ``range`` objects.

Amplitudes are float64 for as long as every operation applied to them is
real: the basis start, Hadamard layers, ±1 phases, Z_0 and real rotations
all are, so a Grover state takes 8 bytes per amplitude. Complex amplitudes
appear only where an operation returns them (the inverse QFT's FFT in
`estimation.apply_qft`); every kernel here works in place in the dtype it is
given.

Hadamard layers are in-place ±1 butterflies: qubits are taken two at a time
as radix-4 butterflies (a trailing odd qubit as one radix-2 butterfly) on
unnormalised sums, and a single 2^(-w/2) scale follows. A layer's scratch is
three quarter-state arrays of the state's dtype, allocated once per call.

A measurement allocates one float64 array, its distribution (8 bytes per
amplitude), and sampling from it allocates nothing of its size: measuring a
real state holds 16 bytes per amplitude, state and distribution, against
14 while a Hadamard layer runs.

All operations preserve the norm to within 1e-9 (checked after every call)
and are deterministic: there is no hidden global RNG; sampling takes an
explicit seed.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import CapacityError, InvariantError, UsageError
from .seeding import unit_double

DEFAULT_MAX_QUBITS = 26
NORM_TOL = 1e-9
_SQRT_HALF = math.sqrt(0.5)
_SAMPLE_CHUNK = 1 << 14     # probabilities per step of `sample`'s running sum


def check_capacity(qubit_count: int) -> None:
    """Raise CapacityError past the amplitude-array cap: 26 qubits, or
    DISTGROVER_MAX_QUBITS, which must be an integer >= 1 (UsageError)."""
    raw = os.environ.get("DISTGROVER_MAX_QUBITS") or str(DEFAULT_MAX_QUBITS)
    try:
        limit = int(raw)
        if limit < 1:
            raise ValueError
    except ValueError:
        raise UsageError(f"DISTGROVER_MAX_QUBITS={raw!r} is not an "
                         "integer >= 1") from None
    if qubit_count > limit:
        raise CapacityError(
            f"{qubit_count} qubits exceed the supported limit of {limit}")
    if qubit_count < 1:
        raise UsageError("qubit_count must be >= 1")


class StateVector:
    """2^q amplitudes, float64 while the state is real and complex128 after
    an operation that makes it complex; qubit 0 is the MSB of the basis
    index."""

    __slots__ = ("qubit_count", "amps")

    def __init__(self, qubit_count: int, amps: np.ndarray):
        self.qubit_count = qubit_count
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.qubit_count, self.amps.copy())

    def norm_squared(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def __len__(self) -> int:
        return self.amps.shape[0]


class MeasurementDistribution:
    """Exact outcome probabilities of a measured sub-register. A float64
    array is kept as given, not copied, unless a negative value within the
    tolerance has to be clipped to 0."""

    __slots__ = ("probabilities",)

    def __init__(self, probabilities: np.ndarray):
        p = np.asarray(probabilities, dtype=float)
        lowest = p.min(initial=0.0)
        if lowest < -NORM_TOL:
            raise InvariantError("negative probability")
        if abs(p.sum() - 1.0) > NORM_TOL:
            raise InvariantError("probabilities do not sum to 1")
        self.probabilities = np.clip(p, 0.0, None) if lowest < 0.0 else p

    def __len__(self) -> int:
        return self.probabilities.shape[0]


def _check_register(qubit_count: int, register: range) -> None:
    if register.step != 1 or len(register) == 0:
        raise UsageError("register must be a non-empty contiguous range")
    if register.start < 0 or register.stop > qubit_count:
        raise UsageError(
            f"register {register} out of bounds for {qubit_count} qubits")


def _split_shape(qubit_count: int, register: range) -> tuple[int, int, int]:
    # (2^before, 2^width, 2^after) factorization of the amplitude array
    width = len(register)
    before = 1 << register.start
    after = 1 << (qubit_count - register.stop)
    return before, 1 << width, after


def _check_norm(state: StateVector) -> StateVector:
    if abs(state.norm_squared() - 1.0) > NORM_TOL:
        raise InvariantError("state norm drifted beyond tolerance")
    return state


def init_basis(qubit_count: int, basis_index: int) -> StateVector:
    """Computational basis state |basis_index> on `qubit_count` qubits,
    with real (float64) amplitudes."""
    check_capacity(qubit_count)
    dim = 1 << qubit_count
    if not 0 <= basis_index < dim:
        raise UsageError(f"basis index {basis_index} out of range for "
                         f"{qubit_count} qubits")
    amps = np.zeros(dim)
    amps[basis_index] = 1.0
    return StateVector(qubit_count, amps)


def apply_hadamard_all(state: StateVector, register: range) -> StateVector:
    """Walsh-Hadamard transform on every qubit of `register` (in place).

    Qubits j, j + 1 are transformed together: with a, b, c, d the amplitudes
    whose two bits read 00, 01, 10, 11, one radix-4 butterfly writes
    (a+b)±(c+d) and (a-b)±(c-d) back in place through three quarter-state
    scratch arrays. An odd last qubit gets one radix-2 butterfly. One scale
    at the end, 2^(-w/2) for a w-qubit register, normalises the result.
    """
    _check_register(state.qubit_count, register)
    amps = state.amps
    scratch = np.empty(3 * amps.shape[0] // 4, amps.dtype)
    for j in range(register.start, register.stop, 2):
        if j + 1 < register.stop:
            m = amps.reshape(1 << j, 4, -1)
            a, b, c, d = (m[:, k, :] for k in range(4))
            size = a.size
            s, t, u = (scratch[k * size:(k + 1) * size].reshape(a.shape)
                       for k in range(3))
            np.add(a, b, out=s)
            np.subtract(a, b, out=t)
            np.add(c, d, out=u)
            np.subtract(c, d, out=d)
            np.add(s, u, out=a)
            np.subtract(s, u, out=c)
            np.add(t, d, out=b)
            np.subtract(t, d, out=d)
        else:
            m = amps.reshape(1 << j, 2, -1)
            top, bot = m[:, 0, :], m[:, 1, :]
            saved = scratch[:top.size].reshape(top.shape)
            np.copyto(saved, top)
            np.add(top, bot, out=top)
            np.subtract(saved, bot, out=bot)
    width = len(register)
    state.amps *= 0.5 ** (width // 2) * (_SQRT_HALF if width % 2 else 1.0)
    assert state.amps.shape == (1 << state.qubit_count,)
    return _check_norm(state)


def apply_diagonal_phase(state: StateVector, register: range,
                         signs) -> StateVector:
    """Multiply each amplitude by the +-1 sign of its register bits, given
    as an array of 2^width signs indexed by the register's basis value."""
    _check_register(state.qubit_count, register)
    before, mid, after = _split_shape(state.qubit_count, register)
    signs = np.asarray(signs, dtype=np.float64)
    if signs.shape != (mid,):
        raise UsageError("sign array length must be 2^register-width")
    state.amps.reshape(before, mid, after)[:] *= signs[None, :, None]
    return _check_norm(state)


def apply_controlled_powers(state: StateVector, width: int,
                            apply_batch) -> StateVector:
    """For each value j of the leading `width` qubits, the control register,
    apply U j times to the conditional target branch:
    |j>|psi> -> |j>(U^j |psi>).

    The target register is the rest. `apply_batch` applies U in place to
    every row of a contiguous (rows, 2^target) block of target branches.
    Queries are charged by the caller, not here.
    """
    if not 1 <= width < state.qubit_count:
        raise UsageError(f"control width {width} must leave a non-empty "
                         f"target in {state.qubit_count} qubits")
    mat = state.amps.reshape(1 << width, -1)
    # branch j has had U applied r times once all rounds r <= j ran
    for r in range(1, 1 << width):
        apply_batch(mat[r:])
    return _check_norm(state)


def measurement_distribution(state: StateVector,
                             register: range) -> MeasurementDistribution:
    """Exact outcome distribution of measuring `register`: one float64
    array of |amplitude|^2, squared in place, summed over the other qubits
    only when there are any (8 bytes per amplitude for a whole-state
    register)."""
    _check_register(state.qubit_count, register)
    before, mid, after = _split_shape(state.qubit_count, register)
    probs = np.abs(state.amps.reshape(before, mid, after))
    np.square(probs, out=probs)
    if before * after > 1:
        return MeasurementDistribution(probs.sum(axis=(0, 2)))
    return MeasurementDistribution(probs.reshape(mid))


def sample(distribution: MeasurementDistribution, seed: int) -> int:
    """Inverse-CDF draw over ascending outcome index; fixed by `seed`.

    The draw is the first index whose cumulative probability exceeds u (the
    last index if none does), the same index as a search of `np.cumsum`.
    The cumulative sum runs as a sequential `np.add.accumulate` over chunks
    of _SAMPLE_CHUNK probabilities, each chunk led by the running sum so far,
    which adds in the same order as `np.cumsum` and so gives the same
    values, without a second 2^n array.
    """
    u = unit_double(seed)
    p = distribution.probabilities
    partial = np.empty(_SAMPLE_CHUNK + 1)
    total = 0.0
    for start in range(0, p.shape[0], _SAMPLE_CHUNK):
        chunk = p[start:start + _SAMPLE_CHUNK]
        run = partial[:chunk.shape[0] + 1]
        run[0] = total
        run[1:] = chunk
        np.add.accumulate(run, out=run)
        if run[-1] > u:
            return start + int(np.searchsorted(run[1:], u, side="right"))
        total = run[-1]
    return p.shape[0] - 1

"""Dense state-vector simulation of up to 26 qubits.

Bit convention, used everywhere in this package: qubit 0 is the MOST
significant bit of a basis index, so for a q-qubit state the bit of qubit j
in basis index i is ``(i >> (q - 1 - j)) & 1``. Registers are contiguous
qubit ranges given as Python ``range`` objects.

Amplitudes are float64 for as long as every operation applied to them is
real: the basis start, Hadamard layers, ±1 phases, Z_0 and real rotations
all are, so a Grover state takes 8 bytes per amplitude. Complex amplitudes
appear only where an operation returns them (the inverse QFT's FFT in
`estimation.apply_qft`), and that state is measured directly.

A Hadamard layer is a ±1 Sylvester block product per group of one to five
qubits, each one BLAS matrix product on unnormalised sums, and a single
2^(-w/2) scale ends it. The groups depend only on the register's width w:
14 and 16 qubits take a fixed split measured inside the Grover iterate
(`_SPLITS`), every other width ceil(w/5) near-equal groups, widest last.
A layer's scratch is one float64 array of the state's size (8 bytes per
amplitude), allocated once per call and swapped with the state between
products.

A measurement allocates one float64 array, its distribution (8 bytes per
amplitude), and sampling from it allocates nothing of its size: measuring a
real state holds 16 bytes per amplitude, state and distribution, as a
Hadamard layer does, state and scratch.

All operations preserve the norm to within 1e-9 (checked after every call)
and are deterministic: there is no hidden global RNG; sampling takes an
explicit seed.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .errors import CapacityError, InvariantError, UsageError
from .seeding import unit_double

DEFAULT_MAX_QUBITS = 26
NORM_TOL = 1e-9
_SQRT_HALF = math.sqrt(0.5)
_SAMPLE_CHUNK = 1 << 14     # probabilities per step of `sample`'s running sum
_GROUP_QUBITS = 5           # most qubits per block product of a Hadamard layer
# H_5 = H x H x H x H x H with H = [[1, 1], [1, -1]]; its top-left 2^b corner
# is H_b
_H5 = functools.reduce(np.kron, [[[1.0, 1.0], [1.0, -1.0]]] * _GROUP_QUBITS)
# qubits per block product, in register order, for the register widths of
# perfbench's grover-table where a split other than ceil(w/5) near-equal
# groups ran faster in the live Grover iterate; the search, per width and
# split, and the paired benchmark runs are in BENCH_25.json
_SPLITS = {14: (3, 3, 4, 4), 16: (3, 3, 3, 4, 3)}


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
    index. The array is kept as given, and q is read from its length: an
    array that is not one axis of 2^q entries with q >= 1 raises
    UsageError."""

    __slots__ = ("qubit_count", "amps")

    def __init__(self, amps: np.ndarray):
        qubit_count = amps.size.bit_length() - 1
        if qubit_count < 1 or amps.shape != (1 << qubit_count,):
            raise UsageError(f"amplitude array of shape {amps.shape} is not "
                             "2^q entries for a q >= 1")
        self.qubit_count = qubit_count
        self.amps = amps

    def norm_squared(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


class MeasurementDistribution:
    """Exact outcome probabilities of a measured sub-register, which must
    sum to 1 (a NaN sum fails too). A float64 array is kept as given, not
    copied. Entries are not checked for sign: the one constructor in this
    package, `measurement_distribution`, builds them as squares."""

    __slots__ = ("probabilities",)

    def __init__(self, probabilities: np.ndarray):
        p = np.asarray(probabilities, dtype=float)
        if not abs(p.sum() - 1.0) <= NORM_TOL:
            raise InvariantError("probabilities do not sum to 1")
        self.probabilities = p


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
    if not abs(state.norm_squared() - 1.0) <= NORM_TOL:     # NaN fails
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
    return StateVector(amps)


@functools.cache
def _group_widths(width: int) -> tuple[int, ...]:
    """Qubits per block product of a `width`-qubit Hadamard layer, in
    register order: `_SPLITS[width]` where there is one, else ceil(width/5)
    near-equal groups, widest last. Cached: a layer only looks it up."""
    split = _SPLITS.get(width)
    if split is None:
        count = -(-width // _GROUP_QUBITS)
        split = tuple((width + j) // count for j in range(count))
    return split


def apply_hadamard_all(state: StateVector, register: range) -> StateVector:
    """Walsh-Hadamard transform on every qubit of `register` (in place).

    The register is split into groups of one to five qubits by its width
    w (`_group_widths`): the fixed split in `_SPLITS` for 14 and 16
    qubits, ceil(w/5) near-equal groups, widest last, for every other
    width. Each group is one matrix product with the ±1 Sylvester block H_b
    of its b qubits, the top-left 2^b corner of the 32 x 32 block H_5: a
    left product batched over the qubits before the group, or, for a group
    that ends the state, one right product. The products run on
    unnormalised sums, alternating between the state and one scratch array
    of its size and dtype. One scale, 2^(-w/2) for a w-qubit register,
    normalises the result and is applied last, as the result is written
    back into the state (in place after an even number of groups).
    """
    _check_register(state.qubit_count, register)
    width = len(register)
    amps = state.amps
    src, dst = amps, np.empty_like(amps)
    start = register.start
    for group in _group_widths(width):
        before, mid, after = _split_shape(state.qubit_count,
                                          range(start, start + group))
        block = _H5[:mid, :mid]
        if after == 1:
            np.matmul(src.reshape(before, mid), block,
                      out=dst.reshape(before, mid))
        else:
            np.matmul(block, src.reshape(before, mid, after),
                      out=dst.reshape(before, mid, after))
        src, dst = dst, src
        start += group
    scale = 0.5 ** (width // 2) * (_SQRT_HALF if width % 2 else 1.0)
    np.multiply(src, scale, out=amps)
    return _check_norm(state)


def apply_diagonal_phase(state: StateVector, marked) -> StateVector:
    """Negate the amplitudes at the basis indices `marked`, an ascending
    integer array over the whole state (in place). Only its two ends are
    checked against the state's 2^q indices."""
    size = state.amps.shape[0]
    if len(marked) and not 0 <= marked[0] <= marked[-1] < size:
        raise UsageError(f"marked indices must lie in [0, {size})")
    state.amps[marked] *= -1.0
    return _check_norm(state)


def apply_zero_reflection(state: StateVector) -> StateVector:
    """Z_0 = I - 2|0><0| on the whole state: negate the amplitude of basis
    index 0."""
    state.amps[0] *= -1.0
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
    partial = np.empty(min(p.shape[0], _SAMPLE_CHUNK) + 1)
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

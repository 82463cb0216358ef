"""Boolean functions and their phase oracles.

A BooleanFunction is immutable after construction and backs every oracle in
the package. It is one truth table, built on first use and cached, plus the
CNF formula it came from, if any, which `restrict` restricts. The table comes
from an explicit table, a constant, a CNF formula evaluated directly, or the
diagonal of the formula's compiled oracle circuit (see the `compiler`
module). The phase oracle Z_f flips the sign of basis states with f(x) = 1
and charges nothing itself: `grover.run_grover` charges a shot's k oracle
queries, `estimation.run_count` a counting run's grid - 1, and `evaluate`
one classical query per call given a ledger.

An input x is a basis index of any integer type (Python or NumPy; variable
1 / qubit 0 is the most significant bit) or its bits: a string of "0"/"1"
characters or a sequence of integers 0 and 1. A restriction suffix is bits
in the same forms. Anything else raises UsageError.
"""

from __future__ import annotations

import operator
from pathlib import Path

import numpy as np

from . import cnf as cnfmod
from .cnf import _as_bits
from .errors import ParseError, UsageError
from .ledger import QueryLedger
from .statevector import (StateVector, _check_norm, _check_register,
                          _split_shape, apply_diagonal_phase, check_capacity)


def _as_index(x, arity: int) -> int:
    try:
        index = operator.index(x)
    except TypeError:
        bits = _as_bits(x)
        if len(bits) != arity:
            raise UsageError(f"input of length {len(bits)} does not match "
                             f"arity {arity}") from None
        return int(bits, 2)
    if not 0 <= index < (1 << arity):
        raise UsageError(f"input {index} out of range for arity {arity}")
    return index


def read_text(path) -> str:
    """A file's text, decoded from its bytes as strict UTF-8 (so the text
    encodes back to exactly those bytes). An unreadable file raises
    UsageError; one that is not UTF-8 raises ParseError."""
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as exc:     # ValueError: a NUL in the path
        raise UsageError(f"cannot read {str(path)!r}: {exc}") from None
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def _digits(text: str) -> np.ndarray:
    """One uint8 per character: 0 for "0", 1 for "1", and a value above 1
    for any other character (non-ASCII ones included)."""
    return np.frombuffer(text.encode("ascii", "replace"), np.uint8) - ord("0")


class BooleanFunction:
    """n-variable Boolean function with exact query accounting hooks.

    `build(formula)` returns the 2^arity truth values as uint8; it runs once,
    on first use. `formula` is the CNF the function came from, or None;
    `restrict` restricts it and builds the subfunction with the same `build`.
    """

    def __init__(self, arity: int, build,
                 formula: cnfmod.CnfFormula | None = None):
        if arity < 1:
            raise UsageError("arity must be >= 1")
        self.arity = arity
        self.formula = formula
        self._build = build
        self._truth_cache: np.ndarray | None = None
        self._signs_cache: np.ndarray | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_truth_table(cls, bits) -> "BooleanFunction":
        raw = _digits(bits) if isinstance(bits, str) else np.asarray(bits)
        if not ((raw == 0) | (raw == 1)).all():
            raise UsageError("truth table entries must be 0 or 1")
        table = raw.astype(np.uint8)
        size = table.shape[0]
        arity = size.bit_length() - 1
        if size != (1 << arity) or arity < 1:
            raise UsageError(f"truth table length {size} is not a power of "
                             "two >= 2")
        return cls(arity, lambda _: table)

    @classmethod
    def from_cnf(cls, formula: cnfmod.CnfFormula,
                 build=cnfmod.CnfFormula.truth_values) -> "BooleanFunction":
        """The formula's function, tabulated by `build(formula)`; a constant
        formula (no clauses, or an empty clause) gives `constant`."""
        if formula.constant_false or formula.is_constant_true:
            return cls.constant(formula.variable_count,
                                formula.is_constant_true)
        return cls(formula.variable_count, build, formula)

    @classmethod
    def constant(cls, arity: int, value: int) -> "BooleanFunction":
        value = int(bool(value))
        return cls(arity, lambda _: np.full(1 << arity, value, np.uint8))

    @classmethod
    def from_table_text(cls, text: str) -> "BooleanFunction":
        """Truth-table text: first line n, second line 2^n of {0,1}; blank
        lines are skipped and no other line may follow. Format errors raise
        ParseError with the line."""
        lines = [(number, stripped)
                 for number, line in enumerate(text.splitlines(), 1)
                 if (stripped := line.strip())]
        if len(lines) < 2:
            raise ParseError("expected an arity line and a table line")
        (arity_line, arity_text), (table_line, table) = lines[:2]
        try:
            n = int(arity_text)
        except ValueError:
            raise ParseError(f"arity {arity_text!r} is not an integer",
                             arity_line) from None
        if n < 1:
            raise ParseError(f"arity {n} must be >= 1", arity_line)
        check_capacity(n)
        bits = _digits(table)
        if bits.shape[0] != 1 << n or (bits > 1).any():
            raise ParseError(f"table must be 2^{n} characters of 0/1",
                             table_line)
        if len(lines) > 2:
            raise ParseError("unexpected text after the table line",
                             lines[2][0])
        return cls.from_truth_table(bits)

    @classmethod
    def from_file(cls, path) -> "BooleanFunction":
        """Truth-table text file; see `from_table_text` and `read_text`."""
        return cls.from_table_text(read_text(path))

    # -- evaluation -------------------------------------------------------

    def evaluate(self, x, ledger: QueryLedger | None = None) -> int:
        """Classical f(x); charges one classical query when a ledger is given."""
        index = _as_index(x, self.arity)
        if ledger is not None:
            ledger.add_classical(1)
        return int(self.truth_values()[index])

    def truth_values(self) -> np.ndarray:
        """All 2^n values; a test-harness oracle, never charged as queries."""
        check_capacity(self.arity)
        if self._truth_cache is None:
            self._truth_cache = self._build(self.formula)
        return self._truth_cache

    def solution_count(self) -> int:
        return int(self.truth_values().sum())

    def phase_signs(self) -> np.ndarray:
        """(-1)^f(x) over all basis indices, as 1 - 2 f(x) built in place in
        one float64 array."""
        if self._signs_cache is None:
            signs = self.truth_values().astype(float)
            signs *= -2.0
            signs += 1.0
            self._signs_cache = signs
        return self._signs_cache

    # -- quantum surface ---------------------------------------------------

    def apply_phase_oracle(self, state: StateVector,
                           register: range) -> StateVector:
        """Z_f on `register`. Charges nothing: the caller's ledger counts
        the query (see `grover.run_grover`)."""
        if len(register) != self.arity:
            raise UsageError(f"register width {len(register)} does not match "
                             f"arity {self.arity}")
        return apply_diagonal_phase(state, register, self.phase_signs())

    # -- decomposition ------------------------------------------------------

    def restrict(self, suffix) -> "BooleanFunction":
        """Subfunction f_i(x) = f(x || suffix) on the first n-k variables."""
        bits = _as_bits(suffix)
        k = len(bits)
        n = self.arity
        if not 1 <= k < n:
            raise UsageError(f"suffix length {k} must be in [1, {n - 1}]")
        if self.formula is not None:
            return BooleanFunction.from_cnf(
                cnfmod.restrict_cnf(self.formula, bits), self._build)
        y = int(bits, 2)
        table = self.truth_values().reshape(1 << (n - k), 1 << k)[:, y].copy()
        return BooleanFunction(n - k, lambda _: table)


def apply_zero_reflection(state: StateVector, register: range) -> StateVector:
    """Z_0 = I - 2|0><0| on `register`: sign flip only at the all-zero value,
    negating just the amplitudes whose register bits are all zero."""
    _check_register(state.qubit_count, register)
    before, mid, after = _split_shape(state.qubit_count, register)
    state.amps.reshape(before, mid, after)[:, 0, :] *= -1.0
    return _check_norm(state)


"""Boolean functions and their phase oracles.

A BooleanFunction is its arity and its marked set, the ascending indices x
with f(x) = 1, built when the function is made and never changed. The set
comes from an explicit table, a CNF formula's truth table, or the phase
bits of the formula's compiled oracle circuit (see the `compiler` module);
a constant function is the table or the CNF formula that says so. A
constructor that sizes an array by 2^n checks capacity before it
allocates. Every other view of f derives from the set: `evaluate` is a
binary search, `solution_count` its length, `truth_values` a fresh table
built from it, and `restrict` one filter of it, whatever f came from. The
phase oracle Z_f negates just the marked amplitudes, in place, and charges
nothing itself: `grover.run_grover` charges a shot's k oracle queries and
`estimation.run_count` a counting run's grid - 1. Every classical
evaluation of f is a charged query: `evaluate` takes a ledger and charges
it one classical query per call. The uncharged views of f are the harness
and simulator ones, `marked`, `solution_count()` and `truth_values()`. A
function holds 8 bytes per marked input and nothing of the state's size.
"""

from __future__ import annotations

import operator
from pathlib import Path

import numpy as np

from . import cnf as cnfmod
from .errors import ParseError, UsageError
from .ledger import QueryLedger
from .statevector import StateVector, apply_diagonal_phase, check_capacity

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
    """n-variable Boolean function with exact query accounting hooks:
    its arity and its marked set, the ascending indices x with f(x) = 1 as
    an integer array, `marked`, which nothing may change."""

    def __init__(self, arity: int, marked: np.ndarray):
        if arity < 1:
            raise UsageError("arity must be >= 1")
        self.arity = arity
        self.marked = marked

    # -- construction -----------------------------------------------------

    @classmethod
    def from_truth_table(cls, bits) -> "BooleanFunction":
        raw = np.asarray(bits)
        if raw.ndim != 1:
            raise UsageError(f"truth table must be a flat sequence of bits, "
                             f"not a {raw.ndim}-D array")
        if not ((raw == 0) | (raw == 1)).all():
            raise UsageError("truth table entries must be 0 or 1")
        size = raw.shape[0]
        arity = size.bit_length() - 1
        if size != (1 << arity) or arity < 1:
            raise UsageError(f"truth table length {size} is not a power of "
                             "two >= 2")
        return cls(arity, np.flatnonzero(raw))

    @classmethod
    def from_cnf(cls, formula: cnfmod.CnfFormula) -> "BooleanFunction":
        """The formula's function, from its truth table over all 2^n
        assignments (all ones for no clauses, all zeros for `()`)."""
        check_capacity(formula.variable_count)
        return cls(formula.variable_count,
                   np.flatnonzero(formula.truth_values()))

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
        return cls(n, np.flatnonzero(bits))

    @classmethod
    def from_file(cls, path) -> "BooleanFunction":
        """Truth-table text file; see `from_table_text` and `read_text`."""
        return cls.from_table_text(read_text(path))

    # -- evaluation -------------------------------------------------------

    def evaluate(self, x, ledger: QueryLedger) -> int:
        """Classical f(x) at the basis index x, an integer of any type
        (Python or NumPy; variable 1 is its most significant bit), charged
        to `ledger` as one classical query."""
        try:
            index = operator.index(x)
        except TypeError:
            raise UsageError(f"input {x!r} is not an integer index") from None
        if not 0 <= index < (1 << self.arity):
            raise UsageError(f"input {index} out of range for arity "
                             f"{self.arity}")
        ledger.add_classical(1)
        i = int(self.marked.searchsorted(index))
        return int(i < self.marked.shape[0] and self.marked[i] == index)

    def truth_values(self) -> np.ndarray:
        """All 2^n values as a fresh uint8 array; a test-harness oracle,
        never charged as queries."""
        table = np.zeros(1 << self.arity, np.uint8)
        table[self.marked] = 1
        return table

    def solution_count(self) -> int:
        return len(self.marked)

    def phase_signs(self) -> np.ndarray:
        """(-1)^f(x) over all basis indices as a fresh float64 array."""
        return 1.0 - 2.0 * self.truth_values()

    # -- quantum surface ---------------------------------------------------

    def apply_phase_oracle(self, state: StateVector,
                           register: range) -> StateVector:
        """Z_f on `register`, which must be the whole of an n-qubit state,
        range(0, n). Charges nothing: the caller's ledger counts the query
        (see `grover.run_grover`)."""
        n = self.arity
        if register != range(n) or state.qubit_count != n:
            raise UsageError(f"the phase oracle of arity {n} acts on "
                             f"range(0, {n}) of a {n}-qubit state, not "
                             f"{register} of {state.qubit_count} qubits")
        return apply_diagonal_phase(state, self.marked)

    # -- decomposition ------------------------------------------------------

    def restrict(self, suffix: str) -> "BooleanFunction":
        """Subfunction f_i(x) = f(x || suffix) on the first n-k variables,
        for a suffix string of k characters "0"/"1"."""
        if not isinstance(suffix, str) or not set(suffix) <= {"0", "1"}:
            raise UsageError(f"suffix {suffix!r} is not a string of bits 0 "
                             "and 1")
        k = len(suffix)
        n = self.arity
        if not 1 <= k < n:
            raise UsageError(f"suffix length {k} must be in [1, {n - 1}]")
        marked = self.marked
        return BooleanFunction(
            n - k, marked[(marked & ((1 << k) - 1)) == int(suffix, 2)] >> k)

"""CNF formulas: DIMACS parsing, clause semantics, and restriction.

A literal is a signed 1-based variable index (positive = variable, negative
= its negation). Variable 1 corresponds to qubit 0 and therefore to the most
significant bit of an assignment index. Constant formulas are represented
explicitly: zero clauses means constant true (empty conjunction), while a
parsed or derived empty clause sets `constant_false`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UsageError


@dataclass
class CnfFormula:
    variable_count: int
    clauses: list[tuple[int, ...]]
    constant_false: bool = False
    original_clause_count: int = 0
    dropped_tautologies: int = 0

    def __post_init__(self):
        if not self.original_clause_count:
            self.original_clause_count = len(self.clauses)

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    @property
    def is_constant_true(self) -> bool:
        return not self.constant_false and not self.clauses

    def evaluate(self, assignment_index: int) -> int:
        """f(y) for the assignment encoded as an integer (variable 1 = MSB)."""
        if self.constant_false:
            return 0
        n = self.variable_count
        for clause in self.clauses:
            if clause_is_false_index(clause, assignment_index, n):
                return 0
        return 1

    def truth_values(self) -> np.ndarray:
        """Vector of f over all 2^n assignments, ascending index order."""
        size = 1 << self.variable_count
        if self.constant_false:
            return np.zeros(size, dtype=np.uint8)
        values = np.ones(size, dtype=bool)
        idx = np.arange(size)
        n = self.variable_count
        for clause in self.clauses:
            satisfied = np.zeros(size, dtype=bool)
            for lit in clause:
                bit = (idx >> (n - abs(lit))) & 1
                satisfied |= (bit == 1) if lit > 0 else (bit == 0)
            values &= satisfied
        return values.astype(np.uint8)


def _bit_of(assignment_index: int, variable: int, n: int) -> int:
    return (assignment_index >> (n - variable)) & 1


def clause_is_false_index(clause: tuple[int, ...], assignment_index: int,
                          n: int) -> int:
    for lit in clause:
        value = _bit_of(assignment_index, abs(lit), n)
        if (value == 1) if lit > 0 else (value == 0):
            return 0
    return 1


def _normalize_clause(literals: list[int]) -> tuple[int, ...] | None:
    """Dedupe literals; None for tautologies (x and not-x together)."""
    seen: dict[int, int] = {}
    out: list[int] = []
    for lit in literals:
        if -lit in seen:
            return None
        if lit not in seen:
            seen[lit] = 1
            out.append(lit)
    return tuple(out)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse a DIMACS CNF document into a normalized CnfFormula.

    Tautological clauses are dropped with a warning; duplicate literals are
    deduplicated. Parse errors carry the offending 1-based line number.
    """
    n = None
    declared_m = None
    clauses: list[tuple[int, ...]] = []
    constant_false = False
    dropped = 0
    raw_clause_count = 0
    pending: list[int] = []
    pending_line = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if n is not None:
                raise ParseError("duplicate problem header", lineno)
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed header {stripped!r}", lineno)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header {stripped!r}", lineno)
            if n < 1:
                raise ParseError("variable count must be >= 1", lineno)
            continue
        if n is None:
            raise ParseError("clause before 'p cnf' header", lineno)
        for token in stripped.split():
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"bad literal {token!r}", lineno)
            if lit == 0:
                raw_clause_count += 1
                if not pending:
                    constant_false = True
                else:
                    clause = _normalize_clause(pending)
                    if clause is None:
                        dropped += 1
                        warnings.warn(
                            f"dropping tautological clause at line "
                            f"{pending_line or lineno}")
                    else:
                        clauses.append(clause)
                pending = []
                pending_line = None
            else:
                if abs(lit) > n:
                    raise ParseError(
                        f"literal {lit} exceeds variable count {n}", lineno)
                if pending_line is None:
                    pending_line = lineno
                pending.append(lit)

    if n is None:
        raise ParseError("missing 'p cnf' header")
    if pending:
        raise ParseError("unterminated clause at end of input", pending_line)
    if raw_clause_count != declared_m:
        raise ParseError(f"header declares {declared_m} clauses, "
                         f"found {raw_clause_count}")
    return CnfFormula(variable_count=n, clauses=clauses,
                      constant_false=constant_false,
                      original_clause_count=raw_clause_count,
                      dropped_tautologies=dropped)


def restrict_cnf(formula: CnfFormula, suffix) -> CnfFormula:
    """Fix the last k variables to the bits of `suffix`.

    Clauses with a satisfied literal are dropped; falsified literals are
    removed; an emptied clause makes the result constant false. Surviving
    prefix variables keep their indices. `suffix` is a string or sequence of
    k bits assigning variables n-k+1 .. n in order.
    """
    bits = [int(b) for b in suffix]
    k = len(bits)
    n = formula.variable_count
    if not 1 <= k < n:
        raise UsageError(f"suffix length {k} must be in [1, {n - 1}]")
    if formula.constant_false:
        return CnfFormula(variable_count=n - k, clauses=[],
                          constant_false=True)

    def fixed_value(var: int) -> int | None:
        return bits[var - (n - k) - 1] if var > n - k else None

    new_clauses: list[tuple[int, ...]] = []
    for clause in formula.clauses:
        kept: list[int] = []
        satisfied = False
        for lit in clause:
            value = fixed_value(abs(lit))
            if value is None:
                kept.append(lit)
            elif (value == 1) == (lit > 0):
                satisfied = True
                break
        if satisfied:
            continue
        if not kept:
            return CnfFormula(variable_count=n - k, clauses=[],
                              constant_false=True)
        new_clauses.append(tuple(kept))
    return CnfFormula(variable_count=n - k, clauses=new_clauses)

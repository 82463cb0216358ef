"""CNF formulas: DIMACS parsing, clause semantics, and restriction.

A literal is a signed 1-based variable index (positive = variable, negative
= its negation). Variable 1 corresponds to qubit 0 and therefore to the most
significant bit of an assignment index. Constant formulas are plain CNF: no
clauses is constant true (the empty conjunction), and a formula holding the
empty clause `()` is constant false, since no assignment satisfies it.
Parsing keeps an empty clause as `()`, and restriction keeps a clause whose
literals are all fixed false as `()`, so no case needs special handling.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UsageError


@dataclass
class CnfFormula:
    variable_count: int
    clauses: list[tuple[int, ...]]
    dropped_tautologies: int = 0

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    @property
    def original_clause_count(self) -> int:
        """Source clauses, tautologies dropped while parsing included."""
        return len(self.clauses) + self.dropped_tautologies

    @property
    def constant_false(self) -> bool:
        return () in self.clauses

    @property
    def is_constant_true(self) -> bool:
        return not self.clauses

    def evaluate(self, assignment_index: int) -> int:
        """f(y) for the assignment encoded as an integer (variable 1 = MSB)."""
        n = self.variable_count
        return int(not any(clause_is_false_index(clause, assignment_index, n)
                           for clause in self.clauses))

    def truth_values(self) -> np.ndarray:
        """Vector of f over all 2^n assignments, ascending index order: one
        mask test per clause (see `_clause_masks`)."""
        n = self.variable_count
        idx = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
        masked = np.empty_like(idx)
        satisfied = np.empty(idx.shape, dtype=bool)
        values = np.ones(idx.shape, dtype=bool)
        for clause in self.clauses:
            variables, negated = _clause_masks(clause, n)
            np.bitwise_and(idx, variables, out=masked)
            np.not_equal(masked, negated, out=satisfied)
            values &= satisfied
        return values.view(np.uint8)


_BITS = {0: "0", 1: "1", "0": "0", "1": "1"}


def _as_bits(x) -> str:
    """x as a string of "0"/"1" characters. Each element of x must be the
    character "0" or "1" or an integer (Python or NumPy) 0 or 1; anything
    else raises UsageError."""
    try:
        return "".join(_BITS[b if isinstance(b, str) else operator.index(b)]
                       for b in x)
    except (KeyError, TypeError):
        raise UsageError(f"{x!r} is not an index or bits 0 and 1") from None


def _clause_masks(clause: tuple[int, ...], n: int) -> tuple[int, int]:
    """(bits of the clause's variables, bits of its negated variables) in an
    n-bit assignment index. No literal holds, so the clause is false,
    exactly where `index & variables == negated`: each positive literal's
    bit reads 0 and each negative literal's bit reads 1."""
    variables = negated = 0
    for lit in clause:
        bit = 1 << (n - abs(lit))
        variables |= bit
        if lit < 0:
            negated |= bit
    return variables, negated


def clause_is_false_index(clause: tuple[int, ...], assignment_index: int,
                          n: int) -> int:
    """1 if no literal of the clause holds at the assignment, else 0."""
    variables, negated = _clause_masks(clause, n)
    return int((assignment_index & variables) == negated)


def _normalize_clause(literals: list[int]) -> tuple[int, ...] | None:
    """Dedupe literals in order; None for tautologies (x and not-x)."""
    unique = dict.fromkeys(literals)
    return None if any(-lit in unique for lit in unique) else tuple(unique)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse a DIMACS CNF document into a normalized CnfFormula.

    Tautological clauses are dropped with a warning; duplicate literals are
    deduplicated; an empty clause is kept as `()`. Parse errors carry the
    offending 1-based line number.
    """
    n = None
    declared_m = None
    clauses: list[tuple[int, ...]] = []
    dropped = 0
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
                clause = _normalize_clause(pending)
                if clause is None:
                    dropped += 1
                    warnings.warn(f"dropping tautological clause at line "
                                  f"{pending_line}")
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
    if len(clauses) + dropped != declared_m:
        raise ParseError(f"header declares {declared_m} clauses, "
                         f"found {len(clauses) + dropped}")
    return CnfFormula(variable_count=n, clauses=clauses,
                      dropped_tautologies=dropped)


def restrict_cnf(formula: CnfFormula, suffix) -> CnfFormula:
    """Fix the last k variables to the bits of `suffix`.

    Clauses with a satisfied literal are dropped and falsified literals are
    removed, so a clause whose literals are all falsified becomes the empty
    clause (constant false). Surviving prefix variables keep their indices.
    `suffix` is a string or sequence of k bits assigning variables
    n-k+1 .. n in order; any element other than "0", "1", 0 or 1 raises
    UsageError.
    """
    bits = _as_bits(suffix)
    k = len(bits)
    n = formula.variable_count
    if not 1 <= k < n:
        raise UsageError(f"suffix length {k} must be in [1, {n - 1}]")
    free = n - k
    new_clauses: list[tuple[int, ...]] = []
    for clause in formula.clauses:
        kept: list[int] = []
        for lit in clause:
            if abs(lit) <= free:
                kept.append(lit)
            elif (bits[abs(lit) - free - 1] == "1") == (lit > 0):
                break           # satisfied: the clause drops out
        else:
            new_clauses.append(tuple(kept))
    return CnfFormula(variable_count=free, clauses=new_clauses)

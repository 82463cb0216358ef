"""CNF formulas: DIMACS parsing and the truth table.

A literal is a signed 1-based variable index (positive = variable, negative
= its negation). Variable 1 corresponds to qubit 0 and therefore to the most
significant bit of an assignment index. Constant formulas are plain CNF: no
clauses is constant true (the empty conjunction), and a formula holding the
empty clause `()` is constant false, since no assignment satisfies it.
Parsing keeps an empty clause as `()`, so no case needs special handling,
here or in the compiler: an empty clause ANDs zero literals, so its mask
test fails on every input. A formula is evaluated only as a whole, by
`truth_values` over all 2^n assignments with one mask test per clause, in
blocks of `BLOCK` inputs (see `index_blocks`), so the work arrays are sized
to one block and only the 1-byte result is sized to 2^n; the scalar
per-literal evaluation it is checked against lives in `tests/reference.py`.
A formula is not restricted: a CNF function's restriction filters its
marked set, as every function's does (see `oracle.BooleanFunction.restrict`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

BLOCK = 1 << 16


def index_blocks(n: int):
    """The 2^n assignment indices in ascending blocks of at most BLOCK, as
    (the block's slice of all 2^n, its indices). One index array is shifted
    in place from block to block, so it is valid only for its own block."""
    size = 1 << n
    idx = np.arange(min(size, BLOCK), dtype=np.min_scalar_type(size - 1))
    for start in range(0, size, idx.shape[0]):
        if start:
            idx += idx.shape[0]
        yield slice(start, start + idx.shape[0]), idx


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

    def truth_values(self) -> np.ndarray:
        """Vector of f over all 2^n assignments, ascending index order: one
        mask test per clause (see `_clause_masks`), block by block."""
        n = self.variable_count
        masks = [_clause_masks(clause, n) for clause in self.clauses]
        values = np.ones(1 << n, dtype=bool)
        for where, idx in index_blocks(n):
            block = values[where]
            for variables, negated in masks:
                block &= (idx & variables) != negated
        return values.view(np.uint8)


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

"""Exact query accounting.

Quantum queries count phase-oracle applications; classical queries count
plain evaluations used to verify measured candidates. Every complexity claim
in the library is checked against these counters, never against wall clock.
"""

from __future__ import annotations

from .errors import InvariantError


class QueryLedger:
    def __init__(self) -> None:
        self.quantum_queries = 0
        self.classical_queries = 0
        self.breakdown: dict[str, int] = {}

    def add_quantum(self, count: int, phase: str) -> None:
        if count < 0:
            raise InvariantError("query counts are monotone")
        self.quantum_queries += count
        self.breakdown[phase] = self.breakdown.get(phase, 0) + count

    def add_classical(self, count: int) -> None:
        if count < 0:
            raise InvariantError("query counts are monotone")
        self.classical_queries += count
        self.breakdown["verify"] = self.breakdown.get("verify", 0) + count

    @property
    def total(self) -> int:
        return self.quantum_queries + self.classical_queries

    def snapshot(self) -> dict:
        return {
            "quantum_queries": self.quantum_queries,
            "classical_queries": self.classical_queries,
            "total": self.total,
            "breakdown": dict(self.breakdown),
        }


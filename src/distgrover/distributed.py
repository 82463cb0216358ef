"""Serial and parallel distributed Grover search.

The input function is split into 2^k subfunctions by fixing the low k bits
of the index to each machine index i, so machine i owns the strided
truth-table slice table[i :: 2^k]. Each machine first runs
quantum counting to build a candidate window for its solution count, then
sweeps the window with Grover runs, verifying every measurement classically.

Seeding: machine i derives its seed from the master seed with a fixed mixing
function; stage 0 is counting, stage 1+j is sweep attempt j. Identical
(f, k, a, seed) inputs therefore give identical outcomes in both modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import UsageError
from .estimation import counting_grid_for, run_count
from .grover import GroverOutcome, grover_iterations, run_grover
from .ledger import QueryLedger
from .oracle import BooleanFunction
from .seeding import derive


@dataclass(frozen=True)
class CandidateSet:
    machine_index: int
    estimate: int
    t_a: int
    candidates: tuple[int, ...]
    is_constant_zero: bool


@dataclass
class MachineRecord:
    index: int
    candidate_set: CandidateSet | None
    attempts: list[tuple[int, int, int]] = field(default_factory=list)
    ledger: QueryLedger = field(default_factory=QueryLedger)

    @property
    def total_queries(self) -> int:
        return self.ledger.total


@dataclass
class DistOutcome:
    status: str                      # "found" | "not_found"
    solution: int | None
    found_by_machine: int | None
    machines: list[MachineRecord]
    total_quantum: int
    total_classical: int
    parallel_depth: int
    serial_total: int

    def solution_bits(self, n: int) -> str | None:
        return None if self.solution is None else format(self.solution,
                                                         f"0{n}b")


def _check_split(n: int, k: int) -> None:
    if not 1 <= k < n:
        raise UsageError(f"k={k} must satisfy 1 <= k < n={n}")


def decompose(f: BooleanFunction, k: int) -> list[BooleanFunction]:
    """Subfunction list [f_0, ..., f_{2^k - 1}] with f_i(x) = f(x || bin(i))."""
    _check_split(f.arity, k)
    return [f.restrict(format(i, f"0{k}b")) for i in range(1 << k)]


def threshold_t_a(a: int) -> int:
    """ceil(2 pi sqrt(a) + 11)."""
    if a < 1:
        raise UsageError("a must be >= 1")
    return int(math.ceil(2.0 * math.pi * math.sqrt(a) + 11.0))


def candidate_window(estimate: int, t_a: int, sub_arity: int) -> tuple[int, ...]:
    """The count window around an estimate, clamped to [1, 2^sub_arity].

    Zero is excluded (a zero count means nothing to search for), and counts
    outside the domain are impossible, hence the clamp.
    """
    lo = max(1, estimate - t_a)
    hi = min(1 << sub_arity, estimate + t_a)
    return tuple(range(lo, hi + 1)) if lo <= hi else ()


def build_candidate_set(f_i: BooleanFunction, a: int, seed: int,
                        ledger: QueryLedger,
                        machine_index: int = 0) -> CandidateSet:
    """Counting run plus window construction for one machine.

    A zero estimate is certain when the subfunction is constant zero; only
    then is the set empty. A zero estimate on a non-constant subfunction
    still yields the clamped window (the true count may well be inside it).
    The constant-zero confirmation is an exhaustive classical check and is
    not charged to the ledger.
    """
    sub_arity = f_i.arity
    grid = counting_grid_for(sub_arity)
    estimate = run_count(f_i, grid, seed, ledger).t_prime_rounded
    t_a = threshold_t_a(a)
    if estimate == 0 and f_i.solution_count() == 0:
        return CandidateSet(machine_index, estimate, t_a, (), True)
    return CandidateSet(machine_index, estimate, t_a,
                        candidate_window(estimate, t_a, sub_arity), False)


def sweep_candidates(f_i: BooleanFunction, candidates, seed: int,
                     ledger: QueryLedger,
                     record: MachineRecord | None = None
                     ) -> GroverOutcome | None:
    """Try each candidate count, largest first (fewest iterations first),
    one Grover run per candidate; stop at the first verified solution."""
    for attempt, b in enumerate(sorted(candidates, reverse=True)):
        outcome = run_grover(f_i, b, derive(seed, attempt), ledger)
        if record is not None:
            record.attempts.append((b, outcome.measured_x,
                                    outcome.is_solution))
        if outcome.is_solution:
            return outcome
    return None


def _finalize(status: str, solution: int | None, winner: int | None,
              machines: list[MachineRecord]) -> DistOutcome:
    totals_q = sum(m.ledger.quantum_queries for m in machines)
    totals_c = sum(m.ledger.classical_queries for m in machines)
    depth = max((m.total_queries for m in machines), default=0)
    return DistOutcome(
        status=status, solution=solution, found_by_machine=winner,
        machines=machines, total_quantum=totals_q, total_classical=totals_c,
        parallel_depth=depth, serial_total=totals_q + totals_c)


def run_serial(f: BooleanFunction, k: int, a: int, seed: int) -> DistOutcome:
    """Visit machines in ascending order; sweep the first machine whose
    candidate set is non-empty and stop there, found or not."""
    _check_split(f.arity, k)
    if a < 1:
        raise UsageError("a must be >= 1")
    subfunctions = decompose(f, k)
    machines: list[MachineRecord] = []

    for i, f_i in enumerate(subfunctions):
        record = MachineRecord(index=i, candidate_set=None)
        machines.append(record)
        machine_seed = derive(seed, i)
        cs = build_candidate_set(f_i, a, derive(machine_seed, 0),
                                 record.ledger, machine_index=i)
        record.candidate_set = cs
        if not cs.candidates:
            continue
        outcome = sweep_candidates(f_i, cs.candidates, derive(machine_seed, 1),
                                   record.ledger, record)
        if outcome is not None:
            solution = (outcome.measured_x << k) | i
            return _finalize("found", solution, i, machines)
        # first swept machine exhausted its window: no fallback to later ones
        return _finalize("not_found", None, None, machines)
    return _finalize("not_found", None, None, machines)


def run_parallel(f: BooleanFunction, k: int, a: int, seed: int,
                 fast_a1: bool | None = None) -> DistOutcome:
    """All machines count and sweep concurrently (simulated step-locked);
    the first verified solution wins, lowest machine index breaking ties
    within a sweep step. With a known unique solution (a = 1) the counting
    stage is skipped and every machine runs a single Grover shot."""
    _check_split(f.arity, k)
    if a < 1:
        raise UsageError("a must be >= 1")
    if fast_a1 is None:
        fast_a1 = a == 1
    subfunctions = decompose(f, k)
    machines = [MachineRecord(index=i, candidate_set=None)
                for i in range(1 << k)]

    sweeps: dict[int, tuple[BooleanFunction, list[int], int]] = {}
    for i, f_i in enumerate(subfunctions):
        machine_seed = derive(seed, i)
        if fast_a1:
            order = [1]
        else:
            cs = build_candidate_set(f_i, a, derive(machine_seed, 0),
                                     machines[i].ledger, machine_index=i)
            machines[i].candidate_set = cs
            order = sorted(cs.candidates, reverse=True)
        if order:
            sweeps[i] = (f_i, order, derive(machine_seed, 1))

    step = 0
    while sweeps:
        finishers: list[tuple[int, int]] = []
        for i in sorted(sweeps):
            f_i, order, sweep_seed = sweeps[i]
            if step >= len(order):
                continue
            b = order[step]
            outcome = run_grover(f_i, b, derive(sweep_seed, step),
                                 machines[i].ledger)
            machines[i].attempts.append((b, outcome.measured_x,
                                         outcome.is_solution))
            if outcome.is_solution:
                finishers.append((i, outcome.measured_x))
        if finishers:
            winner, x = min(finishers)
            return _finalize("found", (x << k) | winner, winner, machines)
        sweeps = {i: v for i, v in sweeps.items() if step + 1 < len(v[1])}
        step += 1
    return _finalize("not_found", None, None, machines)


def worst_case_query_bound(n: int, k: int, a: int) -> tuple[int, int]:
    """(serial, parallel) worst-case totals from the distributed analysis:

    serial   = (2 t_a + 1) floor(pi/4 sqrt(2^{n-k})) + 2^k ceil(sqrt(2^{n-k}))
               + 2 t_a + 1
    parallel = same with a single counting term instead of 2^k of them
               (per-machine bound, candidate counts minimized to 1).
    """
    _check_split(n, k)
    t_a = threshold_t_a(a)
    sub = n - k
    sweep = (2 * t_a + 1) * grover_iterations(sub, 1)
    count_nominal = math.isqrt(1 << sub)
    if count_nominal * count_nominal < (1 << sub):
        count_nominal += 1
    checks = 2 * t_a + 1
    serial = sweep + (1 << k) * count_nominal + checks
    parallel = sweep + count_nominal + checks
    return serial, parallel


def statement_form_bound(n: int, k: int) -> float:
    """The serial bound as stated (known to disagree with its derivation;
    exposed for reporting only, never asserted against ledgers)."""
    _check_split(n, k)
    sub = n - k
    return (grover_iterations(sub, 1)
            + ((1 << k) - 1) * (4.0 * math.sqrt(1 << sub) - 1.0))

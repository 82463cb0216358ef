"""Serial and parallel distributed Grover search.

The input function is split into 2^k subfunctions by fixing the low k bits
of the index to each machine index i, so machine i owns the strided
truth-table slice table[i :: 2^k]. Each machine first runs
quantum counting to build a candidate window for its solution count, then
sweeps the window with Grover runs, verifying every measurement classically.

Each machine is one `MachineRecord`, the one owner of what it searched
and what it planned and did: its subfunction, its estimate, its plan, its
attempts and its ledger. A run's `DistOutcome` holds the solution and the
records, and reads its status and totals from them. Both modes plan each
machine with `_plan` and sweep with `_sweep`; serial sweeps only the first
machine with a non-empty plan, parallel sweeps all. A plan is the window
reversed, counts largest first. Every sweep shot runs on a
`grover.Plane` of its record's subfunction: it draws from the exact
two-level distribution the machine's dense state would reach, which
`tests/reference.py`'s dense shot checks, while its ledger is charged the
shot's k_b oracle queries. A sweep therefore holds no amplitude array:
each shot adds a few float arrays the size of its machine's marked set.

Seeding: machine i counts with derive(derive(seed, i), 0), and its sweep
attempt j draws with derive(derive(derive(seed, i), 1), j). So for a >= 2
every machine serial visits has the same estimate and plan as in parallel,
and on the machine serial sweeps, its parallel attempts are a prefix of its
serial ones. (At a = 1 parallel skips counting and every plan is b = 1.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import UsageError
from .estimation import counting_grid_for, run_count
from .grover import Plane, grover_iterations, run_grover
from .ledger import QueryLedger
from .oracle import BooleanFunction
from .seeding import derive


@dataclass(slots=True)
class MachineRecord:
    """One machine's run: its subfunction, its counting estimate (None when
    counting is skipped), its plan (the counts it sweeps, largest first),
    its attempts (b, measured x, verified) and its ledger."""
    index: int
    f: BooleanFunction
    estimate: int | None = None
    plan: range = range(0)
    attempts: list[tuple[int, int, int]] = field(default_factory=list)
    ledger: QueryLedger = field(default_factory=QueryLedger)


@dataclass
class DistOutcome:
    """A run's solution, the machine that verified it (both None when none
    was found) and its machine records, from which its totals are read."""
    solution: int | None
    found_by_machine: int | None
    machines: list[MachineRecord]

    @property
    def status(self) -> str:
        return "not_found" if self.solution is None else "found"

    @property
    def total_quantum(self) -> int:
        return sum(m.ledger.quantum_queries for m in self.machines)

    @property
    def total_classical(self) -> int:
        return sum(m.ledger.classical_queries for m in self.machines)

    @property
    def serial_total(self) -> int:
        return self.total_quantum + self.total_classical

    @property
    def parallel_depth(self) -> int:
        return max((m.ledger.total for m in self.machines), default=0)


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


def candidate_window(estimate: int, t_a: int, sub_arity: int) -> range:
    """The count window around an estimate, ascending and clamped to
    [1, 2^sub_arity].

    Zero is excluded (a zero count means nothing to search for), and counts
    outside the domain are impossible, hence the clamp.
    """
    return range(max(1, estimate - t_a),
                 min(1 << sub_arity, estimate + t_a) + 1)


def build_candidate_set(f_i: BooleanFunction, a: int, seed: int,
                        ledger: QueryLedger) -> tuple[int, range]:
    """Counting run plus window construction for one machine: (estimate,
    window).

    A zero estimate is certain when the subfunction is constant zero; only
    then is the window empty. A zero estimate on a non-constant subfunction
    still yields the clamped window (the true count may well be inside it).
    The constant-zero confirmation is an exhaustive classical check and is
    not charged to the ledger.
    """
    sub_arity = f_i.arity
    grid = counting_grid_for(sub_arity)
    estimate = run_count(f_i, grid, seed, ledger).t_prime_rounded
    t_a = threshold_t_a(a)
    if estimate == 0 and f_i.solution_count() == 0:
        return estimate, range(0)
    return estimate, candidate_window(estimate, t_a, sub_arity)


def _split(f: BooleanFunction, k: int, a: int) -> list[BooleanFunction]:
    """The subfunctions of `decompose`, after checking k and then a, before
    any work."""
    _check_split(f.arity, k)
    if a < 1:
        raise UsageError("a must be >= 1")
    grover_iterations(f.arity, a)       # refuses a above 2^n
    return decompose(f, k)


def _plan(f_i: BooleanFunction, a: int, seed: int,
          index: int) -> MachineRecord:
    """Machine `index`'s counting stage: its record, holding the estimate,
    the counting charges and the plan, the window's counts largest first
    (fewest iterations first)."""
    ledger = QueryLedger()
    estimate, window = build_candidate_set(
        f_i, a, derive(derive(seed, index), 0), ledger)
    return MachineRecord(index, f_i, estimate, window[::-1], ledger=ledger)


def _sweep(k: int, swept: list[MachineRecord], seed: int,
           machines: list[MachineRecord]) -> DistOutcome:
    """Step-locked sweep of the `swept` records: at step j, every machine
    i with a j-th count b in its plan runs one verified Grover shot for b,
    seeded derive(derive(derive(seed, i), 1), j). The first step with a
    verified solution ends the sweep, the lowest machine index winning."""
    sweep_seeds = [derive(derive(seed, m.index), 1) for m in swept]
    for step in range(max((len(m.plan) for m in swept), default=0)):
        finishers: list[tuple[int, int]] = []
        for m, sweep_seed in zip(swept, sweep_seeds):
            if step >= len(m.plan):
                continue
            b = m.plan[step]
            outcome = run_grover(Plane(m.f), b, derive(sweep_seed, step),
                                 m.ledger)
            m.attempts.append((b, outcome.measured_x, outcome.is_solution))
            if outcome.is_solution:
                finishers.append((m.index, outcome.measured_x))
        if finishers:
            winner, x = min(finishers)
            return DistOutcome((x << k) | winner, winner, machines)
    return DistOutcome(None, None, machines)


def run_serial(f: BooleanFunction, k: int, a: int, seed: int) -> DistOutcome:
    """Visit machines in ascending order; sweep the first machine whose
    plan is non-empty and stop there, found or not."""
    machines: list[MachineRecord] = []
    for i, f_i in enumerate(_split(f, k, a)):
        machines.append(_plan(f_i, a, seed, i))
        if machines[i].plan:
            return _sweep(k, [machines[i]], seed, machines)
    return DistOutcome(None, None, machines)


def run_parallel(f: BooleanFunction, k: int, a: int, seed: int) -> DistOutcome:
    """All machines count, then sweep step-locked; the first verified
    solution wins, lowest machine index breaking ties within a step. With a
    known unique solution (a = 1) the counting stage is skipped: every
    machine's estimate stays None and its plan is the one count b = 1."""
    machines = [MachineRecord(i, f_i, plan=range(1, 2)) if a == 1
                else _plan(f_i, a, seed, i)
                for i, f_i in enumerate(_split(f, k, a))]
    return _sweep(k, machines, seed, machines)


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
    count_nominal = math.isqrt((1 << sub) - 1) + 1     # ceil(sqrt(2^sub))
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

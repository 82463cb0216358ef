"""Seeded input generation for the four benchmark workloads.

A workload's op list is a fixed schedule of CLI ops ("a pass") repeated
`PASSES[name]` times, each time on freshly drawn instances; the counts are
set so that one list takes about 22 s on the reference host. The schedule
(subcommand, n, a, k, mode) does not depend on the seed; the seed only picks
marked sets, planted assignments and algorithm seeds. The op cost of
`grover` and `count` depends only on the schedule, so seeds differ only in
timing noise, and the op-latency quantiles fall inside one op class rather
than on the boundary between two (see NOTES.md for the arithmetic).

Ground truth (marked sets, planted solutions) stays in the `Op.truth`
dictionaries; the program only ever sees the generated files and argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("grover-table", "count", "dist", "cnf-compiled")

PASSES = {"grover-table": 10, "count": 42, "dist": 12, "cnf-compiled": 10}

# grover-table: (n, a) per pass, 17..100 iterates, states of 64 KiB..1 MiB.
GROVER_SCHEDULE = ([(12, a) for a in (1, 2, 4, 8)] * 2
                   + [(14, a) for a in (1, 4, 16)]
                   + [(16, a) for a in (16, 32, 64)])
COUNT_ARITIES = (8, 9, 10)
DIST_ARITIES = range(8, 13)
DIST_SPLITS = (1, 2, 3)
# dist keeps machine states at n - k <= 10 qubits: one n=12 k=1 op counts on
# 11 qubits for 0.7-1.4 s, and two of them took 58% of a pass, which left too
# few small ops per run for steady figures.
DIST_MAX_SUB_ARITY = 10
# cnf-compiled: formula arities per pass; the weights keep the median op in
# the table-oracle group and the 90th percentile in the n=8 compiled group.
CNF_ARITIES = (7, 7, 8, 8, 8, 9)
CLAUSES_PER_VARIABLE = 4


@dataclass
class Op:
    """One CLI invocation. `argv` names files relative to the work dir."""

    key: str                 # unique within the op list, used in checks
    argv: list[str]
    truth: dict = field(default_factory=dict)
    files: tuple[str, ...] = ()   # argv entries that are work-dir paths


@dataclass
class Workload:
    name: str
    passes: list[list[Op]]
    files: dict[str, str]    # work-dir relative name -> file text

    @property
    def ops(self) -> list[Op]:
        return [op for ops in self.passes for op in ops]


def grover_iterations(n: int, a: int) -> int:
    """floor(pi/4 * sqrt(2^n / a)), the iterate count the CLI must charge."""
    return int(math.floor(math.pi / 4.0 * math.sqrt((1 << n) / a)))


def table_text(n: int, marked) -> str:
    bits = bytearray(b"0" * (1 << n))
    for x in marked:
        bits[x] = ord("1")
    return f"{n}\n{bits.decode()}\n"


def _grover_pass(rng: random.Random, p: int, files: dict) -> list[Op]:
    ops = []
    for j, (n, a) in enumerate(GROVER_SCHEDULE):
        name = f"g{p}_{j}.table"
        marked = sorted(rng.sample(range(1 << n), a))
        files[name] = table_text(n, marked)
        ops.append(Op(f"g{p}_{j}",
                      ["grover", "--input", name, "--a", str(a),
                       "--seed", str(rng.getrandbits(32))],
                      {"n": n, "a": a, "marked": marked}, (name,)))
    return ops


def _count_pass(rng: random.Random, p: int, files: dict) -> list[Op]:
    ops = []
    for n in COUNT_ARITIES:
        top = 1 << (n - 3)
        for j, t in enumerate((0, 1, rng.randint(2, top - 1), top)):
            name = f"c{p}_{n}_{j}.table"
            marked = sorted(rng.sample(range(1 << n), t))
            files[name] = table_text(n, marked)
            ops.append(Op(f"c{p}_{n}_{j}",
                          ["count", "--input", name,
                           "--seed", str(rng.getrandbits(32))],
                          {"n": n, "t": t, "marked": marked}, (name,)))
    return ops


def _dist_pass(rng: random.Random, p: int, files: dict) -> list[Op]:
    ops = []
    j = 0
    for n in DIST_ARITIES:
        for k in (k for k in DIST_SPLITS if n - k <= DIST_MAX_SUB_ARITY):
            for mode in ("dist-serial", "dist-parallel"):
                # a walks 1..8 across the pass and shifts between passes, so
                # every pass holds the same mix, a=1 fast path included
                a = 1 + (j + 3 * p) % 8
                name = f"d{p}_{j}.table"
                marked = sorted(rng.sample(range(1 << n), a))
                files[name] = table_text(n, marked)
                ops.append(Op(f"d{p}_{j}",
                              [mode, "--input", name, "--k", str(k),
                               "--a", str(a),
                               "--seed", str(rng.getrandbits(32))],
                              {"n": n, "k": k, "a": a, "marked": marked},
                              (name,)))
                j += 1
    return ops


def variable_bits(n: int) -> list[np.ndarray]:
    """bits[v][x]: value of variable v (1-based; bit n - v) in input x."""
    idx = np.arange(1 << n)
    return [np.zeros(0, dtype=bool)] + [((idx >> (n - v)) & 1).astype(bool)
                                        for v in range(1, n + 1)]


def satisfying(bits: list[np.ndarray], clauses) -> list[int]:
    """Brute-force solution set over all inputs."""
    ok = np.ones(bits[1].shape[0], dtype=bool)
    for clause in clauses:
        sat = np.zeros_like(ok)
        for lit in clause:
            sat |= bits[lit] if lit > 0 else ~bits[-lit]
        ok &= sat
    return np.flatnonzero(ok).tolist()


def planted_unique_3cnf(n: int, m: int, rng: random.Random):
    """Random 3-CNF with m clauses whose only solution is a planted one.

    Clauses falsified by the planted assignment are redrawn; formulas with
    further solutions are rejected, so `grover --a 1` is the true count and
    every formula of one arity costs the same number of iterates.
    """
    bits = variable_bits(n)
    while True:
        s = rng.getrandbits(n)
        clauses = []
        while len(clauses) < m:
            variables = rng.sample(range(1, n + 1), 3)
            clause = tuple(v if rng.random() < 0.5 else -v for v in variables)
            if any(((s >> (n - abs(lit))) & 1) == (lit > 0) for lit in clause):
                clauses.append(clause)
        if satisfying(bits, clauses) == [s]:
            return s, clauses


def dimacs_text(n: int, clauses) -> str:
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return f"c planted unique-solution 3-CNF\np cnf {n} {len(clauses)}\n{body}"


def _cnf_pass(rng: random.Random, p: int, files: dict) -> list[Op]:
    ops = []
    for j, n in enumerate(CNF_ARITIES):
        m = CLAUSES_PER_VARIABLE * n
        solution, clauses = planted_unique_3cnf(n, m, rng)
        name, ir = f"f{p}_{j}.cnf", f"f{p}_{j}.ir"
        files[name] = dimacs_text(n, clauses)
        truth = {"n": n, "m": m, "a": 1, "marked": [solution],
                 "formula": f"f{p}_{j}"}
        seed = str(rng.getrandbits(32))
        ops.append(Op(f"f{p}_{j}.compile",
                      ["compile", "--input", name, "--out", ir,
                       "--elementary"], truth, (name, ir)))
        for oracle in ("compiled", "table"):
            ops.append(Op(f"f{p}_{j}.{oracle}",
                          ["grover", "--input", name, "--oracle", oracle,
                           "--a", "1", "--seed", seed], truth, (name,)))
    return ops


_PASS_MAKERS = {"grover-table": _grover_pass, "count": _count_pass,
                  "dist": _dist_pass, "cnf-compiled": _cnf_pass}


def generate(name: str, seed: int) -> Workload:
    """All inputs of workload `name`; the same seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    files: dict[str, str] = {}
    passes = [_PASS_MAKERS[name](rng, p, files)
              for p in range(PASSES[name])]
    return Workload(name, passes, files)


def write_files(workload: Workload, workdir: Path) -> None:
    for name, text in workload.files.items():
        (workdir / name).write_text(text)


def resolve(op: Op, workdir: Path) -> list[str]:
    """argv with work-dir file names made into paths."""
    return [str(workdir / a) if a in op.files else a for a in op.argv]

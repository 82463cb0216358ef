"""Capacity probe: how far each expensive kernel scales on this host.

    python3 perfbench/probe.py

Times one Grover iterate at n = 12, 16, 20, one est_amp_distribution at
s = 8, 10, 12 target qubits (the whole of a `count` op at grid 2^ceil(s/2)),
and one compiled CNF phase oracle at n = 8, 10, 12 with m = 4n clauses (a
planted unique-solution formula, as in `cnf-compiled`) beside a truth-table
oracle on the same state. Each time is the best of a few calls. The
per-2-qubit growth of the last two sizes projects the cost of one whole op
two and four qubits further, which is where the simulator's practical
capacity ends. Prints one JSON object; its results are kept in
perfbench/baseline.json under "capacity".
"""

import json
import os
import platform
import random
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def best_of(calls: int, fn) -> float:
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    if not (SRC / "distgrover" / "__init__.py").is_file():
        print(f"error: no distgrover package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np
    import workloads
    from distgrover import compiler, estimation, grover, statevector
    from distgrover.cnf import CnfFormula
    from distgrover.oracle import BooleanFunction

    def uniform(n):
        state = statevector.init_basis(n, 0)
        statevector.apply_hadamard_all(state, range(n))
        return state

    def marked_one(n):
        table = np.zeros(1 << n, dtype=np.uint8)
        table[(1 << n) // 3] = 1
        return BooleanFunction.from_truth_table(table)

    rng = random.Random(2022)
    out = {"host": {"python": platform.python_version(),
                    "numpy": np.__version__, "nproc": os.cpu_count()}}

    iterate = {}
    for n in (12, 16, 20):
        f, state = marked_one(n), uniform(n)
        iterate[n] = best_of(3, lambda: grover.apply_grover_iterate(f, state))
    out["grover_iterate_s"] = iterate

    est = {}
    for s in (8, 10, 12):
        f = marked_one(s)
        m = estimation.counting_grid_for(s).bit_length() - 1
        est[s] = best_of(2 if s < 12 else 1,
                         lambda: estimation.est_amp_distribution(f, m))
    out["est_amp_distribution_s"] = est

    compiled, table = {}, {}
    for n in (8, 10, 12):
        _, clauses = workloads.planted_unique_3cnf(n, 4 * n, rng)
        formula = CnfFormula(variable_count=n, clauses=clauses)
        fc = compiler.oracle_from_formula(formula)
        ft = BooleanFunction.from_cnf(formula)
        state = uniform(n)
        compiled[n] = best_of(2, lambda: fc.apply_phase_oracle(state,
                                                               range(n)))
        ft.phase_signs()
        table[n] = best_of(5, lambda: ft.apply_phase_oracle(state, range(n)))
    out["compiled_oracle_s"] = compiled
    out["table_oracle_s"] = table

    # one whole op, projected 2 and 4 qubits past the largest size timed
    grow_count = est[12] / est[10]
    grow_oracle = compiled[12] / compiled[10]
    out["projected_op_s"] = {
        "count": {12: est[12], 14: est[12] * grow_count,
                  16: est[12] * grow_count ** 2},
        "grover_compiled": {
            n: grover.grover_iterations(n, 1) * compiled[12]
            * grow_oracle ** ((n - 12) // 2) for n in (12, 14, 16)},
        "growth_per_2_qubits": {"count": grow_count,
                                "compiled_oracle": grow_oracle},
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The golden corpus: CLI runs whose output is pinned by digest.

`cases.txt` holds one line per run: the exit code, the sha256 of the run's
canonical output, and the argv, with input paths relative to the directory
that `write_inputs` fills. The inputs are not checked in: `write_inputs`
derives every table and DIMACS file from fixed seeds, and `cases()` lists
the argv in a fixed order. tests/test_golden.py rebuilds the inputs in a
temporary directory and reruns every case through `cli.main` in-process.

The canonical output is the JSON report with `duration_seconds` and paths
(`input.path`, `parameters.out`) left out and floats rounded to 12
significant digits, as perfbench's behaviour fingerprint has it, followed by
the stderr text and, for `compile`, the IR file written.

Covered: table inputs at n = 1..10 with t in {0, 1, 2, N/3, N - 1, N};
grover with a = 1, a = t and a above t; count on the default grid and on
grids 2 and 4; dist-serial and dist-parallel at k = 1, k = n/2 and
k = n - 1, so odd n and the a = 1 fast path occur; dist-serial and
dist-parallel on wider tables, n = 14 and 16 with t in {1, 3, 8}, at k = 2
and 4 with a = t, so swept machines search 10 to 14 qubits; planted 3-CNFs
run through the table and the compiled oracle and through `compile`; a
dropped tautology, the empty clause and the empty formula; and runs that
exit 1, 2 and 3.

Regenerate with `PYTHONPATH=src python tests/golden/generate.py` from the
repository root. A regenerated corpus is a behaviour change: say which cases
changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from distgrover import cli

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.txt"
MAX_N = 10


def _marked(n: int, t: int) -> list[int]:
    rng = random.Random(1000 * n + t)
    keys = [rng.random() for _ in range(1 << n)]
    return sorted(sorted(range(1 << n), key=keys.__getitem__)[:t])


def _counts(n: int) -> list[int]:
    big_n = 1 << n
    return sorted({0, 1, 2, big_n // 3, big_n - 1, big_n})


def _table_text(n: int, t: int) -> str:
    bits = ["0"] * (1 << n)
    for x in _marked(n, t):
        bits[x] = "1"
    return f"{n}\n{''.join(bits)}\n"


def _planted_cnf(n: int, m: int, seed: int) -> str:
    """m random 3-clauses over n variables, each satisfied by one planted
    assignment."""
    rng = random.Random(seed)
    planted = [rng.random() < 0.5 for _ in range(n)]
    lines = [f"c planted n={n} m={m} seed={seed}", f"p cnf {n} {m}"]
    for _ in range(m):
        variables: list[int] = []
        while len(variables) < 3:
            v = 1 + int(rng.random() * n)
            if v not in variables:
                variables.append(v)
        lits = [v if rng.random() < 0.5 else -v for v in variables]
        if not any((lit > 0) == planted[abs(lit) - 1] for lit in lits):
            lits[0] = -lits[0]
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


# (n, t) of the wider tables that only the dist-* cases read
WIDE = [(n, t) for n in (14, 16) for t in (1, 3, 8)]

PLANTED = [(n, m, seed) for n in (3, 5, 6, 7, 8) for m, seed in
           ((2 * n, n), (4 * n, 100 + n))]

SPECIAL = {
    "tautology.cnf": "p cnf 4 3\n1 -1 2 0\n-2 3 0\n4 -3 0\n",
    "empty_clause.cnf": "p cnf 3 2\n1 2 0\n0\n",
    "no_clauses.cnf": "p cnf 3 0\n",
    "bad_arity.table": "x\n01\n",
    "bad_bits.table": "2\n0120\n",
    "short.table": "3\n0101\n",
    "trailing.table": "1\n01\n01\n",
    "wide.table": "27\n0\n",
    "bad_literal.cnf": "p cnf 3 1\n1 x 0\n",
    "no_header.cnf": "1 2 0\n",
    "wide.cnf": "p cnf 40 1\n1 0\n",
}


def write_inputs(directory: Path) -> None:
    """Write every input file the cases name into `directory`."""
    for n in range(1, MAX_N + 1):
        for t in _counts(n):
            (directory / f"n{n}_t{t}.table").write_text(_table_text(n, t))
    for n, t in WIDE:
        (directory / f"n{n}_t{t}.table").write_text(_table_text(n, t))
    for n, m, seed in PLANTED:
        (directory / f"planted_{n}_{m}.cnf").write_text(
            _planted_cnf(n, m, seed))
    for name, text in SPECIAL.items():
        (directory / name).write_text(text)


def _table_cases(n: int, t: int):
    big_n = 1 << n
    path = f"n{n}_t{t}.table"
    for a in sorted({1, max(t, 1), min(t + 1, big_n)}):
        for seed in (0, 1):
            yield ["grover", "--input", path, "--a", str(a),
                   "--seed", str(seed)]
    yield ["count", "--input", path, "--seed", "0"]
    for grid in (2, 4):
        yield ["count", "--input", path, "--grid", str(grid), "--seed", "3"]
    if n < 2:
        return
    for k in sorted({1, n // 2, n - 1}):
        for a in sorted({1, min(t + 1, big_n)}):
            for mode in ("serial", "parallel"):
                yield [f"dist-{mode}", "--input", path, "--k", str(k),
                       "--a", str(a), "--seed", str(n + t)]


def _cnf_cases(path: str, n: int):
    for oracle in ("table", "compiled"):
        for seed in (0, 1):
            yield ["grover", "--input", path, "--oracle", oracle,
                   "--a", "1", "--seed", str(seed)]
    yield ["count", "--input", path, "--seed", "2"]
    for mode in ("serial", "parallel"):
        yield [f"dist-{mode}", "--input", path, "--k", str(max(1, n // 2)),
               "--a", "1", "--seed", "4"]
    yield ["compile", "--input", path, "--out", "out.ir"]
    yield ["compile", "--input", path, "--out", "out.ir", "--elementary"]


def cases():
    """Every case's argv, in corpus order."""
    for n in range(1, MAX_N + 1):
        for t in _counts(n):
            yield from _table_cases(n, t)
    for n, t in WIDE:
        for k in (2, 4):
            for mode in ("serial", "parallel"):
                yield [f"dist-{mode}", "--input", f"n{n}_t{t}.table",
                       "--k", str(k), "--a", str(t), "--seed", str(n + t)]
    for n, m, _ in PLANTED:
        yield from _cnf_cases(f"planted_{n}_{m}.cnf", n)
    for name, n in (("tautology.cnf", 4), ("empty_clause.cnf", 3),
                    ("no_clauses.cnf", 3)):
        yield from _cnf_cases(name, n)
    # exit 1: usage errors
    yield ["grover", "--input", "n3_t1.table", "--a", "0"]
    yield ["grover", "--input", "n3_t1.table", "--a", "9"]
    yield ["grover", "--input", "n3_t1.table"]
    yield ["grover", "--input", "missing.table", "--a", "1"]
    yield ["count", "--input", "n4_t2.table", "--grid", "3"]
    yield ["count", "--input", "n4_t2.table", "--grid", "1"]
    yield ["dist-serial", "--input", "n4_t2.table", "--k", "4", "--a", "1"]
    yield ["dist-parallel", "--input", "n4_t2.table", "--k", "0", "--a", "1"]
    yield ["dist-serial", "--input", "n4_t2.table", "--k", "2", "--a", "0"]
    yield ["frobnicate", "--input", "n4_t2.table"]
    # exit 2: parse errors
    for name in ("bad_arity.table", "bad_bits.table", "short.table",
                 "trailing.table", "bad_literal.cnf", "no_header.cnf"):
        yield ["grover", "--input", name, "--a", "1"]
    yield ["compile", "--input", "bad_literal.cnf", "--out", "out.ir"]
    # exit 3: capacity
    yield ["grover", "--input", "wide.table", "--a", "1"]
    yield ["count", "--input", "wide.cnf"]
    yield ["dist-serial", "--input", "wide.cnf", "--k", "1", "--a", "1"]


def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    return value


def run_case(argv: list[str]) -> tuple[int, str]:
    """Run one case in the current directory: (exit code, output digest)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    h = hashlib.sha256()
    for line in out.getvalue().splitlines():
        report = json.loads(line)
        report.pop("duration_seconds")
        report["input"].pop("path")
        report.get("parameters", {}).pop("out", None)
        h.update(json.dumps(_canonical(report), sort_keys=True).encode())
    h.update(b"\0" + err.getvalue().encode())
    if argv[0] == "compile" and code == 0:
        h.update(b"\0" + Path(argv[argv.index("--out") + 1]).read_bytes())
    return code, h.hexdigest()


def format_case(argv: list[str], code: int, digest: str) -> str:
    return f"{code} {digest} {' '.join(argv)}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            lines = [format_case(argv, *run_case(argv)) for argv in cases()]
        finally:
            os.chdir(cwd)
    CASES.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} cases to {CASES}", file=sys.stderr)


if __name__ == "__main__":
    main()

"""distgrover benchmark: one closed-loop client running CLI ops in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one `distgrover.cli.main(argv)` call with stdout captured, timed
around the call, on files generated from the seed. With `--trace 0` the
run executes the workload's whole op list (at least MIN_OPS ops, so that
ten or more lie beyond the 90th percentile), repeats the whole list while
another repeat still fits in `--seconds`, and prints the end-to-end
metrics. With `--trace 1` it runs the first half of the op list once
untraced and once with every public function of the package wrapped in
spans, and prints the per-layer metrics. Every op is checked; the last
stdout line is one JSON object {correct, attempted, failed, metrics}.
See perfbench/NOTES.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# one client, one thread: keep numpy's BLAS from starting worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (imports numpy; counted in set-up time)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_OPS = 100     # every op list is at least this long
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def execute(cli, argv):
    """(seconds, exit code or exception text, parsed report, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:     # an op failure; the loop records it
        rc = f"exception {exc!r}"
    seconds = time.perf_counter() - t0
    report = None
    if rc == 0:
        try:
            report = json.loads(out.getvalue().splitlines()[-1])
        except (ValueError, IndexError):
            report = None
    return seconds, rc, report, err.getvalue().strip()


class Runner:
    """Runs ops, checks each one and keeps the timings."""

    def __init__(self, cli, workdir, checker, tracer=None):
        self.cli = cli
        self.workdir = workdir
        self.checker = checker
        self.tracer = tracer
        self.latencies: list[float] = []
        self.quantum_queries = 0
        self.failed = 0
        self.failures: dict[str, list[str]] = {}

    def run(self, op) -> None:
        if self.tracer is not None:
            self.tracer.op = len(self.latencies)
        seconds, rc, report, stderr = execute(
            self.cli, workloads.resolve(op, self.workdir))
        errors = self.checker.check(op, rc, report, self.workdir)
        self.latencies.append(seconds)
        if report is not None and isinstance(report.get("ledger"), dict):
            self.quantum_queries += report["ledger"]["quantum_queries"]
        if errors:
            self.failed += 1
            self.failures.setdefault(op.key, errors + ([stderr] if stderr
                                                       else []))


def setup_once(name, seed, workdir, cli):
    """Generate and write every input, then warm up on the first op of each
    subcommand/oracle kind. Returns (seconds, workload)."""
    t0 = time.perf_counter()
    workload = workloads.generate(name, seed)
    workloads.write_files(workload, workdir)
    kinds = {}
    for op in workload.ops:
        oracle = op.argv[op.argv.index("--oracle") + 1] \
            if "--oracle" in op.argv else None
        kinds.setdefault((op.argv[0], oracle), op)
    for op in kinds.values():
        execute(cli, workloads.resolve(op, workdir))
    return time.perf_counter() - t0, workload


def self_test(tracer, cli, workdir) -> list[str]:
    """n=4 a=1 grover must give grover_iterations(4, 1) iterate spans, and
    est_amp_distribution at m=3 must push 2^m (2^m - 1) / 2 = 28 rows
    through QOperator.apply_batch."""
    from distgrover import estimation, oracle
    path = workdir / "selftest.table"
    path.write_text(workloads.table_text(4, [5]))
    tracer.install()
    try:
        execute(cli, ["grover", "--input", str(path), "--a", "1",
                      "--seed", "1"])
        estimation.est_amp_distribution(oracle.BooleanFunction.from_file(path),
                                        3)
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    tracer.clear()
    iterates = agg.get("grover.apply_grover_iterate", {}).get("calls", 0)
    rows = sum(agg.get("estimation.QOperator.apply_batch", {})
               .get("notes", []))
    hadamards = agg.get("statevector.apply_hadamard_all", {}).get("calls", 0)
    k = workloads.grover_iterations(4, 1)
    errors = []
    if iterates != k:
        errors.append(f"tracer self-test: {iterates} iterate spans, want {k}")
    if rows != 28:
        errors.append(f"tracer self-test: qop_rows {rows}, want 28")
    # one uniform layer + 2 per iterate in grover, one in estimation
    if hadamards != 2 * k + 2:
        errors.append(f"tracer self-test: {hadamards} Hadamard spans, want "
                      f"{2 * k + 2}; a namespace was not rebound")
    return errors


def recorded_digest(workload: str, seed: int):
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get("digests", {}) \
        .get(workload, {}).get(str(seed))


def timed(runner, workload, seconds) -> float:
    """The whole op list, then whole repeats while one more fits in
    `seconds`, so every run measures the same op mix. Returns the summed op
    latency."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for op in workload.ops:
            runner.run(op)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return sum(runner.latencies)


def end_to_end(args, cli, workdir, import_s):
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, workload = setup_once(args.workload, args.seed, workdir, cli)
        setups.append(seconds)
    if len(workload.ops) < MIN_OPS:
        raise ValueError(f"{args.workload} lists {len(workload.ops)} ops, "
                         f"fewer than {MIN_OPS}")
    runner = Runner(cli, workdir, checks.Checker())
    busy = timed(runner, workload, args.seconds)
    exact = checks.exactness_pass(workload, workdir)
    lat = runner.latencies
    n = len(lat)
    p90 = statistics.quantiles(lat, n=10)[8]
    failed = runner.failed + len(exact)
    metrics = {
        "ops_per_s": (n / busy, "op/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "sim_queries_per_s": (runner.quantum_queries / busy, "query/s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ok_ratio": ((n - min(failed, n)) / n, "1"),
    }
    digest = checks.digest(workload, runner.checker.records)
    print(f"workload {args.workload} seed {args.seed}: {n} ops "
          f"({n // len(workload.ops)} x the op list), {busy:.2f} s in "
          f"cli.main; {sum(x > p90 for x in lat)} ops beyond p90")
    print(f"set-up: imports {import_s:.3f} s + median of "
          f"{[round(s, 3) for s in setups]} s")
    print(f"failed_ratio {failed / n:.6f} 1 ({failed} of {n})")
    print(f"exactness pass: {'ok' if not exact else exact}")
    record = recorded_digest(args.workload, args.seed)
    verdict = ("no recorded digest for this seed" if record is None else
               "matches the recorded seed-commit digest" if record == digest
               else f"DIFFERS from the recorded digest {record}")
    print(f"fingerprint {digest} ({verdict})")
    return metrics, n, failed, {**runner.failures, **exact}


def per_layer(args, cli, workdir):
    _, workload = setup_once(args.workload, args.seed, workdir, cli)
    checker = checks.Checker()
    ops = [op for ops in workload.passes[:(len(workload.passes) + 1) // 2]
           for op in ops]
    plain = Runner(cli, workdir, checker)
    for op in ops:
        plain.run(op)
    tracer = tracing.Tracer()
    errors = self_test(tracer, cli, workdir)
    traced = Runner(cli, workdir, checker, tracer)
    tracer.install()
    try:
        for op in ops:
            traced.run(op)
    finally:
        tracer.uninstall()
    wall = sum(traced.latencies)
    metrics = tracing.layer_metrics(tracer.aggregate())
    layer_total = sum(metrics[f"{layer}.self_s"][0]
                      for layer in tracing.LAYERS)
    metrics["trace.overhead_ratio"] = (wall / sum(plain.latencies), "1")
    metrics["trace.self_coverage"] = (layer_total / wall, "1")
    out = HERE / ".out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}.jsonl")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops (first "
          f"half of the op list), traced {wall:.2f} s vs untraced "
          f"{sum(plain.latencies):.2f} s, {len(tracer)} spans written to "
          f"{out.name}/spans-{args.workload}.jsonl")
    ranking = sorted(((metrics[f"{layer}.self_s"][0], layer)
                      for layer in tracing.LAYERS), reverse=True)
    print("layer self time: " + ", ".join(
        f"{layer} {s:.3f} s ({s / wall:.1%})" for s, layer in ranking))
    print("no layer has a queue, so there are no wait-time metrics")
    failures = dict(plain.failures, **traced.failures)
    if errors:
        failures["self-test"] = errors
    failed = plain.failed + traced.failed + len(errors)
    return metrics, 2 * len(ops), failed, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "distgrover" / "__init__.py").is_file():
        print(f"error: no distgrover package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from distgrover import cli
    if Path(cli.__file__).resolve().parent != SRC / "distgrover":
        print(f"error: imported distgrover from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=HERE / ".work"))
    try:
        if args.trace:
            metrics, attempted, failed, failures = per_layer(args, cli,
                                                             workdir)
        else:
            metrics, attempted, failed, failures = end_to_end(
                args, cli, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, errors in list(failures.items())[:10]:
        print(f"FAILED {key}: {errors}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

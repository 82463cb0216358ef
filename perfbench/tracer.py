"""Span tracer that wraps the package's public functions from outside.

`Tracer.install` wraps every public function and public method defined in
the nine layer modules, rebinding each function in every `distgrover`
namespace that imported it by name (`apply_hadamard_all` is bound in
`statevector`, `grover`, `estimation` and the package itself), and
`uninstall` puts every original back. Spans stay in flat arrays in memory
until `write` dumps them; a span's self time is its duration minus the
durations of its direct children.

No layer has a queue, so there is no waiting to record: per-layer numbers
are call counts, busy (self) time and a few computed sizes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import tracemalloc
from array import array
from time import perf_counter

LAYERS = ("cli", "cnf", "oracle", "statevector", "grover", "estimation",
          "distributed", "compiler", "ledger")


def _note_for(name: str):
    """Per-call counts taken where the work happens:
    (args, kwargs, result) -> value.
    Byte counts are computed from array shapes, not measured."""
    if name == "statevector.apply_hadamard_all":
        return lambda a, kw, r: a[0].amps.nbytes
    if name == "estimation.QOperator.apply_batch":
        return lambda a, kw, r: a[1].shape[0]
    if name == "compiler.apply_circuit":
        return lambda a, kw, r: (len(a[0].gates),
                                 16 << (a[2] + a[0].counter_qubits))
    if name == "ledger.QueryLedger.add_quantum":
        return lambda a, kw, r: (a[1], kw.get("phase", a[2] if len(a) > 2
                                             else "quantum"))
    if name == "ledger.QueryLedger.add_classical":
        return lambda a, kw, r: a[1]
    if name == "grover.run_grover":
        return lambda a, kw, r: int(r.is_solution)
    if name in ("distributed.run_serial", "distributed.run_parallel"):
        return lambda a, kw, r: (1 << a[1],
                                 sum(len(m.attempts) for m in r.machines),
                                 sum(s for m in r.machines
                                     for _, _, s in m.attempts))
    if name == "cnf.parse_dimacs":
        return lambda a, kw, r: len(a[0])
    return None


# Spans whose peak traced allocation (tracemalloc) is recorded, keyed by the
# argument shapes that fix it. Only the first call of each shape runs under
# tracemalloc, which would otherwise inflate these layers' self time by half.
PEAK_SHAPES = {
    "estimation.est_amp_distribution": lambda a, kw: (a[0].arity, a[1]),
    "compiler.apply_circuit": lambda a, kw: (a[2], a[0].counter_qubits),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.clear()
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.op = 0

    def clear(self) -> None:
        self.name_of = array("i")
        self.parent = array("q")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.peaks: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.name_of)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, func, name: str):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        note = _note_for(name)
        shape = PEAK_SHAPES.get(name)
        peaked = set()
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(self.name_of)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            own_malloc = False
            if shape is not None and not tracemalloc.is_tracing():
                key = shape(args, kwargs)
                own_malloc = key not in peaked
                if own_malloc:
                    peaked.add(key)
                    tracemalloc.start()
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
                if note is not None:
                    self.notes[idx] = note(args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if own_malloc:
                    self.peaks[idx] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.start[idx] = t0
                self.end[idx] = t1

        return wrapper

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, name)
            else:
                continue        # properties and data
            setattr(cls, attr, wrapped)
            self._restore.append((cls, attr, raw))

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"distgrover.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or \
                        getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[value] = self._wrap(value, f"{layer}.{attr}")
                elif inspect.isclass(value):
                    self._wrap_class(value, layer)
        for modname, module in list(sys.modules.items()):
            if modname != "distgrover" and \
                    not modname.startswith("distgrover."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        """Put back every original; raises if one did not stick."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        for owner, attr, original in self._restore:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner}.{attr}")
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """{span name: {calls, total_s, self_s, notes, peak}}."""
        count = len(self)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(count):
            name = self.names[self.name_of[i]]
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "notes": [],
                                        "peak": 0})
            dur = self.end[i] - self.start[i]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child[i]
            if i in self.notes:
                agg["notes"].append(self.notes[i])
            agg["peak"] = max(agg["peak"], self.peaks.get(i, 0))
        return out

    def write(self, path) -> None:
        """One JSON line per span: op, id, parent, name, start, end."""
        with open(path, "w") as fh:
            for i in range(len(self)):
                fh.write(json.dumps(
                    {"op": self.op_of[i], "id": i, "parent": self.parent[i],
                     "name": self.names[self.name_of[i]],
                     "start": self.start[i], "end": self.end[i]}) + "\n")


def layer_metrics(agg: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics {name: (value, unit)} from aggregated spans."""

    def calls(*names):
        return sum(agg[n]["calls"] for n in names if n in agg)

    def self_s(*names):
        return sum(agg[n]["self_s"] for n in names if n in agg)

    def total_s(*names):
        return sum(agg[n]["total_s"] for n in names if n in agg)

    def notes(name):
        return agg[name]["notes"] if name in agg else []

    def peak_mib(name):
        return agg[name]["peak"] / 2**20 if name in agg else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def layer_self(layer):
        return sum(a["self_s"] for n, a in agg.items()
                   if n.startswith(layer + "."))

    quantum = notes("ledger.QueryLedger.add_quantum")
    counting_queries = sum(c for c, phase in quantum if phase == "counting")
    qop_rows = sum(notes("estimation.QOperator.apply_batch"))
    circuit = notes("compiler.apply_circuit")
    runs = notes("distributed.run_serial") + notes("distributed.run_parallel")
    attempts = sum(r[1] for r in runs)
    dist_runs = ("distributed.run_serial", "distributed.run_parallel")
    grover_runs = notes("grover.run_grover")
    m = {
        "statevector.hadamard.calls": (calls("statevector.apply_hadamard_all"),
                                       "count"),
        "statevector.hadamard.self_s": (
            self_s("statevector.apply_hadamard_all"), "s"),
        "statevector.diagonal.self_s": (
            self_s("statevector.apply_diagonal_phase"), "s"),
        "statevector.measure.self_s": (
            self_s("statevector.measurement_distribution",
                   "statevector.sample"), "s"),
        "statevector.controlled_powers.self_s": (
            self_s("statevector.apply_controlled_powers"), "s"),
        "statevector.state_bytes": (
            max(notes("statevector.apply_hadamard_all"), default=0), "B"),
        "oracle.load.self_s": (self_s(
            "oracle.BooleanFunction.from_file",
            "oracle.BooleanFunction.from_truth_table",
            "oracle.BooleanFunction.from_cnf",
            "oracle.BooleanFunction.constant"), "s"),
        "oracle.phase.calls": (
            calls("oracle.BooleanFunction.apply_phase_oracle"), "count"),
        "oracle.phase.self_s": (
            self_s("oracle.BooleanFunction.apply_phase_oracle"), "s"),
        "oracle.restrict.self_s": (
            self_s("oracle.BooleanFunction.restrict"), "s"),
        "oracle.quantum_queries": (sum(c for c, _ in quantum), "count"),
        "grover.runs": (calls("grover.run_grover"), "count"),
        "grover.iterates": (calls("grover.apply_grover_iterate"), "count"),
        "grover.iterate.self_s": (self_s("grover.apply_grover_iterate"), "s"),
        "grover.success_ratio": (ratio(sum(grover_runs), len(grover_runs)),
                                 "1"),
        "estimation.est_amp.calls": (
            calls("estimation.est_amp_distribution"), "count"),
        "estimation.est_amp.self_s": (
            self_s("estimation.est_amp_distribution"), "s"),
        "estimation.qop.self_s": (
            self_s("estimation.QOperator.apply_batch",
                   "estimation.QOperator.__call__"), "s"),
        "estimation.qop_rows": (qop_rows, "count"),
        "estimation.rows_per_query": (ratio(qop_rows, counting_queries), "1"),
        "estimation.qft.self_s": (self_s("estimation.apply_qft"), "s"),
        "estimation.peak_mib": (peak_mib("estimation.est_amp_distribution"),
                                "MiB"),
        "distributed.runs": (calls(*dist_runs), "count"),
        "distributed.machines": (sum(r[0] for r in runs), "count"),
        "distributed.sweep_attempts": (attempts, "count"),
        "distributed.useful_ratio": (ratio(sum(r[2] for r in runs), attempts),
                                     "1"),
        "distributed.counting_share": (ratio(
            total_s("distributed.build_candidate_set"), total_s(*dist_runs)),
            "1"),
        "distributed.self_s": (layer_self("distributed"), "s"),
        "cnf.parse.self_s": (self_s("cnf.parse_dimacs"), "s"),
        "cnf.input_bytes": (sum(notes("cnf.parse_dimacs")), "B"),
        "cnf.truth_values.self_s": (self_s("cnf.CnfFormula.truth_values"),
                                    "s"),
        "compiler.compile.self_s": (self_s(
            "compiler.compile_phase_oracle", "compiler.build_uk",
            "compiler.oracle_from_formula", "compiler.oracle_from_circuit",
            "compiler.gate_count", "compiler.CircuitIR.to_text"), "s"),
        "compiler.circuit.calls": (calls("compiler.apply_circuit"), "count"),
        "compiler.circuit.self_s": (self_s("compiler.apply_circuit"), "s"),
        "compiler.gates_applied": (sum(g for g, _ in circuit), "count"),
        "compiler.ext_amp_bytes": (max((b for _, b in circuit), default=0),
                                   "B"),
        "compiler.peak_mib": (peak_mib("compiler.apply_circuit"), "MiB"),
        "cli.self_s": (layer_self("cli"), "s"),
        "ledger.classical_queries": (
            sum(notes("ledger.QueryLedger.add_classical")), "count"),
    }
    for layer in LAYERS:
        m.setdefault(f"{layer}.self_s", (layer_self(layer), "s"))
    return m

"""The benchmark's own checks, run in-process: perfbench/run.py's tracer
self-test (the iterate spans, Hadamard spans and estimation rows one small
`grover` run and one counting distribution must produce) and
perfbench/checks.py's exactness pass (exact distributions of listed ops
against closed forms) on every workload at seed 1.

The perfbench modules are imported from their folder, as run.py imports
them, without writing bytecode into that folder. run.py pins the BLAS
thread-count variables at import, so those are set through `monkeypatch`
first and restored afterwards.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from distgrover import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("run", "tracer", "workloads", "checks")


@pytest.fixture
def perfbench(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    shadowed = [name for name in MODULES if name in sys.modules]
    assert not shadowed, f"modules already imported: {shadowed}"
    try:
        yield {name: importlib.import_module(name) for name in MODULES}
    finally:
        for name in MODULES:
            sys.modules.pop(name, None)


def test_tracer_self_test_passes(perfbench, tmp_path):
    run, tracer = perfbench["run"], perfbench["tracer"]
    assert run.self_test(tracer.Tracer(), cli, tmp_path) == []


def test_exactness_pass_holds_on_every_workload(perfbench, tmp_path):
    workloads, checks = perfbench["workloads"], perfbench["checks"]
    assert workloads.WORKLOADS
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workloads.generate(name, 1)
        workloads.write_files(workload, workdir)
        assert checks.exactness_pass(workload, workdir) == {}, name

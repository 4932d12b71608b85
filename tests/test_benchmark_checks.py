"""The benchmark's own output checks, run on the library's public return shapes.

perfbench/workloads.py builds each benchmark workload as a cycle of public
calls, each with a check of its output; a workload whose checks fail
counts against the benchmark.  These tests load that file as it stands
(writing no bytecode next to it) and run the seed-1 API cycles.
"""

import importlib.util
import pathlib
import sys

import pytest

import minmaxent

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.mark.parametrize("workload", ["minent-batch", "hmax-purified"])
def test_every_benchmark_check_passes(workload, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    ops = workloads.API_WORKLOADS[workload](minmaxent, 1)
    assert ops
    failures = {op.label: reason for op in ops if (reason := op.check(op.fn(*op.args))) is not None}
    assert failures == {}

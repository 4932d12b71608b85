"""The benchmark's own output checks and tracer, run against the library as it stands.

perfbench/workloads.py builds each benchmark workload as a cycle of public
calls, each with a check of its output; a workload whose checks fail
counts against the benchmark.  perfbench/tracing.py records spans by
patching the library's module bindings from outside, so a renamed binding
breaks a traced run.  These tests load both files as they stand (writing
no bytecode next to them), run the seed-1 API cycles, bounding their
solver iterations, and one traced verify run.
"""

import importlib.util
import pathlib
import sys

import pytest

import minmaxent
from minmaxent import sdp

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# solver iterations in the seed-1 cycle: an upper bound, so that no change to the centering or the
# step lengths adds iterations unseen (OpenBLAS 0.3.31, one or two threads: 414 and 137; Mehrotra's
# centering exponent took 417 and 135)
MAX_ITERATIONS = {"minent-batch": 417, "hmax-purified": 137}


@pytest.mark.parametrize("workload", ["minent-batch", "hmax-purified"])
def test_every_benchmark_check_passes(workload, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    iterations, solve = [], sdp.solve

    def counted(problem):
        sol = solve(problem)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(sdp, "solve", counted)
    ops = workloads.API_WORKLOADS[workload](minmaxent, 1)
    assert ops
    failures = {op.label: reason for op in ops if (reason := op.check(op.fn(*op.args))) is not None}
    assert failures == {}
    assert sum(iterations) <= MAX_ITERATIONS[workload]


def test_tracer_patches_and_restores_every_binding(monkeypatch, capsys):
    import minmaxent.cli as cli
    import minmaxent.verify  # noqa: F401  (the tracer wraps verify's criteria and bindings)

    tracer = _load("tracing", monkeypatch).Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert cli.run(["verify", "--trials", "1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert any(span["name"] == "sdp.solve" for span in tracer.spans)
    assert patches and all(getattr(module, attr) is orig for module, attr, orig in patches)

"""The benchmark's own output checks and tracer, run against the library as it stands.

perfbench/workloads.py builds each benchmark workload as a cycle of public
calls, each with a check of its output; a workload whose checks fail
counts against the benchmark.  perfbench/tracing.py records spans by
patching the library's module bindings from outside, so a renamed binding
breaks a traced run.  These tests load both files as they stand (writing
no bytecode next to them), run the seed-1 API cycles and one traced
verify run.
"""

import importlib.util
import pathlib
import sys

import pytest

import minmaxent

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["minent-batch", "hmax-purified"])
def test_every_benchmark_check_passes(workload, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    ops = workloads.API_WORKLOADS[workload](minmaxent, 1)
    assert ops
    failures = {op.label: reason for op in ops if (reason := op.check(op.fn(*op.args))) is not None}
    assert failures == {}


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

"""Tests of the benchmark itself.

Run from the root of a source checkout:

    python3 -m pytest perfbench/test_bench.py

The counter test runs three traced workloads twice each and takes a few
minutes; the others take seconds.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["minent-batch", "hmax-purified"])
def test_computed_counters_repeat_for_the_same_seed(workload):
    # BLAS is pinned to one thread on these workloads, so both runs use the
    # same thread count and the same inputs.
    first = _result(_run(workload, 5, 1))["metrics"]
    second = _result(_run(workload, 5, 1))["metrics"]
    assert first["sdp.solve_calls"]["value"] > 0
    for name in tracing.COUNTERS:
        assert first[name] == second[name], name


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in tracing.LAYER_METRICS.items()
    ]
    res = _result(_run("minent-batch", 1, 0))
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_criterion8_state_matches_the_public_construction():
    import minmaxent as mm

    joint, k, d = workloads.crit8_joint_state()
    rng = np.random.default_rng(19)
    probs = 0.1 + rng.random(3)
    probs /= probs.sum()
    ens = mm.CqEnsemble(probs, tuple(mm.random_density(3, 589 + x) for x in range(3)))
    assert (k, d) == (3, 3)
    assert np.array_equal(mm.cq_to_density(ens).mat, joint)


def test_checks_reject_a_wrong_value():
    import minmaxent as mm

    op = next(o for o in workloads.minent_batch(mm, 1) if o.kind == "entropy.min_entropy")
    rep = op.fn(*op.args)
    assert op.check(rep) is None
    wrong = type(rep)(rep.quantity, rep.value_bits + 1e-3, rep.certificate, rep.optimizer_sigma, rep.dual_optimizer, rep.gap)
    assert op.check(wrong) is not None


def test_refuses_to_run_without_the_library(tmp_path):
    proc = _run("minent-batch", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""

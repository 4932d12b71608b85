"""Acceptance suite: every library identity at its stated tolerance.

One test per criterion, run at the full trial counts through the same
runner the CLI verify command uses; each prints a PASS/FAIL line (visible
with -s, and mirrored by the test name in verbose mode) and fails with
the offending rows listed.  Each also counts the SDP solves its criterion
runs and requires every one to end optimal.  A last test checks that
run_all's criteria never re-solve one another's instances.
"""

import pytest

from minmaxent import sdp
from minmaxent.verify import run_all, run_criterion

SEED = 0
# SDP solves per criterion at SEED, one per trial: 412 in all
SOLVES = {1: 50, 2: 21, 3: 50, 4: 50, 5: 86, 6: 60, 7: 40, 8: 20, 9: 30, 10: 5}


@pytest.fixture(autouse=True)
def solves(monkeypatch) -> list:
    """The status of every sdp.solve call the test makes."""
    statuses, solve = [], sdp.solve

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(sdp, "solve", counted)
    return statuses


def _run(index: int, solves: list) -> None:
    result = run_criterion(index, seed=SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {index:02d} [{status}] {result.title} ({len(result.reports)} checks)")
    bad = [r for r in result.reports if not r.passed]
    detail = "\n".join(
        f"  {r.quantity}: main={r.main_value!r} oracle={r.oracle_value!r} "
        f"gap={r.gap:.3e} tol={r.tolerance:.1e} ({r.method})"
        for r in bad
    )
    assert result.passed, f"criterion {index} failed:\n{detail}"
    assert solves == [sdp.STATUS_OPTIMAL] * SOLVES[index]


def test_criterion_01_zero_duality_gap(solves):
    _run(1, solves)


def test_criterion_02_guessing_probability(solves):
    _run(2, solves)


def test_criterion_03_recovery_channel(solves):
    _run(3, solves)


def test_criterion_04_decoupling_accuracy(solves):
    _run(4, solves)


def test_criterion_05_closed_forms(solves):
    _run(5, solves)


def test_criterion_06_additivity(solves):
    _run(6, solves)


def test_criterion_07_strong_subadditivity(solves):
    _run(7, solves)


def test_criterion_08_key_secrecy(solves):
    _run(8, solves)


def test_criterion_09_target_fidelity(solves):
    _run(9, solves)


def test_criterion_10_direct_search_bracket(solves):
    _run(10, solves)


@pytest.mark.parametrize("seed", [0, 1])
def test_no_two_solves_share_an_objective(seed, solves, monkeypatch):
    # each criterion draws its own instances, so every solve of run_all is a new problem
    objectives, solve = [], sdp.solve

    def recorded(problem):
        objectives.append((problem.d_A, problem.d_B, problem.objective.mat.tobytes()))
        return solve(problem)

    monkeypatch.setattr(sdp, "solve", recorded)
    run_all(seed, trials=4)
    assert len(set(objectives)) == len(objectives) == len(solves)

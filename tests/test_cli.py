import errno
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from minmaxent import (
    BipartiteState,
    HermitianOperator,
    OracleReport,
    cli,
    load_state,
    max_entropy,
    min_entropy,
    random_density,
    save_state,
)
from minmaxent import verify as verify_mod
from minmaxent.cli import run

from conftest import lower_triangle_fails


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("library")
    assert run(["gen", "--input", str(outdir), "--seed", "7"]) == 0
    return outdir


def test_gen_writes_the_library(library):
    names = sorted(os.listdir(library))
    assert "phi2.json" in names and "helstrom.json" in names
    assert "random_2x3.json" in names and "target_2.json" in names


def test_gen_is_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(["gen", "--input", str(d1), "--seed", "3"]) == 0
    assert run(["gen", "--input", str(d2), "--seed", "3"]) == 0
    capsys.readouterr()
    for name in os.listdir(d1):
        with open(d1 / name) as f1, open(d2 / name) as f2:
            assert f1.read() == f2.read()


def test_hmin_text_output(library, capsys):
    assert run(["hmin", "--input", str(library / "phi2.json")]) == 0
    out = capsys.readouterr().out
    assert "value_bits = -1.000000" in out
    assert "status = optimal" in out


def test_hmin_hmax_json_bounds(library, capsys):
    # primal_value is the sigma-side bound tr(sigma), dual_value is tr(rho E); every
    # field is read straight from the report and its certificate
    state = library / "random_2x3.json"
    for verb, entropy, sign, quantity in (
        ("hmin", min_entropy, -1.0, "min_entropy"),
        ("hmax", max_entropy, 1.0, "max_entropy"),
    ):
        assert run([verb, "--input", str(state), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["primal_value"] >= obj["dual_value"] - 1e-9
        assert abs(obj["primal_value"] - obj["value"]) <= 1e-7
        assert obj["gap"] == pytest.approx(obj["primal_value"] - obj["dual_value"], abs=1e-12)
        rep = entropy(load_state(str(state)))
        assert obj == {
            "quantity": quantity,
            "value_bits": rep.value_bits,
            "value": 2.0 ** (sign * rep.value_bits),
            "gap": rep.gap,
            "primal_value": -rep.certificate.dual_value,
            "dual_value": -rep.certificate.primal_value,
            "status": "optimal",
        }


def test_pguess_json_output(library, capsys):
    assert run(["pguess", "--input", str(library / "helstrom.json"), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["value"] - (0.5 + 0.5 / math.sqrt(2.0))) <= 1e-6


def test_hmax_on_product_state(library, capsys):
    assert run(["hmax", "--input", str(library / "product_2x2.json")]) == 0
    assert "value_bits = 1.000000" in capsys.readouterr().out


def test_qcorr_and_qdecpl(library, capsys):
    assert run(["qcorr", "--input", str(library / "phi2.json"), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["value"] - 2.0) <= 1e-6
    assert run(["qdecpl", "--input", str(library / "phi2.json"), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["value"] - 0.5) <= 1e-6


def test_psecr(library, capsys):
    assert run(["psecr", "--input", str(library / "helstrom.json"), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["quantity"] == "key_secrecy"
    assert 1.0 <= obj["value"] <= 2.0


def test_fidmax(library, capsys):
    code = run(
        [
            "fidmax",
            "--input", str(library / "random_2x2.json"),
            "--target", str(library / "target_2.json"),
            "--format", "json",
        ]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert 0.0 <= obj["value"] <= 1.0 + 1e-9


def test_json_output_is_deterministic(library, capsys):
    for argv in (
        ["hmin", "--input", str(library / "random_2x3.json"), "--format", "json"],
        ["verify", "--seed", "7", "--trials", "1", "--format", "json"],
    ):
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second


def test_malformed_file_exits_2_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d_A": 2,\n "d_B": 2,\n')
    assert run(["hmin", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and ":3:" in err


def test_malformed_target_is_reported_under_its_own_path(library, tmp_path, capsys):
    state, bad = library / "random_2x2.json", tmp_path / "bad_target.json"
    bad.write_text('{"d_A": 2,\n "d_B": 2,\n')
    assert run(["fidmax", "--input", str(state), "--target", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"{bad}:3:")
    assert str(state) not in captured.err and captured.err.count("\n") == 1


def test_structural_error_is_reported_under_its_own_path(library, tmp_path, capsys):
    state, nokey = library / "random_2x2.json", tmp_path / "nokey.json"
    nokey.write_text('{"d_A": 2}')
    for argv in (
        ["hmin", "--input", str(nokey)],
        ["fidmax", "--input", str(nokey), "--target", str(state)],
        ["fidmax", "--input", str(state), "--target", str(nokey)],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"{nokey}: missing key 'd_B'\n", argv


def test_closed_stdout_pipe_exits_2_without_a_traceback(library):
    # the reader is gone before the verb writes: stdout is an unwritable path
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-m", "minmaxent.cli", "hmin", "--input", str(library / "phi2.json")]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == f"<stdout>: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize(
    "target, message",
    [
        ("phi3.json", "target must have d_A = d_B = 2, got 3 x 3"),
        ("product_2x2.json", "target is not pure (largest eigenvalue"),
    ],
)
def test_fidmax_rejects_a_mis_sized_or_mixed_target(library, capsys, target, message):
    argv = ["fidmax", "--input", str(library / "random_2x2.json"), "--target", str(library / target)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"{library / target}: {message}")


def test_hmin_on_a_state_whose_last_step_failed_to_factor(tmp_path, capsys):
    # near this rank-2 3x3 state's optimum a step formed outside the NT-scaled frame fails to factor
    path = tmp_path / "rank2_3x3.json"
    save_state(BipartiteState(random_density(9, 10, rank=2), 3, 3), str(path))
    assert run(["hmin", "--input", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "optimal"


def test_wrong_structure_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad2.json"
    bad.write_text('{"d_A": 2, "d_B": 2, "matrix": [[1, 2], [3, 4]]}')
    assert run(["hmin", "--input", str(bad)]) == 2


def test_non_finite_entries_exit_2(tmp_path, capsys):
    # Python's json reads NaN; such a state used to solve (hmax exit 0, hmin exit 1)
    state = tmp_path / "nan_state.json"
    state.write_text(
        '{"d_A": 2, "d_B": 2, "matrix": [[[NaN,0],[0,0],[0,0],[0,0]], [[0,0],[0.25,0],[0,0],[0,0]],'
        ' [[0,0],[0,0],[0.25,0],[0,0]], [[0,0],[0,0],[0,0],[0.25,0]]]}'
    )
    ensemble = tmp_path / "nan_probs.json"
    ensemble.write_text(
        '{"probs": [0.5, NaN], "states": [[[[1,0],[0,0]],[[0,0],[0,0]]], [[[0,0],[0,0]],[[0,0],[1,0]]]]}'
    )
    for verb, path in (("hmin", state), ("hmax", state), ("pguess", ensemble), ("psecr", ensemble)):
        assert run([verb, "--input", str(path)]) == 2
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, text, message",
    [
        ("hmin", '{"d_A": true, "d_B": 2, "matrix": [[[1,0],[0,0]],[[0,0],[0,0]]]}',
         "d_A and d_B must be integers"),
        ("hmin", '{"d_A": 1, "d_B": 2, "matrix": [[[true,0],[0,0]],[[0,0],[0,0]]]}',
         "matrix: entry (0,0) must be a [re, im] pair"),
        ("pguess", '{"probs": [true, false], "states": [[[[1,0],[0,0]],[[0,0],[0,0]]], [[[0,0],[0,0]],[[0,0],[1,0]]]]}',
         "probs must be a list of numbers"),
    ],
    ids=["dimension", "matrix_entry", "probs"],
)
def test_json_booleans_are_not_numbers(tmp_path, capsys, verb, text, message):
    # JSON true and false parse as bool, an int subclass, so each numeric check excludes bool
    # explicitly: else a boolean dimension reaches the solver, and a boolean entry reads as 1 or 0
    path = tmp_path / "bools.json"
    path.write_text(text)
    assert run([verb, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"{path}: {message}\n"


@pytest.mark.parametrize(
    "verb, text, message",
    [
        ("hmin", '{"d_A": -1, "d_B": -1, "matrix": [[[1,0]]]}', "subsystem dimensions must be positive"),
        ("hmin", '{"d_A": 1, "d_B": 1, "matrix": []}', "matrix: expected a nonempty list of rows"),
        ("hmin", '{"d_A": 1, "d_B": 2, "matrix": [[[1,0],[0,0]],[[0,0]]]}', "matrix: row 1 must be a list of 2 entries"),
        ("hmin", "[1, 2]", "expected a JSON object"),
        ("pguess", "[1, 2]", "expected a JSON object"),
        ("pguess", '{"probs": [0.5, 0.5]}', "missing key 'states'"),
        ("pguess", '{"probs": [0.5, 0.5], "states": [[[[1,0],[0,0]],[[0,0],[0,0]]]]}',
         "states must be a list matching probs in length"),
        ("pguess", '{"probs": [], "states": []}', "probs must be a nonempty vector"),
        ("pguess", '{"probs": [1.5, -0.5], "states": [[[[1,0],[0,0]],[[0,0],[0,0]]], [[[0,0],[0,0]],[[0,0],[1,0]]]]}',
         "probabilities must be nonnegative"),
    ],
    ids=["dimensions", "no_rows", "ragged_row", "state_array", "ensemble_array", "no_states", "short_states",
         "no_probs", "negative_prob"],
)
def test_file_structure_errors_exit_2(tmp_path, capsys, verb, text, message):
    # each structural check of the state and ensemble loaders names the file and exits 2
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run([verb, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"{path}: {message}\n"


_HUGE = "1" + "0" * 400  # an integer literal too large for a float
_DEEP = b"[" * 200000 + b"]" * 200000  # arrays nested past the parser's recursion limit
_NOT_UTF8 = b'{"d_A": 1, "d_B": 1, "matrix": [[[1, 0]]]} \xff'


@pytest.mark.parametrize(
    "verb, content, message",
    [
        ("hmin", f'{{"d_A": 1, "d_B": 1, "matrix": [[[{_HUGE}, 0]]]}}'.encode(), "int too large to convert to float"),
        ("pguess", f'{{"probs": [{_HUGE}], "states": [[[[1, 0]]]]}}'.encode(), "int too large to convert to float"),
        ("fidmax", f'{{"d_A": 2, "d_B": 2, "matrix": [[[{_HUGE}, 0]]]}}'.encode(), "int too large to convert to float"),
        ("hmin", _DEEP, "maximum recursion depth exceeded"),
        ("pguess", _DEEP, "maximum recursion depth exceeded"),
        ("fidmax", _DEEP, "maximum recursion depth exceeded"),
        ("hmin", _NOT_UTF8, "'utf-8' codec can't decode byte 0xff"),
        ("pguess", _NOT_UTF8, "'utf-8' codec can't decode byte 0xff"),
        ("fidmax", _NOT_UTF8, "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["state_overflow", "ensemble_overflow", "target_overflow", "state_deep", "ensemble_deep", "target_deep",
         "state_not_utf8", "ensemble_not_utf8", "target_not_utf8"],
)
def test_undecodable_files_exit_2(library, tmp_path, capsys, verb, content, message):
    # errors of the file's content that are not JSON syntax or structure also name the file and exit 2
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    if verb == "fidmax":
        argv = [verb, "--input", str(library / "random_2x2.json"), "--target", str(path)]
    else:
        argv = [verb, "--input", str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"{path}: {message}") and captured.err.count("\n") == 1


def test_missing_file_exits_2(tmp_path, capsys):
    assert run(["hmin", "--input", str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err == f"{tmp_path / 'nope.json'}: file not found\n"


def test_unreadable_path_exits_2_naming_it(library, capsys):
    # the OSErrors past "file not found": a library path that is a file, inputs that are directories
    state = library / "phi2.json"
    for argv, path in (
        (["gen", "--input", str(state)], state),
        (["hmin", "--input", str(library)], library),
        (["fidmax", "--input", str(state), "--target", str(library)], library),
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"{path}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_json_key_order(library, tmp_path, capsys, monkeypatch):
    entropy_keys = ["quantity", "value_bits", "value", "gap", "primal_value", "dual_value", "status"]
    bits_keys = ["quantity", "value", "value_bits"]
    state, ensemble = str(library / "random_2x3.json"), str(library / "helstrom.json")
    fidmax = ["fidmax", "--input", str(library / "random_2x2.json"), "--target", str(library / "target_2.json")]
    for argv, keys in (
        (["hmin", "--input", state], entropy_keys),
        (["hmax", "--input", state], entropy_keys),
        (["qcorr", "--input", state], bits_keys + ["achieved_overlap", "predicted_overlap"]),
        (["qdecpl", "--input", state], bits_keys),
        (["pguess", "--input", ensemble], bits_keys),
        (["psecr", "--input", ensemble], bits_keys),
        (fidmax, ["quantity", "value"]),
        (["gen", "--input", str(tmp_path)], ["written"]),
    ):
        assert run(argv + ["--format", "json"]) == 0, argv
        assert list(json.loads(capsys.readouterr().out)) == keys, argv
    monkeypatch.setattr(verify_mod, "CRITERIA", verify_mod.CRITERIA[:2])
    assert run(["verify", "--trials", "1", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["criteria", "all_passed"]
    check_keys = ["quantity", "oracle_value", "main_value", "gap", "tolerance", "method", "passed"]
    for crit in out["criteria"]:
        assert list(crit) == ["index", "title", "passed", "checks"]
        assert crit["checks"] and all(list(check) == check_keys for check in crit["checks"])


def test_unknown_flag_rejected(library):
    with pytest.raises(SystemExit) as exc:
        run(["hmin", "--input", str(library / "phi2.json"), "--bogus"])
    assert exc.value.code == 2


def test_unknown_verb_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["entropy"])
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["gen", "verify"])
def test_negative_seed_rejected_at_parse_time(verb, tmp_path, capsys):
    # numpy's generators refuse a negative seed deep in the call; the parser names the flag
    with pytest.raises(SystemExit) as exc:
        run([verb, "--seed", "-1"] + (["--input", str(tmp_path / "lib")] if verb == "gen" else []))
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "lib").exists()


def test_verify_small(capsys):
    code = run(["verify", "--seed", "7", "--trials", "1", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["all_passed"] is True
    assert len(out["criteria"]) == 10
    # the gap rule: |main - oracle|, except the one-sided checks
    one_sided = {
        "recovery_cp.": lambda main, oracle: max(0.0, oracle - main),
        "ssa.": lambda main, oracle: max(0.0, main - oracle),
        "target_sampled.": lambda main, oracle: max(0.0, main - oracle),
    }
    for crit in out["criteria"]:
        assert crit["passed"] is True
        for check in crit["checks"]:
            rule = next(
                (f for prefix, f in one_sided.items() if check["quantity"].startswith(prefix)),
                lambda main, oracle: abs(main - oracle),
            )
            assert check["gap"] == rule(check["main_value"], check["oracle_value"])


def test_verify_text_lists_every_check_and_verdict(capsys, monkeypatch):
    monkeypatch.setattr(verify_mod, "CRITERIA", verify_mod.CRITERIA[:2])
    assert run(["verify", "--seed", "7", "--trials", "1", "--format", "json"]) == 0
    criteria = json.loads(capsys.readouterr().out)["criteria"]
    assert run(["verify", "--seed", "7", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = []
    for crit in criteria:
        expected += [f"  [ok ] {c['quantity']:<28s} main=" for c in crit["checks"]]
        expected.append(f"criterion {crit['index']:02d}  {crit['title']:<52s} PASS")
    assert len(lines) == len(expected) + 1 and lines[-1] == "overall: PASS"
    for line, start in zip(lines, expected):
        assert line.startswith(start), line


_SCIPY_FREE_RUN = """
import sys
import minmaxent.cli as cli

def check(step):
    assert "scipy" not in sys.modules, f"scipy loaded by {step}"

check("import minmaxent.cli")
lib = sys.argv[1]
assert cli.run(["gen", "--input", lib, "--seed", "7"]) == 0
check("gen")
for verb, name in [("hmin", "random_2x3"), ("hmax", "random_2x3"), ("qcorr", "phi2"),
                   ("qdecpl", "phi2"), ("pguess", "helstrom"), ("psecr", "helstrom")]:
    assert cli.run([verb, "--input", f"{lib}/{name}.json"]) == 0, verb
    check(verb)
fidmax = ["fidmax", "--input", f"{lib}/random_2x2.json", "--target", f"{lib}/target_2.json"]
assert cli.run(fidmax) == 0
check("fidmax")
assert cli.run(["verify", "--trials", "1", "--seed", "7"]) == 0
check("verify")

# the eigensolver's fallback, forced by making numpy's first route fail
import numpy as np
from minmaxent import core

def lower_fails(route):
    def patched(s, UPLO="L"):
        if UPLO == "L":
            raise np.linalg.LinAlgError("injected failure")
        return route(s, UPLO=UPLO)
    return patched

np.linalg.eigh, np.linalg.eigvalsh = lower_fails(np.linalg.eigh), lower_fails(np.linalg.eigvalsh)
a = np.load(sys.argv[2])
(w, v), values = core._eigh(a), core._eigh(a, vectors=False)
check("the eigensolver fallback")
assert np.linalg.norm(a @ v - v * w) <= 1e-12 * np.abs(w).max()
assert np.array_equal(values, np.linalg.eigvalsh(a, UPLO="U"))
"""


def test_cli_verbs_and_eigensolver_fallback_leave_out_scipy(tmp_path):
    # the solver, its eigensolver fallback and the oracles run on numpy alone
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    matrix = pathlib.Path(__file__).parent / "data" / "nt_scaling_syevd_nonconvergence.npy"
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUN, str(tmp_path), str(matrix)],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr


def _raise_linalg(*args, **kwargs):
    raise np.linalg.LinAlgError("injected failure")


def test_solver_numerical_failure_exits_1(library, capsys, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _raise_linalg)  # both triangles fail
    assert run(["hmin", "--input", str(library / "phi2.json")]) == 1
    captured = capsys.readouterr()
    assert "solver failure" in captured.err and "numerical_failure" in captured.err
    assert captured.out == ""


def test_fidmax_recovers_from_a_lower_triangle_failure(library, capsys, monkeypatch):
    argv = [
        "fidmax",
        "--input", str(library / "random_2x2.json"),
        "--target", str(library / "target_2.json"),
        "--format", "json",
    ]
    assert run(argv) == 0
    expected, calls = json.loads(capsys.readouterr().out), []
    monkeypatch.setattr(np.linalg, "eigh", lower_triangle_fails(np.linalg.eigh, calls))
    monkeypatch.setattr(np.linalg, "eigvalsh", lower_triangle_fails(np.linalg.eigvalsh, calls))
    assert run(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {**expected, "value": pytest.approx(expected["value"], abs=1e-9)}
    assert "U" in calls


def test_escaping_linalg_error_exits_1_not_2(library, capsys, monkeypatch):
    # numpy.linalg.LinAlgError subclasses ValueError, the input-error class
    monkeypatch.setattr(cli, "min_entropy", _raise_linalg)
    assert run(["hmin", "--input", str(library / "phi2.json")]) == 1
    assert "solver failure: injected failure" in capsys.readouterr().err


def test_run_criterion_unknown_index():
    with pytest.raises(ValueError):
        verify_mod.run_criterion(99)


def test_run_criterion_rejects_nonpositive_trials():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            verify_mod.run_criterion(1, trials=trials)


@pytest.mark.parametrize("shift", ["incomplete", "not_psd"])
def test_guessing_povm_row_checks_the_povm_from_scratch(monkeypatch, shift):
    # the solve's value stays; only the POVM it returns is spoiled, by 1e-3 * id_B
    guess = verify_mod.guessing_probability

    def spoiled(ens):
        value, povm = guess(ens)
        delta = 1e-3 * np.eye(ens.d_B)
        e0, e1 = povm[0].mat + delta, povm[1].mat - (delta if shift == "not_psd" else 0.0)
        return value, [HermitianOperator(e0), HermitianOperator(e1)]

    monkeypatch.setattr(verify_mod, "guessing_probability", spoiled)
    rows = {r.quantity: r for r in verify_mod.run_criterion(2, trials=1).reports}
    assert rows["pguess.t00"].passed and not rows["pguess.povm.t00"].passed
    assert rows["pguess.povm.t00"].gap >= 1e-3 - 1e-9


def test_verify_nonpositive_trials_exits_2(capsys):
    assert run(["verify", "--trials", "-3"]) == 2
    out = capsys.readouterr()
    assert "PASS" not in out.out and "trials" in out.err


def test_verify_failing_row_exits_1_at_its_own_tolerance(capsys, monkeypatch):
    # each row keeps the tolerance its criterion states; one row past it fails the run
    rows = [OracleReport("ok", 1.0, 1.0, 0.0, "exact", 1e-9), OracleReport("off", 1.0, 0.5, 0.5, "injected", 1e-9)]
    monkeypatch.setattr(verify_mod, "CRITERIA", [(1, "injected rows", 1, lambda seed, trials: rows)])
    code = run(["verify", "--trials", "1", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["all_passed"] is False
    assert [(c["tolerance"], c["passed"]) for c in out["criteria"][0]["checks"]] == [(1e-9, True), (1e-9, False)]
    with pytest.raises(SystemExit) as exc:  # there is no tolerance override
        run(["verify", "--tol", "1"])
    assert exc.value.code == 2

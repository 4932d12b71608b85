"""Seeded inputs, operations and output checks for the three benchmark workloads.

Inputs are drawn with numpy alone, so a seed yields the same matrices no
matter how the library generates its own test states; the library only
receives the finished inputs through its public constructors.  Every
workload is a fixed cycle of operations whose sizes do not depend on the
seed: the seed changes the matrices, never the mix, so runs with
different seeds time the same kind of work.

Each operation carries a check that looks only at public outputs and
returns None when the output is right, or a one-line reason when not.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Absolute tolerance for certificate brackets and identities.  The solver
# stops at a relative gap of 1e-9 and accepts 1e-7, so 1e-6 separates
# rounding from a wrong answer.
TOL = 1e-6

# Criterion 8 of the acceptance suite at seed 0, trial 19: a 3x3 cq state
# whose max-entropy solve hits a LAPACK eigh non-convergence at some BLAS
# thread counts.  It is a fixed input, drawn the way the suite draws it.
CRIT8_SEED0_TRIAL19 = {"probs_seed": 19, "state_seeds": (589, 590, 591), "d": 3}


# ---------------------------------------------------------------------------
# Input generation (numpy only)


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def ginibre_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    """G G^dag / tr(G G^dag) with G a d x rank complex Gaussian matrix."""
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return _herm(m / np.trace(m).real)


def max_entangled_amplitudes(d: int) -> np.ndarray:
    amp = np.zeros(d * d, dtype=complex)
    amp[np.arange(d) * d + np.arange(d)] = 1.0 / math.sqrt(d)
    return amp


def max_entangled_density(d: int) -> np.ndarray:
    amp = max_entangled_amplitudes(d)
    return np.outer(amp, amp.conj())


def full_schmidt_target(rng: np.random.Generator, d: int) -> np.ndarray:
    """Pure state on A (x) A' whose squared Schmidt coefficients are all >= 1/(6d)."""
    lam = 0.2 + rng.random(d)
    lam /= lam.sum()
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    v = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return ((u * np.sqrt(lam)) @ v.T).reshape(-1)


def crit8_joint_state() -> tuple[np.ndarray, int, int]:
    """The fixed criterion-8 (seed 0, trial 19) joint cq state, bit for bit."""
    spec = CRIT8_SEED0_TRIAL19
    d = spec["d"]
    rng = np.random.default_rng(spec["probs_seed"])
    probs = 0.1 + rng.random(len(spec["state_seeds"]))
    probs /= probs.sum()
    states = []
    for s in spec["state_seeds"]:
        g_rng = np.random.default_rng(s)
        g = g_rng.standard_normal((d, d)) + 1j * g_rng.standard_normal((d, d))
        m = g @ g.conj().T
        states.append(_herm(m / np.trace(m).real))
    probs = np.clip(probs, 0.0, None)
    k = len(states)
    joint = np.zeros((k * d, k * d), dtype=complex)
    for x in range(k):
        joint[x * d : (x + 1) * d, x * d : (x + 1) * d] = probs[x] * states[x]
    joint /= np.trace(joint).real
    return _herm(joint), k, d


# ---------------------------------------------------------------------------
# Linear algebra used by the checks


def _ptrace_keep_b(mat: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    return np.trace(mat.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)


def _ptrace_keep_a(mat: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    return np.trace(mat.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)


def _lmin(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_herm(h))[0])


def _sqrt_psd(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(_herm(h))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def root_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    sa = _sqrt_psd(a)
    w = np.linalg.eigvalsh(_herm(sa @ b @ sa))
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(a) + abs(b))


def hmin_closed_form(rho: np.ndarray, d_a: int, d_b: int, case: str) -> float:
    """H_min(A|B) in bits for product or pure states."""
    ev = np.clip(np.linalg.eigvalsh(_ptrace_keep_a(rho, d_a, d_b)), 0.0, None)
    if case == "product":
        return -math.log2(float(ev[-1]))
    return -2.0 * math.log2(float(np.sum(np.sqrt(ev))))


def hmax_closed_form(rho: np.ndarray, d_a: int, d_b: int, case: str) -> float:
    """H_max(A|B) in bits for product or pure states."""
    ev = np.clip(np.linalg.eigvalsh(_ptrace_keep_a(rho, d_a, d_b)), 0.0, None)
    if case == "product":
        return 2.0 * math.log2(float(np.sum(np.sqrt(ev))))
    return math.log2(float(ev[-1]))


def helstrom(p0: float, rho0: np.ndarray, rho1: np.ndarray) -> float:
    w = np.linalg.eigvalsh(_herm(p0 * rho0 - (1.0 - p0) * rho1))
    return 0.5 * (1.0 + float(np.sum(np.abs(w))))


def hmin_bracket(
    rho: np.ndarray, d_a: int, d_b: int, value: float, sigma: np.ndarray, e_ab: np.ndarray
) -> str | None:
    """Check that sigma and E certify value = min{tr s : id (x) s >= rho}.

    value * sigma (sigma normalized) must be primal feasible up to a shift
    of its smallest slack eigenvalue, which bounds the optimum from above;
    E >= 0 with tr_A E = id_B must reach tr(rho E) ~ value from below.
    """
    slack = np.kron(np.eye(d_a), value * sigma) - rho
    upper = value + d_b * max(0.0, -_lmin(slack))
    e_min = _lmin(e_ab)
    if e_min < -TOL:
        return f"dual optimizer has eigenvalue {e_min:.3e}"
    marg = float(np.max(np.abs(_ptrace_keep_b(e_ab, d_a, d_b) - np.eye(d_b))))
    if marg > TOL:
        return f"tr_A E deviates from the identity by {marg:.3e}"
    lower = float(np.trace(rho @ e_ab).real)
    if upper - lower > TOL * (1.0 + value) or lower > value + TOL * (1.0 + value):
        return f"bracket [{lower!r}, {upper!r}] does not certify {value!r}"
    return None


def _apply_on_b(choi: np.ndarray, d_in: int, d_out: int, rho: np.ndarray, d_a: int) -> np.ndarray:
    """(id_A (x) F)(rho_AB) for F given by its Choi matrix on input (x) output."""
    jt = choi.reshape(d_in, d_out, d_in, d_out)
    r4 = rho.reshape(d_a, d_in, d_a, d_in)
    return np.einsum("abcd,bedf->aecf", r4, jt).reshape(d_a * d_out, d_a * d_out)


# ---------------------------------------------------------------------------
# Operations


@dataclass
class ApiOp:
    """One public library call on prebuilt inputs."""

    kind: str  # span name of the call, e.g. "entropy.min_entropy"
    label: str
    fn: Callable[..., Any]
    args: tuple
    check: Callable[[Any], str | None]


@dataclass
class CliOp:
    """One minmaxent process; the check reads its exit code and stdout."""

    kind: str  # e.g. "cli.hmin"
    label: str
    argv: list[str]
    check: Callable[[str], str | None]


def _status_optimal(rep: Any) -> str | None:
    status = rep.certificate.status
    return None if status == "optimal" else f"status {status}"


def _mismatch(what: str, got: float, want: float) -> str | None:
    return None if _close(got, want) else f"{what} {got!r} != {want!r}"


def _first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r), None)


def _state(mm: Any, rho: np.ndarray, d_a: int, d_b: int) -> Any:
    return mm.BipartiteState(mm.DensityOperator.from_matrix(rho), d_a, d_b)


def _ensemble(mm: Any, probs: np.ndarray, states: list[np.ndarray]) -> Any:
    return mm.CqEnsemble(probs, tuple(mm.DensityOperator.from_matrix(s) for s in states))


def _op_min_entropy(mm: Any, rho: np.ndarray, d_a: int, d_b: int, label: str, case: str | None = None) -> ApiOp:
    def check(rep: Any) -> str | None:
        return _first(
            _status_optimal(rep),
            _mismatch("H_min vs closed form", rep.value_bits, hmin_closed_form(rho, d_a, d_b, case)) if case else None,
            hmin_bracket(rho, d_a, d_b, 2.0 ** (-rep.value_bits), rep.optimizer_sigma.mat, rep.dual_optimizer.op.mat),
        )

    return ApiOp("entropy.min_entropy", label, mm.min_entropy, (_state(mm, rho, d_a, d_b),), check)


def _op_max_entropy(mm: Any, rho: np.ndarray, d_a: int, d_b: int, label: str, case: str | None = None) -> ApiOp:
    state = _state(mm, rho, d_a, d_b)

    def check(rep: Any) -> str | None:
        # H_max(A|B) = -H_min(A|C) on the purification the library documents
        # (minmaxent.purify); sigma and E live on C and A (x) C.
        psi = mm.purify(state.rho).amplitudes
        d_c = psi.size // (d_a * d_b)
        amp = psi.reshape(d_a, d_b, d_c)
        rho_ac = _herm(np.einsum("abc,dbe->acde", amp, amp.conj()).reshape(d_a * d_c, d_a * d_c))
        return _first(
            _status_optimal(rep),
            _mismatch("H_max vs closed form", rep.value_bits, hmax_closed_form(rho, d_a, d_b, case)) if case else None,
            hmin_bracket(rho_ac, d_a, d_c, 2.0**rep.value_bits, rep.optimizer_sigma.mat, rep.dual_optimizer.op.mat),
        )

    return ApiOp("entropy.max_entropy", label, mm.max_entropy, (state,), check)


def _op_singlet_fraction(mm: Any, rho: np.ndarray, d_a: int, d_b: int, label: str, closed: float | None = None) -> ApiOp:
    def check(out: Any) -> str | None:
        value, cert = out
        ch = cert.channel
        j = ch.op.mat
        if _lmin(j) < -TOL:
            return "recovery channel is not completely positive"
        tr_out = np.einsum("iaja->ij", j.reshape(ch.d_in, ch.d_out, ch.d_in, ch.d_out))
        if float(np.max(np.abs(tr_out - np.eye(ch.d_in)))) > TOL:
            return "recovery channel is not trace preserving"
        phi = max_entangled_amplitudes(d_a)
        overlap = float((phi.conj() @ _apply_on_b(j, ch.d_in, ch.d_out, rho, d_a) @ phi).real)
        return _first(
            _mismatch("overlap of the applied channel vs value / d_A", overlap, value / d_a),
            _mismatch("achieved overlap vs predicted", cert.achieved_overlap, cert.predicted),
            _mismatch("singlet fraction vs closed form", value, closed) if closed else None,
        )

    return ApiOp("entropy.singlet_fraction", label, mm.singlet_fraction, (_state(mm, rho, d_a, d_b),), check)


def _op_guessing(mm: Any, probs: np.ndarray, states: list[np.ndarray], label: str) -> ApiOp:
    d = states[0].shape[0]

    def check(out: Any) -> str | None:
        value, povm = out
        if min(_lmin(e.mat) for e in povm) < -TOL:
            return "POVM element is not positive"
        if float(np.max(np.abs(sum(e.mat for e in povm) - np.eye(d)))) > TOL:
            return "POVM does not sum to the identity"
        achieved = sum(p * float(np.trace(e.mat @ s).real) for p, s, e in zip(probs, states, povm))
        if len(states) == 2:
            bound = _mismatch("guessing probability vs Helstrom", value, helstrom(float(probs[0]), states[0], states[1]))
        else:
            bound = None if value >= float(np.max(probs)) - TOL else "guessing probability below the prior"
        return _first(_mismatch("POVM success probability vs value", achieved, value), bound)

    return ApiOp("entropy.guessing_probability", label, mm.guessing_probability, (_ensemble(mm, probs, states),), check)


def _op_target_fidelity(mm: Any, rho: np.ndarray, d: int, target: np.ndarray, label: str) -> ApiOp:
    identity_overlap = float((target.conj() @ rho @ target).real)

    def check(value: float) -> str | None:
        if not identity_overlap - TOL <= value <= 1.0 + TOL:
            return f"fidelity {value!r} outside [{identity_overlap!r} (identity channel), 1]"
        return None

    args = (_state(mm, rho, d, d), mm.PureState(target))
    return ApiOp("entropy.max_target_fidelity", label, mm.max_target_fidelity, args, check)


def _op_decoupling(mm: Any, rho: np.ndarray, d_a: int, d_b: int, label: str, case: str | None = None) -> ApiOp:
    def check(out: Any) -> str | None:
        value, sigma = out
        recomputed = d_a * root_fidelity(rho, np.kron(np.eye(d_a) / d_a, sigma.mat)) ** 2
        return _first(
            _mismatch("value vs d_A F^2 at the returned sigma", value, recomputed),
            _mismatch("decoupling accuracy vs closed form", value, 2.0 ** hmax_closed_form(rho, d_a, d_b, case)) if case else None,
        )

    return ApiOp("entropy.decoupling_accuracy", label, mm.decoupling_accuracy, (_state(mm, rho, d_a, d_b),), check)


def _op_key_secrecy(mm: Any, probs: np.ndarray, states: list[np.ndarray], label: str, identical: bool = False) -> ApiOp:
    marginal = sum(p * s for p, s in zip(probs, states))
    lower = sum(math.sqrt(p) * root_fidelity(s, marginal) for p, s in zip(probs, states)) ** 2
    k = len(states)

    def check(value: float) -> str | None:
        if not lower - TOL <= value <= k + TOL:
            return f"key secrecy {value!r} outside [{lower!r} (sigma = rho_B), {k}]"
        return _mismatch("key secrecy vs closed form", value, float(np.sum(np.sqrt(probs))) ** 2) if identical else None

    return ApiOp("entropy.key_secrecy", label, mm.key_secrecy, (_ensemble(mm, probs, states),), check)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _product(rng: np.random.Generator, d_a: int, d_b: int, r_a: int, r_b: int) -> np.ndarray:
    return _herm(np.kron(ginibre_density(rng, d_a, r_a), ginibre_density(rng, d_b, r_b)))


# A cycle is short enough to repeat several times in one run, so the
# run's medians take in several moments of the host's drifting speed.
# _spread scatters operations of one size over the cycle, because the
# host's speed drifts over seconds and neighbouring calls would all see
# the same drift.


def _spread(ops: list) -> list:
    """Reorder by a fixed stride coprime to len(ops), about 0.38 of it."""
    n = len(ops)
    stride = max(1, round(0.382 * n))
    while math.gcd(stride, n) != 1:
        stride += 1
    return [ops[(i * stride) % n] for i in range(n)]


def minent_batch(mm: Any, seed: int) -> list[ApiOp]:
    """Every solver-backed call but max_entropy, 2x2 to 4x4; m <= 256."""
    r = _rng(seed, 1)
    return _spread(_minent_ops(mm, r) + _decoupling_ops(mm, r))


def _minent_ops(mm: Any, r: np.random.Generator) -> list[ApiOp]:
    ops: list[ApiOp] = []
    ops.append(_op_min_entropy(mm, max_entangled_density(2), 2, 2, "hmin phi2", "pure"))
    ops.append(_op_min_entropy(mm, _product(r, 2, 3, 2, 2), 2, 3, "hmin product 2x3", "product"))
    ops.append(_op_singlet_fraction(mm, max_entangled_density(3), 3, 3, "qcorr phi3", closed=3.0))
    hmin = ((2, 2, None), (2, 2, 2), (2, 3, 3), (3, 2, None), (2, 3, None), (3, 2, 4), (4, 2, 5), (2, 4, None), (3, 3, 4), (3, 4, 6), (4, 3, None))
    hmin += tuple((4, 4, rank) for rank in (16, 12, 10, 8, 6, 5))
    for d_a, d_b, rank in hmin:
        rho = ginibre_density(r, d_a * d_b, rank)
        ops.append(_op_min_entropy(mm, rho, d_a, d_b, f"hmin {d_a}x{d_b} r{rank or d_a * d_b}"))
    for d_a, d_b, rank in ((2, 2, None), (2, 3, 4), (3, 2, None), (3, 3, 5), (4, 3, None)):
        rho = ginibre_density(r, d_a * d_b, rank)
        ops.append(_op_singlet_fraction(mm, rho, d_a, d_b, f"qcorr {d_a}x{d_b} r{rank or d_a * d_b}"))
    for k, d, ranks in ((2, 2, (1, 2)), (2, 3, (2, 3)), (2, 4, (1, 4)), (3, 3, (3, 2, 1)), (4, 4, (2, 3, 4, 1))):
        probs = 0.1 + r.random(k)
        probs /= probs.sum()
        states = [ginibre_density(r, d, rk) for rk in ranks]
        ops.append(_op_guessing(mm, probs, states, f"pguess k{k} d{d}"))
    for d, rank in ((2, None), (2, 2), (3, 4)):
        target = full_schmidt_target(r, d)
        mix = 0.3 + 0.6 * float(r.random())
        rho = _herm(mix * np.outer(target, target.conj()) + (1.0 - mix) * ginibre_density(r, d * d, rank))
        ops.append(_op_target_fidelity(mm, rho, d, target, f"fidmax {d}x{d} r{rank or d * d}"))
    return ops


def _decoupling_ops(mm: Any, r: np.random.Generator) -> list[ApiOp]:
    """decoupling_accuracy and key_secrecy: the second SDP form (three blocks, no min-entropy builder)."""
    ops: list[ApiOp] = []
    ops.append(_op_decoupling(mm, max_entangled_density(2), 2, 2, "qdecpl phi2", "pure"))
    ops.append(_op_decoupling(mm, _product(r, 2, 3, 2, 1), 2, 3, "qdecpl product 2x3", "product"))
    for d_a, d_b, rank in ((2, 2, 2), (3, 3, 4), (3, 3, 4), (3, 4, 6), (4, 4, 6)):
        rho = ginibre_density(r, d_a * d_b, rank)
        ops.append(_op_decoupling(mm, rho, d_a, d_b, f"qdecpl {d_a}x{d_b} r{rank}"))
    for k, d, ranks in ((2, 2, (2, 1)), (3, 3, (2, 1, 1)), (4, 4, (2, 1, 2, 1))):
        probs = 0.1 + r.random(k)
        probs /= probs.sum()
        states = [ginibre_density(r, d, rk) for rk in ranks]
        ops.append(_op_key_secrecy(mm, probs, states, f"psecr k{k} d{d}"))
    probs = 0.1 + r.random(2)
    probs /= probs.sum()
    same = ginibre_density(r, 2, 1)
    ops.append(_op_key_secrecy(mm, probs, [same] * 2, "psecr identical k2 d2", identical=True))
    return ops


def hmax_purified(mm: Any, seed: int) -> list[ApiOp]:
    """max_entropy with purifying dimension 1..9 (m from 9 to 729), plus criterion 8."""
    ops: list[ApiOp] = []
    r = _rng(seed, 2)
    pure = full_schmidt_target(r, 3)
    ops.append(_op_max_entropy(mm, np.outer(pure, pure.conj()), 3, 3, "hmax pure 3x3", "pure"))
    ops.append(_op_max_entropy(mm, _product(r, 3, 3, 3, 2), 3, 3, "hmax product 3x3 r6", "product"))
    shapes = ((3, 3, 3), (2, 4, 4), (4, 2, 3), (3, 3, 4), (2, 4, 8))
    # m = 225, n = 20: the middle five of the thirteen, where the median falls
    shapes += ((3, 4, 5), (3, 4, 5), (3, 4, 5), (3, 3, 5), (3, 3, 5))
    for d_a, d_b, rank in shapes:
        rho = ginibre_density(r, d_a * d_b, rank)
        ops.append(_op_max_entropy(mm, rho, d_a, d_b, f"hmax {d_a}x{d_b} r{rank}"))
    joint, k, d = crit8_joint_state()
    ops.append(_op_max_entropy(mm, joint, k, d, "hmax criterion-8 seed-0 trial-19"))
    return _spread(ops)


def api_warmup(mm: Any) -> list[ApiOp]:
    """One small call of every kind, so lazy imports and BLAS start-up finish before timing."""
    r = np.random.default_rng(0)
    rho = ginibre_density(r, 4)
    probs = np.array([0.4, 0.6])
    states = [ginibre_density(r, 2), ginibre_density(r, 2)]
    target = full_schmidt_target(r, 2)
    return [
        _op_min_entropy(mm, rho, 2, 2, "warm hmin"),
        _op_max_entropy(mm, rho, 2, 2, "warm hmax"),
        _op_singlet_fraction(mm, rho, 2, 2, "warm qcorr"),
        _op_guessing(mm, probs, states, "warm pguess"),
        _op_target_fidelity(mm, rho, 2, target, "warm fidmax"),
        _op_decoupling(mm, rho, 2, 2, "warm qdecpl"),
        _op_key_secrecy(mm, probs, states, "warm psecr"),
    ]


API_WORKLOADS = {"minent-batch": minent_batch, "hmax-purified": hmax_purified}


# ---------------------------------------------------------------------------
# cli-verbs: one minmaxent process per operation


def _num(x: float) -> str:
    return repr(float(x))


def write_state(path: str, rho: np.ndarray, d_a: int, d_b: int) -> None:
    rows = ",".join(
        "[" + ",".join(f"[{_num(z.real)},{_num(z.imag)}]" for z in row) + "]" for row in rho
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"d_A":%d,"d_B":%d,"matrix":[%s]}\n' % (d_a, d_b, rows))


def read_matrix(obj: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj])


def cli_setup(root: str, workdir: str, seed: int, env: dict) -> list[CliOp]:
    """Write the seeded gen library and extra files; return the verb cycle.

    env is the environment of every minmaxent process.
    """
    lib = os.path.join(workdir, "lib")
    proc = subprocess.run(
        [sys.executable, "-m", "minmaxent.cli", "gen", "--input", lib, "--seed", str(seed), "--format", "json"],
        env=env, cwd=root, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"gen failed during set-up: {proc.stderr.strip()}")

    def lib_state(name: str) -> tuple[np.ndarray, int, int]:
        with open(os.path.join(lib, name), encoding="utf-8") as fh:
            obj = json.load(fh)
        return read_matrix(obj["matrix"]), obj["d_A"], obj["d_B"]

    with open(os.path.join(lib, "helstrom.json"), encoding="utf-8") as fh:
        hel = json.load(fh)
    hel_value = helstrom(hel["probs"][0], read_matrix(hel["states"][0]), read_matrix(hel["states"][1]))
    with open(os.path.join(lib, "cq_random_2x2.json"), encoding="utf-8") as fh:
        n_cq = len(json.load(fh)["probs"])
    rho22, _, _ = lib_state("random_2x2.json")
    tgt, _, _ = lib_state("target_2.json")
    target = np.linalg.eigh(tgt)[1][:, -1]
    identity_overlap = float((target.conj() @ rho22 @ target).real)
    prod, pa, pb = lib_state("product_2x2.json")
    prod_want = 2.0 ** hmax_closed_form(prod, pa, pb, "product")

    r = _rng(seed, 4)
    extra_hmin = os.path.join(workdir, "extra_3x2.json")
    write_state(extra_hmin, ginibre_density(r, 6), 3, 2)
    extra_qcorr = os.path.join(workdir, "extra_2x3_r3.json")
    write_state(extra_qcorr, ginibre_density(r, 6, 3), 2, 3)
    crit8 = os.path.join(workdir, "crit8_seed0_trial19.json")
    joint, k, d = crit8_joint_state()
    write_state(crit8, joint, k, d)

    def value_is(want: float, key: str = "value") -> Callable[[dict], str | None]:
        return lambda out: _mismatch(f"{key} vs closed form", out[key], want)

    def within(lo: float, hi: float, key: str = "value") -> Callable[[dict], str | None]:
        return lambda out: None if lo - TOL <= out[key] <= hi + TOL else f"{key} {out[key]!r} outside [{lo}, {hi}]"

    def overlap_matches(out: dict) -> str | None:
        return _mismatch("achieved overlap vs predicted", out["achieved_overlap"], out["predicted_overlap"])

    def gen_wrote(out: dict) -> str | None:
        names = sorted(os.path.basename(p) for p in out["written"] if os.path.isfile(p))
        return None if names == sorted(os.listdir(lib)) else "gen did not write the library"

    def verify_passed(out: dict) -> str | None:
        return None if out.get("all_passed") is True else "verification failed"

    def verb(label: str, argv: list[str], extra: Callable[[dict], str | None]) -> CliOp:
        def check(stdout: str) -> str | None:
            try:
                out = json.loads(stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                return "output is not JSON"
            if out.get("status", "optimal") != "optimal":
                return f"status {out['status']}"
            return extra(out)

        return CliOp("cli." + argv[0], label, argv + ["--format", "json"], check)

    def p(name: str) -> str:
        return os.path.join(lib, name)

    bits_a3 = within(-math.log2(3.0), math.log2(3.0), "value_bits")
    return [
        verb("gen", ["gen", "--input", os.path.join(workdir, "gen_out"), "--seed", str(seed)], gen_wrote),
        verb("hmin phi3", ["hmin", "--input", p("phi3.json")], value_is(-math.log2(3.0), "value_bits")),
        verb("hmin extra 3x2", ["hmin", "--input", extra_hmin], bits_a3),
        verb("hmax phi2", ["hmax", "--input", p("phi2.json")], value_is(-1.0, "value_bits")),
        verb("hmax random 2x2", ["hmax", "--input", p("random_2x2.json")], within(-1.0, 1.0, "value_bits")),
        verb("qcorr extra 2x3 r3", ["qcorr", "--input", extra_qcorr], overlap_matches),
        verb("qdecpl product 2x2", ["qdecpl", "--input", p("product_2x2.json")], value_is(prod_want)),
        verb("pguess helstrom", ["pguess", "--input", p("helstrom.json")], value_is(hel_value)),
        verb("psecr cq random 2x2", ["psecr", "--input", p("cq_random_2x2.json")], within(1.0, float(n_cq))),
        verb("fidmax random 2x2", ["fidmax", "--input", p("random_2x2.json"), "--target", p("target_2.json")], within(identity_overlap, 1.0)),
        verb("hmax criterion-8 seed-0 trial-19", ["hmax", "--input", crit8], bits_a3),
        verb("verify --trials 1", ["verify", "--trials", "1", "--seed", str(seed)], verify_passed),
    ]

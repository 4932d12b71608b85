"""Acceptance checks: every library identity verified against an oracle.

Each criterion draws seeded instances at desk scale (dimensions at most
4 x 4), compares the optimization route against an independent oracle or
closed form, and emits one OracleReport row per check.  The CLI verify
command and the acceptance test suite both run these functions, so the
shell and pytest always agree on what was checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BipartiteState,
    CqEnsemble,
    DensityOperator,
    PureState,
    _eigh,
    _partial_trace_mat,
    cq_to_density,
    maximally_entangled,
    random_density,
)
from .entropy import (
    _decoupling_at_optimizer,
    _max_entropy_purified,
    closed_form_entropies,
    guessing_probability,
    key_secrecy_block,
    max_entropy,
    max_target_fidelity,
    min_entropy,
    singlet_fraction,
)
from .oracles import (
    OracleReport,
    helstrom_guess_probability,
    min_entropy_direct_search,
    sampled_target_fidelity,
)

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]

_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    reports: tuple[OracleReport, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _states(seed: int, trials: int) -> list[BipartiteState]:
    out = []
    for i in range(trials):
        d_a, d_b = _DIMS[i % 4]
        out.append(BipartiteState(random_density(d_a * d_b, 7919 * seed + i), d_a, d_b))
    return out


def _ensembles(seed: int, trials: int, binary: bool = False) -> list[CqEnsemble]:
    out = []
    for i in range(trials):
        k, d_b = (2, [2, 3][i % 2]) if binary else _DIMS[i % 4]
        rng = np.random.default_rng(104729 * seed + i)
        probs = 0.1 + rng.random(k)
        probs /= probs.sum()
        states = tuple(
            random_density(d_b, 224737 * seed + 31 * i + x) for x in range(k)
        )
        out.append(CqEnsemble(probs, states))
    return out


def _pair_state(s1: BipartiteState, s2: BipartiteState) -> BipartiteState:
    """Tensor two bipartite states and regroup indices to (A A' | B B')."""
    a1, b1, a2, b2 = s1.d_A, s1.d_B, s2.d_A, s2.d_B
    t = np.kron(s1.mat, s2.mat).reshape(a1, b1, a2, b2, a1, b1, a2, b2)
    mat = t.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(a1 * a2 * b1 * b2, -1)
    return BipartiteState(DensityOperator.from_matrix(mat), a1 * a2, b1 * b2)


def _full_rank_target(d: int, seed: int) -> PureState:
    """Random pure state on A (x) A' with all Schmidt coefficients >= 0.1."""
    rng = np.random.default_rng(seed)
    lam = 0.2 + rng.random(d)
    lam /= lam.sum()
    gu = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    gv = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u = np.linalg.qr(gu)[0]
    v = np.linalg.qr(gv)[0]
    amp = (u * np.sqrt(lam)) @ v.T
    return PureState(amp.reshape(-1))


def _row(
    quantity: str,
    oracle: float,
    main: float,
    method: str,
    tolerance: float,
    gap: float | None = None,
) -> OracleReport:
    """One check whose gap is |main - oracle|; one-sided checks pass their own gap."""
    if gap is None:
        gap = abs(main - oracle)
    return OracleReport(quantity, oracle, main, gap, method, tolerance)


def _crit_zero_gap(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i, state in enumerate(_states(seed, trials)):
        cert = min_entropy(state).certificate
        pv, dv = cert.primal_value, cert.dual_value
        tag = f"gap.t{i:02d}.{state.d_A}x{state.d_B}"
        rows.append(_row(tag, 0.0, pv - dv, "matched dual certificate", 1e-6 * (1.0 + abs(pv))))
    return rows


def _crit_guessing(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i, ens in enumerate(_ensembles(seed, trials, binary=True)):
        p0, (rho0, rho1) = float(ens.probs[0]), ens.cond_states
        oracle = helstrom_guess_probability(p0, rho0, rho1)
        value, povm = guessing_probability(ens)
        rows.append(_row(f"pguess.t{i:02d}", oracle, value, "Helstrom spectral projector", 1e-6))
        # the POVM checked from scratch: each E_x >= 0, sum_x E_x = id_B and its success probability
        mats = [e.mat for e in povm]
        rhos = [r.mat for r in ens.cond_states]
        achieved = float(sum(p * np.vdot(e, r).real for p, e, r in zip(ens.probs, mats, rhos)))
        least = min(float(_eigh(e, vectors=False)[0]) for e in mats)
        violation = max(-least, float(np.abs(sum(mats) - np.eye(ens.d_B)).max()))
        gap = max(abs(achieved - oracle), violation)
        rows.append(
            _row(f"pguess.povm.t{i:02d}", oracle, achieved, "Helstrom vs optimal POVM", 1e-6, gap)
        )
    ket0 = DensityOperator.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    ketp = DensityOperator.from_matrix(np.full((2, 2), 0.5))
    hmin = min_entropy(cq_to_density(CqEnsemble(np.array([0.5, 0.5]), (ket0, ketp)))).value_bits
    rows.append(_row("pguess.explicit", 0.853553, 2.0 ** (-hmin), "half plus 1/(2 sqrt 2)", 1e-6))
    rows.append(_row("hmin.explicit", 0.228447, hmin, "minus log2 of Helstrom value", 1e-5))
    return rows


def _crit_recovery(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i, state in enumerate(_states(seed, trials)):
        if state.d_A > state.d_B:
            continue
        value, cert = singlet_fraction(state)
        choi = cert.channel
        ev_min = float(_eigh(choi.op.mat, vectors=False)[0])
        t = choi.op.mat.reshape(choi.d_in, choi.d_out, choi.d_in, choi.d_out)
        tp_res = float(np.max(np.abs(np.einsum("iaja->ij", t) - np.eye(choi.d_in))))
        tag = f"t{i:02d}.{state.d_A}x{state.d_B}"
        cp_gap = max(0.0, -ev_min)
        rows.append(
            _row(f"recovery_cp.{tag}", 0.0, ev_min, "smallest Choi eigenvalue", 1e-8, gap=cp_gap)
        )
        rows.append(_row(f"recovery_tp.{tag}", 0.0, tp_res, "partial-trace residual", 1e-8))
        achieved = state.d_A * cert.achieved_overlap
        rows.append(
            _row(f"recovery_overlap.{tag}", value, achieved, "channel applied from scratch", 1e-6)
        )
    return rows


def _crit_decoupling(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i, state in enumerate(_states(seed, trials)):
        hmax, amp = _max_entropy_purified(state)
        value, _ = _decoupling_at_optimizer(hmax, amp)
        rows.append(
            _row(
                f"qdecpl.t{i:02d}.{state.d_A}x{state.d_B}",
                hmax.value_bits,
                math.log2(value),
                "d_A F^2 at the sigma of the purified H_min optimizer",
                1e-6,
            )
        )
    return rows


def _product_state(seed: int, i: int, d_a: int, d_b: int) -> BipartiteState:
    rho_a = random_density(d_a, 7129 * seed + 2 * i)
    rho_b = random_density(d_b, 7129 * seed + 2 * i + 1)
    return BipartiteState(DensityOperator.from_matrix(np.kron(rho_a.mat, rho_b.mat)), d_a, d_b)


def _pure_state(seed: int, i: int, d_a: int, d_b: int) -> BipartiteState:
    rng = np.random.default_rng(15013 * seed + i)
    amp = rng.standard_normal(d_a * d_b) + 1j * rng.standard_normal(d_a * d_b)
    amp /= np.linalg.norm(amp)
    return BipartiteState(DensityOperator.from_matrix(np.outer(amp, amp.conj())), d_a, d_b)


# (case, state maker, H_min oracle method, H_max oracle method)
_CLOSED_FORM_CASES = (
    ("product", _product_state, "largest marginal eigenvalue", "2 log2 tr sqrt of marginal"),
    ("pure", _pure_state, "squared tr sqrt of marginal", "largest marginal eigenvalue"),
)


def _crit_closed_forms(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    entropies = (("hmin", min_entropy), ("hmax", max_entropy))
    for case, make, *methods in _CLOSED_FORM_CASES:
        for i in range(trials):
            state = make(seed, i, *_DIMS[i % 4])
            closed = closed_form_entropies(state, case)
            for (name, entropy), oracle, method in zip(entropies, closed, methods):
                main = entropy(state).value_bits
                rows.append(_row(f"{case}_{name}.t{i:02d}", oracle, main, method, 1e-6))
    for d in (2, 3, 4):
        state = BipartiteState(DensityOperator(maximally_entangled(d).projector()), d, d)
        for name, entropy in entropies:
            main = entropy(state).value_bits
            rows.append(_row(f"entangled_{name}.d{d}", -math.log2(d), main, "minus log2 d", 1e-6))
    return rows


def _crit_additivity(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i in range(trials):
        # rank-2 factors keep the purifying system of the joint H_max state small
        for k, (name, entropy, rank) in enumerate(
            (("hmin", min_entropy, None), ("hmax", max_entropy, 2))
        ):
            base = 3851 * seed + 4 * i + 2 * k
            s1 = BipartiteState(random_density(4, base, rank=rank), 2, 2)
            s2 = BipartiteState(random_density(4, base + 1, rank=rank), 2, 2)
            total = entropy(_pair_state(s1, s2)).value_bits
            parts = entropy(s1).value_bits + entropy(s2).value_bits
            rows.append(
                _row(f"additivity_{name}.t{i:02d}", parts, total, "independent factor solves", 1e-6)
            )
    return rows


def _crit_strong_subadditivity(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i in range(trials):
        rho = random_density(8, 27583 * seed + i)
        h_abc = min_entropy(BipartiteState(rho, 2, 4)).value_bits
        rho_ab = _partial_trace_mat(rho.mat, 4, 2, "A")
        h_ab = min_entropy(BipartiteState(DensityOperator.from_matrix(rho_ab), 2, 2)).value_bits
        rows.append(
            _row(
                f"ssa.t{i:02d}",
                h_ab,
                h_abc,
                "conditioning on the larger system",
                1e-7,
                gap=max(0.0, h_abc - h_ab),
            )
        )
    return rows


def _crit_key_secrecy(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i, ens in enumerate(_ensembles(seed, trials)):
        joint = cq_to_density(ens)
        hmax, amp = _max_entropy_purified(joint)
        _, sigma = _decoupling_at_optimizer(hmax, amp)
        block = key_secrecy_block(ens, sigma)
        oracle = 2.0 ** hmax.value_bits
        rows.append(
            _row(f"psecr.t{i:02d}", oracle, block, "block fidelity sum at the optimizer", 1e-7)
        )
    return rows


def _crit_target_fidelity(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i in range(trials):
        state = BipartiteState(random_density(4, 9377 * seed + i), 2, 2)
        best = max_target_fidelity(state, maximally_entangled(2))
        value, _ = singlet_fraction(state)
        rows.append(
            _row(f"target_entangled.t{i:02d}", value / 2.0, best, "singlet fraction route", 1e-7)
        )
    for i in range(trials):
        state = BipartiteState(random_density(4, 9377 * seed + 100 + i), 2, 2)
        target = _full_rank_target(2, 13903 * seed + i)
        best = max_target_fidelity(state, target)
        sampled = sampled_target_fidelity(state, target, samples=200, seed=17389 * seed + i)
        rows.append(
            _row(
                f"target_sampled.t{i:02d}",
                best,
                sampled,
                "200 sampled channels (one-sided)",
                1e-6,
                gap=max(0.0, sampled - best),
            )
        )
    return rows


def _crit_direct_search(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i in range(trials):
        d_a = [2, 3][i % 2]
        state = BipartiteState(random_density(2 * d_a, 20011 * seed + i), d_a, 2)
        search_bits = -math.log2(min_entropy_direct_search(state))
        hmin = min_entropy(state).value_bits
        rows.append(
            _row(
                f"search.t{i:02d}.{d_a}x2",
                hmin,
                search_bits,
                "Nelder-Mead from the maximally mixed state",
                1e-2,
            )
        )
    return rows


CRITERIA: list[tuple[int, str, int, object]] = [
    (1, "zero duality gap on random states", 50, _crit_zero_gap),
    (2, "guessing probability equals 2^(-Hmin) for cq states", 20, _crit_guessing),
    (3, "recovery channel is CPTP and achieves 2^(-Hmin)", 50, _crit_recovery),
    (4, "decoupling accuracy equals 2^(Hmax)", 50, _crit_decoupling),
    (5, "closed forms for product and pure states", 20, _crit_closed_forms),
    (6, "additivity for independent systems", 10, _crit_additivity),
    (7, "strong subadditivity of the min-entropy", 20, _crit_strong_subadditivity),
    (8, "key secrecy equals 2^(Hmax) for cq states", 20, _crit_key_secrecy),
    (9, "non-maximally entangled targets", 10, _crit_target_fidelity),
    (10, "direct sigma search brackets the SDP value", 5, _crit_direct_search),
]


def run_criterion(index: int, seed: int = 0, trials: int | None = None) -> CriterionResult:
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    for idx, title, default_trials, func in CRITERIA:
        if idx == index:
            n = default_trials if trials is None else trials
            return CriterionResult(index=idx, title=title, reports=tuple(func(seed, n)))
    raise ValueError(f"no criterion with index {index}")


def run_all(seed: int = 0, trials: int | None = None) -> list[CriterionResult]:
    return [run_criterion(idx, seed=seed, trials=trials) for idx, _, _, _ in CRITERIA]

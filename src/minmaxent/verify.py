"""Acceptance checks: every library identity verified against an oracle.

Each criterion draws seeded instances at desk scale (dimensions at most
4 x 4), compares the optimization route against an independent oracle or
closed form, and emits one OracleReport row per check.  The CLI verify
command and the acceptance test suite both run these functions, so the
shell and pytest always agree on what was checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BipartiteState,
    CqEnsemble,
    DensityOperator,
    PureState,
    cq_to_density,
    maximally_entangled,
    random_density,
)
from .entropy import (
    closed_form_entropies,
    decoupling_accuracy,
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


def _crit_zero_gap(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i, state in enumerate(_states(seed, trials)):
        rep = min_entropy(state)
        pv = rep.certificate.primal_value
        rows.append(
            OracleReport(
                quantity=f"gap.t{i:02d}.{state.d_A}x{state.d_B}",
                oracle_value=0.0,
                main_value=rep.certificate.primal_value - rep.certificate.dual_value,
                gap=abs(pv - rep.certificate.dual_value),
                method="matched dual certificate",
                tolerance=1e-6 * (1.0 + abs(pv)),
            )
        )
    return rows


def _crit_guessing(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i, ens in enumerate(_ensembles(seed, trials, binary=True)):
        oracle = helstrom_guess_probability(float(ens.probs[0]), ens.cond_states[0], ens.cond_states[1])
        rep = min_entropy(cq_to_density(ens))
        main = 2.0 ** (-rep.value_bits)
        value, _ = guessing_probability(ens)
        rows.append(
            OracleReport(
                quantity=f"pguess.t{i:02d}",
                oracle_value=oracle,
                main_value=main,
                gap=abs(main - oracle),
                method="Helstrom spectral projector",
                tolerance=1e-6,
            )
        )
        rows.append(
            OracleReport(
                quantity=f"pguess.povm.t{i:02d}",
                oracle_value=oracle,
                main_value=value,
                gap=abs(value - oracle),
                method="Helstrom vs optimal POVM SDP",
                tolerance=1e-6,
            )
        )
    ket0 = DensityOperator.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    ketp = DensityOperator.from_matrix(np.full((2, 2), 0.5))
    ens = CqEnsemble(np.array([0.5, 0.5]), (ket0, ketp))
    rep = min_entropy(cq_to_density(ens))
    p = 2.0 ** (-rep.value_bits)
    rows.append(
        OracleReport(
            quantity="pguess.explicit",
            oracle_value=0.853553,
            main_value=p,
            gap=abs(p - 0.853553),
            method="half plus 1/(2 sqrt 2)",
            tolerance=1e-6,
        )
    )
    rows.append(
        OracleReport(
            quantity="hmin.explicit",
            oracle_value=0.228447,
            main_value=rep.value_bits,
            gap=abs(rep.value_bits - 0.228447),
            method="minus log2 of Helstrom value",
            tolerance=1e-5,
        )
    )
    return rows


def _crit_recovery(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i, state in enumerate(_states(seed, trials)):
        if state.d_A > state.d_B:
            continue
        value, cert = singlet_fraction(state)
        choi = cert.channel
        ev_min = float(np.linalg.eigvalsh(choi.op.mat)[0])
        t = choi.op.mat.reshape(choi.d_in, choi.d_out, choi.d_in, choi.d_out)
        tp_res = float(np.max(np.abs(np.einsum("iaja->ij", t) - np.eye(choi.d_in))))
        tag = f"t{i:02d}.{state.d_A}x{state.d_B}"
        rows.append(
            OracleReport(
                quantity=f"recovery_cp.{tag}",
                oracle_value=0.0,
                main_value=ev_min,
                gap=max(0.0, -ev_min),
                method="smallest Choi eigenvalue",
                tolerance=1e-8,
            )
        )
        rows.append(
            OracleReport(
                quantity=f"recovery_tp.{tag}",
                oracle_value=0.0,
                main_value=tp_res,
                gap=tp_res,
                method="partial-trace residual",
                tolerance=1e-8,
            )
        )
        rows.append(
            OracleReport(
                quantity=f"recovery_overlap.{tag}",
                oracle_value=value,
                main_value=state.d_A * cert.achieved_overlap,
                gap=abs(state.d_A * cert.achieved_overlap - value),
                method="channel applied from scratch",
                tolerance=1e-6,
            )
        )
    return rows


def _crit_decoupling(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i, state in enumerate(_states(seed, trials)):
        value, _ = decoupling_accuracy(state)
        hmax = max_entropy(state).value_bits
        rows.append(
            OracleReport(
                quantity=f"qdecpl.t{i:02d}.{state.d_A}x{state.d_B}",
                oracle_value=hmax,
                main_value=math.log2(value),
                gap=abs(math.log2(value) - hmax),
                method="d_A F^2 at the sigma of the purified H_min optimizer",
                tolerance=1e-6,
            )
        )
    return rows


def _crit_closed_forms(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i in range(trials):
        d_a, d_b = _DIMS[i % 4]
        rho_a = random_density(d_a, 7129 * seed + 2 * i)
        rho_b = random_density(d_b, 7129 * seed + 2 * i + 1)
        state = BipartiteState(
            DensityOperator.from_matrix(np.kron(rho_a.mat, rho_b.mat)), d_a, d_b
        )
        cf_min, cf_max = closed_form_entropies(state, "product")
        sdp_min = min_entropy(state).value_bits
        sdp_max = max_entropy(state).value_bits
        rows.append(
            OracleReport(
                quantity=f"product_hmin.t{i:02d}",
                oracle_value=cf_min,
                main_value=sdp_min,
                gap=abs(sdp_min - cf_min),
                method="largest marginal eigenvalue",
                tolerance=1e-6,
            )
        )
        rows.append(
            OracleReport(
                quantity=f"product_hmax.t{i:02d}",
                oracle_value=cf_max,
                main_value=sdp_max,
                gap=abs(sdp_max - cf_max),
                method="2 log2 tr sqrt of marginal",
                tolerance=1e-6,
            )
        )
    for i in range(trials):
        d_a, d_b = _DIMS[i % 4]
        rng = np.random.default_rng(15013 * seed + i)
        amp = rng.standard_normal(d_a * d_b) + 1j * rng.standard_normal(d_a * d_b)
        amp /= np.linalg.norm(amp)
        state = BipartiteState(
            DensityOperator.from_matrix(np.outer(amp, amp.conj())), d_a, d_b
        )
        cf_min, cf_max = closed_form_entropies(state, "pure")
        sdp_min = min_entropy(state).value_bits
        sdp_max = max_entropy(state).value_bits
        rows.append(
            OracleReport(
                quantity=f"pure_hmin.t{i:02d}",
                oracle_value=cf_min,
                main_value=sdp_min,
                gap=abs(sdp_min - cf_min),
                method="squared tr sqrt of marginal",
                tolerance=1e-6,
            )
        )
        rows.append(
            OracleReport(
                quantity=f"pure_hmax.t{i:02d}",
                oracle_value=cf_max,
                main_value=sdp_max,
                gap=abs(sdp_max - cf_max),
                method="largest marginal eigenvalue",
                tolerance=1e-6,
            )
        )
    for d in (2, 3, 4):
        phi = maximally_entangled(d)
        state = BipartiteState(DensityOperator(phi.projector()), d, d)
        expected = -math.log2(d)
        hmin = min_entropy(state).value_bits
        hmax = max_entropy(state).value_bits
        for name, got in (("hmin", hmin), ("hmax", hmax)):
            rows.append(
                OracleReport(
                    quantity=f"entangled_{name}.d{d}",
                    oracle_value=expected,
                    main_value=got,
                    gap=abs(got - expected),
                    method="minus log2 d",
                    tolerance=1e-6,
                )
            )
    return rows


def _crit_additivity(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i in range(trials):
        s1 = BipartiteState(random_density(4, 3851 * seed + 4 * i), 2, 2)
        s2 = BipartiteState(random_density(4, 3851 * seed + 4 * i + 1), 2, 2)
        joint = _pair_state(s1, s2)
        total = min_entropy(joint).value_bits
        parts = min_entropy(s1).value_bits + min_entropy(s2).value_bits
        rows.append(
            OracleReport(
                quantity=f"additivity_hmin.t{i:02d}",
                oracle_value=parts,
                main_value=total,
                gap=abs(total - parts),
                method="independent factor solves",
                tolerance=1e-6,
            )
        )
        # rank-2 factors keep the purifying system of the joint state small
        r1 = BipartiteState(random_density(4, 3851 * seed + 4 * i + 2, rank=2), 2, 2)
        r2 = BipartiteState(random_density(4, 3851 * seed + 4 * i + 3, rank=2), 2, 2)
        joint = _pair_state(r1, r2)
        total = max_entropy(joint).value_bits
        parts = max_entropy(r1).value_bits + max_entropy(r2).value_bits
        rows.append(
            OracleReport(
                quantity=f"additivity_hmax.t{i:02d}",
                oracle_value=parts,
                main_value=total,
                gap=abs(total - parts),
                method="independent factor solves",
                tolerance=1e-6,
            )
        )
    return rows


def _crit_strong_subadditivity(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i in range(trials):
        rho = random_density(8, 27583 * seed + i)
        tripartite = BipartiteState(rho, 2, 4)
        h_abc = min_entropy(tripartite).value_bits
        rho_ab = np.trace(rho.mat.reshape(4, 2, 4, 2), axis1=1, axis2=3)
        h_ab = min_entropy(
            BipartiteState(DensityOperator.from_matrix(rho_ab), 2, 2)
        ).value_bits
        rows.append(
            OracleReport(
                quantity=f"ssa.t{i:02d}",
                oracle_value=h_ab,
                main_value=h_abc,
                gap=max(0.0, h_abc - h_ab),
                method="conditioning on the larger system",
                tolerance=1e-7,
            )
        )
    return rows


def _crit_key_secrecy(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i, ens in enumerate(_ensembles(seed, trials)):
        joint = cq_to_density(ens)
        _, sigma = decoupling_accuracy(joint)
        block = key_secrecy_block(ens, sigma)
        hmax = max_entropy(joint).value_bits
        rows.append(
            OracleReport(
                quantity=f"psecr.t{i:02d}",
                oracle_value=2.0**hmax,
                main_value=block,
                gap=abs(block - 2.0**hmax),
                method="block fidelity sum at the optimizer",
                tolerance=1e-7,
            )
        )
    return rows


def _crit_target_fidelity(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i in range(trials):
        state = BipartiteState(random_density(4, 9377 * seed + i), 2, 2)
        best = max_target_fidelity(state, maximally_entangled(2))
        value, _ = singlet_fraction(state)
        rows.append(
            OracleReport(
                quantity=f"target_entangled.t{i:02d}",
                oracle_value=value / 2.0,
                main_value=best,
                gap=abs(best - value / 2.0),
                method="singlet fraction route",
                tolerance=1e-7,
            )
        )
    for i in range(trials):
        state = BipartiteState(random_density(4, 9377 * seed + 100 + i), 2, 2)
        target = _full_rank_target(2, 13903 * seed + i)
        best = max_target_fidelity(state, target)
        sampled = sampled_target_fidelity(state, target, samples=200, seed=17389 * seed + i)
        rows.append(
            OracleReport(
                quantity=f"target_sampled.t{i:02d}",
                oracle_value=best,
                main_value=sampled,
                gap=max(0.0, sampled - best),
                method="200 sampled channels (one-sided)",
                tolerance=1e-6,
            )
        )
    return rows


def _crit_direct_search(seed: int, trials: int) -> list[OracleReport]:
    rows = []
    for i in range(trials):
        d_a = [2, 3][i % 2]
        state = BipartiteState(random_density(2 * d_a, 20011 * seed + i), d_a, 2)
        bound = min_entropy_direct_search(state, resolution=1e-3)
        search_bits = -math.log2(bound)
        hmin = min_entropy(state).value_bits
        rows.append(
            OracleReport(
                quantity=f"search.t{i:02d}.{d_a}x2",
                oracle_value=hmin,
                main_value=search_bits,
                gap=abs(search_bits - hmin),
                method="Bloch grid + Nelder-Mead at resolution 1e-3",
                tolerance=1e-2,
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


def run_criterion(
    index: int, seed: int = 0, trials: int | None = None, tol: float | None = None
) -> CriterionResult:
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    for idx, title, default_trials, func in CRITERIA:
        if idx == index:
            n = default_trials if trials is None else trials
            reports = func(seed, n)
            if tol is not None:
                reports = [replace(r, tolerance=tol) for r in reports]
            return CriterionResult(index=idx, title=title, reports=tuple(reports))
    raise ValueError(f"no criterion with index {index}")


def run_all(
    seed: int = 0, trials: int | None = None, tol: float | None = None
) -> list[CriterionResult]:
    return [run_criterion(idx, seed=seed, trials=trials, tol=tol) for idx, _, _, _ in CRITERIA]

"""Single-shot conditional min- and max-entropy and their operational forms.

The conditional min-entropy of a bipartite state rho_AB is

    H_min(A|B) = -log2 min{ tr(sigma) : sigma >= 0, id_A (x) sigma >= rho_AB }
               = -log2 max{ tr(rho_AB E) : E_AB >= 0, tr_A E = id_B }.

The second (the paper's) form is what is solved: its d_B^2 equality
constraints make it the solver's standard primal, and the optimal sigma
is read from the multipliers.  The optimizer E is the Choi matrix of a
completely positive unital map whose adjoint is the trace-preserving
recovery channel achieving the best overlap with the maximally
entangled state.  The max-entropy is minus the min-entropy of A
conditioned on a purifying system C, and equals the log of the
decoupling accuracy d_A * max_sigma F(rho_AB, tau_A (x) sigma)^2, whose
optimal sigma is read from the optimizer of that same min-entropy SDP on
A (x) C: every quantity here is one SDP form.  F always denotes the
ROOT fidelity ||sqrt(r) sqrt(s)||_1, whose square is the overlap
against pure states.  All logarithms are base 2.  The two entropies
return their EntropyReport, solver certificate included; the operational
quantities return values read from one such report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import sdp
from .channels import ChoiMatrix, adjoint_channel
from .core import (
    BipartiteState,
    CqEnsemble,
    DensityOperator,
    HermitianOperator,
    PureState,
    _eigh,
    _partial_trace_mat,
    _psd_factor,
    _root_fidelity_mats,
    cq_to_density,
    maximally_entangled,
    purify,
)
from .sdp import SdpSolution, SolverError

__all__ = [
    "EntropyReport",
    "RecoveryCertificate",
    "min_entropy",
    "max_entropy",
    "guessing_probability",
    "singlet_fraction",
    "decoupling_accuracy",
    "key_secrecy",
    "key_secrecy_block",
    "max_target_fidelity",
    "closed_form_entropies",
]

PRODUCT_ATOL = 1e-9
PURE_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class EntropyReport:
    """An entropy value in bits together with its optimization certificate.

    certificate is the solver's own solution of the SDP max{tr(rho E) :
    E >= 0, tr_A E = id_B} in standard form, so its primal_value is
    -tr(rho E) and its dual_value is -tr(sigma); gap = tr(sigma) - tr(rho E).
    """

    quantity: str
    value_bits: float
    certificate: SdpSolution
    optimizer_sigma: DensityOperator
    dual_optimizer: ChoiMatrix
    gap: float


@dataclass(frozen=True, eq=False)
class RecoveryCertificate:
    """Recovery channel extracted from a min-entropy dual optimizer.

    achieved_overlap is <Phi|(id (x) F)(rho)|Phi> recomputed from scratch
    by applying the channel; predicted equals 2^(-H_min) / d_A.
    """

    channel: ChoiMatrix
    achieved_overlap: float
    predicted: float


def _min_entropy_problem(rho: np.ndarray, d_a: int, d_b: int) -> sdp.HermitianSdp:
    """min tr(-rho E) s.t. tr_A E = id_B."""
    return sdp.HermitianSdp(HermitianOperator(-rho), d_a, d_b)


def _hmin_report(quantity: str, rho: np.ndarray, d_a: int, d_b: int) -> EntropyReport:
    """The report of max{tr(rho E) : E >= 0, tr_A E = id_B} for a PSD operator rho.

    Raises SolverError unless the solve ends optimal.  The SDP is the
    solver's primal with X = E and C = -rho, so primal_value = -tr(rho E)
    and dual_value = -tr(sigma), where sigma = -Y, Y its multiplier,
    satisfies id (x) sigma >= rho; value_bits is -log2 tr(sigma).  E is
    made to satisfy tr_A E = id_B exactly by the congruence with
    id (x) T^(-1/2), T = tr_A E, which keeps it positive semidefinite.
    """
    sol = sdp.solve(_min_entropy_problem(rho, d_a, d_b))
    if sol.status != sdp.STATUS_OPTIMAL:
        raise SolverError(f"min-entropy SDP: solver stopped with status {sol.status}", sol)
    sigma = -sol.y_star.reshape(d_b, d_b)
    e_ab = sol.X_star.mat
    w, v = _eigh(_partial_trace_mat(e_ab, d_a, d_b, "B"))
    fix = np.kron(np.eye(d_a), (v * w**-0.5) @ v.conj().T)
    return EntropyReport(
        quantity=quantity,
        value_bits=-math.log2(-sol.dual_value),
        certificate=sol,
        optimizer_sigma=DensityOperator.from_matrix(sigma / float(np.trace(sigma).real)),
        dual_optimizer=ChoiMatrix(HermitianOperator(fix @ e_ab @ fix), d_a, d_b),
        gap=sol.gap,
    )


def min_entropy(state: BipartiteState) -> EntropyReport:
    """H_min(A|B) of a bipartite state, with primal and dual optimizers.

    value_bits = -log2 tr(sigma) at the optimum; the report carries the
    normalized optimal sigma and the optimizer E with tr_A E = id_B.
    """
    return _hmin_report("min_entropy", state.mat, state.d_A, state.d_B)


def max_entropy(state: BipartiteState) -> EntropyReport:
    """H_max(A|B) = -H_min(A|C) evaluated on a purification over C.

    The purifying dimension is the rank of rho_AB.  The returned report
    carries the inner min-entropy certificate (its sigma lives on C and
    its optimizer E on A (x) C).
    """
    return _max_entropy_purified(state)[0]


def _max_entropy_purified(state: BipartiteState) -> tuple[EntropyReport, np.ndarray]:
    """max_entropy's report and the amplitudes psi[a, b, c] of the purification it solved on."""
    d_a = state.d_A
    amp = purify(state.rho).amplitudes.reshape(d_a, state.d_B, -1)
    d_c = amp.shape[2]
    rho_ac = np.einsum("abc,dbe->acde", amp, amp.conj()).reshape(d_a * d_c, d_a * d_c)
    inner = _hmin_report("max_entropy", rho_ac, d_a, d_c)
    return replace(inner, value_bits=-inner.value_bits), amp


def guessing_probability(e: CqEnsemble) -> tuple[float, list[HermitianOperator]]:
    """Best probability of decoding X from B, with the optimal POVM.

    Maximizes sum_x p_x tr(E_x rho_x) over POVMs {E_x}.  This is the
    min-entropy SDP of the joint cq state, whose value is 2^(-H_min(X|B));
    the diagonal blocks E_x of its optimizer E form the POVM, as
    tr_X E = id_B makes them sum to id_B.
    """
    k, d_b = e.n_outcomes, e.d_B
    rep = _hmin_report("guessing_probability", cq_to_density(e).mat, k, d_b)
    e_xb = rep.dual_optimizer.op.mat
    povm = [
        HermitianOperator(e_xb[x * d_b : (x + 1) * d_b, x * d_b : (x + 1) * d_b])
        for x in range(k)
    ]
    return -rep.certificate.dual_value, povm


def _apply_on_second(j: ChoiMatrix, rho_ab: np.ndarray, d_a: int) -> np.ndarray:
    """(id_A (x) F)(rho_AB) for a channel F given by its Choi matrix on B."""
    jt = j._tensor()
    r4 = rho_ab.reshape(d_a, j.d_in, d_a, j.d_in)
    out = np.einsum("abcd,bedf->aecf", r4, jt).reshape(d_a * j.d_out, d_a * j.d_out)
    return 0.5 * (out + out.conj().T)


def singlet_fraction(state: BipartiteState) -> tuple[float, RecoveryCertificate]:
    """Largest d_A-weighted overlap with the maximally entangled state.

    Returns 2^(-H_min(A|B)) together with the explicit trace-preserving
    recovery channel on B: the adjoint of the completely positive unital
    map whose Choi matrix is the min-entropy dual optimizer.  The
    certificate's achieved overlap is recomputed by applying the channel.
    """
    d_a = state.d_A
    rep = _hmin_report("singlet_fraction", state.mat, d_a, state.d_B)
    recovery = adjoint_channel(rep.dual_optimizer)
    out = _apply_on_second(recovery, state.mat, d_a)
    phi = maximally_entangled(d_a).amplitudes
    achieved = float((phi.conj() @ out @ phi).real)
    value = -rep.certificate.dual_value
    cert = RecoveryCertificate(channel=recovery, achieved_overlap=achieved, predicted=value / d_a)
    return value, cert


def decoupling_accuracy(state: BipartiteState) -> tuple[float, DensityOperator]:
    """d_A * max_sigma F(rho_AB, tau_A (x) sigma)^2 over states sigma on B.

    The optimal sigma is read from the min-entropy SDP of rho_AC on a
    purification psi_ABC, the one max_entropy solves: with its optimizer
    E (tr_A E = id_C), sigma is proportional to tr_AC[(E (x) id_B) psi psi†],
    whose trace is tr(rho_AC E).  By Uhlmann's theorem d_A F^2 at this
    sigma is at least tr(rho_AC E), which at the optimum is
    2^(-H_min(A|C)) = 2^(H_max(A|B)).  The value returned is
    d_A F(rho_AB, tau_A (x) sigma)^2 at the returned sigma, so it is a lower
    bound whatever the solver's accuracy.  F is taken as the trace norm of
    V† G for the factors rho_AB = V V† (V = psi) and tau (x) sigma = G G†,
    not from matrix square roots, whose rounding on a rank-deficient rho_AB
    is of order 1e-8.
    """
    return _decoupling_at_optimizer(*_max_entropy_purified(state))


def _decoupling_at_optimizer(hmax: EntropyReport, amp: np.ndarray) -> tuple[float, DensityOperator]:
    """decoupling_accuracy from _max_entropy_purified's report and amplitudes, without a solve."""
    d_a, _, d_c = amp.shape
    k = _psd_factor(hmax.dual_optimizer.op.mat).reshape(d_a, d_c, -1)
    # E = K K†, so tr_AC[(E (x) id_B) psi psi†] = W W† with W = sum_ac psi K*
    wb = np.einsum("abc,acj->bj", amp, k.conj())
    t = float(np.linalg.norm(wb)) ** 2
    # G = id_A (x) W / sqrt(d_A t), so d_A F^2 = ||V† (id_A (x) W)||_1^2 / t
    vg = np.einsum("abc,bj->caj", amp.conj(), wb).reshape(d_c, -1)
    value = float(np.sum(np.linalg.svd(vg, compute_uv=False))) ** 2 / t
    return value, DensityOperator.from_matrix(wb @ wb.conj().T / t)


def key_secrecy(e: CqEnsemble) -> float:
    """Secrecy of X relative to B: the decoupling accuracy of the cq state.

    Equals max_sigma (sum_x sqrt(p_x) F(rho_x, sigma))^2; the block-sum
    form is available separately as key_secrecy_block.
    """
    value, _ = decoupling_accuracy(cq_to_density(e))
    return value


def key_secrecy_block(e: CqEnsemble, sigma: DensityOperator) -> float:
    """Block-sum secrecy (sum_x sqrt(p_x) F(rho_x, sigma))^2 at a given sigma."""
    if sigma.dim != e.d_B:
        raise ValueError("sigma dimension does not match the ensemble")
    total = 0.0
    for p, s in zip(e.probs, e.cond_states):
        if p > 0.0:
            total += math.sqrt(p) * _root_fidelity_mats(s.mat, sigma.mat)
    return total**2


def max_target_fidelity(state: BipartiteState, target: PureState) -> float:
    """Best squared fidelity with any pure target on A (x) A'.

    max_F F((id (x) F)(rho_AB), |Psi><Psi|)^2 over channels F from B to
    A'.  With M the target's amplitude matrix (Psi[a, a'] = M[a, a']),
    <Psi| = sqrt(d_A) <Phi|(M† (x) id) exactly, and M acts on A, so it
    commutes with id (x) F: the value is the min-entropy SDP value of the
    conjugated operator d_A (M† (x) id) rho (M (x) id), divided by d_A.
    No polar decomposition is taken, so the target may have any Schmidt
    rank.  For the maximally entangled target this reduces to
    singlet_fraction / d_A, and for a product target |a>|b> to <a|rho_A|a>.
    """
    d_a, d_b = state.d_A, state.d_B
    if target.dim != d_a * d_a:
        raise ValueError(f"target must live on A (x) A' with dimension {d_a * d_a}")
    conj = np.kron(target.amplitudes.reshape(d_a, d_a), np.eye(d_b))
    rho_tilde = d_a * (conj.conj().T @ state.mat @ conj)
    rep = _hmin_report("max_target_fidelity", rho_tilde, d_a, d_b)
    return -rep.certificate.dual_value / d_a


def closed_form_entropies(state: BipartiteState, case: str) -> tuple[float, float]:
    """(H_min, H_max) in closed form for product or pure bipartite states.

    case='product' requires ||rho_AB - rho_A (x) rho_B||_1 <= 1e-9 and
    returns (-log2 ||rho_A||_inf, 2 log2 tr sqrt(rho_A)); case='pure'
    requires lmax(rho_AB) >= 1 - 1e-9 and returns
    (-log2 (tr sqrt(rho_A))^2, log2 ||rho_A||_inf).
    """
    rho = state.mat
    rho_a = _partial_trace_mat(rho, state.d_A, state.d_B, "A")
    ev_a = np.clip(_eigh(rho_a, vectors=False), 0.0, None)
    lam_max_a = float(ev_a[-1])
    tr_sqrt_a = float(np.sum(np.sqrt(ev_a)))
    if case == "product":
        rho_b = _partial_trace_mat(rho, state.d_A, state.d_B, "B")
        dist = float(np.sum(np.abs(_eigh(rho - np.kron(rho_a, rho_b), vectors=False))))
        if dist > PRODUCT_ATOL:
            raise ValueError(f"state is not a product state (trace distance {dist:.3e})")
        return -math.log2(lam_max_a), 2.0 * math.log2(tr_sqrt_a)
    if case == "pure":
        lam_max = float(_eigh(rho, vectors=False)[-1])
        if lam_max < 1.0 - PURE_ATOL:
            raise ValueError(f"state is not pure (largest eigenvalue {lam_max!r})")
        return -math.log2(tr_sqrt_a**2), math.log2(lam_max_a)
    raise ValueError(f"case must be 'product' or 'pure', got {case!r}")

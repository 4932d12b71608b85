"""Independent verifiers for the entropy quantities.

Everything here is deliberately dumb and solver-free (the one exception,
fidelity_sdp, exists to cross-check the factored fidelity formula
||V_rho† V_omega||_1 of core.root_fidelity against the interior-point
solver).  Closed forms use nothing but eigendecompositions; search
oracles return one-sided bounds and are asserted as such, never as
equalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .channels import ChoiMatrix
from .core import (
    BipartiteState,
    DensityOperator,
    HermitianOperator,
    PureState,
    _partial_trace_mat,
    _psd_factor,
    hermitian_basis,
    maximally_entangled,
)

__all__ = [
    "OracleReport",
    "helstrom_guess_probability",
    "min_entropy_direct_search",
    "sampled_target_fidelity",
    "sampled_singlet_fraction",
    "fidelity_sdp",
    "random_cptp_choi",
    "haar_isometry",
]


@dataclass(frozen=True)
class OracleReport:
    """One oracle-versus-main comparison row.

    The gap is recorded even when the check fails; method names the
    resolution or sample count that produced the oracle value.
    """

    quantity: str
    oracle_value: float
    main_value: float
    gap: float
    method: str
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.gap) and self.gap <= self.tolerance)


def helstrom_guess_probability(p0: float, rho0: DensityOperator, rho1: DensityOperator) -> float:
    """Optimal success probability for discriminating two states.

    The best two-outcome measurement projects onto the positive eigenspace
    of p0*rho0 - p1*rho1, giving (1 + ||p0 rho0 - p1 rho1||_1) / 2.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    if rho0.dim != rho1.dim:
        raise ValueError("states must have equal dimensions")
    diff = p0 * rho0.mat - (1.0 - p0) * rho1.mat
    return 0.5 * (1.0 + float(np.sum(np.abs(np.linalg.eigvalsh(diff)))))


def _coverage(rho: np.ndarray, d_a: int, d_b: int, sigmas: np.ndarray) -> np.ndarray:
    """lmax((id (x) s)^(-1/2) rho (id (x) s)^(-1/2)) for a batch of full-rank s."""
    w, v = np.linalg.eigh(sigmas)
    w = np.clip(w, 1e-300, None)
    inv_sqrt = (v * w[..., None, :] ** -0.5) @ np.swapaxes(v.conj(), -2, -1)
    big = np.einsum("ab,nij->naibj", np.eye(d_a), inv_sqrt).reshape(-1, d_a * d_b, d_a * d_b)
    return np.linalg.eigvalsh(big @ rho @ big)[..., -1]


def _bloch_ball_sigmas(step: float) -> np.ndarray:
    """Qubit states on a Bloch-ball grid of the given step, slightly inside."""
    axis = np.arange(-1.0, 1.0 + 0.5 * step, step)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= 0.999]
    sig = np.zeros((len(pts), 2, 2), dtype=complex)
    sig[:, 0, 0] = 0.5 * (1.0 + pts[:, 2])
    sig[:, 1, 1] = 0.5 * (1.0 - pts[:, 2])
    sig[:, 0, 1] = 0.5 * (pts[:, 0] - 1j * pts[:, 1])
    sig[:, 1, 0] = 0.5 * (pts[:, 0] + 1j * pts[:, 1])
    return sig


def min_entropy_direct_search(state: BipartiteState, resolution: float = 1e-3) -> float:
    """Direct search over conditioning states: an upper bound on 2^(-H_min).

    Minimizes lmax((id (x) s)^(-1/2) rho (id (x) s)^(-1/2)) over density
    operators s on B (d_B <= 3) with a coarse grid followed by
    Nelder-Mead refinement; any evaluated point upper-bounds the optimum,
    and the refinement brings the gap down to the order of `resolution`.

    Each refinement starts from a simplex with one step of 0.05 along
    every coordinate of theta (a start has ||theta|| = 1).  scipy's
    default steps 2.5e-4 along a zero coordinate, so the start at the
    maximally mixed state, whose off-diagonal coordinates are zero, took
    up to its 4000-iteration cap to leave it.
    """
    import scipy.optimize  # imported here, its one use, to keep it out of `import minmaxent`

    d_a, d_b = state.d_A, state.d_B
    if d_b > 3:
        raise ValueError("direct search is limited to d_B <= 3")
    rho = state.mat

    starts: list[np.ndarray] = [np.eye(d_b, dtype=complex) / d_b]
    if d_b == 2:
        sigmas = _bloch_ball_sigmas(0.08)
        vals = _coverage(rho, d_a, d_b, sigmas)
        order = np.argsort(vals)
        starts.extend(sigmas[order[:6]])
    else:
        rng = np.random.default_rng(0)
        for _ in range(12):
            g = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
            s = g @ g.conj().T
            starts.append(s / np.trace(s).real)

    basis = hermitian_basis(d_b)

    def sigma_of(theta: np.ndarray) -> np.ndarray:
        h = np.einsum("k,kij->ij", theta, basis)
        s = h @ h + 1e-10 * np.eye(d_b)
        return s / np.trace(s).real

    def objective(theta: np.ndarray) -> float:
        return float(_coverage(rho, d_a, d_b, sigma_of(theta)[None, ...])[0])

    best = np.inf
    for s0 in starts:
        w, v = np.linalg.eigh(s0)
        h0 = (v * np.sqrt(np.clip(w, 1e-12, None))) @ v.conj().T
        theta0 = np.einsum("kij,ji->k", basis, h0).real
        res = scipy.optimize.minimize(
            objective,
            theta0,
            method="Nelder-Mead",
            options={
                "initial_simplex": np.vstack([theta0, theta0 + 0.05 * np.eye(theta0.size)]),
                "xatol": resolution * 1e-2,
                "fatol": resolution * 1e-3,
                "maxiter": 4000,
            },
        )
        best = min(best, float(res.fun))
    return best


def haar_isometry(d_from: int, d_to: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry (d_to x d_from columns of a Haar unitary)."""
    if d_to < d_from:
        raise ValueError("isometry needs d_to >= d_from")
    g = rng.standard_normal((d_to, d_to)) + 1j * rng.standard_normal((d_to, d_to))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q[:, :d_from]


def random_cptp_choi(d_in: int, d_out: int, seed: int, d_env: int | None = None) -> ChoiMatrix:
    """Choi matrix of a Haar-random channel via isometry plus traced ancilla."""
    d_e = d_out if d_env is None else d_env
    rng = np.random.default_rng(seed)
    v = haar_isometry(d_in, d_out * d_e, rng).reshape(d_out, d_e, d_in)
    j = np.einsum("oei,pej->iojp", v, v.conj()).reshape(d_in * d_out, d_in * d_out)
    return ChoiMatrix(HermitianOperator(j), d_in, d_out)


def _target_overlap_via_isometry(
    rho: np.ndarray, d_a: int, d_b: int, v: np.ndarray, target: np.ndarray
) -> float:
    """<Psi| tr_E [(id (x) V) rho (id (x) V)†] |Psi> for V: B -> A' (x) E."""
    d_o = target.size // d_a
    d_e = v.shape[0] // d_o
    lift = np.kron(np.eye(d_a), v)
    out = lift @ rho @ lift.conj().T
    t = out.reshape(d_a, d_o, d_e, d_a, d_o, d_e)
    red = np.einsum("aoebpe->aobp", t).reshape(d_a * d_o, d_a * d_o)
    return float((target.conj() @ red @ target).real)


def sampled_target_fidelity(
    state: BipartiteState, target: PureState, samples: int, seed: int
) -> float:
    """Lower bound on max_F <Psi|(id (x) F)(rho)|Psi> from sampled channels.

    Channels are Haar-random isometries from B into A' tensor an ancilla
    of dimension d_A, followed by tracing the ancilla.  Two deterministic
    baselines are always included: trace-and-prepare the maximally mixed
    state, and (when d_B = d_A) the identity channel.
    """
    d_a, d_b = state.d_A, state.d_B
    if target.dim != d_a * d_a:
        raise ValueError(f"target must have dimension {d_a * d_a}")
    rho = state.mat
    tvec = target.amplitudes
    rho_a = _partial_trace_mat(rho, d_a, d_b, "A")
    tmat = tvec.reshape(d_a, d_a)
    # trace-and-prepare tau baseline: output rho_A (x) id/d_A
    best = float(np.einsum("ab,cd,ac,bd->", tmat.conj(), tmat, rho_a, np.eye(d_a) / d_a).real)
    if d_b == d_a:
        red = rho.reshape(d_a * d_b, d_a * d_b)
        best = max(best, float((tvec.conj() @ red @ tvec).real))
    rng = np.random.default_rng(seed)
    d_e = d_a
    for _ in range(samples):
        v = haar_isometry(d_b, d_a * d_e, rng)
        best = max(best, _target_overlap_via_isometry(rho, d_a, d_b, v, tvec))
    return best


def sampled_singlet_fraction(state: BipartiteState, samples: int, seed: int) -> float:
    """d_A times the best sampled overlap with the maximally entangled state.

    A lower bound on the singlet fraction for every sample count; with the
    identity baseline it is exact for identity-recoverable states.
    """
    if state.d_A > state.d_B:
        raise ValueError("sampling bound requires d_A <= d_B")
    phi = maximally_entangled(state.d_A)
    return state.d_A * sampled_target_fidelity(state, phi, samples, seed)


def _fidelity_problem(rho: np.ndarray, omega: np.ndarray) -> sdp.HermitianSdp:
    """max (1/2) tr(X + X†) over [[rho, X], [X†, omega]] >= 0, in standard form.

    Positivity forces X into the supports of the two corners, so the
    program is presolved onto those supports (isometries U, V: the
    normalized columns of the support factors of core._psd_factor), which
    keeps it strictly feasible for pure states.  The variable is the
    two-block [[U† rho U, Xt], [Xt†, V† omega V]] with its diagonal blocks
    fixed by equalities.
    """
    u, v = (f / np.linalg.norm(f, axis=0) for f in (_psd_factor(rho), _psd_factor(omega)))
    r1, r2 = u.shape[1], v.shape[1]
    s1 = u.conj().T @ rho @ u
    s2 = v.conj().T @ omega @ v
    n = r1 + r2
    # objective: maximize Re tr(V† U Xt) for the off-diagonal block Xt
    k = v.conj().T @ u
    cmat = np.zeros((n, n), dtype=complex)
    cmat[:r1, r1:] = -0.5 * k.conj().T
    cmat[r1:, :r1] = -0.5 * k
    cons = []
    for bk in hermitian_basis(r1):
        amat = np.zeros((n, n), dtype=complex)
        amat[:r1, :r1] = bk
        cons.append((HermitianOperator(amat), float(np.trace(bk @ s1).real)))
    for bk in hermitian_basis(r2):
        amat = np.zeros((n, n), dtype=complex)
        amat[r1:, r1:] = bk
        cons.append((HermitianOperator(amat), float(np.trace(bk @ s2).real)))
    return sdp.HermitianSdp(HermitianOperator(cmat), tuple(cons))


def fidelity_sdp(rho: DensityOperator, omega: DensityOperator) -> float:
    """Root fidelity via its block-matrix program, solved with the SDP engine.

    Agrees with the factored formula ||V_rho† V_omega||_1 (rho = V_rho V_rho†,
    omega = V_omega V_omega†) of root_fidelity to solver accuracy and
    serves as its independent cross-check.
    """
    if rho.dim != omega.dim:
        raise ValueError("states must have equal dimensions")
    sol = sdp.solve(_fidelity_problem(rho.mat, omega.mat))
    if sol.status != sdp.STATUS_OPTIMAL:
        raise sdp.SolverError(f"fidelity SDP stopped with status {sol.status}", sol)
    return max(0.0, -sol.primal_value)

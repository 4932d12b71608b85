"""Self-contained primal-dual interior-point solver for the min-entropy SDP.

Solves   minimize  tr(C X)  subject to  tr_A X = id_B,  X >= 0 on A (x) B
         (complex Hermitian positive semidefinite)

with the dual: maximize tr(Y) s.t. Z = C - id_A (x) Y >= 0, Y the
Hermitian multiplier of the matrix equality, stated entry by entry:
A(X) = vec tr_A X, row-major, and A*(Y) = id_A (x) Y.  Every library
solve is this one form: with C = -rho it is max{tr(rho E) : E >= 0,
tr_A E = id_B}, whose Y is -sigma of min{tr sigma : id (x) sigma >= rho};
the min-entropy, the guessing probability, the singlet fraction and the
target fidelity read it on their own operators, the max-entropy, the
decoupling accuracy and the key secrecy on a purification.  The
iterates are complex Hermitian matrices throughout.  The iteration is an
infeasible-start path-following method with Nesterov-Todd scaling (Todd,
Toh and Tutuncu, SIAM J. Optim. 8, 1998) in Mehrotra's
predictor-corrector form (S. Mehrotra, SIAM J. Optim. 2, 1992), save
that the relative dual residual, not the predictor's step, sets the
centering parameter: the predictor's affine direction only feeds the
corrector's second-order term, a Lyapunov solve that is elementwise in
the NT-scaled frame.  The Schur matrix of Y -> tr_A[W (id (x) Y) W] is
complex Hermitian, the reshuffled sum over blocks of kron(W_st, W_ts^T):
one product of W's blocks, O(d_A^2 d_B^4).

The iteration runs on numpy.linalg alone, and each step is taken in
the NT-scaled frame G^-1 X G^-H = G^H Z G = diag(lam), where its length
is estimated.  With S the step of X (or of Z) read in that frame, the
step is taken at its estimated length alpha only if diag(lam) + alpha S
factors by Cholesky as L L^H; the new X is rebuilt as (G L)(G L)^H, PSD
by construction, and Z + alpha dZ is formed as it stands.  The
predictor's step is neither taken nor measured.  Z^-1 =
G diag(1/lam) G^H is read in the same frame, so nothing is inverted: a
Cholesky factorization tests the Schur matrix once per iteration, and
each Newton system is one LU solve with it.  Any LinAlgError ends the
solve as a numerical failure that keeps the last completed iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HermitianOperator, _eigh, _frozen, _partial_trace_mat

__all__ = [
    "HermitianSdp",
    "SdpSolution",
    "CertificateReport",
    "SolverError",
    "solve",
    "check_certificate",
]

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_NUMERICAL_FAILURE = "numerical_failure"

# Stopping target (relative gap and residuals), the iteration cap, and the
# iterate norm beyond which a solve stops as a numerical failure (both sides of
# the min-entropy SDP are strictly feasible, so only a numerical divergence reaches it).
DEFAULT_TOL = 1e-9
MAX_ITERATIONS = 200
DIVERGENCE_LIMIT = 1e12
# The centering sigma is the relative dual residual clipped to [CENTERING_MIN, CENTERING_MAX]: it centers
# hard while the dual is infeasible (a constant sigma, 0.03 or 0.2, leaves a solve capped at one iteration
# with its dual value above its primal).  Iterations on the benchmark cycles at seeds 1-3 / verify seeds 0-2 /
# the 2400-call sweep, all optimal: floors 0.01 / 0.02 / 0.03 / 0.05 / 0.1 under the cap 0.5 with
# STEP_FRACTION 0.98 take 1813 / 1707 / 1657 / 1687 / 1965, 11939 / 11319 / 11204 / 11730 / 13606 and
# 23406 / 22061 / 21960 / 22911 / 26874; caps 0.3 / 1 at the floor 0.03, 1707 / 1683, 11165 / 11554 and
# 22364 / 22485; STEP_FRACTION 0.97 / 0.985 / 0.99 at [0.03, 0.5], 1676 / 1670 / 1840, 11434 / 11250 /
# 11850 and 22477 / 21848 / 22924.  Mehrotra's sigma = (mu_aff / mu)^1.25 with STEP_FRACTION 0.97 took
# 1663, 11266 and 22385.  Held out (benchmark seeds 7-9, verify seeds 3-5, sweep seeds 200-399): 1682,
# 11178 and 22026 here, 1667, 11254 and 22391 with Mehrotra's sigma.
CENTERING_MIN, CENTERING_MAX = 0.03, 0.5
STEP_FRACTION = 0.98


class SolverError(RuntimeError):
    """Raised by callers when a solve does not reach an optimal certificate."""

    def __init__(self, message: str, solution: "SdpSolution"):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True, eq=False)
class HermitianSdp:
    """The min-entropy SDP: minimize tr(C X) s.t. tr_A X = id_B, X >= 0, for X on A (x) B.

    A is the major index, so X is d_A x d_A blocks X_ab of size d_B and the
    constraint is sum_a X_aa = id_B, the d_B^2 entries (sum_a X_aa)_jk = delta_jk.
    y holds them row-major, as the entries of their Hermitian multiplier Y;
    so n_constraints is d_B^2.
    """

    objective: HermitianOperator
    d_A: int
    d_B: int

    def __post_init__(self) -> None:
        n, d_a, d_b = self.objective.dim, self.d_A, self.d_B
        if min(d_a, d_b) < 1 or d_a * d_b != n:
            raise ValueError(f"d_A = {d_a} blocks of size d_B = {d_b} do not partition dimension {n}")
        # frozen dataclass; X is dim x dim, and _shape cuts it into its blocks [a, j, b, k]
        self.__dict__.update(dim=n, n_constraints=d_b * d_b, _shape=(d_a, d_b, d_a, d_b), _diag=np.arange(d_a))

    def _op(self, x: np.ndarray) -> np.ndarray:
        """A(X) = vec tr_A X, row-major."""
        return x.reshape(self._shape).trace(axis1=0, axis2=2).ravel()

    def _adj(self, y: np.ndarray) -> np.ndarray:
        """A*(y) = id_A (x) Y: Y written onto each of the d_A diagonal blocks."""
        out = np.zeros(self._shape, dtype=complex)
        out[self._diag, :, self._diag, :] = y.reshape(self.d_B, self.d_B)
        return out.reshape(self.dim, self.dim)

    def _schur(self, w: np.ndarray) -> np.ndarray:
        """The Hermitian matrix G of y -> A(W A*(y) W) = tr_A[W (id (x) Y) W] for Hermitian W.

        G[(j,k),(m,n)] = sum_st W_st[j,m] W_ts[n,k], a reshuffled sum of kron(W_st, W_ts^T):
        one (d_B^2, d_A^2) @ (d_A^2, d_B^2) product of W's blocks.
        """
        w4 = w.reshape(self._shape)  # [s,j,t,m] = W_st[j,m]
        d_a2, m = self.d_A**2, self.n_constraints
        left = w4.transpose(1, 3, 0, 2).reshape(m, d_a2)  # [(j,m),(s,t)] = W_st[j,m]
        right = w4.transpose(2, 0, 1, 3).reshape(d_a2, m)  # [(s,t),(n,k)] = W_ts[n,k]
        return (left @ right).reshape((self.d_B,) * 4).transpose(0, 3, 1, 2).reshape(m, m)


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """Matched primal/dual certificate returned by solve().

    y_star holds the entries of the exactly Hermitian multiplier Y,
    row-major; dual_value is tr(Y).
    primal_value is the infeasibility-compensated objective tr(C X) +
    Re <y, b - A(X)>; it coincides with tr(C X) up to rounding whenever
    the constraint residual is at rounding level, and stays an accurate
    optimum estimate when a degenerate face leaves a small residual floor
    that large multipliers would otherwise amplify.  gap is derived from
    the two values, so it cannot disagree with them.
    """

    X_star: HermitianOperator
    y_star: np.ndarray
    Z_star: HermitianOperator
    primal_value: float
    dual_value: float
    status: str
    iterations: int

    @property
    def gap(self) -> float:
        return self.primal_value - self.dual_value


@dataclass(frozen=True)
class CertificateReport:
    """Residuals of a solution, recomputed from scratch (solver-independent)."""

    constraint_residual: float
    dual_residual: float
    min_eig_X: float
    min_eig_Z: float
    primal_value: float
    dual_value: float
    gap: float
    value_mismatch: float
    weak_duality_violation: float


def _step_estimate(lam: np.ndarray, s: np.ndarray) -> float:
    """Largest alpha <= 1 keeping diag(lam) + alpha*s, an NT-scaled step, inside the cone; unverified.

    With wmin the least eigenvalue of lam_i^-1/2 s_ij lam_j^-1/2 (eigvalsh reads one triangle: s is
    not symmetrized), it is the largest alpha <= 1 with 1 + alpha*wmin >= 1 - STEP_FRACTION.
    """
    r = lam**-0.5
    wmin = float(_eigh(r[:, None] * s * r, vectors=False)[0])
    return min(1.0, -STEP_FRACTION / wmin) if wmin < 0.0 else 1.0


def _max_step(s: np.ndarray, d: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """The estimate alpha with the Cholesky factor of s + alpha*d; LinAlgError if it has no finite one."""
    ell = np.linalg.cholesky(s + alpha * d)
    if not np.isfinite(ell).all():  # numpy's Cholesky passes NaN through
        raise np.linalg.LinAlgError("the step leaves a non-finite iterate")
    return alpha, ell


def _nt_scaling(lx: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G and lam with G^-1 X G^-† = G† Z G = diag(lam) for X = lx lx†; W = G G†.

    lx† Z lx = Q diag(w) Q† (eigh reads one triangle, so it is not symmetrized) gives
    G = lx Q diag(w^-1/4) and lam = w^1/2.
    """
    wmid, qmid = _eigh(lx.conj().T @ z @ lx)
    wmid = np.clip(wmid, 1e-300, None)
    return (lx @ qmid) * wmid**-0.25, np.sqrt(wmid)


def solve(problem: HermitianSdp) -> SdpSolution:
    """Run the interior-point iteration and return a matched certificate.

    The iteration starts from y = 0, Z = ||C||_F I (I if C = 0) and the feasible
    X = I/d_A; the start need not be dual feasible.  On optimal certificates
    the dual value exceeds the primal by at most 1e-9; identical problem
    data yields identical output.  Each step is taken in the NT-scaled frame
    G^-1 X G^-H = G^H Z G = diag(lam): its cone test is one Cholesky of
    diag(lam) + alpha S at the estimated length alpha, the new X is rebuilt from
    the factor G L, and each Newton system is one LU solve with the Schur matrix,
    once Cholesky has found that matrix positive definite.  The centering
    parameter is the relative dual residual clipped to [CENTERING_MIN,
    CENTERING_MAX]; the predictor's affine direction only feeds the
    corrector's second-order term, so each iteration reads two step
    spectra, those of the corrector's X and Z steps.

    The returned status is one of
      "optimal"            the certificate meets the tolerances above;
      "max_iterations"     the iteration cap MAX_ITERATIONS was hit;
      "numerical_failure"  an eigendecomposition failed on both triangles, the
                           Schur matrix did not factor, a step at its estimated
                           length left diag(lam) + alpha S, the new X or Z in the
                           NT-scaled frame, without a finite Cholesky factor, or
                           the iterates diverged past DIVERGENCE_LIMIT.
    A run stops as "optimal" once the primal and dual residuals and the
    relative gap meet DEFAULT_TOL and dual_value <= primal_value + 1e-9.
    Whatever the status, the last completed iterate is returned as the
    certificate; no LinAlgError from the iteration escapes.
    """
    n, d_a, d_b = problem.dim, problem.d_A, problem.d_B
    m = problem.n_constraints
    cmat = problem.objective.mat
    a_op, a_adj = problem._op, problem._adj
    b = np.eye(d_b, dtype=complex).ravel()
    norm_b = float(np.linalg.norm(b))
    norm_c = float(np.linalg.norm(cmat))

    tau = 1.0 / d_a  # tr_A(tau I) = id_B: the start is primal feasible
    x, lx = tau * np.eye(n), np.sqrt(tau) * np.eye(n)
    z = (norm_c or 1.0) * np.eye(n)
    y = np.zeros(m, dtype=complex)

    status = STATUS_MAX_ITERATIONS
    iterations = 0

    def measure(x, y, z):
        rp = b - a_op(x)
        rd = cmat - z - a_adj(y)
        xz = float(np.vdot(z, x).real)
        # infeasibility-compensated objective (the Lagrangian value): when
        # the residual floor is paid for by large multipliers, tr(C X)
        # alone underestimates the optimum by Re <y, b - A(X)>
        pv = float(np.vdot(cmat, x).real) + float(np.vdot(y, rp).real)
        dv = float(np.vdot(b, y).real)
        pinf = float(np.linalg.norm(rp)) / (1.0 + norm_b)
        dinf = float(np.linalg.norm(rd)) / (1.0 + norm_c)
        return rp, rd, xz, pv, dv, pinf, dinf, xz / (1.0 + abs(pv) + abs(dv))

    for it in range(1, MAX_ITERATIONS + 1):
        iterations = it
        rp, rd, xz, pv, dv, pinf, dinf, relgap = measure(x, y, z)
        mu = xz / n

        if pinf <= DEFAULT_TOL and dinf <= DEFAULT_TOL and relgap <= DEFAULT_TOL and dv <= pv + 1e-9:
            status = STATUS_OPTIMAL
            break
        if max(np.abs(x).max(), np.abs(z).max(), np.abs(y).max()) > DIVERGENCE_LIMIT:
            status = STATUS_NUMERICAL_FAILURE
            break

        # Any LinAlgError ends the loop; (x, lx, y, z) are only replaced by a completed step.
        try:
            # Nesterov-Todd scaling point W = G G† with W Z W = X.
            g, lam = _nt_scaling(lx, z)
            gh, lam_mat = g.conj().T, np.diag(lam)
            w = g @ gh
            w = 0.5 * (w + w.conj().T)

            schur = problem._schur(w)
            schur = 0.5 * (schur + schur.conj().T)
            np.linalg.cholesky(schur)  # the test that the Schur matrix is positive definite

            def solve_schur(rhs: np.ndarray) -> np.ndarray:
                dy = np.linalg.solve(schur, rhs).reshape(d_b, d_b)
                return (0.5 * (dy + dy.conj().T)).ravel()  # Y exactly Hermitian

            rhs = b + a_op(w @ rd @ w)  # rp - A(-X - W rd W): the predictor's, and the corrector's but one term

            # Predictor: the affine direction only feeds the corrector's second-order term; it is
            # neither measured nor taken.  dXa = -X - W dZa W reads -diag(lam) - G† dZa G in the scaled frame.
            sza = gh @ (rd - a_adj(solve_schur(rhs))) @ g
            sxa = -lam_mat - sza
            sigma = min(CENTERING_MAX, max(CENTERING_MIN, dinf))

            # Corrector: sigma*mu Z^-1 - X less the second-order term G[(T + T†) / (lam_i + lam_j)]G†,
            # T = (G^-1 dXa G^-†)(G† dZa G), is G S G† - X as Z^-1 = G diag(1/lam) G†, so the
            # right-hand side loses A(G S G†), and dX = G S G† - X - W dZ W reads S - diag(lam) - G† dZ G.
            t = sxa @ sza
            s = np.diag(sigma * mu / lam) - (t + t.conj().T) / (lam[:, None] + lam)
            dz = rd - a_adj(dy := solve_schur(rhs - a_op(g @ s @ gh)))
            sz = gh @ dz @ g
            sx = s - lam_mat - sz
            _, ell = _max_step(lam_mat, sx, _step_estimate(lam, sx))
            ad, _ = _max_step(lam_mat, sz, _step_estimate(lam, sz))

            lx = g @ ell  # X + alpha dX = G (diag(lam) + alpha sx) G† = lx lx†
            x = lx @ lx.conj().T
            y = y + ad * dy
            z = z + ad * dz
        except np.linalg.LinAlgError:
            status = STATUS_NUMERICAL_FAILURE
            break

    if status == STATUS_MAX_ITERATIONS:  # the cap: the last step is unmeasured
        pv, dv = measure(x, y, z)[3:5]

    return SdpSolution(
        X_star=HermitianOperator(x),
        y_star=_frozen(y),
        Z_star=HermitianOperator(z),
        primal_value=pv,
        dual_value=dv,
        status=status,
        iterations=iterations,
    )


def check_certificate(problem: HermitianSdp, solution: SdpSolution) -> CertificateReport:
    """Recompute feasibility residuals, cone violations and the gap from scratch.

    Reads the two identities directly: tr_A X = id_B, and Z = C - id_A (x) Y
    with Y the d_B x d_B reshape of y.  Uses only the problem data and the
    solution's (X, y, Z); nothing is shared with the solver internals, so
    corrupted certificates are caught.
    """
    x, z, c = solution.X_star.mat, solution.Z_star.mat, problem.objective.mat
    d_a, d_b = problem.d_A, problem.d_B
    y = solution.y_star.reshape(d_b, d_b)
    pv = float(np.vdot(c, x).real)  # tr(C X), C Hermitian
    dv = float(np.trace(y).real)
    return CertificateReport(
        constraint_residual=float(np.max(np.abs(_partial_trace_mat(x, d_a, d_b, "B") - np.eye(d_b)))),
        dual_residual=float(np.max(np.abs(c - z - np.kron(np.eye(d_a), y)))),
        min_eig_X=float(_eigh(x, vectors=False)[0]),
        min_eig_Z=float(_eigh(z, vectors=False)[0]),
        primal_value=pv,
        dual_value=dv,
        gap=pv - dv,
        value_mismatch=max(abs(pv - solution.primal_value), abs(dv - solution.dual_value)),
        weak_duality_violation=max(0.0, solution.dual_value - solution.primal_value),
    )

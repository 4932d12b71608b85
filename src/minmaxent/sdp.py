"""Self-contained primal-dual interior-point solver for Hermitian SDPs.

Solves   minimize  tr(C X)  subject to  sum_s c_fs X_ss = R_f  for each family f,
         X >= 0 (complex Hermitian positive semidefinite, cut into diagonal blocks X_ss)

with the dual: maximize sum_f tr(R_f Y_f) s.t. Z = C - A*(Y) >= 0, Y_f
the Hermitian multiplier of family f's matrix equality, stated entry by
entry.  A(X) is vec(sum_s c_s X_ss) per family, row-major, and A*(Y) adds
c_s Y_f to each weighted block.  The iterates are complex Hermitian
matrices throughout.  The iteration is an infeasible-start
path-following method with Nesterov-Todd scaling (Todd, Toh and Tutuncu,
SIAM J. Optim. 8, 1998) in Mehrotra's predictor-corrector form (S.
Mehrotra, SIAM J. Optim. 2, 1992): the predictor's affine step sets the
centering parameter, and the corrector carries its second-order term, a
Lyapunov solve that is elementwise in the NT-scaled frame.  The
min-entropy, max tr(rho E) over E >= 0 with tr_A E = id_B (the
max-entropy and the decoupling accuracy are read from it on a
purification), is one family weighting each of the d_A blocks by 1, and
its Y is -sigma of min{tr sigma : id (x) sigma >= rho}; the fidelity
cross-check of the oracles fixes the two diagonal blocks of its variable
with one family each.  The Schur matrix of y -> A(W A*(y) W) is complex
Hermitian, its (f, g) block the reshuffled sum of c_fs c_gt
kron(W_st, W_ts^T): one product of the gathered blocks, O(S^2 d^4) for
S blocks of size d.

The iteration runs on numpy.linalg alone, and each step is taken in
the NT-scaled frame G^-1 X G^-H = G^H Z G = diag(lam), where its length
is estimated.  With S the step of X (or of Z) read in that frame, the
step is taken at its estimated length alpha only if diag(lam) + alpha S
factors by Cholesky as L L^H; the new X is rebuilt as (G L)(G L)^H, PSD
by construction, and Z + alpha dZ is formed as it stands.  The
predictor's step is never taken and only estimated.  Z^-1 =
G diag(1/lam) G^H is read in the same frame, so nothing is inverted: a
Cholesky factorization tests the Schur matrix once per iteration, and
each Newton system is one LU solve with it.  Any LinAlgError ends the
solve as a numerical failure that keeps the last completed iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import HermitianOperator, _eigh

__all__ = [
    "HermitianSdp",
    "SdpSolution",
    "CertificateReport",
    "SolverError",
    "solve",
    "check_certificate",
    "STATUS_OPTIMAL",
    "STATUS_MAX_ITERATIONS",
    "STATUS_INFEASIBLE_SUSPECTED",
    "STATUS_NUMERICAL_FAILURE",
]

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE_SUSPECTED = "infeasible_suspected"
STATUS_NUMERICAL_FAILURE = "numerical_failure"

# Stopping target (relative gap and residuals), and the iterate norm
# beyond which the problem is suspected infeasible/unbounded.
DEFAULT_TOL = 1e-9
DIVERGENCE_LIMIT = 1e12
# STEP_FRACTION: per cycle at benchmark seeds 1-4, 0.97 takes 459-468 iterations on minent-batch
# and 147-153 on hmax-purified; 0.95 took 471-481 and 152-159, 0.98 456-463 and 151-156, 0.9 522-528 and 165-167.
STEP_FRACTION = 0.97


class SolverError(RuntimeError):
    """Raised by callers when a solve does not reach an optimal certificate."""

    def __init__(self, message: str, solution: "SdpSolution | None" = None):
        super().__init__(message)
        self.solution = solution


class _Family(NamedTuple):
    """One family's share of the constraint map, derived once by HermitianSdp."""

    y: slice  # its multipliers
    rows: np.ndarray  # (weighted blocks, d): the indices of each block it weights
    flat: np.ndarray  # (weighted blocks, d^2): the flat indices of those blocks in X
    coef: np.ndarray  # their weights c_s


@dataclass(frozen=True, eq=False)
class HermitianSdp:
    """Block-family SDP data: minimize tr(C X) s.t. sum_s c_s X_ss = R per family, X >= 0.

    X is cut into diagonal blocks X_ss of the sizes in `blocks`, which sum
    to the dimension of C.  A family (coefficients c, rhs R) stands for the
    d^2 entries (sum_s c_s X_ss)_jk = R_jk, R's size d, and every block it
    weights must have size d.  y runs family by family, each family's d^2
    entries being those of its Hermitian dual matrix Y_f, row-major; so
    n_constraints is the sum of the d^2.  The constraints are linearly
    independent exactly when, size by size, the coefficient vectors of the
    families are, which is checked here as a rank.
    """

    objective: HermitianOperator
    blocks: tuple[int, ...]
    families: tuple[tuple[tuple[float, ...], HermitianOperator], ...]

    def __post_init__(self) -> None:
        n = self.objective.dim
        blocks = tuple(int(d) for d in self.blocks)
        fams = tuple((tuple(float(c) for c in coefs), rhs) for coefs, rhs in self.families)
        if not fams or min(blocks, default=0) < 1 or sum(blocks) != n:
            raise ValueError(f"need a family, and block sizes {blocks} partitioning dimension {n}")
        for i, (coefs, rhs) in enumerate(fams):
            if len(coefs) != len(blocks) or any(c and d != rhs.dim for c, d in zip(coefs, blocks)):
                raise ValueError(f"family {i} must weight {len(blocks)} blocks, of size {rhs.dim}")
        for d in {rhs.dim for _, rhs in fams}:
            group = np.array([coefs for coefs, rhs in fams if rhs.dim == d])
            if np.linalg.matrix_rank(group) < len(group):
                raise ValueError("constraint operators are linearly dependent")
        starts, maps, swap, stop = np.cumsum((0,) + blocks), [], [], 0
        for coefs, rhs in fams:
            d, c = rhs.dim, np.array(coefs)
            rows = starts[:-1][c != 0][:, None] + np.arange(d)
            flat = (rows[:, :, None] * n + rows[:, None, :]).reshape(len(rows), -1)
            maps.append(_Family(slice(stop, stop + d * d), rows, flat, c[c != 0]))
            swap.append(stop + np.arange(d * d).reshape(d, d).T.ravel())  # y_f's index of Y_f[k, j]
            stop += d * d
        # _schur's gather indices and coefficient products, per family pair (f, g)
        pairs = [
            (f, g, f.rows[:, :, None, None] * n + g.rows, np.outer(f.coef, g.coef)[:, None, :, None])
            for i, f in enumerate(maps)
            for g in maps[i:]
        ]
        self.__dict__.update(blocks=blocks, families=fams, _maps=maps, _pairs=pairs)  # frozen dataclass
        self.__dict__.update(_swap=np.concatenate(swap), dim=n, n_constraints=stop)  # X is dim x dim

    def _op(self, x: np.ndarray) -> np.ndarray:
        """A(X): per family, vec(sum_s c_s X_ss), row-major."""
        return np.concatenate([f.coef @ x.take(f.flat) for f in self._maps])

    def _adj(self, y: np.ndarray) -> np.ndarray:
        """A*(y): per family, c_s Y_f added onto each weighted block."""
        out = np.zeros(self.dim**2, dtype=complex)
        for f in self._maps:
            out[f.flat] += f.coef[:, None] * y[f.y]
        return out.reshape(self.dim, self.dim)

    def _schur(self, w: np.ndarray) -> np.ndarray:
        """The Hermitian matrix G of y -> A(W A*(y) W) for Hermitian W, one family pair (f, g) at a time.

        G_fg[(j,k),(m,n)] = sum_st c_fs c_gt W_st[j,m] W_ts[n,k], a reshuffled sum of
        kron(W_st, W_ts^T) and so one (d_f d_g, S_f S_g) @ (S_f S_g, d_g d_f)
        product of the gathered blocks, W_ts being W_st^H; G_gf = G_fg^H.
        """
        h = np.empty((self.n_constraints,) * 2, dtype=complex)
        for f, g, index, cc in self._pairs:
            wst = w.take(index)  # [s,j,t,m] = W_st[j,m]
            nf, df, ng, dg = wst.shape
            left = (cc * wst).transpose(1, 3, 0, 2).reshape(df * dg, nf * ng)
            right = wst.conj().transpose(0, 2, 3, 1).reshape(nf * ng, dg * df)
            kr = (left @ right).reshape(df, dg, dg, df).transpose(0, 3, 1, 2)
            h[f.y, g.y] = kr.reshape(df * df, dg * dg)
            h[g.y, f.y] = h[f.y, g.y].conj().T
        return h


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """Matched primal/dual certificate returned by solve().

    y_star holds, family by family, the entries of each exactly Hermitian
    dual matrix Y_f, row-major; dual_value is sum_f tr(R_f Y_f).
    primal_value is the infeasibility-compensated objective tr(C X) +
    Re <y, b - A(X)>; it coincides with tr(C X) up to rounding whenever
    the constraint residual is at rounding level, and stays an accurate
    optimum estimate when a degenerate face leaves a small residual floor
    that large multipliers would otherwise amplify.
    """

    X_star: HermitianOperator
    y_star: np.ndarray
    Z_star: HermitianOperator
    primal_value: float
    dual_value: float
    gap: float
    status: str
    iterations: int


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


def _scaled_eigvalsh(lam: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Spectrum of lam_i^-1/2 s_ij lam_j^-1/2 (eigvalsh reads one triangle: s is not symmetrized)."""
    r = lam**-0.5
    return _eigh(r[:, None] * s * r, vectors=False)


def _step_length(wmin: float) -> float:
    """Largest alpha <= 1 with 1 + alpha*wmin >= 1 - STEP_FRACTION, wmin a least scaled eigenvalue."""
    return min(1.0, -STEP_FRACTION / wmin) if wmin < 0.0 else 1.0


def _step_estimate(lam: np.ndarray, s: np.ndarray) -> float:
    """Largest alpha <= 1 keeping diag(lam) + alpha*s, an NT-scaled step, inside the cone; unverified."""
    return _step_length(float(_scaled_eigvalsh(lam, s)[0]))


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


def solve(problem: HermitianSdp, max_iterations: int = 200) -> SdpSolution:
    """Run the interior-point iteration and return a matched certificate.

    The iteration starts from y = 0, Z = ||C||_F I (I if C = 0) and X = tau_p I, the
    least-squares fit of A(tau I) = b (I/d_A, feasible, on min-entropy data; I if no
    positive tau fits); the start need not be feasible.  On optimal certificates
    the dual value exceeds the primal by at most 1e-9; identical problem
    data yields identical output.  Each step is taken in the NT-scaled frame
    G^-1 X G^-H = G^H Z G = diag(lam): its cone test is one Cholesky of
    diag(lam) + alpha S at the estimated length alpha, the new X is rebuilt from
    the factor G L, and each Newton system is one LU solve with the Schur matrix,
    once Cholesky has found that matrix positive definite.

    The returned status is one of
      "optimal"               the certificate meets the tolerances above;
      "max_iterations"        the iteration cap was hit;
      "infeasible_suspected"  the iterates diverged past DIVERGENCE_LIMIT;
      "numerical_failure"     an eigendecomposition failed on both triangles, the
                              Schur matrix did not factor, or a step at its estimated
                              length left diag(lam) + alpha S, the new X or Z in the
                              NT-scaled frame, without a finite Cholesky factor.
    A run stops as "optimal" once the primal and dual residuals and the
    relative gap meet DEFAULT_TOL and dual_value <= primal_value + 1e-9.
    Whatever the status, the last completed iterate is returned as the
    certificate; no LinAlgError from the iteration escapes.
    """
    n = problem.dim
    m = problem.n_constraints
    cmat = problem.objective.mat
    a_op, a_adj, swap = problem._op, problem._adj, problem._swap
    b = np.concatenate([r.mat.ravel() for _, r in problem.families])
    norm_b = float(np.linalg.norm(b))
    norm_c = float(np.linalg.norm(cmat))

    # tau_p I is the multiple of I closest to A(X) = b: family f maps I to (sum_s c_fs) I_f
    fams = [(sum(c), r.dim, float(np.trace(r.mat).real)) for c, r in problem.families]
    num, den = sum(c * t for c, _, t in fams), sum(c * c * d for c, d, _ in fams)
    tau_p = num / den if num > 0.0 else 1.0  # no positive multiple fits where A(I)'b <= 0
    x, lx = tau_p * np.eye(n), np.sqrt(tau_p) * np.eye(n)
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

    for it in range(1, max_iterations + 1):
        iterations = it
        rp, rd, xz, pv, dv, pinf, dinf, relgap = measure(x, y, z)
        mu = xz / n

        if pinf <= DEFAULT_TOL and dinf <= DEFAULT_TOL and relgap <= DEFAULT_TOL and dv <= pv + 1e-9:
            status = STATUS_OPTIMAL
            break
        if max(np.abs(x).max(), np.abs(z).max(), np.abs(y).max() if m else 0.0) > DIVERGENCE_LIMIT:
            status = STATUS_INFEASIBLE_SUSPECTED
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
                dy = np.linalg.solve(schur, rhs)
                return 0.5 * (dy + dy[swap].conj())  # each Y_f exactly Hermitian

            rhs = b + a_op(w @ rd @ w)  # rp - A(-X - W rd W): the predictor's, and the corrector's but one term

            # Predictor: the affine step only fixes sigma; its lengths are estimated from one spectrum, as
            # dXa = -X - W dZa W reads -diag(lam) - G† dZa G in the scaled frame, where mu_aff is read too.
            sza = gh @ (rd - a_adj(solve_schur(rhs))) @ g
            sxa = -lam_mat - sza
            wa = _scaled_eigvalsh(lam, sza)
            ap, ad = _step_length(-1.0 - float(wa[-1])), _step_length(float(wa[0]))
            mu_aff = max(0.0, float(np.vdot(lam_mat + ad * sza, lam_mat + ap * sxa).real)) / n
            sigma = min(1.0, max(1e-10, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

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
        y_star=y.copy(),
        Z_star=HermitianOperator(z),
        primal_value=pv,
        dual_value=dv,
        gap=pv - dv,
        status=status,
        iterations=iterations,
    )


def check_certificate(problem: HermitianSdp, solution: SdpSolution) -> CertificateReport:
    """Recompute feasibility residuals, cone violations and the gap from scratch.

    Uses only the problem data and the solution's (X, y, Z); nothing is
    shared with the solver internals, so corrupted certificates are caught.
    """
    x = solution.X_star.mat
    z = solution.Z_star.mat
    y = solution.y_star
    # every A_(j,k) written out densely: c_s E_kj on each block s of its family, so
    # tr(A_(j,k) X) = sum_s c_s (X_ss)_jk = R_jk, and y_(j,k) multiplies A_(j,k)^H
    edges, cons = np.cumsum((0,) + problem.blocks), []
    for coefs, rhs in problem.families:
        for j, k in np.ndindex(rhs.dim, rhs.dim):
            a = np.zeros((problem.dim,) * 2, dtype=complex)
            a[edges[:-1] + k, edges[:-1] + j] = coefs
            cons.append((a, rhs.mat[j, k]))
    residuals = [abs(np.trace(a @ x) - b) for a, b in cons]
    asum = sum(yi * a.conj().T for yi, (a, _) in zip(y, cons))
    dual_res = float(np.max(np.abs(problem.objective.mat - z - asum)))
    pv = float(np.trace(problem.objective.mat @ x).real)
    dv = float(sum(np.conj(yi) * b for yi, (_, b) in zip(y, cons)).real)
    return CertificateReport(
        constraint_residual=float(max(residuals)),
        dual_residual=dual_res,
        min_eig_X=float(_eigh(x, vectors=False)[0]),
        min_eig_Z=float(_eigh(z, vectors=False)[0]),
        primal_value=pv,
        dual_value=dv,
        gap=pv - dv,
        value_mismatch=max(abs(pv - solution.primal_value), abs(dv - solution.dual_value)),
        weak_duality_violation=max(0.0, solution.dual_value - solution.primal_value),
    )

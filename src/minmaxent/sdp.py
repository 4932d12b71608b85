"""Self-contained primal-dual interior-point solver for Hermitian SDPs.

Solves   minimize    tr(C X)
         subject to  tr(A_i X) = b_i,   i = 1..m,
                     X >= 0   (complex Hermitian positive semidefinite)

together with the dual

         maximize    b' y
         subject to  Z = C - sum_i y_i A_i >= 0.

The iterates are complex Hermitian matrices throughout.  The iteration
is an infeasible-start path-following method with Nesterov-Todd scaling
(Todd, Toh and Tutuncu, SIAM J. Optim. 8, 1998) and a Mehrotra-style
adaptive centering parameter.  Only equality constraints are supported:
the min-entropy is posed in its form max tr(rho E) over E >= 0 with
tr_A E = id_B (the max-entropy and the decoupling accuracy are read from
it on a purification), and the fidelity cross-check of the oracles as a
two-block variable whose diagonal blocks are fixed by equalities.

The iterates are dense, but the constraints are not: each A_i is held
in a padded coordinate form (its few complex nonzeros), and the Schur
matrix H_ij = Re tr(A_i W A_j W) of every iteration is built from those
coordinates (Fujisawa, Kojima and Nakata, Math. Prog. 79, 1997), at
O(m k n^2 + m^2 k) for k the largest nonzero count of an A_i.

The iteration runs on numpy.linalg alone.  A step is accepted only once
the new X (or Z) factors by Cholesky, and each iteration inverts the
factors X and Z were accepted with, and the Schur matrix's, once: they
serve the NT scaling, every step-length estimate, Z^-1 and every Schur
solve.  scipy is imported only by the eigensolver fallback in _eigh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HermitianOperator

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

# Stopping targets (relative gap and residuals), the looser thresholds at
# which a stalled iterate is still accepted as optimal, and the iterate
# norm beyond which the problem is suspected infeasible/unbounded.
DEFAULT_TOL = 1e-9
ACCEPT_TOL = 1e-7
DIVERGENCE_LIMIT = 1e12
GRAM_RANK_TOL = 1e-10
STEP_FRACTION = 0.98


class SolverError(RuntimeError):
    """Raised by callers when a solve does not reach an optimal certificate."""

    def __init__(self, message: str, solution: "SdpSolution | None" = None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True, eq=False)
class HermitianSdp:
    """Equality-constrained SDP data: minimize tr(C X) s.t. tr(A_i X) = b_i, X >= 0.

    All operators share one dimension and the A_i must be linearly
    independent as real vectors, which is checked at construction via the
    spectrum of their Gram matrix.  The constraints' coordinate form, which
    solve() works with, is derived once here.
    """

    objective: HermitianOperator
    constraints: tuple[tuple[HermitianOperator, float], ...]

    def __post_init__(self) -> None:
        cons = tuple((a, float(b)) for a, b in self.constraints)
        if not cons:
            raise ValueError("at least one constraint is required")
        n = self.objective.dim
        for i, (a, _) in enumerate(cons):
            if a.dim != n:
                raise ValueError(f"constraint {i} has dimension {a.dim}, expected {n}")
        coords = _ConstraintCoords.of([a.mat for a, _ in cons])
        gram = coords.schur(np.eye(n))
        evals = np.linalg.eigvalsh(gram)
        if evals[0] <= GRAM_RANK_TOL * max(1.0, evals[-1]):
            raise ValueError("constraint operators are linearly dependent")
        object.__setattr__(self, "constraints", cons)
        object.__setattr__(self, "_coords", coords)

    @property
    def dim(self) -> int:
        return self.objective.dim

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """Matched primal/dual certificate returned by solve().

    primal_value is the infeasibility-compensated objective
    tr(C X) + y'(b - A(X)); it coincides with tr(C X) up to rounding
    whenever the constraint residual is at rounding level, and stays an
    accurate optimum estimate when a degenerate face leaves a small
    residual floor that large multipliers would otherwise amplify.
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


@dataclass(frozen=True, eq=False)
class _ConstraintCoords:
    """Hermitian constraints in padded coordinate form.

    Row i lists the complex nonzeros of the n x n matrix A_i:
    A_i = sum_k v[i, k] e_p[i, k] e_q[i, k]^T.  Rows shorter than the
    longest are padded with v = 0 at (0, 0), which every sum ignores.
    """

    p: np.ndarray
    q: np.ndarray
    v: np.ndarray
    n: int

    @classmethod
    def of(cls, mats: list[np.ndarray]) -> "_ConstraintCoords":
        rows = [np.nonzero(a) for a in mats]
        shape = (len(mats), max(len(pi) for pi, _ in rows))
        p = np.zeros(shape, dtype=np.intp)
        q = np.zeros(shape, dtype=np.intp)
        v = np.zeros(shape, dtype=complex)
        for i, (a, (pi, qi)) in enumerate(zip(mats, rows)):
            p[i, : len(pi)], q[i, : len(pi)], v[i, : len(pi)] = pi, qi, a[pi, qi]
        return cls(p, q, v, mats[0].shape[0])

    def op(self, x: np.ndarray) -> np.ndarray:
        """A(X)_i = tr(A_i X) = Re sum_k v_ik X[q_ik, p_ik] for Hermitian X."""
        return np.einsum("ik,ik->i", self.v, x[self.q, self.p]).real

    def adj(self, y: np.ndarray) -> np.ndarray:
        """A*(y) = sum_i y_i A_i, a scatter-add of the real and imaginary parts."""
        size = self.n * self.n
        flat = (self.p * self.n + self.q).ravel()
        weights = (y[:, None] * self.v).ravel()
        re = np.bincount(flat, weights.real, minlength=size)
        im = np.bincount(flat, weights.imag, minlength=size)
        return (re + 1j * im).reshape(self.n, self.n)

    def schur(self, w: np.ndarray) -> np.ndarray:
        """H_ij = Re tr(A_i W A_j W) for Hermitian W.

        W A_j W = sum_k v_jk W[:, p_jk] W[q_jk, :] is one batched
        (m, n, k) @ (m, k, n) product, W[:, p] being w.T[p], and H_ij
        gathers it at the nonzeros of A_i:
        H_ij = Re sum_k v_ik (W A_j W)[q_ik, p_ik].
        """
        left = np.swapaxes(w.T[self.p] * self.v[:, :, None], 1, 2)
        waw = left @ w[self.q]
        return np.einsum("ik,jik->ij", self.v, waw[:, self.q, self.p]).real


def _eigh(s: np.ndarray, vectors: bool = True):
    """Hermitian eigendecomposition (or eigenvalues only) with LAPACK fallbacks.

    numpy's divide-and-conquer route (syevd) runs first, so its result is
    returned unchanged whenever it converges.  Some LAPACK builds report
    "Eigenvalues did not converge" on benign, well-conditioned matrices,
    so scipy's MRRR (evr) and QR (ev) drivers are tried next; a
    LinAlgError is raised only if every route fails.  scipy is imported
    here, its one use in the solver, to keep it out of `import minmaxent`.
    """
    try:
        return np.linalg.eigh(s) if vectors else np.linalg.eigvalsh(s)
    except np.linalg.LinAlgError:
        pass
    import scipy.linalg

    # check_finite=False: a non-finite iterate must end in a LinAlgError
    # (a solver status), not in scipy's ValueError
    for driver in ("evr", "ev"):
        try:
            return scipy.linalg.eigh(
                s, eigvals_only=not vectors, driver=driver, check_finite=False
            )
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("Hermitian eigensolver failed on every LAPACK driver")


def _max_step(s: np.ndarray, ell_inv: np.ndarray, d: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest alpha <= 1 keeping s + alpha*d (STEP_FRACTION-)inside the cone, with its factor.

    ell_inv is the inverse of the Cholesky factor L of s, so the estimate
    reads the spectrum of L^-1 d L^-†.  A step is accepted only once
    s + alpha*d has a finite Cholesky factor, which is returned with it;
    each failed attempt shrinks alpha by 0.8, and LinAlgError is raised
    when 60 attempts fail.
    """
    y = ell_inv @ d @ ell_inv.conj().T
    wmin = float(_eigh(0.5 * (y + y.conj().T), vectors=False)[0])
    alpha = 1.0 if wmin >= -1e-14 else min(1.0, -STEP_FRACTION / wmin)
    for _ in range(60):
        try:
            ell = np.linalg.cholesky(s + alpha * d)
            if np.isfinite(ell).all():  # numpy's Cholesky passes NaN through
                return alpha, ell
        except np.linalg.LinAlgError:
            pass
        alpha *= 0.8
    raise np.linalg.LinAlgError("no step keeps the iterate positive definite")


def solve(problem: HermitianSdp, max_iterations: int = 200) -> SdpSolution:
    """Run the interior-point iteration and return a matched certificate.

    The iteration starts from scaled identities (X = tau_p I, y = 0,
    Z = tau_d I), which need not be feasible.  On optimal certificates
    the dual value exceeds the primal by at most 1e-9; identical problem
    data yields identical output.

    The returned status is one of
      "optimal"               the certificate meets the tolerances above;
      "max_iterations"        the iteration cap was hit or the steps stalled;
      "infeasible_suspected"  the iterates diverged past DIVERGENCE_LIMIT;
      "numerical_failure"     a factorization failed on every LAPACK route, or
                              no step within 60 attempts kept X or Z factorizable.
    A run stops as "optimal" once the primal and dual residuals and the
    relative gap meet DEFAULT_TOL and dual_value <= primal_value + 1e-9.
    A stalled or interrupted run whose last iterate meets the same test
    at ACCEPT_TOL reports "optimal" too.  Whatever the status, the last
    completed iterate is returned as the certificate; no LinAlgError from
    the iteration escapes.
    """
    n = problem.dim
    m = problem.n_constraints
    cmat = problem.objective.mat
    coords = problem._coords
    a_op, a_adj = coords.op, coords.adj
    b = np.array([bi for _, bi in problem.constraints])

    anorms = np.linalg.norm(coords.v, axis=1)
    norm_b = float(np.linalg.norm(b))
    norm_c = float(np.linalg.norm(cmat))

    tau_p = max(1.0, np.sqrt(n), n * float(np.max((1.0 + np.abs(b)) / (1.0 + anorms))))
    x, lx = tau_p * np.eye(n), np.sqrt(tau_p) * np.eye(n)
    tau_d = max(1.0, np.sqrt(n), norm_c, float(np.max(anorms)))
    z, lz = tau_d * np.eye(n), np.sqrt(tau_d) * np.eye(n)
    y = np.zeros(m)

    status = STATUS_MAX_ITERATIONS
    iterations = 0
    stall = 0

    def measure(x, y, z):
        rp = b - a_op(x)
        rd = cmat - z - a_adj(y)
        xz = float(np.vdot(z, x).real)
        # infeasibility-compensated objective (the Lagrangian value): when
        # the residual floor is paid for by large multipliers, tr(C X)
        # alone underestimates the optimum by y'(b - A(X))
        pv = float(np.vdot(cmat, x).real) + float(y @ rp)
        dv = float(b @ y)
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

        # Any LinAlgError left after _eigh's fallbacks and _max_step's shrinking
        # ends the loop; (x, lx, y, z, lz) are only replaced by a completed step.
        try:
            # Nesterov-Todd scaling point W with W Z W = X.
            lx_inv = np.linalg.inv(lx)
            lz_inv = np.linalg.inv(lz)
            mid = lx.conj().T @ z @ lx
            wmid, qmid = _eigh(0.5 * (mid + mid.conj().T))
            wmid = np.clip(wmid, 1e-300, None)
            t = lx @ qmid
            w = (t * wmid**-0.5) @ t.conj().T
            w = 0.5 * (w + w.conj().T)

            schur = coords.schur(w)
            schur = 0.5 * (schur + schur.T)
            reg = 1e-14 * max(float(np.trace(schur)) / m, 1.0)
            try:
                schur_inv = np.linalg.inv(np.linalg.cholesky(schur + reg * np.eye(m)))
            except np.linalg.LinAlgError:
                schur_inv = None

            def solve_schur(rhs: np.ndarray) -> np.ndarray:
                if schur_inv is None:
                    return np.linalg.lstsq(schur, rhs, rcond=None)[0]
                dy = schur_inv.T @ (schur_inv @ rhs)
                # two rounds of iterative refinement against the unregularized
                # Schur matrix; near the optimum it is severely ill-conditioned
                for _ in range(2):
                    res = rhs - schur @ dy
                    dy = dy + schur_inv.T @ (schur_inv @ res)
                return dy

            def newton(rc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
                rhs = rp + a_op(w @ rd @ w) - a_op(rc)
                dy = solve_schur(rhs)
                dz = rd - a_adj(dy)
                dx = rc - w @ dz @ w
                return 0.5 * (dx + dx.conj().T), dy, 0.5 * (dz + dz.conj().T)

            # Predictor: pure affine step fixes the centering parameter.
            dxa, _, dza = newton(-x)
            ap, _ = _max_step(x, lx_inv, dxa)
            ad, _ = _max_step(z, lz_inv, dza)
            mu_aff = max(0.0, float(np.vdot(z + ad * dza, x + ap * dxa).real)) / n
            sigma = min(1.0, max(1e-10, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

            # Corrector: recenter toward sigma*mu on the same factorization.
            zinv = lz_inv.conj().T @ lz_inv
            zinv = 0.5 * (zinv + zinv.conj().T)
            dx, dy, dz = newton(sigma * mu * zinv - x)
            ap, lx_next = _max_step(x, lx_inv, dx)
            ad, lz_next = _max_step(z, lz_inv, dz)

            x, lx = x + ap * dx, lx_next
            y = y + ad * dy
            z, lz = z + ad * dz, lz_next
        except np.linalg.LinAlgError:
            status = STATUS_NUMERICAL_FAILURE
            break

        if ap < 1e-10 and ad < 1e-10:
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0

    _, _, _, pv, dv, pinf, dinf, relgap = measure(x, y, z)
    # a stalled or interrupted iterate is accepted at the looser thresholds
    if status != STATUS_INFEASIBLE_SUSPECTED and (
        pinf <= ACCEPT_TOL and dinf <= ACCEPT_TOL and relgap <= ACCEPT_TOL and dv <= pv + 1e-9
    ):
        status = STATUS_OPTIMAL

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
    residuals = [
        abs(float(np.trace(a.mat @ x).real) - b) for a, b in problem.constraints
    ]
    asum = sum(yi * a.mat for yi, (a, _) in zip(y, problem.constraints))
    dual_res = float(np.max(np.abs(problem.objective.mat - z - asum)))
    pv = float(np.trace(problem.objective.mat @ x).real)
    dv = float(sum(yi * b for yi, (_, b) in zip(y, problem.constraints)))
    return CertificateReport(
        constraint_residual=max(residuals),
        dual_residual=dual_res,
        min_eig_X=float(np.linalg.eigvalsh(x)[0]),
        min_eig_Z=float(np.linalg.eigvalsh(z)[0]),
        primal_value=pv,
        dual_value=dv,
        gap=pv - dv,
        value_mismatch=max(abs(pv - solution.primal_value), abs(dv - solution.dual_value)),
        weak_duality_violation=max(0.0, solution.dual_value - solution.primal_value),
    )

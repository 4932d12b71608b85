import itertools
import pathlib

import numpy as np
import pytest
import scipy.linalg

from minmaxent import (
    BipartiteState,
    CqEnsemble,
    HermitianOperator,
    HermitianSdp,
    SdpSolution,
    SolverError,
    check_certificate,
    cq_to_density,
    hermitian_basis,
    min_entropy,
    random_density,
    sdp,
    solve,
)
from minmaxent.entropy import _min_entropy_problem
from minmaxent.oracles import _fidelity_problem

DATA = pathlib.Path(__file__).parent / "data"


def herm(mat) -> HermitianOperator:
    return HermitianOperator(np.asarray(mat, dtype=complex))


def domination_problem(rho: np.ndarray) -> HermitianSdp:
    """min tr(sigma) s.t. sigma >= rho, as diag(sigma, slack) with slack = sigma - rho."""
    d = rho.shape[0]
    n = 2 * d
    cmat = np.zeros((n, n), dtype=complex)
    cmat[:d, :d] = np.eye(d)
    cons = []
    for bk in hermitian_basis(d):
        amat = np.zeros((n, n), dtype=complex)
        amat[:d, :d] = -bk
        amat[d:, d:] = bk
        cons.append((herm(amat), -float(np.trace(bk @ rho).real)))
    return HermitianSdp(herm(cmat), tuple(cons))


def double_domination_problem(m1: np.ndarray, m2: np.ndarray) -> HermitianSdp:
    """min tr(sigma) s.t. sigma >= m1 and sigma >= m2 (two slack blocks)."""
    d = m1.shape[0]
    n = 3 * d
    cmat = np.zeros((n, n), dtype=complex)
    cmat[:d, :d] = np.eye(d)
    cons = []
    for target, mat in ((1, m1), (2, m2)):
        lo, hi = target * d, (target + 1) * d
        for bk in hermitian_basis(d):
            amat = np.zeros((n, n), dtype=complex)
            amat[:d, :d] = -bk
            amat[lo:hi, lo:hi] = bk
            cons.append((herm(amat), -float(np.trace(bk @ mat).real)))
    return HermitianSdp(herm(cmat), tuple(cons))


def grid_search_double_domination(m1: np.ndarray, m2: np.ndarray) -> float:
    """Refined grid search over 2x2 Hermitian sigma = [[a, c+di], [c-di, b]].

    Scans the four real parameters on a shrinking grid (final cell below
    1e-5) keeping the best feasible point; feasibility is checked exactly
    through eigenvalues, so every reported value is an upper bound.
    """

    def feasible(sig: np.ndarray) -> bool:
        return (
            np.linalg.eigvalsh(sig - m1)[0] >= -1e-12
            and np.linalg.eigvalsh(sig - m2)[0] >= -1e-12
        )

    center = np.array([1.0, 1.0, 0.0, 0.0])
    width = 1.6
    best_val, best_pt = np.inf, center
    while width > 2.5e-5:
        axes = [np.linspace(c - width, c + width, 9) for c in center]
        for a, b, c, d in itertools.product(*axes):
            if a + b >= best_val:
                continue
            sig = np.array([[a, c + 1j * d], [c - 1j * d, b]])
            if feasible(sig):
                best_val, best_pt = a + b, np.array([a, b, c, d])
        center, width = best_pt, width / 2.0
    return float(best_val)


class TestSolve:
    def test_scalar_bound(self):
        # min x s.t. x >= 3, slack block keeps the cone one-dimensional
        p = HermitianSdp(
            herm(np.diag([1.0, 0.0])), ((herm(np.diag([1.0, -1.0])), 3.0),)
        )
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(3.0, abs=1e-7)
        assert sol.X_star.mat[0, 0].real == pytest.approx(3.0, abs=1e-6)

    def test_domination_by_psd_matrix(self):
        rho = random_density(3, 7).mat
        sol = solve(domination_problem(rho))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)
        assert np.max(np.abs(sol.X_star.mat[:3, :3] - rho)) <= 1e-6

    def test_double_domination_matches_grid_search(self):
        m1 = np.diag([0.7, 0.2]).astype(complex)
        m2 = np.array([[0.3, 0.2], [0.2, 0.3]], dtype=complex)
        sol = solve(double_domination_problem(m1, m2))
        assert sol.status == "optimal"
        oracle = grid_search_double_domination(m1, m2)
        assert sol.primal_value == pytest.approx(oracle, abs=1e-4)
        # closed form for two 2x2 constraints: tr(m2) + tr of positive part
        w = np.linalg.eigvalsh(m1 - m2)
        closed = float(np.trace(m2).real + np.sum(w[w > 0]))
        assert sol.primal_value == pytest.approx(closed, abs=1e-7)

    def test_two_by_two_domination_from_default_start(self):
        sol = solve(domination_problem(random_density(2, 8).mat))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)

    def test_weak_duality_and_certificate_invariants(self):
        for seed in range(6):
            sol = solve(domination_problem(random_density(3, 100 + seed).mat))
            assert sol.status == "optimal"
            assert sol.dual_value <= sol.primal_value + 1e-9
            assert abs(sol.gap) <= 1e-7 * (1.0 + abs(sol.primal_value))
            assert np.linalg.eigvalsh(sol.X_star.mat)[0] >= -1e-7
            assert np.linalg.eigvalsh(sol.Z_star.mat)[0] >= -1e-7

    def test_determinism(self):
        p = domination_problem(random_density(3, 9).mat)
        a, b = solve(p), solve(p)
        assert a.X_star.mat.tobytes() == b.X_star.mat.tobytes()
        assert a.y_star.tobytes() == b.y_star.tobytes()
        assert a.primal_value == b.primal_value

    def test_scale_covariance(self):
        rho = random_density(3, 10).mat
        p1 = domination_problem(rho)
        scaled = HermitianSdp(herm(3.5 * p1.objective.mat), p1.constraints)
        v1 = solve(p1).primal_value
        v2 = solve(scaled).primal_value
        assert v2 == pytest.approx(3.5 * v1, rel=1e-7)

    @pytest.mark.parametrize("seed", [38, 98])
    def test_former_floored_states_meet_weak_duality(self, seed):
        # from the feasible start id/d_A the primal residual of these 3x2
        # min-entropy SDPs floors near 1e-8 once the gap has closed
        p = _min_entropy_problem(random_density(6, seed).mat, 3, 2)
        sol = solve(p)
        assert sol.status == "optimal"
        assert check_certificate(p, sol).weak_duality_violation <= 1e-9

    def test_max_iterations_status(self):
        sol = solve(domination_problem(random_density(3, 11).mat), max_iterations=2)
        assert sol.status == "max_iterations"

    def test_weak_duality_holds_for_every_status(self):
        p = domination_problem(random_density(3, 15).mat)
        for cap in (1, 3, 5, 200):
            sol = solve(p, max_iterations=cap)
            assert sol.dual_value <= sol.primal_value + 1e-9

    def test_infeasible_detected(self):
        # tr(X e11) = -1 is impossible for X >= 0, dual ray diverges
        a = np.zeros((2, 2), dtype=complex)
        a[0, 0] = 1.0
        p = HermitianSdp(herm(np.eye(2)), ((herm(a), -1.0),))
        sol = solve(p)
        assert sol.status == "infeasible_suspected"

    def test_linearly_dependent_constraints_rejected(self):
        a = herm(np.eye(2))
        with pytest.raises(ValueError, match="dependent"):
            HermitianSdp(herm(np.eye(2)), ((a, 1.0), (a, 2.0)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HermitianSdp(herm(np.eye(2)), ((herm(np.eye(3)), 1.0),))


class TestCertificate:
    def test_clean_solution_has_small_residuals(self):
        p = domination_problem(random_density(3, 12).mat)
        report = check_certificate(p, solve(p))
        assert report.constraint_residual <= 1e-7
        assert report.dual_residual <= 1e-7
        assert report.min_eig_X >= -1e-7
        assert report.min_eig_Z >= -1e-7
        assert report.weak_duality_violation == 0.0
        assert report.value_mismatch <= 1e-9

    def test_corrupted_primal_is_flagged(self):
        p = domination_problem(random_density(3, 13).mat)
        sol = solve(p)
        bad = sol.X_star.mat.copy()
        bad[0, 0] += 0.1
        corrupted = SdpSolution(
            X_star=HermitianOperator(bad),
            y_star=sol.y_star,
            Z_star=sol.Z_star,
            primal_value=sol.primal_value,
            dual_value=sol.dual_value,
            gap=sol.gap,
            status=sol.status,
            iterations=sol.iterations,
        )
        report = check_certificate(p, corrupted)
        assert report.constraint_residual > 1e-3

    def test_injected_duality_violation_is_flagged(self):
        p = domination_problem(random_density(3, 14).mat)
        sol = solve(p)
        forged = SdpSolution(
            X_star=sol.X_star,
            y_star=sol.y_star,
            Z_star=sol.Z_star,
            primal_value=sol.primal_value,
            dual_value=sol.primal_value + 1e-5,
            gap=-1e-5,
            status=sol.status,
            iterations=sol.iterations,
        )
        report = check_certificate(p, forged)
        assert report.weak_duality_violation > 1e-6


BUILDERS = {
    "min_entropy_kron": lambda: _min_entropy_problem(random_density(6, 31).mat, 3, 2),
    "guessing_block_diagonal": lambda: _min_entropy_problem(
        cq_to_density(
            CqEnsemble(np.array([0.5, 0.3, 0.2]), tuple(random_density(2, 30 + x) for x in range(3)))
        ).mat,
        3,
        2,
    ),
    "fidelity_two_block": lambda: _fidelity_problem(
        random_density(4, 32, rank=3).mat, random_density(4, 33).mat
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
class TestConstraintCoords:
    """The coordinate form against the dense complex constraint matrices."""

    @staticmethod
    def dense(name: str) -> tuple[sdp._ConstraintCoords, np.ndarray]:
        p = BUILDERS[name]()
        return p._coords, np.stack([a.mat for a, _ in p.constraints])

    @staticmethod
    def random_hermitian(n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return g @ g.conj().T / n

    def test_schur_matches_dense_definition(self, name):
        coords, amats = self.dense(name)
        n = amats.shape[1]
        w = self.random_hermitian(n, 40) + 0.1 * np.eye(n)
        waw = np.einsum("ab,jbc,cd->jad", w, amats, w)
        ref = np.einsum("iab,jba->ij", amats, waw).real
        h = coords.schur(w)
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_op_and_adjoint(self, name):
        coords, amats = self.dense(name)
        m, n = amats.shape[0], amats.shape[1]
        x = self.random_hermitian(n, 41)
        y = np.random.default_rng(41).standard_normal(m)
        ax, aty = coords.op(x), coords.adj(y)
        assert np.max(np.abs(ax - np.einsum("iab,ba->i", amats, x).real)) <= 1e-12
        assert np.max(np.abs(aty - np.einsum("i,iab->ab", y, amats))) <= 1e-12
        trace = float(np.trace(aty @ x).real)
        assert abs(ax @ y - trace) <= 1e-12 * (1.0 + abs(ax @ y))

    def test_padding_is_the_largest_nonzero_count(self, name):
        coords, amats = self.dense(name)
        counts = np.count_nonzero(amats.reshape(amats.shape[0], -1), axis=1)
        assert coords.v.shape == (amats.shape[0], counts.max())
        assert np.array_equal(np.count_nonzero(coords.v, axis=1), counts)


class TestMaxStep:
    """_max_step returns the accepted step length and the Cholesky factor there."""

    @staticmethod
    def pd_and_inverse_factor(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        s = TestConstraintCoords.random_hermitian(n, seed) + 0.1 * np.eye(n)
        return s, np.linalg.inv(np.linalg.cholesky(s))

    def test_psd_direction_takes_the_full_step(self):
        s, ell_inv = self.pd_and_inverse_factor(4, 50)
        d = TestConstraintCoords.random_hermitian(4, 51)
        alpha, ell = sdp._max_step(s, ell_inv, d)
        assert alpha == 1.0
        assert np.array_equal(ell, np.linalg.cholesky(s + d))

    def test_factor_is_the_cholesky_factor_of_the_new_iterate(self):
        s, ell_inv = self.pd_and_inverse_factor(5, 52)
        d = -TestConstraintCoords.random_hermitian(5, 53)
        alpha, ell = sdp._max_step(s, ell_inv, d)
        assert 0.0 < alpha < 1.0
        new = s + alpha * d
        assert ell.tobytes() == np.linalg.cholesky(new).tobytes()
        assert np.max(np.abs(ell @ ell.conj().T - new)) <= 1e-12 * np.max(np.abs(new))

    def test_overshooting_estimate_is_shrunk_until_the_factor_exists(self):
        # ell_inv belongs to 50 s, so the estimate reads a spectrum 50 times
        # too small and asks for the full step, past the boundary of the cone
        s, _ = self.pd_and_inverse_factor(4, 54)
        ell_inv = np.linalg.inv(np.linalg.cholesky(50.0 * s))
        d = -TestConstraintCoords.random_hermitian(4, 55)
        y = ell_inv @ d @ ell_inv.conj().T
        estimate = min(1.0, -sdp.STEP_FRACTION / np.linalg.eigvalsh(y)[0])
        alpha, _ = sdp._max_step(s, ell_inv, d)
        tried = [estimate]
        while tried[-1] > alpha:
            tried.append(tried[-1] * 0.8)
        assert len(tried) >= 2 and tried[-1] == alpha
        assert np.linalg.eigvalsh(s + alpha * d)[0] > 0.0
        for a in tried[:-1]:
            assert np.linalg.eigvalsh(s + a * d)[0] <= 0.0

    def test_non_finite_factor_is_never_accepted(self, monkeypatch):
        # numpy's Cholesky returns a NaN factor for NaN input instead of failing
        s, ell_inv = self.pd_and_inverse_factor(3, 56)
        d = TestConstraintCoords.random_hermitian(3, 57)
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full_like(a, np.nan))
        with pytest.raises(np.linalg.LinAlgError):
            sdp._max_step(s, ell_inv, d)


def _raise_linalg(*args, **kwargs):
    raise np.linalg.LinAlgError("injected failure")


def _fail_every_eigh_route(monkeypatch) -> None:
    monkeypatch.setattr(np.linalg, "eigh", _raise_linalg)
    monkeypatch.setattr(scipy.linalg, "eigh", _raise_linalg)


def assert_eigendecomposition(a: np.ndarray, w: np.ndarray, v: np.ndarray, ref: np.ndarray):
    scale = float(np.max(np.abs(ref)))
    assert np.max(np.abs(v.conj().T @ v - np.eye(a.shape[0]))) <= 1e-12
    assert np.linalg.norm(a @ v - v * w) <= 1e-12 * scale
    assert np.max(np.abs(w - ref)) <= 1e-12 * scale


class TestEigenFallback:
    def test_nt_scaling_matrix_that_defeats_syevd(self):
        # the 72x72 NT-scaling matrix of the criterion-8 (seed 0, trial 19)
        # max-entropy solve at iteration 17, recorded when the solver still
        # worked on the real symmetric embedding of the Hermitian iterates:
        # finite, exactly symmetric, condition number ~237, yet OpenBLAS
        # 0.3.31's syevd reports "Eigenvalues did not converge" on it at any
        # thread count
        a = np.load(DATA / "nt_scaling_syevd_nonconvergence.npy")
        assert a.shape == (72, 72) and np.array_equal(a, a.T)
        ref = np.linalg.eigvalsh(a)
        w, v = sdp._eigh(a)
        assert_eigendecomposition(a, w, v, ref)
        assert np.max(np.abs(sdp._eigh(a, vectors=False) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_fallback_routes_when_syevd_fails(self, monkeypatch):
        # the recorded real matrix, and a complex Hermitian one as the
        # solver's iterates are
        g = np.random.default_rng(18).standard_normal((2, 12, 12))
        g = g[0] + 1j * g[1]
        mats = [np.load(DATA / "nt_scaling_syevd_nonconvergence.npy"), g @ g.conj().T]
        refs = [np.linalg.eigvalsh(a) for a in mats]
        scipy_eigh = scipy.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", _raise_linalg)
        monkeypatch.setattr(np.linalg, "eigvalsh", _raise_linalg)
        for a, ref in zip(mats, refs):
            w, v = sdp._eigh(a)
            assert_eigendecomposition(a, w, v, ref)
            assert np.max(np.abs(sdp._eigh(a, vectors=False) - ref)) <= 1e-12 * np.max(np.abs(ref))

        # with evr failing as well, the QR driver still delivers
        drivers = []

        def evr_fails(s, *args, driver=None, **kwargs):
            drivers.append(driver)
            if driver == "evr":
                raise np.linalg.LinAlgError("injected evr failure")
            return scipy_eigh(s, *args, driver=driver, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", evr_fails)
        for a, ref in zip(mats, refs):
            drivers.clear()
            w, v = sdp._eigh(a)
            assert drivers == ["evr", "ev"]
            assert_eigendecomposition(a, w, v, ref)

    def test_every_route_failing_raises_linalg_error(self, monkeypatch):
        _fail_every_eigh_route(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigvalsh", _raise_linalg)
        for vectors in (True, False):
            with pytest.raises(np.linalg.LinAlgError):
                sdp._eigh(np.eye(3), vectors=vectors)

    def test_solve_reports_numerical_failure(self, monkeypatch):
        p = domination_problem(random_density(3, 16).mat)
        _fail_every_eigh_route(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigvalsh", _raise_linalg)
        sol = solve(p)
        assert sol.status == "numerical_failure" == sdp.STATUS_NUMERICAL_FAILURE
        assert sol.iterations == 1
        for arr in (sol.X_star.mat, sol.y_star, sol.Z_star.mat):
            assert np.all(np.isfinite(arr))
        assert np.isfinite(sol.primal_value) and np.isfinite(sol.dual_value)

    def test_failure_mid_run_keeps_the_last_iterate(self, monkeypatch):
        p = domination_problem(random_density(3, 16).mat)
        capped = solve(p, max_iterations=3)
        numpy_eigh = np.linalg.eigh
        calls = []

        def fails_from_fourth_call(s, *args, **kwargs):
            calls.append(1)
            if len(calls) >= 4:
                raise np.linalg.LinAlgError("injected failure")
            return numpy_eigh(s, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", fails_from_fourth_call)
        monkeypatch.setattr(scipy.linalg, "eigh", _raise_linalg)
        sol = solve(p)
        assert sol.status == "numerical_failure"
        assert sol.iterations == 4
        assert sol.X_star.mat.tobytes() == capped.X_star.mat.tobytes()
        assert sol.y_star.tobytes() == capped.y_star.tobytes()
        assert sol.Z_star.mat.tobytes() == capped.Z_star.mat.tobytes()
        assert sol.primal_value == capped.primal_value
        assert sol.dual_value == capped.dual_value

    def test_cholesky_failure_is_a_numerical_failure(self, monkeypatch):
        p = domination_problem(random_density(3, 16).mat)
        monkeypatch.setattr(np.linalg, "cholesky", _raise_linalg)
        sol = solve(p)
        assert sol.status == "numerical_failure"
        assert np.all(np.isfinite(sol.X_star.mat)) and np.all(np.isfinite(sol.y_star))

    def test_non_finite_newton_direction_is_a_numerical_failure(self, monkeypatch):
        # a NaN Schur matrix reaches LAPACK, which reports the failure
        p = domination_problem(random_density(3, 16).mat)
        schur = sdp._ConstraintCoords.schur
        calls = []

        def nan_on_fifth_call(self, w):
            calls.append(1)
            out = schur(self, w)
            return out * np.nan if len(calls) == 5 else out

        monkeypatch.setattr(sdp._ConstraintCoords, "schur", nan_on_fifth_call)
        sol = solve(p)
        assert sol.status == "numerical_failure"
        assert np.all(np.isfinite(sol.X_star.mat)) and np.all(np.isfinite(sol.y_star))

    @pytest.mark.parametrize("d_a,d_b,seed", [(2, 3, 41), (3, 2, 42), (2, 4, 43), (4, 2, 44)])
    def test_schur_lstsq_fallback_reaches_the_optimum(self, monkeypatch, d_a, d_b, seed):
        # Cholesky fails on the m x m Schur matrix only (m = d_b^2 differs
        # from n = d_a d_b), so every Newton system goes through lstsq
        p = _min_entropy_problem(random_density(d_a * d_b, seed).mat, d_a, d_b)
        m = p.n_constraints
        assert m != p.dim
        ref = solve(p)
        cholesky = np.linalg.cholesky
        schur_calls = []

        def fails_on_schur(s, *args, **kwargs):
            if s.shape == (m, m):
                schur_calls.append(1)
                raise np.linalg.LinAlgError("injected Schur failure")
            return cholesky(s, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", fails_on_schur)
        sol = solve(p)
        assert len(schur_calls) == sol.iterations - 1
        assert sol.status == ref.status == "optimal"
        assert sol.dual_value == pytest.approx(ref.dual_value, abs=1e-9)

    def test_min_entropy_raises_solver_error(self, monkeypatch):
        state = BipartiteState(random_density(4, 17), 2, 2)
        _fail_every_eigh_route(monkeypatch)
        with pytest.raises(SolverError, match="numerical_failure") as info:
            min_entropy(state)
        assert info.value.solution.status == "numerical_failure"

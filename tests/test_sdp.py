import itertools
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from minmaxent import (
    BipartiteState,
    CqEnsemble,
    DensityOperator,
    HermitianOperator,
    HermitianSdp,
    SdpSolution,
    SolverError,
    check_certificate,
    cq_to_density,
    decoupling_accuracy,
    guessing_probability,
    max_entropy,
    min_entropy,
    purify,
    random_density,
    sdp,
    solve,
)
from minmaxent.core import _eigh
from minmaxent.entropy import _max_entropy_purified, _min_entropy_problem

from conftest import lower_triangle_fails, random_state

DATA = pathlib.Path(__file__).parent / "data"


def herm(mat) -> HermitianOperator:
    return HermitianOperator(np.asarray(mat, dtype=complex))


def domination_problem(rho: np.ndarray) -> HermitianSdp:
    """min tr(sigma) s.t. sigma >= rho: the d_A = 1 min-entropy SDP (X = id), its multiplier Y = -sigma."""
    return HermitianSdp(herm(-rho), 1, rho.shape[0])


def hmin_problem(seed: int) -> HermitianSdp:
    """The 2x3 min-entropy SDP of a full-rank state."""
    return _min_entropy_problem(random_density(6, seed).mat, 2, 3)


def lapack_failure_state() -> BipartiteState:
    """The 3x3 cq state whose max-entropy solve once hit a LAPACK eigh non-convergence.

    It is criterion 8's seed-0 trial-19 draw from before verify keyed its draws, the
    state perfbench's CRIT8_SEED0_TRIAL19 fixes too.
    """
    probs = 0.1 + np.random.default_rng(19).random(3)
    return cq_to_density(CqEnsemble(probs / probs.sum(), tuple(random_density(3, 589 + x) for x in range(3))))


def crit8_purified_problem() -> HermitianSdp:
    """The min-entropy SDP on A (x) C that max_entropy solves for the LAPACK-failure state (n = 27, m = 81)."""
    state = lapack_failure_state()
    amp = purify(state.rho).amplitudes.reshape(state.d_A, state.d_B, -1)
    d_a, d_c = state.d_A, amp.shape[2]
    rho_ac = np.einsum("abc,dbe->acde", amp, amp.conj()).reshape(d_a * d_c, d_a * d_c)
    return _min_entropy_problem(rho_ac, d_a, d_c)


def double_domination_problem(m1: np.ndarray, m2: np.ndarray) -> HermitianSdp:
    """min tr(sigma) s.t. sigma >= m1 and sigma >= m2, as id_2 (x) sigma >= m1 (+) m2."""
    return HermitianSdp(herm(-scipy.linalg.block_diag(m1, m2)), 2, m1.shape[0])


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


def cq_ensemble(seed: int) -> CqEnsemble:
    """Three outcomes with weights 0.1 + U(0, 1), normalized, on qutrit states of ranks 1, 2 and 3."""
    rng = np.random.default_rng(seed)
    probs = 0.1 + rng.random(3)
    states = tuple(random_density(3, 1000 * seed + x, rank=1 + x % 3) for x in range(3))
    return CqEnsemble(probs / probs.sum(), states)


class TestSolve:
    def test_scalar_bound(self):
        # min s s.t. s >= 3: the 1 x 1 min-entropy SDP max{3 x : x = 1}, its multiplier -s
        sol = solve(domination_problem(np.array([[3.0]])))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(-3.0, abs=1e-7)
        assert -sol.Y_star.mat[0, 0].real == pytest.approx(3.0, abs=1e-6)

    def test_domination_by_psd_matrix(self):
        rho = random_density(3, 7).mat
        sol = solve(domination_problem(rho))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(-1.0, abs=1e-7)
        assert np.max(np.abs(-sol.Y_star.mat - rho)) <= 1e-6

    def test_double_domination_matches_grid_search(self):
        m1 = np.diag([0.7, 0.2]).astype(complex)
        m2 = np.array([[0.3, 0.2], [0.2, 0.3]], dtype=complex)
        sol = solve(double_domination_problem(m1, m2))
        assert sol.status == "optimal"
        oracle = grid_search_double_domination(m1, m2)
        assert -sol.primal_value == pytest.approx(oracle, abs=1e-4)
        # closed form for two 2x2 constraints: tr(m2) + tr of positive part
        w = np.linalg.eigvalsh(m1 - m2)
        closed = float(np.trace(m2).real + np.sum(w[w > 0]))
        assert -sol.primal_value == pytest.approx(closed, abs=1e-7)

    def test_two_by_two_domination_from_default_start(self):
        sol = solve(domination_problem(random_density(2, 8).mat))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(-1.0, abs=1e-7)

    def test_weak_duality_and_certificate_invariants(self):
        for seed in range(6):
            sol = solve(hmin_problem(100 + seed))
            assert sol.status == "optimal"
            assert sol.dual_value <= sol.primal_value + 1e-9
            assert abs(sol.gap) <= 1e-7 * (1.0 + abs(sol.primal_value))
            assert np.linalg.eigvalsh(sol.X_star.mat)[0] >= -1e-7
            assert np.linalg.eigvalsh(sol.Z_star.mat)[0] >= -1e-7

    def test_determinism(self):
        p = hmin_problem(9)
        a, b = solve(p), solve(p)
        assert a.X_star.mat.tobytes() == b.X_star.mat.tobytes()
        assert a.Y_star.mat.tobytes() == b.Y_star.mat.tobytes()
        assert a.primal_value == b.primal_value

    def test_scale_covariance(self):
        p1 = hmin_problem(10)
        scaled = HermitianSdp(herm(3.5 * p1.objective.mat), p1.d_A, p1.d_B)
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

    @pytest.mark.parametrize(
        "quantity, item",
        [
            *(
                pytest.param(min_entropy, random_state(3, 3, seed, rank), id=f"hmin-3x3-{seed}")
                for seed, rank in ((10, 2), (41, 6), (115, 8))
            ),
            *(
                pytest.param(decoupling_accuracy, random_state(d_a, d_b, seed, rank), id=f"qdecpl-{d_a}x{d_b}-{seed}")
                for d_a, d_b, seed, rank in ((2, 3, 28, 5), (3, 2, 50, 3), (2, 3, 160, 5))
            ),
            pytest.param(guessing_probability, cq_ensemble(72), id="pguess-72"),
        ],
    )
    def test_last_steps_keep_their_cholesky_factor(self, quantity, item):
        # within about 1e-9 of the optimum, X + alpha dX formed outside the NT-scaled frame
        # failed to factor at the length the frame estimated, and each solve ended numerical_failure
        result = quantity(item)  # SolverError unless the solve ends optimal
        if quantity is min_entropy:
            assert result.certificate.status == "optimal"
            cert = check_certificate(_min_entropy_problem(item.mat, 3, 3), result.certificate)
            assert max(cert.constraint_residual, cert.dual_residual, cert.weak_duality_violation) <= 1e-9
            assert min(cert.min_eig_X, cert.min_eig_Z) >= -1e-9

    def test_max_iterations_status(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        sol = solve(hmin_problem(11))
        assert sol.status == "max_iterations"

    @pytest.mark.parametrize("problem", ["hmin3", "hmin7", "hmin11", "hmin15", "crit8_purified"])
    def test_weak_duality_holds_for_every_status(self, monkeypatch, problem):
        # the dual starts infeasible, so a capped solve is the one that can end with tr(Y) above its
        # primal value: the centering must hold the iterates back while the dual residual is large
        p = crit8_purified_problem() if problem == "crit8_purified" else hmin_problem(int(problem[4:]))
        for cap in (1, 3, 5, 200):
            monkeypatch.setattr(sdp, "MAX_ITERATIONS", cap)
            sol = solve(p)
            assert sol.dual_value <= sol.primal_value + 1e-9

    def test_infeasible_detected(self):
        # both sides of the min-entropy SDP are strictly feasible (X = I/d_A, and
        # Y = -t id_B with t > lmax(C)), so iterates past DIVERGENCE_LIMIT can only be a
        # numerical blow-up: here Z starts at ||C||_F I, beyond it
        sol = solve(HermitianSdp(herm(-1e13 * random_density(6, 17).mat), 2, 3))
        assert sol.status == "numerical_failure" and sol.iterations == 1

    def test_dimension_mismatch_rejected(self):
        # d_A blocks of size d_B that do not partition the dimension of the objective
        with pytest.raises(ValueError, match="partition"):
            HermitianSdp(herm(np.eye(2)), 3, 1)


class TestCertificate:
    def test_clean_solution_has_small_residuals(self):
        p = hmin_problem(12)
        report = check_certificate(p, solve(p))
        assert report.constraint_residual <= 1e-7
        assert report.dual_residual <= 1e-7
        assert report.min_eig_X >= -1e-7
        assert report.min_eig_Z >= -1e-7
        assert report.weak_duality_violation == 0.0
        assert report.value_mismatch <= 1e-9

    def test_corrupted_primal_is_flagged(self):
        p = hmin_problem(13)
        sol = solve(p)
        bad = sol.X_star.mat.copy()
        bad[0, 0] += 0.1
        corrupted = SdpSolution(
            X_star=HermitianOperator(bad),
            Y_star=sol.Y_star,
            Z_star=sol.Z_star,
            primal_value=sol.primal_value,
            dual_value=sol.dual_value,
            status=sol.status,
            iterations=sol.iterations,
        )
        report = check_certificate(p, corrupted)
        assert report.constraint_residual > 1e-3

    def test_injected_duality_violation_is_flagged(self):
        p = hmin_problem(14)
        sol = solve(p)
        forged = SdpSolution(
            X_star=sol.X_star,
            Y_star=sol.Y_star,
            Z_star=sol.Z_star,
            primal_value=sol.primal_value,
            dual_value=sol.primal_value + 1e-5,
            status=sol.status,
            iterations=sol.iterations,
        )
        report = check_certificate(p, forged)
        assert report.weak_duality_violation > 1e-6

    def test_solution_arrays_are_read_only(self):
        sol = min_entropy(BipartiteState(random_density(4, 3), 2, 2)).certificate
        for arr in (sol.X_star.mat, sol.Y_star.mat, sol.Z_star.mat):
            assert not arr.flags.writeable

    def test_check_of_a_purified_problem_stores_no_constraint_stack(self):
        # the full-rank 4x4 H_max problem on A (x) C: n = 64, m = 256; m dense n x n
        # constraint matrices alone would take 16.8 MB
        report, amp = _max_entropy_purified(random_state(4, 4, 18))
        rho_ac = np.einsum("abc,dbe->acde", amp, amp.conj()).reshape(64, 64)
        p = _min_entropy_problem(rho_ac, 4, 16)
        assert (p.dim, p.n_constraints) == (64, 256)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            check_certificate(p, report.certificate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2 * 2**20


BUILDERS = {
    "min_entropy_kron": lambda: _min_entropy_problem(random_density(6, 31).mat, 3, 2),
    "min_entropy_2x3": lambda: _min_entropy_problem(random_density(6, 32, rank=4).mat, 2, 3),
    "min_entropy_3x3": lambda: _min_entropy_problem(random_density(9, 33, rank=3).mat, 3, 3),
    "guessing_block_diagonal": lambda: _min_entropy_problem(
        cq_to_density(
            CqEnsemble(np.array([0.5, 0.3, 0.2]), tuple(random_density(2, 30 + x) for x in range(3)))
        ).mat,
        3,
        2,
    ),
    "domination": lambda: domination_problem(random_density(3, 34).mat),
    "double_domination": lambda: double_domination_problem(
        random_density(2, 35).mat, random_density(2, 36).mat
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
class TestConstraintCoords:
    """The partial-trace map, entry by entry, against the dense constraint matrices."""

    @staticmethod
    def dense(name: str) -> tuple[HermitianSdp, np.ndarray]:
        # A_(j,k) = id_A (x) E_kj: tr(A_(j,k) X) = (tr_A X)_jk
        p = BUILDERS[name]()
        amats = []
        for j, k in itertools.product(range(p.d_B), repeat=2):
            e_kj = np.zeros((p.d_B, p.d_B))
            e_kj[k, j] = 1.0
            amats.append(np.kron(np.eye(p.d_A), e_kj))
        return p, np.stack(amats).astype(complex)

    @staticmethod
    def random_hermitian(n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return g @ g.conj().T / n

    def test_schur_matches_dense_definition(self, name):
        # G_ij = A(W A*(e_j) W)_i = tr(A_i W A_j^H W), A_j^H = A_j^T for these real A_j
        p, amats = self.dense(name)
        n = amats.shape[1]
        w = self.random_hermitian(n, 40) + 0.1 * np.eye(n)
        waw = np.einsum("ab,jcb,cd->jad", w, amats, w)
        ref = np.einsum("iab,jba->ij", amats, waw)
        h = p._schur(w)
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_op_and_adjoint(self, name):
        p, amats = self.dense(name)
        m, n = amats.shape[0], amats.shape[1]
        assert (m, n) == (p.n_constraints, p.dim)
        x = self.random_hermitian(n, 41)
        rng = np.random.default_rng(41)
        # Y is a general complex d_B x d_B matrix; the map is linear in it
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ax, aty = p._op(x), p._adj(y.reshape(p.d_B, p.d_B))
        assert ax.shape == (p.d_B, p.d_B)
        assert np.max(np.abs(ax.ravel() - np.einsum("iab,ba->i", amats, x))) <= 1e-12
        assert np.max(np.abs(aty - np.einsum("i,iba->ab", y, amats))) <= 1e-12
        # <Y, A(X)> = <A*(Y), X>
        assert abs(np.vdot(y, ax) - np.vdot(aty, x)) <= 1e-12 * (1.0 + abs(np.vdot(y, ax)))

    def test_certificate_check_matches_dense_definition(self, name, monkeypatch):
        # every CertificateReport field from the dense A_(j,k), b_(j,k) = delta_jk, on the
        # solver's certificate and on a random (X, Y, Z) whose residuals are of order one;
        # y is Y row-major, the coordinates of the dense constraints
        p, amats = self.dense(name)
        n = p.dim
        b = np.eye(p.d_B).ravel()
        sol = solve(p)
        forged = SdpSolution(
            X_star=herm(self.random_hermitian(n, 43)),
            Y_star=herm(self.random_hermitian(p.d_B, 42) - 0.5 * np.eye(p.d_B)),
            Z_star=herm(self.random_hermitian(n, 44) - 0.5 * np.eye(n)),
            primal_value=0.3,
            dual_value=0.4,
            status=sdp.STATUS_MAX_ITERATIONS,
            iterations=3,
        )
        for method in ("_op", "_adj", "_schur"):
            monkeypatch.setattr(HermitianSdp, method, _raise_linalg)
        for s in (sol, forged):
            x, y, z, c = s.X_star.mat, s.Y_star.mat.ravel(), s.Z_star.mat, p.objective.mat
            pv = np.trace(c @ x).real
            dv = np.sum(np.conj(y) * b).real
            want = {
                "constraint_residual": np.max(np.abs(np.einsum("iab,ba->i", amats, x) - b)),
                "dual_residual": np.max(np.abs(c - z - np.einsum("i,iba->ab", y, amats.conj()))),
                "min_eig_X": np.linalg.eigvalsh(x)[0],
                "min_eig_Z": np.linalg.eigvalsh(z)[0],
                "primal_value": pv,
                "dual_value": dv,
                "gap": pv - dv,
                "value_mismatch": max(abs(pv - s.primal_value), abs(dv - s.dual_value)),
                "weak_duality_violation": max(0.0, s.dual_value - s.primal_value),
            }
            got = check_certificate(p, s)
            for field, value in want.items():
                assert abs(getattr(got, field) - value) <= 1e-12 * (1.0 + abs(value)), field

    def test_each_dual_block_is_exactly_hermitian(self, name, monkeypatch):
        # the solver's multiplier Y is exactly Hermitian as solved, so Y_star stores its bytes unchanged
        p = BUILDERS[name]()
        wrapped = []

        def recorded(mat):
            wrapped.append(mat)
            return HermitianOperator(mat)

        monkeypatch.setattr(sdp, "HermitianOperator", recorded)
        sol = solve(p)
        y = wrapped[1]  # X_star, Y_star and Z_star are built in that order
        assert sol.status == "optimal" and y.shape == (p.d_B, p.d_B)
        assert np.array_equal(y, y.conj().T)
        assert sol.Y_star.mat.tobytes() == y.tobytes()


class TestMaxStep:
    """_step reads the step length in the NT-scaled frame and verifies it by a factor."""

    @staticmethod
    def pd_and_frame(n: int, seed: int):
        # s and a Z > 0 fix the frame G^-1 s G^-† = diag(lam); scaled(d) is d in that frame
        s = TestConstraintCoords.random_hermitian(n, seed) + 0.1 * np.eye(n)
        z = TestConstraintCoords.random_hermitian(n, seed + 100) + 0.1 * np.eye(n)
        g, lam = sdp._nt_scaling(np.linalg.cholesky(s), z)
        g_inv = np.linalg.inv(g)
        return s, g, lam, lambda d: g_inv @ d @ g_inv.conj().T

    def test_psd_direction_takes_the_full_step(self):
        _, _, lam, scaled = self.pd_and_frame(4, 50)
        d = scaled(TestConstraintCoords.random_hermitian(4, 51))
        alpha, ell = sdp._step(lam, np.diag(lam), d)
        assert alpha == 1.0
        assert np.array_equal(ell, np.linalg.cholesky(np.diag(lam) + d))

    def test_factor_is_the_cholesky_factor_of_the_new_iterate(self):
        # ell factors the new iterate in the frame, and G ell the new iterate itself
        s, g, lam, scaled = self.pd_and_frame(5, 52)
        d = -TestConstraintCoords.random_hermitian(5, 53)
        alpha, ell = sdp._step(lam, np.diag(lam), scaled(d))
        assert 0.0 < alpha < 1.0
        new = np.diag(lam) + alpha * scaled(d)
        assert ell.tobytes() == np.linalg.cholesky(new).tobytes()
        assert np.max(np.abs(ell @ ell.conj().T - new)) <= 1e-12 * np.max(np.abs(new))
        gl = g @ ell
        assert np.max(np.abs(gl @ gl.conj().T - (s + alpha * d))) <= 1e-10 * np.max(np.abs(s))

    def test_overshooting_estimate_is_a_numerical_failure(self, monkeypatch):
        # estimated against 50 diag(lam), the step reads a spectrum 50 times
        # too small and asks for a step past the boundary of the cone
        _, _, lam, scaled = self.pd_and_frame(4, 54)
        d = scaled(-TestConstraintCoords.random_hermitian(4, 55))
        assert np.linalg.eigvalsh(np.diag(lam) + d)[0] <= 0.0
        sdp._step(lam, np.diag(lam), d)  # estimated against its own spectrum, the step is taken
        with pytest.raises(np.linalg.LinAlgError):
            sdp._step(50.0 * lam, np.diag(lam), d)
        # in a solve, the first step short of the full one overshoots alike
        step = sdp._step
        monkeypatch.setattr(sdp, "_step", lambda lam, lam_mat, s: step(50.0 * lam, lam_mat, s))
        sol = solve(hmin_problem(16))
        assert sol.status == "numerical_failure"
        assert np.all(np.isfinite(sol.X_star.mat)) and np.all(np.isfinite(sol.Z_star.mat))

    def test_nan_direction_is_rejected_by_the_factor_check(self):
        # the eigensolver reads [[nan, 0], [0, 1]] as [0, -0] instead of
        # failing, so the estimate asks for the full step along it; numpy's
        # Cholesky passes the NaN through, and only the finite-factor check
        # rejects the step (in the frame of X = Z = I a direction is its own
        # scaled form)
        d = np.array([[np.nan, 0.0], [0.0, 1.0]])
        lam = np.ones(2)
        assert not _eigh(d, vectors=False)[0] < 0.0  # so the estimate is the full step
        assert not np.isfinite(np.linalg.cholesky(np.eye(2) + d)).all()
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            sdp._step(lam, np.eye(2), d)

    def test_step_estimate_is_the_spectral_formula(self):
        _, _, lam, scaled = self.pd_and_frame(5, 58)
        # the random directions are shortened; the small one is capped at the full step
        directions = [-TestConstraintCoords.random_hermitian(5, seed) for seed in (59, 60, 61)]
        for d in directions + [-1e-3 * np.eye(5)]:
            # lmin of the pencil (scaled(d), diag(lam)), generalized eigenvalues taken by scipy
            lmin = scipy.linalg.eigh(scaled(d), np.diag(lam), eigvals_only=True)[0]
            assert lmin < 0.0
            want = min(1.0, -sdp.STEP_FRACTION / lmin)
            assert sdp._step(lam, np.diag(lam), scaled(d))[0] == pytest.approx(want, rel=1e-12)
        for g in directions:
            assert sdp._step(lam, np.diag(lam), scaled(g @ g.conj().T))[0] == 1.0  # PSD direction

    def test_step_estimate_never_factors(self, monkeypatch):
        # the length is read from the scaled spectrum alone: the one Cholesky
        # call is the check of diag(lam) + alpha s at that length
        _, _, lam, scaled = self.pd_and_frame(4, 62)
        d = scaled(-TestConstraintCoords.random_hermitian(4, 63))
        cholesky, factored = np.linalg.cholesky, []

        def recorded(a, *args, **kwargs):
            factored.append(a)
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", recorded)
        alpha, _ = sdp._step(lam, np.diag(lam), d)
        assert len(factored) == 1
        assert factored[0].tobytes() == (np.diag(lam) + alpha * d).tobytes()
        monkeypatch.setattr(np.linalg, "cholesky", _raise_linalg)
        with pytest.raises(np.linalg.LinAlgError):
            sdp._step(lam, np.diag(lam), d)

    def test_solve_factors_only_the_steps_it_takes(self, monkeypatch):
        # per completed iteration: the predictor's step is not measured, and
        # the corrector's two are each estimated from a scaled spectrum of
        # their own and factor-verified; every n x n Cholesky call comes from
        # _step (m = 9 differs from n = 6)
        p = _min_entropy_problem(random_density(6, 64).mat, 2, 3)
        n = p.dim
        calls = {"step": 0, "outside": 0}
        step, cholesky = sdp._step, np.linalg.cholesky
        inside = []

        def counted_step(*args):
            calls["step"] += 1
            inside.append(1)
            try:
                return step(*args)
            finally:
                inside.pop()

        def watched_cholesky(a, *args, **kwargs):
            calls["outside"] += a.shape == (n, n) and not inside
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(sdp, "_step", counted_step)
        monkeypatch.setattr(np.linalg, "cholesky", watched_cholesky)
        sol = solve(p)
        assert sol.status == "optimal"
        steps = sol.iterations - 1  # the last iteration stops before stepping
        assert calls == {"step": 2 * steps, "outside": 0}

    def test_solve_inverts_no_iterate_factor(self, monkeypatch):
        # step lengths and Z^-1 are read in the NT-scaled frame, and the two
        # Newton systems of a step are each one solve with the m x m Schur
        # matrix (m = 9 differs from n = 6): nothing is inverted
        p = _min_entropy_problem(random_density(6, 65).mat, 2, 3)
        linalg_solve, inverted, solved = np.linalg.solve, [], []

        def watched_solve(a, *args, **kwargs):
            solved.append(a.shape)
            return linalg_solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", lambda a, *args, **kwargs: inverted.append(a.shape))
        monkeypatch.setattr(np.linalg, "solve", watched_solve)
        sol = solve(p)
        assert sol.status == "optimal"
        assert inverted == []
        assert solved == [(9, 9)] * 2 * (sol.iterations - 1)

    def test_non_finite_factor_is_never_accepted(self, monkeypatch):
        # numpy's Cholesky returns a NaN factor for NaN input instead of failing
        _, _, lam, scaled = self.pd_and_frame(3, 56)
        d = scaled(TestConstraintCoords.random_hermitian(3, 57))
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full_like(a, np.nan))
        with pytest.raises(np.linalg.LinAlgError):
            sdp._step(lam, np.diag(lam), d)


class TestCorrector:
    """Mehrotra's second-order term: its NT-scaled frame, and the iterations it saves."""

    @staticmethod
    def psd_power(a: np.ndarray, p: float) -> np.ndarray:
        w, v = np.linalg.eigh(a)
        return (v * w**p) @ v.conj().T

    @pytest.mark.parametrize("n,seed", [(2, 70), (5, 71), (9, 72)])
    def test_scaled_frame_diagonalizes_both_iterates(self, n, seed):
        x = TestConstraintCoords.random_hermitian(n, seed) + 0.1 * np.eye(n)
        z = TestConstraintCoords.random_hermitian(n, seed + 10) + 0.1 * np.eye(n)
        g, lam = sdp._nt_scaling(np.linalg.cholesky(x), z)
        g_inv = np.linalg.inv(g)
        # the NT point in closed form: W = Z^-1/2 (Z^1/2 X Z^1/2)^1/2 Z^-1/2
        zh, zih = self.psd_power(z, 0.5), self.psd_power(z, -0.5)
        w = zih @ self.psd_power(zh @ x @ zh, 0.5) @ zih
        for got, want in (
            (g_inv @ x @ g_inv.conj().T, np.diag(lam)),
            (g.conj().T @ z @ g, np.diag(lam)),
            (g @ g.conj().T, w),
            (g @ g_inv, np.eye(n)),
        ):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,seed", [(2, 80), (5, 81), (9, 82)])
    def test_directions_read_in_the_frame_without_inverses(self, n, seed):
        # dX = R - W dZ W reads G^-1 R G^-† - G† dZ G in the frame, and the
        # step lengths read there match lmin(L^-1 dX L^-†) and lmin(Lz^-1 dZ Lz^-†)
        rand = TestConstraintCoords.random_hermitian
        x, z = rand(n, seed) + 0.1 * np.eye(n), rand(n, seed + 10) + 0.1 * np.eye(n)
        dz = rand(n, seed + 20) - 2.0 * rand(n, seed + 30)
        r = -2.0 * x + rand(n, seed + 40)
        g, lam = sdp._nt_scaling(np.linalg.cholesky(x), z)
        g_inv = np.linalg.inv(g)
        w = g @ g.conj().T
        dx = r - w @ dz @ w
        sz = g.conj().T @ dz @ g
        sx = g_inv @ r @ g_inv.conj().T - sz
        want = g_inv @ dx @ g_inv.conj().T
        assert np.max(np.abs(sx - want)) <= 1e-10 * np.max(np.abs(want))
        for s, ds, scaled in ((x, dx, sx), (z, dz, sz)):
            ell_inv = np.linalg.inv(np.linalg.cholesky(s))
            lmin = np.linalg.eigvalsh(ell_inv @ ds @ ell_inv.conj().T)[0]
            assert lmin < -1.0  # a step short of the full one
            alpha, _ = sdp._step(lam, np.diag(lam), scaled)
            assert alpha == pytest.approx(-sdp.STEP_FRACTION / lmin, rel=1e-10)

    @pytest.mark.parametrize("n,seed", [(2, 90), (5, 91), (9, 92)])
    def test_affine_step_reads_in_the_frame_from_one_spectrum(self, n, seed):
        # dXa = -X - W dZa W reads -diag(lam) - G† dZa G, the factor the second-order
        # term takes for G^-1 dXa G^-†; its scaled spectrum is -1 less that of dZa
        rand = TestConstraintCoords.random_hermitian
        x, z = rand(n, seed) + 0.1 * np.eye(n), rand(n, seed + 10) + 0.1 * np.eye(n)
        dz = rand(n, seed + 20) - 2.0 * rand(n, seed + 30)
        g, lam = sdp._nt_scaling(np.linalg.cholesky(x), z)
        g_inv = np.linalg.inv(g)
        w = g @ g.conj().T
        dx = -x - w @ dz @ w
        sz = g.conj().T @ dz @ g
        sx = -np.diag(lam) - sz
        want = g_inv @ dx @ g_inv.conj().T
        assert np.max(np.abs(sx - want)) <= 1e-10 * np.max(np.abs(want))
        r = lam**-0.5
        wa = np.linalg.eigvalsh(r[:, None] * sz * r)
        assert np.linalg.eigvalsh(r[:, None] * sx * r) == pytest.approx(-1.0 - wa[::-1], rel=1e-10, abs=1e-10)
        want_step = min(1.0, sdp.STEP_FRACTION / (1.0 + wa[-1])) if wa[-1] > -1.0 else 1.0
        assert sdp._step(lam, np.diag(lam), sx)[0] == pytest.approx(want_step, rel=1e-10)

    @pytest.mark.parametrize("cap", [3, 200])
    def test_each_iterate_is_measured_once(self, monkeypatch, cap):
        # A(X) once per iteration's measure, A(W R_d W) and A(rc) once per step;
        # an optimal solve returns the iterate its loop last measured, and only
        # the capped solve measures the iterate of its last step after the loop
        p = _min_entropy_problem(random_density(6, 73).mat, 2, 3)
        op, calls = HermitianSdp._op, []

        def counted_op(self, x):
            calls.append(1)
            return op(self, x)

        monkeypatch.setattr(HermitianSdp, "_op", counted_op)
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", cap)
        sol = solve(p)
        if cap == 200:
            assert sol.status == "optimal"
            assert len(calls) == sol.iterations + 2 * (sol.iterations - 1)
        else:
            assert sol.status == "max_iterations" and sol.iterations == cap
            assert len(calls) == cap + 2 * cap + 1

    def test_iteration_counts(self):
        # without the second-order term these solves take 21 and 10
        # iterations, with it 15 and 9, from the feasible start with
        # STEP_FRACTION 0.97, 12 and 8, with Mehrotra's centering exponent at
        # 1.25 (3 before), 11 and 8, and with the centering read from the
        # dual residual and STEP_FRACTION 0.98, 11 and 8 (OpenBLAS 0.3.31,
        # one or two threads)
        assert max_entropy(lapack_failure_state()).certificate.iterations <= 12
        phi = np.zeros(4)
        phi[[0, 3]] = 2**-0.5
        phi2 = BipartiteState(DensityOperator.from_matrix(np.outer(phi, phi)), 2, 2)
        assert min_entropy(phi2).certificate.iterations <= 9


def _raise_linalg(*args, **kwargs):
    raise np.linalg.LinAlgError("injected failure")


def _fail_every_eigh_route(monkeypatch) -> None:
    # both of _eigh's routes call np.linalg.eigh, on one triangle each
    monkeypatch.setattr(np.linalg, "eigh", _raise_linalg)


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
        w, v = _eigh(a)
        assert_eigendecomposition(a, w, v, ref)
        assert np.max(np.abs(_eigh(a, vectors=False) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_fallback_routes_when_syevd_fails(self, monkeypatch):
        # the recorded real matrix, and a complex Hermitian one as the
        # solver's iterates are
        g = np.random.default_rng(18).standard_normal((2, 12, 12))
        g = g[0] + 1j * g[1]
        mats = [np.load(DATA / "nt_scaling_syevd_nonconvergence.npy"), g @ g.conj().T]
        refs = [np.linalg.eigvalsh(a) for a in mats]
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lower_triangle_fails(np.linalg.eigh, calls))
        monkeypatch.setattr(np.linalg, "eigvalsh", lower_triangle_fails(np.linalg.eigvalsh, calls))
        for a, ref in zip(mats, refs):
            calls.clear()
            w, v = _eigh(a)
            assert calls == ["L", "U"]
            assert_eigendecomposition(a, w, v, ref)
            assert np.max(np.abs(_eigh(a, vectors=False) - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert calls == ["L", "U"] * 2

    def test_every_route_failing_raises_linalg_error(self, monkeypatch):
        _fail_every_eigh_route(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigvalsh", _raise_linalg)
        for vectors in (True, False):
            with pytest.raises(np.linalg.LinAlgError):
                _eigh(np.eye(3), vectors=vectors)

    def test_solve_reports_numerical_failure(self, monkeypatch):
        p = hmin_problem(16)
        _fail_every_eigh_route(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigvalsh", _raise_linalg)
        sol = solve(p)
        assert sol.status == "numerical_failure" == sdp.STATUS_NUMERICAL_FAILURE
        assert sol.iterations == 1
        for arr in (sol.X_star.mat, sol.Y_star.mat, sol.Z_star.mat):
            assert np.all(np.isfinite(arr))
        assert np.isfinite(sol.primal_value) and np.isfinite(sol.dual_value)

    def test_failure_mid_run_keeps_the_last_iterate(self, monkeypatch):
        p = hmin_problem(16)
        with monkeypatch.context() as capped_run:
            capped_run.setattr(sdp, "MAX_ITERATIONS", 3)
            capped = solve(p)
        numpy_eigh = np.linalg.eigh
        calls = []

        def fails_from_fourth_call(s, *args, **kwargs):
            calls.append(1)
            if len(calls) >= 4:
                raise np.linalg.LinAlgError("injected failure")
            return numpy_eigh(s, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", fails_from_fourth_call)
        sol = solve(p)
        assert sol.status == "numerical_failure"
        assert sol.iterations == 4 and len(calls) == 5  # the fourth iteration tried both triangles
        assert sol.X_star.mat.tobytes() == capped.X_star.mat.tobytes()
        assert sol.Y_star.mat.tobytes() == capped.Y_star.mat.tobytes()
        assert sol.Z_star.mat.tobytes() == capped.Z_star.mat.tobytes()
        assert sol.primal_value == capped.primal_value
        assert sol.dual_value == capped.dual_value

    def test_cholesky_failure_is_a_numerical_failure(self, monkeypatch):
        p = hmin_problem(16)
        monkeypatch.setattr(np.linalg, "cholesky", _raise_linalg)
        sol = solve(p)
        assert sol.status == "numerical_failure"
        assert np.all(np.isfinite(sol.X_star.mat)) and np.all(np.isfinite(sol.Y_star.mat))

    @pytest.mark.parametrize("d_a,d_b,seed", [(2, 3, 41), (3, 2, 42), (2, 4, 43), (4, 2, 44)])
    def test_schur_cholesky_failure_is_a_numerical_failure(self, monkeypatch, d_a, d_b, seed):
        # Cholesky fails on the m x m Schur matrix only (m = d_b^2 differs
        # from n = d_a d_b); the first Newton system ends the solve
        p = _min_entropy_problem(random_density(d_a * d_b, seed).mat, d_a, d_b)
        m = p.n_constraints
        assert m != p.dim
        cholesky, schur_calls = np.linalg.cholesky, []

        def fails_on_schur(a, *args, **kwargs):
            if a.shape == (m, m):
                schur_calls.append(1)
                raise np.linalg.LinAlgError("injected Schur failure")
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", fails_on_schur)
        sol = solve(p)
        assert schur_calls == [1]
        assert sol.status == "numerical_failure" and sol.iterations == 1
        for arr in (sol.X_star.mat, sol.Y_star.mat, sol.Z_star.mat):
            assert np.all(np.isfinite(arr))
        assert np.isfinite(sol.primal_value) and np.isfinite(sol.dual_value)

    def test_non_finite_newton_direction_is_a_numerical_failure(self, monkeypatch):
        # a NaN Schur matrix reaches LAPACK, which reports the failure
        p = hmin_problem(16)
        schur = HermitianSdp._schur
        calls = []

        def nan_on_fifth_call(self, w):
            calls.append(1)
            out = schur(self, w)
            return out * np.nan if len(calls) == 5 else out

        monkeypatch.setattr(HermitianSdp, "_schur", nan_on_fifth_call)
        sol = solve(p)
        assert sol.status == "numerical_failure"
        assert np.all(np.isfinite(sol.X_star.mat)) and np.all(np.isfinite(sol.Y_star.mat))

    def test_min_entropy_raises_solver_error(self, monkeypatch):
        state = BipartiteState(random_density(4, 17), 2, 2)
        _fail_every_eigh_route(monkeypatch)
        with pytest.raises(SolverError, match="numerical_failure") as info:
            min_entropy(state)
        assert info.value.solution.status == "numerical_failure"

import ast
import itertools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from minmaxent import (
    BipartiteState,
    DensityOperator,
    closed_form_entropies,
    helstrom_guess_probability,
    maximally_entangled,
    min_entropy,
    min_entropy_direct_search,
    oracles,
    random_density,
    root_fidelity,
    sdp,
    singlet_fraction,
)

from conftest import (
    channel_flags,
    fidelity_sdp,
    lower_triangle_fails,
    random_channel,
    random_state,
    sampled_singlet_fraction,
)


class TestHelstrom:
    def test_indistinguishable_states(self):
        rho = random_density(3, 1)
        for p0 in (0.2, 0.5, 0.9):
            assert helstrom_guess_probability(p0, rho, rho) == pytest.approx(
                max(p0, 1.0 - p0), abs=1e-12
            )

    def test_orthogonal_pure_states(self):
        ket0 = DensityOperator.from_matrix(np.diag([1.0, 0.0]))
        ket1 = DensityOperator.from_matrix(np.diag([0.0, 1.0]))
        assert helstrom_guess_probability(0.5, ket0, ket1) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_instance_value(self, helstrom_ensemble):
        value = helstrom_guess_probability(
            0.5, helstrom_ensemble.cond_states[0], helstrom_ensemble.cond_states[1]
        )
        assert value == pytest.approx(0.5 + 0.5 / math.sqrt(2.0), abs=1e-12)

    def test_projective_scan_confirms_optimality(self, helstrom_ensemble):
        # exhaustive scan over projective measurements {P(v), id - P(v)}
        # with Bloch vectors v; the instance is real so the optimum lies on
        # the x-z great circle, scanned at angular resolution 1e-4, while a
        # coarser sweep covers the full sphere
        rho0 = helstrom_ensemble.cond_states[0].mat
        rho1 = helstrom_ensemble.cond_states[1].mat
        value = helstrom_guess_probability(0.5, helstrom_ensemble.cond_states[0],
                                           helstrom_ensemble.cond_states[1])

        def success(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
            vx = np.sin(theta) * np.cos(phi)
            vy = np.sin(theta) * np.sin(phi)
            vz = np.cos(theta)
            proj = 0.5 * np.stack(
                [
                    np.stack([1.0 + vz, vx - 1j * vy], axis=-1),
                    np.stack([vx + 1j * vy, 1.0 - vz], axis=-1),
                ],
                axis=-2,
            )
            t0 = np.einsum("...ij,ji->...", proj, rho0).real
            t1 = np.einsum("...ij,ji->...", np.eye(2) - proj, rho1).real
            return 0.5 * t0 + 0.5 * t1

        theta = np.arange(0.0, 2.0 * np.pi, 1e-4)
        best_circle = float(np.max(success(theta, np.zeros_like(theta))))
        theta_c, phi_c = np.meshgrid(
            np.arange(0.0, np.pi, 4e-3), np.arange(0.0, 2.0 * np.pi, 4e-3), indexing="ij"
        )
        best_sphere = float(np.max(success(theta_c, phi_c)))
        assert best_circle <= value + 1e-12
        assert best_sphere <= value + 1e-12
        assert best_circle == pytest.approx(value, abs=1e-8)

    def test_rejects_bad_probability(self):
        rho = random_density(2, 2)
        with pytest.raises(ValueError):
            helstrom_guess_probability(1.5, rho, rho)


class TestDirectSearch:
    def test_completely_mixed_product(self):
        state = BipartiteState(DensityOperator.from_matrix(np.eye(4) / 4.0), 2, 2)
        bound = min_entropy_direct_search(state)
        assert -math.log2(bound) == pytest.approx(1.0, abs=1e-2)

    def test_maximally_entangled(self):
        state = BipartiteState(DensityOperator(maximally_entangled(2).projector()), 2, 2)
        bound = min_entropy_direct_search(state)
        assert -math.log2(bound) == pytest.approx(-1.0, abs=1e-2)

    def test_degenerate_product_matches_closed_form(self):
        rho_a = random_density(2, 3)
        ket0 = np.zeros((2, 2))
        ket0[0, 0] = 1.0
        state = BipartiteState(
            DensityOperator.from_matrix(np.kron(rho_a.mat, ket0)), 2, 2
        )
        cf_min, _ = closed_form_entropies(state, "product")
        bound = min_entropy_direct_search(state)
        assert -math.log2(bound) == pytest.approx(cf_min, abs=1e-2)

    def test_is_an_upper_bound_on_the_optimum(self):
        state = random_state(2, 2, seed=4)
        bound = min_entropy_direct_search(state)
        hmin = min_entropy(state).value_bits
        assert bound >= 2.0 ** (-hmin) - 1e-9

    @staticmethod
    def refinements(monkeypatch, state):
        """The search's bound, and per _nelder_mead call its arguments, evaluations and value."""
        nelder_mead, calls = oracles._nelder_mead, []

        def counted(f, *args):
            nfev = [0]

            def g(x):
                nfev[0] += 1
                return f(x)

            value = nelder_mead(g, *args)
            calls.append((f, args, nfev[0], value))
            return value

        monkeypatch.setattr(oracles, "_nelder_mead", counted)
        return min_entropy_direct_search(state), calls

    @staticmethod
    def scipy_nelder_mead(f, simplex, xatol, fatol, maxiter):
        import scipy.optimize

        options = {"initial_simplex": simplex, "xatol": xatol, "fatol": fatol, "maxiter": maxiter}
        res = scipy.optimize.minimize(f, simplex[0], method="Nelder-Mead", options=options)
        return res.fun, res.nfev

    def test_every_refinement_stops_early(self, monkeypatch):
        # verify's criterion-10 state at seed 6: from the maximally mixed start,
        # scipy's default simplex (a step of 2.5e-4 along a zero coordinate)
        # ran into the 4000-iteration cap
        state = BipartiteState(random_density(4, 20011 * 6), 2, 2)
        bound, calls = self.refinements(monkeypatch, state)
        nfev = [n for _, _, n, _ in calls]
        assert len(nfev) == 1
        assert max(nfev) < 1000
        assert -math.log2(bound) == pytest.approx(min_entropy(state).value_bits, abs=1e-6)

    @pytest.mark.parametrize("rank", [1, 2, None])
    @pytest.mark.parametrize("d_a", [1, 2, 3])
    def test_one_start_reaches_the_optimum(self, d_a, rank):
        # 1/lambda(sigma) is concave, so the run from the maximally mixed state
        # needs no other start, on rank-deficient states as on full-rank ones
        for seed in range(3):
            state = random_state(d_a, 2, seed=100 * d_a + seed, rank=rank)
            search_bits = -math.log2(min_entropy_direct_search(state))
            assert search_bits == pytest.approx(min_entropy(state).value_bits, abs=1e-5)

    def test_nelder_mead_is_scipys_on_the_criterion_10_objective(self, monkeypatch):
        # same value after the same evaluations, refinement by refinement
        state = BipartiteState(random_density(4, 20011 * 6), 2, 2)
        _, calls = self.refinements(monkeypatch, state)
        for f, args, nfev, value in calls:
            assert (value, nfev) == self.scipy_nelder_mead(f, *args)

    @pytest.mark.parametrize("maxiter", [40, 4000])
    @pytest.mark.parametrize("kind", ["quadratic", "sqrt_abs"])
    def test_nelder_mead_is_scipys_on_test_functions(self, kind, maxiter):
        # a convex quadratic and the non-convex sum of sqrt|x_i - c_i|: both stop
        # at the iteration cap of 40; of 4000, the quadratic stops at the
        # xatol/fatol test and the sum, which takes shrink steps, at the cap
        rng = np.random.default_rng(8)
        g = rng.standard_normal((4, 4))
        a, c = g @ g.T + 0.1 * np.eye(4), rng.standard_normal(4)
        nfev = [0]

        def f(x):
            nfev[0] += 1
            if kind == "quadratic":
                return float((x - c) @ a @ (x - c))
            return float(np.sum(np.sqrt(np.abs(x - c))))

        simplex = np.vstack([np.zeros(4), 0.3 * np.eye(4)])
        value = oracles._nelder_mead(f, simplex, 1e-8, 1e-10, maxiter)
        assert (value, nfev[0]) == self.scipy_nelder_mead(f, simplex, 1e-8, 1e-10, maxiter)
        if kind == "quadratic":
            assert (value < 1e-9) == (maxiter == 4000)

    def test_search_memory_is_bounded(self):
        # the search scores one sigma at a time (peak 0.03 MB here); scoring the
        # old 8144-state Bloch grid in one call peaked at 15.8 MB
        state = random_state(3, 2, seed=9)
        tracemalloc.start()
        try:
            min_entropy_direct_search(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_large_b_rejected(self):
        for d_b in (3, 4):
            with pytest.raises(ValueError):
                min_entropy_direct_search(random_state(2, d_b, seed=5))


class TestSampledSingletFraction:
    def test_identity_baseline_recovers_entangled_state(self):
        state = BipartiteState(DensityOperator(maximally_entangled(2).projector()), 2, 2)
        assert sampled_singlet_fraction(state, 0, 0) == pytest.approx(2.0, abs=1e-12)

    def test_zero_samples_equals_trace_and_prepare(self):
        # with d_A != d_B only the trace-and-prepare baseline applies and
        # gives d_A <Phi| rho_A (x) tau |Phi> = 1/d_A
        state = random_state(2, 3, seed=6)
        assert sampled_singlet_fraction(state, 0, 0) == pytest.approx(0.5, abs=1e-12)

    def test_never_exceeds_singlet_fraction(self):
        for seed in range(3):
            state = random_state(2, 2, seed=70 + seed)
            value, _ = singlet_fraction(state)
            assert sampled_singlet_fraction(state, 100, seed) <= value + 1e-9

    def test_500_samples_approach_the_optimum(self):
        # frozen instance: state seed 52, sampler seed 1 lands well inside
        # the 0.05 window (the sampler is a one-sided lower bound)
        state = random_state(2, 2, seed=52)
        value, _ = singlet_fraction(state)
        sampled = sampled_singlet_fraction(state, 500, seed=1)
        assert value - 0.05 <= sampled <= value + 1e-9


class TestFidelitySdp:
    def test_identical_states(self):
        rho = random_density(3, 8)
        assert fidelity_sdp(rho, rho) == pytest.approx(1.0, abs=1e-7)

    def test_commuting_diagonal_states(self):
        rho = DensityOperator.from_matrix(np.diag([0.5, 0.5]))
        omega = DensityOperator.from_matrix(np.diag([0.25, 0.75]))
        want = math.sqrt(0.5 * 0.25) + math.sqrt(0.5 * 0.75)
        assert fidelity_sdp(rho, omega) == pytest.approx(want, abs=1e-7)

    def test_matches_spectral_formula(self):
        for seed in range(4):
            rho, omega = random_density(2, 80 + seed), random_density(2, 90 + seed)
            assert fidelity_sdp(rho, omega) == pytest.approx(
                root_fidelity(rho, omega), abs=1e-7
            )

    def test_pure_states(self):
        ket0 = DensityOperator.from_matrix(np.diag([1.0, 0.0]))
        ketp = DensityOperator.from_matrix(np.full((2, 2), 0.5))
        assert fidelity_sdp(ket0, ketp) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-7)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rank_deficient_rho_and_singular_omega(self, d):
        # a singular omega is presolved onto its support, and rho of any rank is purified
        for rank_rho, rank_omega in itertools.product(range(1, d + 1), repeat=2):
            rho = random_density(d, 100 * d + rank_rho, rank=rank_rho)
            omega = random_density(d, 200 * d + rank_omega, rank=rank_omega)
            assert fidelity_sdp(rho, omega) == pytest.approx(root_fidelity(rho, omega), abs=1e-7)

    def test_eigenvalue_far_below_the_largest_is_kept(self):
        # omega's 1e-11 eigenvalue is above the rounding-level support cut, so the target
        # vec sqrt(omega) keeps a Schmidt coefficient of about 3e-6
        omega = DensityOperator.from_matrix(np.diag([1.0, 1e-11]) / (1.0 + 1e-11))
        for seed in range(3):
            rho = random_density(2, 300 + seed)
            assert fidelity_sdp(rho, omega) == pytest.approx(root_fidelity(rho, omega), abs=1e-7)

    def test_orthogonal_supports(self):
        # exactly 0 through the presolve; solved without it, F = sqrt(value) was 1.5e-5
        ket0 = DensityOperator.from_matrix(np.diag([1.0, 0.0, 0.0]))
        omega = DensityOperator.from_matrix(np.diag([0.0, 0.5, 0.5]))
        assert fidelity_sdp(ket0, omega) == 0.0

    def test_one_min_entropy_solve_on_the_support_of_omega(self, monkeypatch):
        # psi purifies P rho P on the rank-2 support of omega, over an ancilla of its rank 2
        solve, problems = sdp.solve, []
        monkeypatch.setattr(sdp, "solve", lambda p: problems.append(p) or solve(p))
        fidelity_sdp(random_density(3, 5), random_density(3, 6, rank=2))
        assert [(p.d_A, p.d_B) for p in problems] == [(2, 2)]


class TestRandomChannels:
    # random_channel, built on haar_isometry, draws the channels of the property tests
    def test_choi_is_cptp(self):
        for seed in range(5):
            cp, tp, _ = channel_flags(random_channel(2, 3, seed=seed))
            assert cp and tp

    def test_determinism(self):
        a = random_channel(2, 2, seed=9).op.mat
        b = random_channel(2, 2, seed=9).op.mat
        assert a.tobytes() == b.tobytes()


def test_helstrom_recovers_from_a_lower_triangle_failure(monkeypatch):
    rho0, rho1 = random_density(3, 11), random_density(3, 12)
    expected, calls = helstrom_guess_probability(0.3, rho0, rho1), []
    monkeypatch.setattr(np.linalg, "eigh", lower_triangle_fails(np.linalg.eigh, calls))
    monkeypatch.setattr(np.linalg, "eigvalsh", lower_triangle_fails(np.linalg.eigvalsh, calls))
    assert helstrom_guess_probability(0.3, rho0, rho1) == pytest.approx(expected, abs=1e-12)
    assert "U" in calls


def test_oracles_import_no_package_module_but_core():
    # the oracles check the solver's callers, so they import none of them: relative imports
    # name only .core, and no absolute import names the package
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text(encoding="utf-8"))
    relative = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    absolute = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    absolute += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level]
    assert relative == ["core"]
    assert not [name for name in absolute if name.split(".")[0] == "minmaxent"]

import math

import numpy as np
import pytest

from minmaxent import (
    BipartiteState,
    CqEnsemble,
    DensityOperator,
    PureState,
    closed_form_entropies,
    cq_to_density,
    decoupling_accuracy,
    guessing_probability,
    key_secrecy,
    key_secrecy_block,
    max_entropy,
    max_target_fidelity,
    maximally_entangled,
    min_entropy,
    random_density,
    sampled_target_fidelity,
    singlet_fraction,
)
from minmaxent.oracles import _coverage, haar_isometry
from minmaxent.verify import _full_rank_target, _pair_state

from conftest import channel_flags, lower_triangle_fails, random_state, sampled_singlet_fraction

HELSTROM_VALUE = 0.5 + 0.5 / math.sqrt(2.0)


def entangled_state(d: int) -> BipartiteState:
    return BipartiteState(DensityOperator(maximally_entangled(d).projector()), d, d)


class TestMinEntropy:
    def test_maximally_entangled_qubits(self):
        rep = min_entropy(entangled_state(2))
        assert rep.value_bits == pytest.approx(-1.0, abs=1e-7)
        assert rep.certificate.status == "optimal"

    def test_product_with_mixed_marginal(self):
        rho_b = random_density(3, 3)
        state = BipartiteState(
            DensityOperator.from_matrix(np.kron(np.eye(2) / 2.0, rho_b.mat)), 2, 3
        )
        assert min_entropy(state).value_bits == pytest.approx(1.0, abs=1e-7)

    def test_helstrom_instance(self, helstrom_ensemble):
        rep = min_entropy(cq_to_density(helstrom_ensemble))
        assert rep.value_bits == pytest.approx(-math.log2(HELSTROM_VALUE), abs=1e-7)
        assert rep.value_bits == pytest.approx(0.228447, abs=1e-5)

    def test_certificate_contents(self):
        state = random_state(2, 3, seed=4)
        rep = min_entropy(state)
        assert abs(rep.gap) <= 1e-7 * (1.0 + abs(rep.certificate.primal_value))
        # optimizer sigma is a valid state achieving the reported value
        lam = math.log2(_coverage(state.rho.mat, 2, rep.optimizer_sigma.mat))
        assert lam == pytest.approx(-rep.value_bits, abs=1e-5)
        # dual optimizer is the Choi matrix of a completely positive unital map
        cp, _, unital = channel_flags(rep.dual_optimizer)
        assert cp and unital
        assert rep.dual_optimizer.d_in == 2 and rep.dual_optimizer.d_out == 3

    def test_range_bounds(self):
        for seed, (d_a, d_b) in enumerate([(2, 2), (2, 3), (3, 2)]):
            state = random_state(d_a, d_b, seed=40 + seed)
            h = min_entropy(state).value_bits
            assert -math.log2(min(d_a, d_b)) - 1e-7 <= h <= math.log2(d_a) + 1e-7
            assert max_entropy(state).value_bits <= math.log2(d_a) + 1e-7

    def test_certificate_sizes(self):
        # the SDP variable is E on A (x) B, and the multiplier Y of tr_A E = id_B is d_B x d_B
        state = random_state(3, 2, seed=42)
        cert = min_entropy(state).certificate
        assert cert.X_star.dim == 3 * 2
        assert cert.Y_star.dim == 2

    def test_sigma_is_the_normalized_dual_matrix(self):
        # Y_star is the multiplier Y of tr_A E = id_B, and sigma = -Y
        rep = min_entropy(random_state(3, 2, seed=42))
        y = rep.certificate.Y_star.mat
        assert np.array_equal(rep.optimizer_sigma.mat, -y / np.trace(-y).real)
        assert np.trace(-y).real == pytest.approx(-rep.certificate.dual_value, rel=1e-14)  # tr sigma = 2^-H_min

    def test_full_rank_3x2_regression(self):
        # a feasible start E = id/d_A stalled on this state above the tolerance
        rep = min_entropy(BipartiteState(random_density(6, 38), 3, 2))
        assert rep.certificate.status == "optimal"
        assert rep.value_bits == pytest.approx(0.5593104458351952, abs=1e-8)

    def test_report_serialization(self, tmp_path, capsys):
        # a min-entropy report is serialized by the CLI's hmin JSON; the optimizers
        # stay on the report, at their sizes, and are not written out
        import json as json_mod

        from minmaxent import load_state, save_state
        from minmaxent.cli import run

        path = tmp_path / "state.json"
        save_state(random_state(2, 2, seed=41), str(path))
        assert run(["hmin", "--input", str(path), "--format", "json"]) == 0
        obj = json_mod.loads(capsys.readouterr().out)
        rep = min_entropy(load_state(str(path)))
        assert obj["quantity"] == "min_entropy"
        assert obj["status"] == "optimal"
        assert obj["value_bits"] == rep.value_bits
        assert "optimizer_sigma" not in obj and "dual_optimizer" not in obj
        assert rep.optimizer_sigma.mat.shape == (2, 2)
        assert rep.dual_optimizer.op.dim == 4


class TestMaxEntropy:
    def test_maximally_entangled_qubits(self):
        assert max_entropy(entangled_state(2)).value_bits == pytest.approx(-1.0, abs=1e-7)

    def test_product_with_completely_mixed_marginal(self):
        rho_b = random_density(2, 5)
        state = BipartiteState(
            DensityOperator.from_matrix(np.kron(np.eye(2) / 2.0, rho_b.mat)), 2, 2
        )
        assert max_entropy(state).value_bits == pytest.approx(1.0, abs=1e-7)

    def test_matches_decoupling_accuracy(self):
        state = random_state(2, 2, seed=6)
        value, _ = decoupling_accuracy(state)
        assert max_entropy(state).value_bits == pytest.approx(math.log2(value), abs=1e-6)

    def test_certificate_sizes(self):
        # the inner min-entropy SDP lives on A (x) C with C of dimension rank(rho)
        state = random_state(2, 3, seed=43, rank=4)
        cert = max_entropy(state).certificate
        assert cert.X_star.dim == 2 * 4
        assert cert.Y_star.dim == 4

    def test_duality_with_min_entropy_bounds(self):
        state = random_state(2, 2, seed=7)
        assert max_entropy(state).value_bits <= math.log2(2) + 1e-7

    @pytest.mark.parametrize("a", [9.9e-13, 1e-13, 1e-14])
    def test_small_eigenvalues_keep_their_square_root_weight(self, a):
        # rho_A = rho_B = diag(1, a) / (1 + a): H_max = 2 log2 tr sqrt(rho_A) is about
        # 2.9e-6 bits at a = 9.9e-13, and purifying on the eigenvalues above 1e-12 of
        # the largest alone gave -3.6e-10 bits and a decoupling accuracy of exactly 1
        marginal = np.diag([1.0, a]) / (1.0 + a)
        state = BipartiteState(DensityOperator.from_matrix(np.kron(marginal, marginal)), 2, 2)
        want = closed_form_entropies(state, "product")[1]
        assert want > 2.8e-7
        assert max_entropy(state).value_bits == pytest.approx(want, abs=1e-8)
        assert math.log2(decoupling_accuracy(state)[0]) == pytest.approx(want, abs=1e-8)


class TestGuessingProbability:
    def test_uniform_indistinguishable(self):
        rho = random_density(2, 8)
        ens = CqEnsemble(np.array([1 / 3, 1 / 3, 1 / 3]), (rho, rho, rho))
        value, _ = guessing_probability(ens)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-7)

    def test_orthogonal_states(self):
        ket0 = DensityOperator.from_matrix(np.diag([1.0, 0.0]))
        ket1 = DensityOperator.from_matrix(np.diag([0.0, 1.0]))
        value, _ = guessing_probability(CqEnsemble(np.array([0.5, 0.5]), (ket0, ket1)))
        assert value == pytest.approx(1.0, abs=1e-7)

    def test_helstrom_instance(self, helstrom_ensemble):
        value, povm = guessing_probability(helstrom_ensemble)
        assert value == pytest.approx(HELSTROM_VALUE, abs=1e-7)
        assert value == pytest.approx(0.853553, abs=1e-6)
        total = sum(e.mat for e in povm)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-8
        for e in povm:
            assert np.linalg.eigvalsh(e.mat)[0] >= -1e-8

    def test_equals_min_entropy_of_joint_state(self):
        for seed in range(3):
            rng = np.random.default_rng(900 + seed)
            p = rng.random(2)
            p /= p.sum()
            ens = CqEnsemble(
                p, (random_density(3, 910 + seed), random_density(3, 920 + seed))
            )
            value, _ = guessing_probability(ens)
            hmin = min_entropy(cq_to_density(ens)).value_bits
            assert value == pytest.approx(2.0 ** (-hmin), abs=1e-7)


class TestSingletFraction:
    def test_maximally_entangled(self):
        value, cert = singlet_fraction(entangled_state(2))
        assert value == pytest.approx(2.0, abs=1e-6)
        assert cert.achieved_overlap == pytest.approx(1.0, abs=1e-6)
        cp, tp, _ = channel_flags(cert.channel)
        assert cp and tp

    def test_product_state(self):
        rho_b = random_density(2, 9)
        state = BipartiteState(
            DensityOperator.from_matrix(np.kron(np.eye(2) / 2.0, rho_b.mat)), 2, 2
        )
        value, _ = singlet_fraction(state)
        assert value == pytest.approx(0.5, abs=1e-6)

    def test_cq_state_equals_guessing_probability(self, helstrom_ensemble):
        value, _ = singlet_fraction(cq_to_density(helstrom_ensemble))
        assert value == pytest.approx(HELSTROM_VALUE, abs=1e-6)

    def test_recovery_certificate(self):
        for seed in range(4):
            state = random_state(2, 3, seed=50 + seed)
            value, cert = singlet_fraction(state)
            cp, tp, _ = channel_flags(cert.channel)
            assert cp and tp
            ch = cert.channel
            j = ch.op.mat.reshape(ch.d_in, ch.d_out, ch.d_in, ch.d_out)
            tp_residual = np.max(np.abs(np.einsum("iaja->ij", j) - np.eye(ch.d_in)))
            assert tp_residual <= 1e-12
            assert abs(cert.achieved_overlap - cert.predicted) <= 1e-6
            assert state.d_A * cert.achieved_overlap == pytest.approx(value, abs=1e-6)

    def test_dominates_every_sampled_channel(self):
        state = random_state(2, 2, seed=60)
        value, _ = singlet_fraction(state)
        for samples, seed in ((0, 0), (50, 1), (200, 2)):
            assert sampled_singlet_fraction(state, samples, seed) <= value + 1e-9


class TestDecouplingAccuracy:
    def test_product_with_completely_mixed_a(self):
        sigma = random_density(3, 10)
        state = BipartiteState(
            DensityOperator.from_matrix(np.kron(np.eye(2) / 2.0, sigma.mat)), 2, 3
        )
        value, opt = decoupling_accuracy(state)
        assert value == pytest.approx(2.0, abs=1e-6)
        assert np.max(np.abs(opt.mat - sigma.mat)) <= 1e-4

    def test_maximally_entangled(self):
        value, _ = decoupling_accuracy(entangled_state(2))
        assert value == pytest.approx(0.5, abs=1e-6)

    def test_cq_state_matches_block_formula(self):
        ens = CqEnsemble(
            np.array([0.4, 0.6]), (random_density(2, 11), random_density(2, 12))
        )
        joint = cq_to_density(ens)
        value, sigma = decoupling_accuracy(joint)
        assert key_secrecy_block(ens, sigma) == pytest.approx(value, abs=1e-7)

    def test_state_is_purified_once_per_call(self, monkeypatch):
        # the optimizer's sigma is read on the purification the max-entropy
        # SDP was solved on, not on a second one
        import minmaxent.entropy as entropy

        calls = []
        purify = entropy.purify
        monkeypatch.setattr(entropy, "purify", lambda rho: calls.append(1) or purify(rho))
        decoupling_accuracy(BipartiteState(random_density(4, 16), 2, 2))
        assert len(calls) == 1
        key_secrecy(CqEnsemble(np.array([0.3, 0.7]), (random_density(2, 17), random_density(2, 18))))
        assert len(calls) == 2


class TestKeySecrecy:
    def test_deterministic_key(self):
        ens = CqEnsemble(
            np.array([1.0, 0.0]), (random_density(2, 13), random_density(2, 14))
        )
        assert key_secrecy(ens) == pytest.approx(1.0, abs=1e-6)

    def test_uniform_independent_key(self):
        rho = random_density(2, 15)
        for k in (2, 3):
            ens = CqEnsemble(np.full(k, 1.0 / k), (rho,) * k)
            assert key_secrecy(ens) == pytest.approx(float(k), abs=1e-6)

    def test_helstrom_instance_against_bloch_grid(self, helstrom_ensemble):
        value = key_secrecy(helstrom_ensemble)
        _, sigma = decoupling_accuracy(cq_to_density(helstrom_ensemble))
        assert key_secrecy_block(helstrom_ensemble, sigma) == pytest.approx(value, abs=1e-7)
        # refined Bloch-ball maximization of the block sum in spherical
        # coordinates (radius clamped to [0, 1] keeps pure states on the
        # grid); final cell size below 1e-3 per coordinate
        best = 0.0
        center = np.array([0.5, 0.5 * np.pi, np.pi])
        width = np.array([0.5, 0.5 * np.pi, np.pi])
        lo = np.array([0.0, 0.0, 0.0])
        hi = np.array([1.0, np.pi, 2.0 * np.pi])
        for _ in range(6):
            axes = [
                np.linspace(max(lo[k], center[k] - width[k]), min(hi[k], center[k] + width[k]), 11)
                for k in range(3)
            ]
            for u in axes[0]:
                for theta in axes[1]:
                    for phi in axes[2]:
                        rx = u * np.sin(theta) * np.cos(phi)
                        ry = u * np.sin(theta) * np.sin(phi)
                        rz = u * np.cos(theta)
                        sig = 0.5 * np.array(
                            [[1.0 + rz, rx - 1j * ry], [rx + 1j * ry, 1.0 - rz]]
                        )
                        val = key_secrecy_block(
                            helstrom_ensemble, DensityOperator.from_matrix(sig)
                        )
                        if val > best:
                            best, center = val, np.array([u, theta, phi])
            width = width / 4.0
        assert value == pytest.approx(best, abs=5e-4)
        assert best <= value + 1e-7


class TestMaxTargetFidelity:
    def test_entangled_target_reduces_to_singlet_fraction(self):
        state = random_state(2, 2, seed=16)
        value, _ = singlet_fraction(state)
        got = max_target_fidelity(state, maximally_entangled(2))
        assert got == pytest.approx(value / 2.0, abs=1e-7)

    def test_state_equal_to_target(self):
        target = _full_rank_target(2, seed=17)
        state = BipartiteState(DensityOperator(target.projector()), 2, 2)
        assert max_target_fidelity(state, target) == pytest.approx(1.0, abs=1e-6)

    def test_upper_bounds_random_channels(self):
        state = random_state(2, 2, seed=18)
        target = _full_rank_target(2, seed=19)
        best = max_target_fidelity(state, target)
        sampled = sampled_target_fidelity(state, target, samples=200, seed=20)
        assert sampled <= best + 1e-6

    @pytest.mark.parametrize("d", [2, 3])
    def test_product_target_gives_the_marginal_overlap(self, d):
        # for |alpha>|beta> the best channel prepares |beta>, so the value is
        # <alpha|rho_A|alpha>; the target's reduced state has rank 1
        rng = np.random.default_rng(21 + d)
        alpha, beta = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
        alpha, beta = alpha / np.linalg.norm(alpha), beta / np.linalg.norm(beta)
        state = random_state(d, 2, seed=21 + d)
        rho_a = np.trace(state.mat.reshape(d, 2, d, 2), axis1=1, axis2=3)
        want = float((alpha.conj() @ rho_a @ alpha).real)
        got = max_target_fidelity(state, PureState(np.kron(alpha, beta)))
        assert got == pytest.approx(want, abs=1e-8)

    def test_a_unitary_on_the_target_side_leaves_the_value(self):
        # the solve conjugates by the amplitude matrix M; (id (x) U)|Psi> has amplitude
        # matrix M U^T, a unitary on A of the conjugated operator, which H_min does not see
        rng = np.random.default_rng(24)
        state = random_state(3, 2, seed=24)
        target = _full_rank_target(3, seed=25)
        u = haar_isometry(3, 3, rng)
        rotated = PureState(np.kron(np.eye(3), u) @ target.amplitudes)
        assert max_target_fidelity(state, rotated) == pytest.approx(
            max_target_fidelity(state, target), abs=1e-8
        )


class TestClosedForms:
    def test_completely_mixed_product(self):
        state = BipartiteState(DensityOperator.from_matrix(np.eye(4) / 4.0), 2, 2)
        assert closed_form_entropies(state, "product") == pytest.approx((1.0, 1.0))

    def test_maximally_entangled_qutrits(self):
        state = entangled_state(3)
        hmin, hmax = closed_form_entropies(state, "pure")
        assert hmin == pytest.approx(-math.log2(3.0), abs=1e-12)
        assert hmax == pytest.approx(-math.log2(3.0), abs=1e-12)

    def test_random_product_matches_sdp(self):
        rho_a, rho_b = random_density(2, 22), random_density(3, 23)
        state = BipartiteState(
            DensityOperator.from_matrix(np.kron(rho_a.mat, rho_b.mat)), 2, 3
        )
        cf_min, cf_max = closed_form_entropies(state, "product")
        assert min_entropy(state).value_bits == pytest.approx(cf_min, abs=1e-6)
        assert max_entropy(state).value_bits == pytest.approx(cf_max, abs=1e-6)

    def test_structure_validation(self):
        entangled = entangled_state(2)
        with pytest.raises(ValueError, match="not a product"):
            closed_form_entropies(entangled, "product")
        mixed = BipartiteState(DensityOperator.from_matrix(np.eye(4) / 4.0), 2, 2)
        with pytest.raises(ValueError, match="not pure"):
            closed_form_entropies(mixed, "pure")
        with pytest.raises(ValueError, match="case"):
            closed_form_entropies(mixed, "diagonal")


class TestTrivialSubsystems:
    def test_unconditional_entropies_via_trivial_b(self):
        rho = random_density(3, 99)
        state = BipartiteState(rho, 3, 1)
        w = np.clip(np.linalg.eigvalsh(rho.mat), 0.0, None)
        assert min_entropy(state).value_bits == pytest.approx(-math.log2(w[-1]), abs=1e-7)
        assert max_entropy(state).value_bits == pytest.approx(
            2.0 * math.log2(float(np.sum(np.sqrt(w)))), abs=1e-7
        )

    def test_trivial_a_gives_zero(self):
        state = BipartiteState(random_density(3, 98), 1, 3)
        assert min_entropy(state).value_bits == pytest.approx(0.0, abs=1e-7)
        assert max_entropy(state).value_bits == pytest.approx(0.0, abs=1e-7)

    def test_singleton_ensemble(self):
        ens = CqEnsemble(np.array([1.0]), (random_density(2, 97),))
        value, povm = guessing_probability(ens)
        assert value == pytest.approx(1.0, abs=1e-7)
        assert np.max(np.abs(povm[0].mat - np.eye(2))) <= 1e-7


class TestStructuralIdentities:
    def test_additivity(self):
        s1, s2 = random_state(2, 2, seed=24), random_state(2, 2, seed=25)
        joint = _pair_state(s1, s2)
        total = min_entropy(joint).value_bits
        assert total == pytest.approx(
            min_entropy(s1).value_bits + min_entropy(s2).value_bits, abs=1e-6
        )

    def test_strong_subadditivity(self):
        for seed in range(3):
            rho = random_density(8, 26 + seed)
            h_abc = min_entropy(BipartiteState(rho, 2, 4)).value_bits
            rho_ab = np.trace(rho.mat.reshape(4, 2, 4, 2), axis1=1, axis2=3)
            h_ab = min_entropy(
                BipartiteState(DensityOperator.from_matrix(rho_ab), 2, 2)
            ).value_bits
            assert h_abc <= h_ab + 1e-7


@pytest.mark.parametrize(
    "quantity",
    [
        lambda s: min_entropy(s).value_bits,
        lambda s: singlet_fraction(s)[0],
        lambda s: max_entropy(s).value_bits,
        lambda s: decoupling_accuracy(s)[0],
    ],
    ids=["min_entropy", "singlet_fraction", "max_entropy", "decoupling_accuracy"],
)
def test_eigensolver_failure_on_the_lower_triangle_is_recovered(monkeypatch, quantity):
    # the eigendecompositions around the solve (fixing tr_A E, purify's factor, the
    # DensityOperator checks) take the solver's upper-triangle route as well
    state = random_state(2, 3, seed=8)
    expected, calls = quantity(state), []
    monkeypatch.setattr(np.linalg, "eigh", lower_triangle_fails(np.linalg.eigh, calls))
    monkeypatch.setattr(np.linalg, "eigvalsh", lower_triangle_fails(np.linalg.eigvalsh, calls))
    assert quantity(state) == pytest.approx(expected, abs=1e-9)
    assert "U" in calls


@pytest.mark.parametrize(
    "quantity",
    [
        lambda s, e: min_entropy(s),
        lambda s, e: max_entropy(s),
        lambda s, e: guessing_probability(e),
        lambda s, e: singlet_fraction(s),
        lambda s, e: decoupling_accuracy(s),
        lambda s, e: key_secrecy(e),
        lambda s, e: max_target_fidelity(s, _full_rank_target(2, seed=10)),
    ],
    ids=[
        "min_entropy", "max_entropy", "guessing_probability", "singlet_fraction",
        "decoupling_accuracy", "key_secrecy", "max_target_fidelity",
    ],
)
def test_each_quantity_is_read_from_one_solve(monkeypatch, helstrom_ensemble, quantity):
    # every operational quantity is a readout of the one min-entropy report it solves for
    import minmaxent.sdp as sdp

    calls = []
    solve = sdp.solve
    monkeypatch.setattr(sdp, "solve", lambda problem: calls.append(problem) or solve(problem))
    quantity(random_state(2, 2, seed=9), helstrom_ensemble)
    assert len(calls) == 1

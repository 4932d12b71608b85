import importlib
import inspect
import json
import math
import pathlib
import re

import numpy as np
import pytest

from minmaxent import (
    BipartiteState,
    CqEnsemble,
    DensityOperator,
    HermitianOperator,
    PureState,
    StateFormatError,
    cq_to_density,
    ensemble_from_json,
    ensemble_to_json,
    maximally_entangled,
    purify,
    random_density,
    root_fidelity,
    state_from_json,
    state_to_json,
)
from minmaxent import core
from minmaxent.core import _eigh, _partial_trace_mat

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def herm(mat) -> HermitianOperator:
    return HermitianOperator(np.asarray(mat, dtype=complex))


def rand_herm(d: int, seed: int) -> HermitianOperator:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(0.5 * (g + g.conj().T))


class TestTypes:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_symmetrizes_small_asymmetry(self):
        m = np.array([[1.0, 0.5 + 1e-12j], [0.5, 2.0]])
        h = HermitianOperator(m)
        assert np.max(np.abs(h.mat - h.mat.conj().T)) == 0.0

    def test_density_requires_psd_and_unit_trace(self):
        with pytest.raises(ValueError):
            DensityOperator.from_matrix(np.diag([1.5, -0.5]))
        with pytest.raises(ValueError):
            DensityOperator.from_matrix(np.diag([0.7, 0.7]))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "imaginary_nan"]
    )
    def test_density_rejects_non_finite_entries(self, bad):
        # NaN compares false against every bound, so each check alone passes it;
        # the bare Hermitian type rejects it before any of them
        for i, j in ((0, 0), (0, 1)):
            mat = np.eye(2, dtype=complex) / 2.0
            mat[i, j] = mat[j, i] = bad
            for build in (HermitianOperator, DensityOperator.from_matrix):
                with pytest.raises(ValueError, match="non-finite"):
                    build(mat)

    def test_bipartite_dimension_split(self):
        rho = random_density(6, 0)
        BipartiteState(rho, 2, 3)
        with pytest.raises(ValueError):
            BipartiteState(rho, 2, 2)

    def test_cq_ensemble_validation(self):
        s2 = random_density(2, 1)
        with pytest.raises(ValueError):
            CqEnsemble(np.array([0.9, 0.3]), (s2, s2))
        with pytest.raises(ValueError):
            CqEnsemble(np.array([0.5, 0.5]), (s2, random_density(3, 2)))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                CqEnsemble(np.array([0.5, bad]), (s2, s2))

    def test_pure_state_norm(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_values_are_immutable(self):
        h = rand_herm(3, 5)
        with pytest.raises(ValueError):
            h.mat[0, 0] = 9.0


class TestTensorAndPartialTrace:
    def test_partial_trace_of_product(self):
        rho_a, rho_b = random_density(2, 3), random_density(3, 4)
        joint = np.kron(rho_a.mat, rho_b.mat)
        assert np.allclose(_partial_trace_mat(joint, 2, 3, "A"), rho_a.mat, atol=1e-12)
        assert np.allclose(_partial_trace_mat(joint, 2, 3, "B"), rho_b.mat, atol=1e-12)

    def test_partial_trace_of_entangled_projector(self):
        reduced = _partial_trace_mat(maximally_entangled(3).projector().mat, 3, 3, "B")
        assert np.allclose(reduced, np.eye(3) / 3.0, atol=1e-12)

    def test_partial_trace_matches_index_sum(self):
        m = rand_herm(6, 12)
        got_a = _partial_trace_mat(m.mat, 2, 3, "A")
        got_b = _partial_trace_mat(m.mat, 2, 3, "B")
        want_a = np.zeros((2, 2), dtype=complex)
        want_b = np.zeros((3, 3), dtype=complex)
        for a in range(2):
            for ap in range(2):
                want_a[a, ap] = sum(m.mat[a * 3 + b, ap * 3 + b] for b in range(3))
        for b in range(3):
            for bp in range(3):
                want_b[b, bp] = sum(m.mat[a * 3 + b, a * 3 + bp] for a in range(2))
        assert np.max(np.abs(got_a - want_a)) <= 1e-12
        assert np.max(np.abs(got_b - want_b)) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _partial_trace_mat(rand_herm(5, 0).mat, 2, 3, "A")

    def test_adjointness_against_tensor(self):
        # tr((x (x) id) m) = tr(x tr_B(m))
        for seed in range(5):
            x = rand_herm(2, 100 + seed)
            m = rand_herm(6, 200 + seed)
            lhs = np.trace(np.kron(x.mat, np.eye(3)) @ m.mat)
            rhs = np.trace(x.mat @ _partial_trace_mat(m.mat, 2, 3, "A"))
            assert abs(lhs - rhs) <= 1e-10


class TestSpectral:
    def test_identity_eigenvalues(self):
        w, _ = _eigh(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])

    def test_pauli_x_spectrum(self):
        w, _ = _eigh(PAULI_X)
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_and_unitarity(self):
        m = rand_herm(4, 13)
        w, v = _eigh(m.mat)
        assert np.all(np.diff(w) >= -1e-14)
        assert np.max(np.abs((v * w) @ v.conj().T - m.mat)) <= 1e-10 * 4
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-10


class TestNormsAndFidelity:
    def test_root_fidelity_identical(self):
        rho = random_density(3, 20)
        assert root_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_root_fidelity_pure_overlap(self):
        ket0 = DensityOperator.from_matrix(np.diag([1.0, 0.0]))
        ketp = DensityOperator.from_matrix(np.full((2, 2), 0.5))
        assert root_fidelity(ket0, ketp) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        # seeded pure states against sigma of every rank, in both argument orders
        for d in (2, 3, 4, 6):
            for k in range(12):
                rng = np.random.default_rng(5000 + 100 * d + k)
                amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                psi = PureState(amp / np.linalg.norm(amp))
                sigma = random_density(d, 6000 + 100 * d + k, rank=1 + k % d)
                pure = DensityOperator(psi.projector())
                want = math.sqrt(float((psi.amplitudes.conj() @ sigma.mat @ psi.amplitudes).real))
                assert root_fidelity(pure, sigma) == pytest.approx(want, abs=1e-12)
                assert root_fidelity(sigma, pure) == pytest.approx(want, abs=1e-12)

    def test_root_fidelity_matches_singular_values(self):
        # independent route: singular values of sqrt(rho) sqrt(sigma), with scipy's square root
        import scipy.linalg

        rho, sigma = random_density(2, 21), random_density(2, 22)
        s1, s2 = scipy.linalg.sqrtm(rho.mat), scipy.linalg.sqrtm(sigma.mat)
        want = float(np.sum(np.linalg.svd(s1 @ s2, compute_uv=False)))
        assert root_fidelity(rho, sigma) == pytest.approx(want, abs=1e-12)

    def test_root_fidelity_keeps_small_genuine_eigenvalues(self):
        # F(|1><1|, sigma) = sqrt(sigma_11); an eigenvalue 1e-13 times the largest is far
        # above the eigensolver's rounding, and purify keeps it too
        ket1 = DensityOperator.from_matrix(np.diag([0.0, 1.0]))
        sigma = DensityOperator.from_matrix(np.diag([1.0, 1e-13]) / (1.0 + 1e-13))
        assert root_fidelity(ket1, sigma) == pytest.approx(math.sqrt(1e-13 / (1.0 + 1e-13)), rel=1e-12)
        assert root_fidelity(sigma, ket1) == pytest.approx(math.sqrt(1e-13 / (1.0 + 1e-13)), rel=1e-12)
        amp = purify(sigma).amplitudes.reshape(2, 2)
        assert np.max(np.abs(amp @ amp.conj().T - sigma.mat)) <= 1e-16

    def test_root_fidelity_symmetry_and_identity_of_equals(self):
        for seed in range(4):
            rho, sigma = random_density(3, 30 + seed), random_density(3, 40 + seed)
            assert root_fidelity(rho, sigma) == pytest.approx(
                root_fidelity(sigma, rho), abs=1e-10
            )
            assert root_fidelity(rho, sigma) < 1.0 - 1e-6


class TestPurifyAndStates:
    def test_purify_pure_input(self):
        amp = np.array([1.0, 1j]) / math.sqrt(2.0)
        rho = DensityOperator.from_matrix(np.outer(amp, amp.conj()))
        psi = purify(rho)
        assert psi.dim == 2  # ancilla dimension 1
        assert abs(np.abs(amp.conj() @ psi.amplitudes.reshape(2, 1)[:, 0]) - 1.0) <= 1e-10

    def test_purify_completely_mixed_qubit(self):
        psi = purify(DensityOperator.from_matrix(np.eye(2) / 2.0))
        assert psi.dim == 4
        red = np.einsum("ac,bc->ab", psi.amplitudes.reshape(2, 2), psi.amplitudes.reshape(2, 2).conj())
        assert np.max(np.abs(red - np.eye(2) / 2.0)) <= 1e-10

    def test_purify_round_trip(self):
        rho = random_density(3, 50)
        psi = purify(rho)
        d_c = psi.dim // 3
        amp = psi.amplitudes.reshape(3, d_c)
        red = amp @ amp.conj().T
        assert np.max(np.abs(red - rho.mat)) <= 1e-10

    def test_maximally_entangled(self):
        assert np.allclose(maximally_entangled(1).amplitudes, [1.0])
        phi2 = maximally_entangled(2)
        assert np.allclose(phi2.amplitudes, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
        red = _partial_trace_mat(maximally_entangled(3).projector().mat, 3, 3, "B")
        assert np.allclose(red, np.eye(3) / 3.0, atol=1e-12)

    def test_cq_to_density_singleton(self):
        rho = random_density(3, 60)
        joint = cq_to_density(CqEnsemble(np.array([1.0]), (rho,)))
        assert joint.d_A == 1 and joint.d_B == 3
        assert np.allclose(joint.mat, rho.mat, atol=1e-12)

    def test_cq_to_density_uniform_independent(self):
        tau = DensityOperator.from_matrix(np.eye(2) / 2.0)
        joint = cq_to_density(CqEnsemble(np.array([0.5, 0.5]), (tau, tau)))
        assert np.allclose(joint.mat, np.eye(4) / 4.0, atol=1e-12)

    def test_cq_to_density_block_assembly(self, helstrom_ensemble):
        joint = cq_to_density(helstrom_ensemble)
        want = np.zeros((4, 4))
        want[:2, :2] = 0.5 * np.array([[1.0, 0.0], [0.0, 0.0]])
        want[2:, 2:] = 0.5 * np.full((2, 2), 0.5)
        assert np.max(np.abs(joint.mat - want)) <= 1e-15

    def test_cq_classicality(self):
        ens = CqEnsemble(
            np.array([0.2, 0.5, 0.3]),
            tuple(random_density(2, 70 + x) for x in range(3)),
        )
        joint = cq_to_density(ens)
        flag = np.kron(np.diag([0.0, 1.0, 2.0]), np.eye(2))
        comm = joint.mat @ flag - flag @ joint.mat
        assert np.max(np.abs(comm)) <= 1e-12


class TestRandomDensity:
    def test_determinism(self):
        a = random_density(3, 123).mat
        b = random_density(3, 123).mat
        assert a.tobytes() == b.tobytes()

    def test_invariants(self):
        for seed in range(10):
            rho = random_density(4, seed)
            assert abs(np.trace(rho.mat).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12

    def test_rank_control(self):
        rho = random_density(4, 5, rank=2)
        w = np.linalg.eigvalsh(rho.mat)
        assert np.sum(w > 1e-10) == 2

    def test_largest_eigenvalue_band(self):
        # band frozen from an independent 2e5-sample run with a Philox
        # stream (mean 0.87513, five sigma of a 1e4-sample mean)
        vals = [np.linalg.eigvalsh(random_density(2, s).mat)[-1] for s in range(10_000)]
        assert 0.869 <= float(np.mean(vals)) <= 0.881


class TestSerialization:
    def test_state_round_trip(self):
        state = BipartiteState(random_density(6, 80), 2, 3)
        text = state_to_json(state)
        back = state_from_json(text)
        assert back.d_A == 2 and back.d_B == 3
        assert np.max(np.abs(back.mat - state.mat)) == 0.0

    def test_ensemble_round_trip(self, helstrom_ensemble):
        back = ensemble_from_json(ensemble_to_json(helstrom_ensemble))
        assert np.array_equal(back.probs, helstrom_ensemble.probs)
        for a, b in zip(back.cond_states, helstrom_ensemble.cond_states):
            assert np.max(np.abs(a.mat - b.mat)) == 0.0

    def test_writer_precision(self):
        state = BipartiteState(random_density(2, 81), 1, 2)
        text = state_to_json(state)
        entry = json.loads(text)["matrix"][0][0][0]
        assert entry == state.mat[0, 0].real

    def test_structure_errors(self):
        with pytest.raises(StateFormatError):
            state_from_json('{"d_A": 2, "d_B": 2}')
        with pytest.raises(StateFormatError):
            state_from_json('{"d_A": 2, "d_B": 2, "matrix": [[1, 2], [3, 4]]}')
        with pytest.raises(StateFormatError):
            state_from_json('{"d_A": 2, "d_B": 3, "matrix": [[[1,0],[0,0]],[[0,0],[0,0]]]}')
        with pytest.raises(json.JSONDecodeError):
            state_from_json("{not json")


def test_every_eigendecomposition_goes_through_core_eigh():
    # numpy's eigensolvers are called only inside core._eigh, whose upper-triangle
    # route catches a failure on the lower one wherever the library decomposes
    package = pathlib.Path(core.__file__).parent
    eigh_source = inspect.getsource(core._eigh)
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8").replace(eigh_source, "")
        assert not re.search(r"linalg\.eig(h|valsh)\b", text), path.name


# What the package exports: the types, the entropy functions and their operational forms, the
# oracles verify runs, the solver, state I/O, and the names the benchmark reads
PACKAGE_API = {
    "BipartiteState", "CertificateReport", "ChoiMatrix", "CqEnsemble", "DensityOperator",
    "EntropyReport", "HermitianOperator", "HermitianSdp", "OracleReport", "PureState",
    "RecoveryCertificate", "SdpSolution", "SolverError", "StateFormatError", "adjoint_channel",
    "check_certificate", "closed_form_entropies", "cq_to_density", "decoupling_accuracy",
    "ensemble_from_json", "ensemble_to_json", "fidelity_sdp", "guessing_probability",
    "helstrom_guess_probability", "key_secrecy", "key_secrecy_block",
    "load_ensemble", "load_state", "max_entropy", "max_relative_entropy", "max_target_fidelity",
    "maximally_entangled", "min_entropy", "min_entropy_direct_search", "purify", "random_density",
    "root_fidelity", "sampled_target_fidelity", "save_ensemble", "save_state", "singlet_fraction",
    "solve", "state_from_json", "state_to_json",
}


@pytest.mark.parametrize("module", ["core", "channels", "entropy", "oracles", "sdp", "verify", "cli"])
def test_every_name_in_a_modules_all_resolves(module):
    # the benchmark's tracer looks up every function named in entropy.__all__ and oracles.__all__
    mod = importlib.import_module(f"minmaxent.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), name


def test_package_exports_exactly_the_kept_names():
    import minmaxent

    assert len(minmaxent.__all__) == len(PACKAGE_API)
    assert set(minmaxent.__all__) == PACKAGE_API
    for name in minmaxent.__all__:
        assert hasattr(minmaxent, name), name

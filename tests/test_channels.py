import numpy as np
import pytest

from minmaxent import (
    ChoiMatrix,
    HermitianOperator,
    adjoint_channel,
    apply_channel,
    classify,
    hermitian_basis,
    identity_choi,
    random_cptp_choi,
    random_density,
)


def herm(mat) -> HermitianOperator:
    return HermitianOperator(np.asarray(mat, dtype=complex))


def depolarizing_choi(d: int) -> ChoiMatrix:
    return ChoiMatrix(herm(np.kron(np.eye(d), np.eye(d) / d)), d, d)


class TestApply:
    def test_identity_channel(self):
        j = identity_choi(3)
        rho = random_density(3, 1).mat
        assert np.max(np.abs(apply_channel(j, herm(rho)).mat - rho)) <= 1e-12

    def test_fully_depolarizing(self):
        j = depolarizing_choi(2)
        rho = random_density(2, 2).mat
        out = apply_channel(j, herm(rho))
        assert np.allclose(out.mat, np.eye(2) / 2.0, atol=1e-12)

    def test_random_cptp_preserves_density_operators(self):
        j = random_cptp_choi(2, 2, seed=3)
        for seed in range(100):
            rho = random_density(2, 500 + seed)
            out = apply_channel(j, rho.op)
            assert abs(np.trace(out.mat).real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out.mat)[0] >= -1e-10

    def test_linearity(self):
        j = random_cptp_choi(2, 3, seed=4)
        a, b = random_density(2, 10).mat, random_density(2, 11).mat
        lhs = apply_channel(j, herm(0.25 * a + 0.75 * b)).mat
        rhs = 0.25 * apply_channel(j, herm(a)).mat + 0.75 * apply_channel(j, herm(b)).mat
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(identity_choi(2), herm(np.eye(3)))


class TestAdjoint:
    def test_adjoint_of_identity(self):
        j = identity_choi(2)
        adj = adjoint_channel(j)
        assert np.max(np.abs(adj.op.mat - j.op.mat)) <= 1e-14

    def test_adjoint_of_depolarizing(self):
        # adjoint maps Y to tr(Y/d) id; verify the defining identity on a basis
        d = 2
        j = depolarizing_choi(d)
        adj = adjoint_channel(j)
        for e in hermitian_basis(d):
            for f in hermitian_basis(d):
                lhs = np.trace(f @ apply_channel(j, herm(e)).mat)
                rhs = np.trace(apply_channel(adj, herm(f)).mat @ e)
                assert abs(lhs - rhs) <= 1e-10
        out = apply_channel(adj, herm(np.diag([1.0, 0.0])))
        assert np.allclose(out.mat, 0.5 * np.eye(2), atol=1e-12)

    def test_involution(self):
        j = random_cptp_choi(2, 3, seed=5)
        back = adjoint_channel(adjoint_channel(j))
        assert back.d_in == j.d_in and back.d_out == j.d_out
        assert np.max(np.abs(back.op.mat - j.op.mat)) <= 1e-12

    def test_defining_identity_on_full_basis(self):
        j = random_cptp_choi(2, 3, seed=6)
        adj = adjoint_channel(j)
        for e in hermitian_basis(2):
            for f in hermitian_basis(3):
                lhs = np.trace(f @ apply_channel(j, herm(e)).mat)
                rhs = np.trace(apply_channel(adj, herm(f)).mat @ e)
                assert abs(lhs - rhs) <= 1e-10


class TestClassify:
    def test_identity_is_cptp_and_unital(self):
        flags = classify(identity_choi(2))
        assert flags.cp and flags.trace_preserving and flags.unital

    def test_trace_and_prepare(self):
        # input traced out, |0><0| prepared: CPTP but not unital for d >= 2
        d = 2
        prep = np.zeros((d, d))
        prep[0, 0] = 1.0
        j = ChoiMatrix(herm(np.kron(np.eye(d), prep)), d, d)
        flags = classify(j)
        assert flags.cp and flags.trace_preserving and not flags.unital

    def test_scaled_choi_not_trace_preserving(self):
        j = ChoiMatrix(herm(2.0 * identity_choi(2).op.mat), 2, 2)
        flags = classify(j)
        assert flags.cp and not flags.trace_preserving

    def test_adjoint_swaps_cptp_and_cpum(self):
        for seed in range(50):
            j = random_cptp_choi(2, 2, seed=1000 + seed)
            flags = classify(j)
            assert flags.cp and flags.trace_preserving
            adj_flags = classify(adjoint_channel(j))
            assert adj_flags.cp and adj_flags.unital
            # and the adjoint of that unital map is trace-preserving again
            back = classify(adjoint_channel(adjoint_channel(j)))
            assert back.trace_preserving


class TestChoiMatrix:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ChoiMatrix(herm(np.eye(5)), 2, 2)

import numpy as np
import pytest

from minmaxent import (
    ChoiMatrix,
    HermitianOperator,
    adjoint_channel,
    maximally_entangled,
    random_density,
)
from minmaxent.entropy import _apply_on_second

from conftest import channel_flags, hermitian_basis, random_channel


def herm(mat) -> HermitianOperator:
    return HermitianOperator(np.asarray(mat, dtype=complex))


def depolarizing_choi(d: int) -> ChoiMatrix:
    return ChoiMatrix(herm(np.kron(np.eye(d), np.eye(d) / d)), d, d)


def identity_choi(d: int) -> ChoiMatrix:
    return ChoiMatrix(herm(d * maximally_entangled(d).projector().mat), d, d)


class TestApply:
    # the channel on its input alone is _apply_on_second with a trivial first system
    def test_identity_channel(self):
        j = identity_choi(3)
        rho = random_density(3, 1).mat
        assert np.max(np.abs(_apply_on_second(j, rho, 1) - rho)) <= 1e-12

    def test_fully_depolarizing(self):
        j = depolarizing_choi(2)
        rho = random_density(2, 2).mat
        out = _apply_on_second(j, rho, 1)
        assert np.allclose(out, np.eye(2) / 2.0, atol=1e-12)

    def test_random_cptp_preserves_density_operators(self):
        j = random_channel(2, 2, seed=3)
        for seed in range(100):
            rho = random_density(2, 500 + seed)
            out = _apply_on_second(j, rho.mat, 1)
            assert abs(np.trace(out).real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_linearity(self):
        j = random_channel(2, 3, seed=4)
        a, b = random_density(2, 10).mat, random_density(2, 11).mat
        lhs = _apply_on_second(j, 0.25 * a + 0.75 * b, 1)
        rhs = 0.25 * _apply_on_second(j, a, 1) + 0.75 * _apply_on_second(j, b, 1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _apply_on_second(identity_choi(2), np.eye(3), 1)


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
                lhs = np.trace(f @ _apply_on_second(j, e, 1))
                rhs = np.trace(_apply_on_second(adj, f, 1) @ e)
                assert abs(lhs - rhs) <= 1e-10
        out = _apply_on_second(adj, np.diag([1.0, 0.0]), 1)
        assert np.allclose(out, 0.5 * np.eye(2), atol=1e-12)

    def test_involution(self):
        j = random_channel(2, 3, seed=5)
        back = adjoint_channel(adjoint_channel(j))
        assert back.d_in == j.d_in and back.d_out == j.d_out
        assert np.max(np.abs(back.op.mat - j.op.mat)) <= 1e-12

    def test_defining_identity_on_full_basis(self):
        j = random_channel(2, 3, seed=6)
        adj = adjoint_channel(j)
        for e in hermitian_basis(2):
            for f in hermitian_basis(3):
                lhs = np.trace(f @ _apply_on_second(j, e, 1))
                rhs = np.trace(_apply_on_second(adj, f, 1) @ e)
                assert abs(lhs - rhs) <= 1e-10


class TestClassify:
    # channel_flags is the CP, TP and unital check the entropy tests apply to recovery channels
    def test_identity_is_cptp_and_unital(self):
        assert channel_flags(identity_choi(2)) == (True, True, True)

    def test_trace_and_prepare(self):
        # input traced out, |0><0| prepared: CPTP but not unital for d >= 2
        d = 2
        prep = np.zeros((d, d))
        prep[0, 0] = 1.0
        j = ChoiMatrix(herm(np.kron(np.eye(d), prep)), d, d)
        assert channel_flags(j) == (True, True, False)

    def test_scaled_choi_not_trace_preserving(self):
        j = ChoiMatrix(herm(2.0 * identity_choi(2).op.mat), 2, 2)
        cp, tp, _ = channel_flags(j)
        assert cp and not tp

    def test_adjoint_swaps_cptp_and_cpum(self):
        for seed in range(50):
            j = random_channel(2, 2, seed=1000 + seed)
            cp, tp, _ = channel_flags(j)
            assert cp and tp
            cp, _, unital = channel_flags(adjoint_channel(j))
            assert cp and unital
            # and the adjoint of that unital map is trace-preserving again
            assert channel_flags(adjoint_channel(adjoint_channel(j)))[1]


class TestChoiMatrix:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ChoiMatrix(herm(np.eye(5)), 2, 2)

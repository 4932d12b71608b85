import numpy as np
import pytest

from minmaxent import (
    BipartiteState,
    ChoiMatrix,
    CqEnsemble,
    DensityOperator,
    HermitianOperator,
    maximally_entangled,
    random_density,
    sampled_target_fidelity,
)
from minmaxent.oracles import haar_isometry


@pytest.fixture
def helstrom_ensemble() -> CqEnsemble:
    ket0 = DensityOperator.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    ketp = DensityOperator.from_matrix(np.full((2, 2), 0.5))
    return CqEnsemble(np.array([0.5, 0.5]), (ket0, ketp))


def random_state(d_a: int, d_b: int, seed: int, rank: int | None = None) -> BipartiteState:
    return BipartiteState(random_density(d_a * d_b, seed, rank=rank), d_a, d_b)


def random_channel(d_in: int, d_out: int, seed: int) -> ChoiMatrix:
    """Choi matrix of a Haar-random channel: an isometry into output (x) environment (dimension
    d_out each), the environment traced out."""
    rng = np.random.default_rng(seed)
    v = haar_isometry(d_in, d_out * d_out, rng).reshape(d_out, d_out, d_in)
    j = np.einsum("oei,pej->iojp", v, v.conj()).reshape(d_in * d_out, d_in * d_out)
    return ChoiMatrix(HermitianOperator(j), d_in, d_out)


def channel_flags(j: ChoiMatrix, atol: float = 1e-8) -> tuple[bool, bool, bool]:
    """(completely positive, trace-preserving, unital) of a Choi matrix, each a residual test at atol:
    the smallest eigenvalue of J, and the largest entry of tr_out J - id and of tr_in J - id."""
    t = j.op.mat.reshape(j.d_in, j.d_out, j.d_in, j.d_out)
    cp = np.linalg.eigvalsh(j.op.mat)[0] >= -atol
    tp = np.max(np.abs(np.einsum("iaja->ij", t) - np.eye(j.d_in))) <= atol
    unital = np.max(np.abs(np.einsum("aiaj->ij", t) - np.eye(j.d_out))) <= atol
    return bool(cp), bool(tp), bool(unital)


def sampled_singlet_fraction(state: BipartiteState, samples: int, seed: int) -> float:
    """d_A times the best sampled overlap with the maximally entangled state: a lower bound on
    the singlet fraction."""
    return state.d_A * sampled_target_fidelity(state, maximally_entangled(state.d_A), samples, seed)


def lower_triangle_fails(route, calls: list):
    """route, made to fail on its default (lower) triangle; calls records the triangles asked for."""

    def patched(s, UPLO="L"):
        calls.append(UPLO)
        if UPLO == "L":
            raise np.linalg.LinAlgError("injected failure")
        return route(s, UPLO=UPLO)

    return patched

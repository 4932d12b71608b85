import math

import numpy as np
import pytest

from minmaxent import (
    BipartiteState,
    ChoiMatrix,
    CqEnsemble,
    DensityOperator,
    HermitianOperator,
    PureState,
    max_target_fidelity,
    maximally_entangled,
    purify,
    random_density,
    sampled_target_fidelity,
)
from minmaxent.core import _psd_factor
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


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d x d Hermitian matrices under tr(A B), shape (d*d, d, d): the diagonal
    units, and for each i < j the pair (E_ij + E_ji)/sqrt(2), i (E_ij - E_ji)/sqrt(2)."""
    out = []
    for i in range(d):
        for j in range(i, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            out += [e] if i == j else [(e + e.T) / np.sqrt(2.0), 1j * (e - e.T) / np.sqrt(2.0)]
    return np.array(out)


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


def fidelity_sdp(rho: DensityOperator, omega: DensityOperator) -> float:
    """Root fidelity from Uhlmann's theorem, solved as a min-entropy SDP.

    F(rho, omega)^2 is the best overlap of a purification psi of rho, over
    channels on its purifying system, with the purification vec(sqrt(omega))
    of omega (A. Uhlmann, Rep. Math. Phys. 9, 1976): max_target_fidelity(psi
    psi†, vec sqrt(omega)), for any omega.  The pair is first presolved onto
    the support of omega (eigenvalues at the eigensolver's rounding level
    count as zero), where F(rho, omega) = F(P rho P, omega) for P its
    projector, for accuracy near F = 0: F is the square root of the solved
    value, so a solver error of about 1e-10 there would become about 1e-5
    in F, while a rho orthogonal to the support gives tr(P rho P) = 0 and
    F = 0 exactly.  Agrees with the factored formula ||V_rho† V_omega||_1
    of root_fidelity to solver accuracy and serves as its independent
    cross-check.
    """
    if rho.dim != omega.dim:
        raise ValueError("states must have equal dimensions")
    f = _psd_factor(omega.mat)  # omega = f f†: columns sqrt(w_i) v_i over the support of omega
    root_w = np.linalg.norm(f, axis=0)
    u = f / root_w
    rho_p = u.conj().T @ rho.mat @ u  # P rho P in omega's eigenbasis
    t = float(np.trace(rho_p).real)
    if t <= 0.0:
        return 0.0
    psi = purify(DensityOperator.from_matrix(rho_p / t)).amplitudes
    r = len(root_w)
    state = BipartiteState(DensityOperator(PureState(psi).projector()), r, len(psi) // r)
    target = PureState(np.diag(root_w / np.linalg.norm(root_w)).reshape(-1))  # vec sqrt(omega) in that basis
    return math.sqrt(t * float(root_w @ root_w) * max_target_fidelity(state, target))

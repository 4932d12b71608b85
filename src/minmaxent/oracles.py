"""Independent verifiers for the entropy quantities.

Everything here is deliberately dumb and solver-free, and stands on core
alone.  Closed forms use nothing but eigendecompositions; search oracles
return one-sided bounds and are asserted as such, never as equalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BipartiteState,
    DensityOperator,
    PureState,
    _eigh,
    _partial_trace_mat,
)

__all__ = [
    "OracleReport",
    "helstrom_guess_probability",
    "min_entropy_direct_search",
    "sampled_target_fidelity",
]


@dataclass(frozen=True)
class OracleReport:
    """One oracle-versus-main comparison row.

    The gap is recorded even when the check fails; method names the
    search, sample count or closed form that produced the oracle value.
    """

    quantity: str
    oracle_value: float
    main_value: float
    gap: float
    method: str
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.gap) and self.gap <= self.tolerance)


def helstrom_guess_probability(p0: float, rho0: DensityOperator, rho1: DensityOperator) -> float:
    """Optimal success probability for discriminating two states.

    The best two-outcome measurement projects onto the positive eigenspace
    of p0*rho0 - p1*rho1, giving (1 + ||p0 rho0 - p1 rho1||_1) / 2.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    if rho0.dim != rho1.dim:
        raise ValueError("states must have equal dimensions")
    diff = p0 * rho0.mat - (1.0 - p0) * rho1.mat
    return 0.5 * (1.0 + float(np.sum(np.abs(_eigh(diff, vectors=False)))))


def _coverage(rho: np.ndarray, d_a: int, sigma: np.ndarray) -> float:
    """lmax((id (x) s)^(-1/2) rho (id (x) s)^(-1/2)) for a full-rank s."""
    w, v = _eigh(sigma)
    inv_sqrt = (v * np.clip(w, 1e-300, None) ** -0.5) @ v.conj().T
    big = np.kron(np.eye(d_a), inv_sqrt)
    return float(_eigh(big @ rho @ big, vectors=False)[-1])


def _nelder_mead(f, simplex: np.ndarray, xatol: float, fatol: float, maxiter: int) -> float:
    """The least f found by Nelder-Mead direct search (Nelder and Mead, Comput. J. 7, 1965).

    A step-by-step port of scipy's non-adaptive method="Nelder-Mead" from an initial simplex
    with no evaluation cap, so value and evaluations are scipy's: reflect 1, expand 2, outside
    contraction 1/2 (kept if f <= f_r), inside 1/2 (kept if f < f_worst), shrink 1/2 towards
    the best vertex, its xatol/fatol stop test, and at most maxiter - 1 iterations.
    """
    sim = np.array(simplex, dtype=float)
    fsim = np.array([f(x) for x in sim], dtype=float)
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]
    for _ in range(maxiter - 1):
        if np.max(np.abs(sim[1:] - sim[0])) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
            break
        xbar = np.add.reduce(sim[:-1], 0) / sim.shape[1]
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            outside = fxr < fsim[-1]
            xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
            fxc = f(xc)
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, len(sim)):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return float(np.min(fsim))


def min_entropy_direct_search(state: BipartiteState) -> float:
    """Direct search over conditioning states: an upper bound on 2^(-H_min).

    Minimizes lambda(s) = lmax((id (x) s)^(-1/2) rho (id (x) s)^(-1/2)),
    the least lambda with rho <= lambda id (x) s, over qubit density
    operators s (d_B = 2) by one _nelder_mead run from the maximally mixed
    state; any evaluated point upper-bounds the optimum.  One start
    suffices: 1/lambda(s) is concave in s (if mu_i rho <= id (x) s_i, the
    mixture of the mu_i is feasible for the mixture of the s_i), so every
    local minimum of lambda is global.  s is h^2 / tr h^2 for the Hermitian
    h = [[t0, (t2 + i t3) / sqrt(2)], [(t2 - i t3) / sqrt(2), t1]], whose real
    coordinates theta = (t0, t1, t2, t3) are orthonormal (||h||_F = ||theta||);
    the simplex steps 0.05 along every coordinate from the start
    h = sqrt(id / 2), theta = (sqrt(1/2), sqrt(1/2), 0, 0), whose ||theta|| is 1.
    """
    d_a = state.d_A
    if state.d_B != 2:
        raise ValueError("direct search is limited to d_B = 2")
    rho = state.mat

    def objective(theta: np.ndarray) -> float:
        off = np.sqrt(0.5) * complex(theta[2], theta[3])
        h = np.array([[theta[0], off], [off.conjugate(), theta[1]]])
        s = h @ h + 1e-10 * np.eye(2)
        return _coverage(rho, d_a, s / np.trace(s).real)

    theta0 = np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])
    simplex = np.vstack([theta0, theta0 + 0.05 * np.eye(theta0.size)])
    return _nelder_mead(objective, simplex, 1e-5, 1e-6, 4000)


def haar_isometry(d_from: int, d_to: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry (d_to x d_from columns of a Haar unitary)."""
    if d_to < d_from:
        raise ValueError("isometry needs d_to >= d_from")
    g = rng.standard_normal((d_to, d_to)) + 1j * rng.standard_normal((d_to, d_to))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q[:, :d_from]


def _target_overlap_via_isometry(
    rho: np.ndarray, d_a: int, d_b: int, v: np.ndarray, target: np.ndarray
) -> float:
    """<Psi| tr_E [(id (x) V) rho (id (x) V)†] |Psi> for V: B -> A' (x) E."""
    d_o = target.size // d_a
    d_e = v.shape[0] // d_o
    lift = np.kron(np.eye(d_a), v)
    out = lift @ rho @ lift.conj().T
    t = out.reshape(d_a, d_o, d_e, d_a, d_o, d_e)
    red = np.einsum("aoebpe->aobp", t).reshape(d_a * d_o, d_a * d_o)
    return float((target.conj() @ red @ target).real)


def sampled_target_fidelity(
    state: BipartiteState, target: PureState, samples: int, seed: int
) -> float:
    """Lower bound on max_F <Psi|(id (x) F)(rho)|Psi> from sampled channels.

    Channels are Haar-random isometries from B into A' tensor an ancilla
    of dimension d_A, followed by tracing the ancilla.  Two deterministic
    baselines are always included: trace-and-prepare the maximally mixed
    state, and (when d_B = d_A) the identity channel.  The seed is a
    non-negative int or a tuple of them, as for numpy's default_rng.
    """
    d_a, d_b = state.d_A, state.d_B
    if target.dim != d_a * d_a:
        raise ValueError(f"target must have dimension {d_a * d_a}")
    rho = state.mat
    tvec = target.amplitudes
    rho_a = _partial_trace_mat(rho, d_a, d_b, "A")
    tmat = tvec.reshape(d_a, d_a)
    # trace-and-prepare tau baseline: output rho_A (x) id/d_A
    best = float(np.einsum("ab,cd,ac,bd->", tmat.conj(), tmat, rho_a, np.eye(d_a) / d_a).real)
    if d_b == d_a:
        best = max(best, float((tvec.conj() @ rho @ tvec).real))
    rng = np.random.default_rng(seed)
    d_e = d_a
    for _ in range(samples):
        v = haar_isometry(d_b, d_a * d_e, rng)
        best = max(best, _target_overlap_via_isometry(rho, d_a, d_b, v, tvec))
    return best

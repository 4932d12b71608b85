"""Dense complex linear algebra and canonical quantum state constructors.

All operators are dense complex numpy arrays.  Composite systems use
A-major index order throughout: the joint basis vector |a>|b> of a
bipartite system with dimensions (d_A, d_B) sits at row a * d_B + b.
Every value type is immutable after construction (the wrapped arrays are
marked read-only), so instances can be shared freely between threads.
Randomness enters only through explicitly seeded generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermitianOperator",
    "DensityOperator",
    "BipartiteState",
    "CqEnsemble",
    "PureState",
    "StateFormatError",
    "root_fidelity",
    "purify",
    "maximally_entangled",
    "cq_to_density",
    "random_density",
    "state_to_json",
    "state_from_json",
    "ensemble_to_json",
    "ensemble_from_json",
    "save_state",
    "load_state",
    "save_ensemble",
    "load_ensemble",
]

# Construction tolerances.  Eigenvalues below -PSD_ATOL fail positivity
# checks.
HERMITICITY_ATOL = 1e-10
PSD_ATOL = 1e-9
TRACE_ATOL = 1e-9
NORM_ATOL = 1e-10


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


def _eigh(s: np.ndarray, vectors: bool = True):
    """Hermitian eigendecomposition (or eigenvalues only), read from the other triangle on failure.

    numpy's route on the lower triangle runs first, so its result is
    returned unchanged whenever it converges.  Some LAPACK builds report
    "Eigenvalues did not converge" on benign, well-conditioned matrices
    (syevd on tests/data/nt_scaling_syevd_nonconvergence.npy), so the same
    call is repeated on the upper triangle: its reduction to tridiagonal
    form runs the other way and converges there, in the same library.  An
    SVD would lose the signs of the solver's indefinite spectra.
    A LinAlgError from the second route is raised.
    """
    route = np.linalg.eigh if vectors else np.linalg.eigvalsh
    try:
        return route(s)
    except np.linalg.LinAlgError:
        return route(s, UPLO="U")


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dense complex square matrix, symmetrized to be exactly Hermitian.

    Inputs with a non-finite entry, or whose anti-Hermitian part exceeds
    ``HERMITICITY_ATOL`` per entry, are rejected; smaller deviations are
    removed by storing (M + M†)/2.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        # NaN compares false against the hermiticity bound, so test it first
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix has non-finite entries")
        skew = float(np.max(np.abs(arr - arr.conj().T)))
        if skew > HERMITICITY_ATOL:
            raise ValueError(f"matrix is not Hermitian (max asymmetry {skew:.3e})")
        object.__setattr__(self, "mat", _frozen(0.5 * (arr + arr.conj().T)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A positive semidefinite Hermitian operator with unit trace and finite entries."""

    op: HermitianOperator

    def __post_init__(self) -> None:
        evals = _eigh(self.op.mat, vectors=False)
        if evals[0] < -PSD_ATOL:
            raise ValueError(f"density operator has eigenvalue {evals[0]:.3e} < -{PSD_ATOL}")
        tr = float(np.trace(self.op.mat).real)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density operator has trace {tr!r}, expected 1")

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "DensityOperator":
        return cls(HermitianOperator(mat))

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """A density operator together with its (d_A, d_B) dimension split."""

    rho: DensityOperator
    d_A: int
    d_B: int

    def __post_init__(self) -> None:
        if self.d_A < 1 or self.d_B < 1:
            raise ValueError("subsystem dimensions must be positive")
        if self.rho.dim != self.d_A * self.d_B:
            raise ValueError(
                f"operator dimension {self.rho.dim} != d_A*d_B = {self.d_A * self.d_B}"
            )

    @property
    def mat(self) -> np.ndarray:
        return self.rho.mat


@dataclass(frozen=True, eq=False)
class CqEnsemble:
    """A probability vector together with conditional states on one system.

    Encodes a classical random variable X with quantum side information:
    outcome x occurs with probability probs[x] and leaves the quantum
    system in cond_states[x].
    """

    probs: np.ndarray
    cond_states: tuple[DensityOperator, ...]

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probs must be a nonempty vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < -1e-12):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > TRACE_ATOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
        states = tuple(self.cond_states)
        if len(states) != p.size:
            raise ValueError("probs and cond_states must have equal length")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise ValueError(f"conditional states have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "probs", _frozen(np.clip(p, 0.0, None)))
        object.__setattr__(self, "cond_states", states)

    @property
    def n_outcomes(self) -> int:
        return len(self.cond_states)

    @property
    def d_B(self) -> int:
        return self.cond_states[0].dim


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError("amplitudes must be a nonempty vector")
        # a NaN norm compares false against the norm bound, so test it first
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes have non-finite entries")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state vector has norm {norm!r}, expected 1")
        object.__setattr__(self, "amplitudes", _frozen(amp))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> HermitianOperator:
        return HermitianOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


def _partial_trace_mat(mat: np.ndarray, d_A: int, d_B: int, keep: str) -> np.ndarray:
    t = mat.reshape(d_A, d_B, d_A, d_B)
    if keep == "A":
        return np.trace(t, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def _support_cut(w: np.ndarray) -> float:
    """10 d eps times the largest of the d eigenvalues w: above the eigensolver's rounding level.

    Every support _psd_factor takes (in purify, root_fidelity and the
    decoupling readout) drops only eigenvalues at or below this cut: a
    fidelity is only 1/2-Hoelder in the state, so a dropped eigenvalue
    delta would move it by about sqrt(delta).
    """
    return 10 * len(w) * np.finfo(float).eps * max(float(np.max(w)), 0.0)


def _psd_factor(mat: np.ndarray) -> np.ndarray:
    """V with V V† = mat, one column per eigenvalue above _support_cut.

    Columns follow the eigenvalues in descending order; at least one is kept.
    """
    w, v = _eigh(mat)
    w, v = w[::-1], v[:, ::-1]
    rank = max(1, int(np.sum(w > _support_cut(w))))
    return v[:, :rank] * np.sqrt(np.clip(w[:rank], 0.0, None))


def _root_fidelity_mats(a: np.ndarray, b: np.ndarray) -> float:
    """||V_a† V_b||_1 for the support factors a = V_a V_a†, b = V_b V_b†.

    Equal to ||sqrt(a) sqrt(b)||_1, but free of the square roots of
    rounding-level eigenvalues that a rank-deficient a or b would add.
    """
    m = _psd_factor(a).conj().T @ _psd_factor(b)
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def root_fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Root fidelity ||sqrt(rho) sqrt(sigma)||_1, computed as ||V_rho† V_sigma||_1.

    V is a support factor (rho = V V†; eigenvalues at the eigensolver's
    rounding level count as zero).  Its square is the
    overlap <psi|rho|psi> whenever sigma is the pure state |psi><psi|.
    """
    if rho.dim != sigma.dim:
        raise ValueError("states must have equal dimensions")
    return min(1.0, _root_fidelity_mats(rho.mat, sigma.mat))


def purify(rho: DensityOperator) -> PureState:
    """A purification on system x ancilla with ancilla dimension rank(rho).

    The rank counts every eigenvalue above the eigensolver's rounding level,
    10 d eps of the largest, as root_fidelity's support factors do.  Tracing
    out the appended ancilla recovers rho.  The ancilla index is minor
    (appended after the system index).
    """
    amp = _psd_factor(rho.mat).reshape(-1)
    return PureState(amp / np.linalg.norm(amp))


def maximally_entangled(d: int) -> PureState:
    """(1/sqrt(d)) sum_x |x>|x> on a d x d system."""
    if d < 1:
        raise ValueError("dimension must be positive")
    amp = np.zeros(d * d, dtype=complex)
    amp[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return PureState(amp)


def cq_to_density(e: CqEnsemble) -> BipartiteState:
    """Block-diagonal joint state sum_x p_x |x><x| (x) rho_x of a cq ensemble."""
    k, d = e.n_outcomes, e.d_B
    mat = np.zeros((k * d, k * d), dtype=complex)
    for x in range(k):
        mat[x * d : (x + 1) * d, x * d : (x + 1) * d] = e.probs[x] * e.cond_states[x].mat
    mat /= np.trace(mat).real
    return BipartiteState(DensityOperator.from_matrix(mat), k, d)


def random_density(d: int, seed: int, rank: int | None = None) -> DensityOperator:
    """Ginibre-random density operator G G† / tr(G G†), bit-reproducible by seed.

    G has independent standard complex Gaussian entries drawn from
    numpy's PCG64 generator (numpy.random.default_rng), so identical
    seeds (a non-negative int or a tuple of them) give identical matrices
    on every platform.  An optional rank caps the number of Ginibre
    columns, giving a rank-deficient state; rank 1 draws a Haar-random pure state.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    r = d if rank is None else rank
    if not 1 <= r <= d:
        raise ValueError(f"rank must be in [1, {d}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    mat = g @ g.conj().T
    return DensityOperator.from_matrix(mat / np.trace(mat).real)


# ---------------------------------------------------------------------------
# Serialization.  State files are UTF-8 JSON; matrices are row-major lists
# of [re, im] pairs and writers emit 17 significant digits so that values
# round-trip exactly.


class StateFormatError(ValueError):
    """Raised when a state file parses as JSON but has the wrong structure (its loader sets filename)."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _matrix_to_json(mat: np.ndarray) -> str:
    rows = []
    for row in mat:
        rows.append("[" + ",".join(f"[{_fmt(z.real)},{_fmt(z.imag)}]" for z in row) + "]")
    return "[" + ",".join(rows) + "]"


def _is_number(v: object, kinds: type | tuple[type, ...] = (int, float)) -> bool:
    """A JSON number of the given kinds: true and false parse as bool, which is an int subclass."""
    return isinstance(v, kinds) and not isinstance(v, bool)


def _matrix_from_obj(obj: object, what: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise StateFormatError(f"{what}: expected a nonempty list of rows")
    d = len(obj)
    mat = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != d:
            raise StateFormatError(f"{what}: row {i} must be a list of {d} entries")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(_is_number(v) for v in cell)
            ):
                raise StateFormatError(f"{what}: entry ({i},{j}) must be a [re, im] pair")
            mat[i, j] = complex(cell[0], cell[1])
    return mat


def state_to_json(state: BipartiteState) -> str:
    return '{"d_A":%d,"d_B":%d,"matrix":%s}' % (
        state.d_A,
        state.d_B,
        _matrix_to_json(state.mat),
    )


def state_from_json(text: str) -> BipartiteState:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise StateFormatError("expected a JSON object")
    for key in ("d_A", "d_B", "matrix"):
        if key not in obj:
            raise StateFormatError(f"missing key {key!r}")
    d_a, d_b = obj["d_A"], obj["d_B"]
    if not _is_number(d_a, int) or not _is_number(d_b, int):
        raise StateFormatError("d_A and d_B must be integers")
    mat = _matrix_from_obj(obj["matrix"], "matrix")
    if mat.shape[0] != d_a * d_b:
        raise StateFormatError(f"matrix dimension {mat.shape[0]} != d_A*d_B = {d_a * d_b}")
    try:
        return BipartiteState(DensityOperator.from_matrix(mat), d_a, d_b)
    except ValueError as exc:
        raise StateFormatError(str(exc)) from exc


def ensemble_to_json(e: CqEnsemble) -> str:
    probs = "[" + ",".join(_fmt(p) for p in e.probs) + "]"
    states = "[" + ",".join(_matrix_to_json(s.mat) for s in e.cond_states) + "]"
    return '{"probs":%s,"states":%s}' % (probs, states)


def ensemble_from_json(text: str) -> CqEnsemble:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise StateFormatError("expected a JSON object")
    for key in ("probs", "states"):
        if key not in obj:
            raise StateFormatError(f"missing key {key!r}")
    probs = obj["probs"]
    states = obj["states"]
    if not isinstance(probs, list) or not all(_is_number(p) for p in probs):
        raise StateFormatError("probs must be a list of numbers")
    if not isinstance(states, list) or len(states) != len(probs):
        raise StateFormatError("states must be a list matching probs in length")
    mats = [_matrix_from_obj(s, f"states[{i}]") for i, s in enumerate(states)]
    try:
        return CqEnsemble(np.array(probs, dtype=float), tuple(DensityOperator.from_matrix(m) for m in mats))
    except ValueError as exc:
        raise StateFormatError(str(exc)) from exc


def save_state(state: BipartiteState, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state) + "\n")


def _load(path: str, parse):
    """parse(the file's text); a JSONDecodeError or StateFormatError leaves with the path as its filename,
    as do bytes that are not UTF-8, arrays nested past the parser's recursion limit and integers too
    large for a float, each as a StateFormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(fh.read())
        except (json.JSONDecodeError, StateFormatError) as exc:
            exc.filename = path
            raise
        except (UnicodeDecodeError, RecursionError, OverflowError) as exc:
            err = StateFormatError(str(exc))
            err.filename = path
            raise err from exc


def load_state(path: str) -> BipartiteState:
    return _load(path, state_from_json)


def save_ensemble(e: CqEnsemble, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ensemble_to_json(e) + "\n")


def load_ensemble(path: str) -> CqEnsemble:
    return _load(path, ensemble_from_json)

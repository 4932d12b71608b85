"""Choi representation of linear maps between operator spaces.

A map E from operators on the d_in-dimensional input space to operators
on the d_out-dimensional output space is stored through its Choi matrix

    J(E) = d_in * (id (x) E)( |Phi><Phi| )   on  input (x) output,

with |Phi> the maximally entangled state on two input copies.  With this
normalization E is completely positive iff J >= 0, trace-preserving iff
tr_out J = id_in, and unital iff tr_in J = id_out.  The adjoint map
(defined by tr(F E(G)) = tr(E†(F) G)) acts on the Choi matrix as a swap
of the two tensor factors followed by entrywise conjugation, which avoids
any non-unique Kraus factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HermitianOperator, _eigh

__all__ = [
    "ChoiMatrix",
    "MapClass",
    "identity_choi",
    "apply_channel",
    "adjoint_channel",
    "classify",
]

CLASS_ATOL = 1e-8


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix on input (x) output, with the dimension tags attached."""

    op: HermitianOperator
    d_in: int
    d_out: int

    def __post_init__(self) -> None:
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("channel dimensions must be positive")
        if self.op.dim != self.d_in * self.d_out:
            raise ValueError(
                f"Choi dimension {self.op.dim} != d_in*d_out = {self.d_in * self.d_out}"
            )

    def _tensor(self) -> np.ndarray:
        return self.op.mat.reshape(self.d_in, self.d_out, self.d_in, self.d_out)


@dataclass(frozen=True)
class MapClass:
    cp: bool
    trace_preserving: bool
    unital: bool


def identity_choi(d: int) -> ChoiMatrix:
    """Choi matrix of the identity map, d * |Phi><Phi|."""
    mat = np.zeros((d * d, d * d), dtype=complex)
    idx = np.arange(d) * d + np.arange(d)
    mat[np.ix_(idx, idx)] = 1.0
    return ChoiMatrix(HermitianOperator(mat), d, d)


def apply_channel(j: ChoiMatrix, rho: HermitianOperator) -> HermitianOperator:
    """Apply the map to a full input operator: E(rho) = tr_in[(rho^T (x) id) J]."""
    if rho.dim != j.d_in:
        raise ValueError(f"input dimension {rho.dim} != d_in = {j.d_in}")
    out = np.einsum("ik,iokp->op", rho.mat, j._tensor())
    return HermitianOperator(0.5 * (out + out.conj().T))


def adjoint_channel(j: ChoiMatrix) -> ChoiMatrix:
    """Choi matrix of the adjoint map (input/output roles swapped).

    The defining identity tr(F E(G)) = tr(E†(F) G) holds exactly, and
    applying the construction twice returns the original matrix.
    """
    k = j._tensor().transpose(1, 0, 3, 2).conj()
    d = j.d_in * j.d_out
    return ChoiMatrix(HermitianOperator(k.reshape(d, d)), j.d_out, j.d_in)


def classify(j: ChoiMatrix) -> MapClass:
    """Decide complete positivity, trace preservation and unitality.

    Each flag comes from an explicit residual test at tolerance 1e-8:
    the smallest Choi eigenvalue, and the max-entry distance of the two
    partial traces from the respective identities.
    """
    t = j._tensor()
    ev_min = float(_eigh(j.op.mat, vectors=False)[0])
    tr_out = np.einsum("iaja->ij", t)
    tr_in = np.einsum("aiaj->ij", t)
    return MapClass(
        cp=ev_min >= -CLASS_ATOL,
        trace_preserving=float(np.max(np.abs(tr_out - np.eye(j.d_in)))) <= CLASS_ATOL,
        unital=float(np.max(np.abs(tr_in - np.eye(j.d_out)))) <= CLASS_ATOL,
    )


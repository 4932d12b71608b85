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

from .core import HermitianOperator

__all__ = ["ChoiMatrix", "adjoint_channel"]


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


def adjoint_channel(j: ChoiMatrix) -> ChoiMatrix:
    """Choi matrix of the adjoint map (input/output roles swapped).

    The defining identity tr(F E(G)) = tr(E†(F) G) holds exactly, and
    applying the construction twice returns the original matrix.
    """
    k = j._tensor().transpose(1, 0, 3, 2).conj()
    d = j.d_in * j.d_out
    return ChoiMatrix(HermitianOperator(k.reshape(d, d)), j.d_out, j.d_in)

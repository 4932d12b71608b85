import numpy as np
import pytest

from minmaxent import BipartiteState, CqEnsemble, DensityOperator, random_density


@pytest.fixture
def helstrom_ensemble() -> CqEnsemble:
    ket0 = DensityOperator.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    ketp = DensityOperator.from_matrix(np.full((2, 2), 0.5))
    return CqEnsemble(np.array([0.5, 0.5]), (ket0, ketp))


def random_state(d_a: int, d_b: int, seed: int, rank: int | None = None) -> BipartiteState:
    return BipartiteState(random_density(d_a * d_b, seed, rank=rank), d_a, d_b)


def lower_triangle_fails(route, calls: list):
    """route, made to fail on its default (lower) triangle; calls records the triangles asked for."""

    def patched(s, UPLO="L"):
        calls.append(UPLO)
        if UPLO == "L":
            raise np.linalg.LinAlgError("injected failure")
        return route(s, UPLO=UPLO)

    return patched

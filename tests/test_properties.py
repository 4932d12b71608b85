"""Property tests of the entropies and certificates on random small states."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxent import (
    BipartiteState,
    CqEnsemble,
    DensityOperator,
    check_certificate,
    cq_to_density,
    decoupling_accuracy,
    max_entropy,
    min_entropy,
    random_density,
)
from minmaxent.entropy import _min_entropy_problem
from minmaxent.oracles import haar_isometry

from conftest import random_channel

SETTINGS = settings(max_examples=12, derandomize=True, deadline=None)
TOL = 1e-7


@st.composite
def states(draw) -> BipartiteState:
    """Random bipartite states with 2 <= d_A, d_B <= 3 and a random rank."""
    d_a = draw(st.integers(2, 3))
    d_b = draw(st.integers(2, 3))
    rank = draw(st.integers(1, d_a * d_b))
    seed = draw(st.integers(0, 2**32 - 1))
    return BipartiteState(random_density(d_a * d_b, seed, rank=rank), d_a, d_b)


@SETTINGS
@given(states())
def test_entropies_are_ordered_and_bounded(state):
    h_min = min_entropy(state).value_bits
    h_max = max_entropy(state).value_bits
    log_d = math.log2(state.d_A)
    assert -log_d - TOL <= h_min <= h_max + TOL
    assert h_max <= log_d + TOL


@SETTINGS
@given(states(), st.integers(0, 2**32 - 1))
def test_local_unitaries_leave_entropies_unchanged(state, seed):
    rng = np.random.default_rng(seed)
    u = np.kron(haar_isometry(state.d_A, state.d_A, rng), haar_isometry(state.d_B, state.d_B, rng))
    rotated = u @ state.mat @ u.conj().T
    other = BipartiteState(DensityOperator.from_matrix(rotated), state.d_A, state.d_B)
    assert abs(min_entropy(other).value_bits - min_entropy(state).value_bits) <= TOL
    assert abs(max_entropy(other).value_bits - max_entropy(state).value_bits) <= TOL


@SETTINGS
@given(states(), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_a_channel_on_b_does_not_decrease_the_entropies(state, d_out, seed):
    # data processing: H(A|B) <= H(A|B') for B' = N(B), N a random channel
    choi = random_channel(state.d_B, d_out, seed)
    j = choi.op.mat.reshape(state.d_B, d_out, state.d_B, d_out)
    r = state.mat.reshape(state.d_A, state.d_B, state.d_A, state.d_B)
    out = np.einsum("abcd,bedf->aecf", r, j).reshape(state.d_A * d_out, -1)
    processed = BipartiteState(DensityOperator.from_matrix(out), state.d_A, d_out)
    assert min_entropy(processed).value_bits >= min_entropy(state).value_bits - TOL
    assert max_entropy(processed).value_bits >= max_entropy(state).value_bits - TOL


@SETTINGS
@given(states())
def test_min_entropy_certificate_has_no_weak_duality_violation(state):
    problem = _min_entropy_problem(state.mat, state.d_A, state.d_B)
    report = check_certificate(problem, min_entropy(state).certificate)
    assert report.weak_duality_violation <= 1e-9


@SETTINGS
@given(states())
def test_decoupling_accuracy_equals_two_to_the_max_entropy(state):
    value, _ = decoupling_accuracy(state)
    bound = 2.0 ** max_entropy(state).value_bits
    assert abs(value - bound) <= TOL * (1.0 + bound)


@SETTINGS
@given(st.integers(2, 3), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_guessing_certificate_meets_the_weak_duality_guarantee(k, d_b, seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k))
    ensemble = CqEnsemble(probs, tuple(random_density(d_b, seed + x) for x in range(k)))
    # guessing_probability solves the min-entropy SDP of the cq state
    cq = cq_to_density(ensemble)
    problem = _min_entropy_problem(cq.mat, k, d_b)
    report = check_certificate(problem, min_entropy(cq).certificate)
    assert report.weak_duality_violation <= 1e-9

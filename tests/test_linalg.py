import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronsim.errors import DimensionMismatch, NotHermitian, NotSquare
from kronsim.linalg import (
    as_cmatrix,
    as_cvector,
    eig_hermitian,
    expm_hermitian,
    hermitian_op_norm,
    kron,
    kron_all,
    max_entry_norm,
    op_norm,
    partial_trace,
    require_hermitian,
    require_square,
    sparsity,
    trace_norm,
    unitary_completion,
)
from oracles import (
    expm_oracle,
    kron_all_oracle,
    kron_oracle,
    partial_trace_oracle,
    random_hermitian,
    random_unit,
    trace_norm_oracle,
)


def test_as_cmatrix_rejects_vectors_and_nonfinite():
    with pytest.raises(DimensionMismatch):
        as_cmatrix(np.ones(3))
    with pytest.raises(DimensionMismatch):
        as_cmatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        as_cvector(np.array([np.nan]))


def test_as_cvector_accepts_noncontiguous_column():
    eye = np.eye(4, dtype=np.complex128)
    v = as_cvector(eye[:, 2])
    assert v[2] == 1.0


def test_require_square_and_hermitian():
    with pytest.raises(NotSquare):
        require_square(np.ones((2, 3)))
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    m = np.array([[1.0, 1j], [-1j, 2.0]])
    assert require_hermitian(m) is not None


def test_kron_matches_index_formula(rng):
    for _ in range(5):
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        b = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        assert np.allclose(kron(a, b), kron_oracle(a, b), atol=1e-13)


def test_kron_all_matches_oracle(rng):
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    assert np.allclose(kron_all(mats), kron_all_oracle(mats), atol=1e-13)


def test_partial_trace_both_sides(rng):
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    got = partial_trace(m, 4, 3, "left")
    assert np.allclose(got, partial_trace_oracle(m, 4, 3, "left"), atol=1e-13)
    got = partial_trace(m, 3, 4, "right")
    assert np.allclose(got, partial_trace_oracle(m, 3, 4, "right"), atol=1e-13)


def test_partial_trace_of_kron_recovers_factor(rng):
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 4)
    m = kron(a, b)
    assert np.allclose(partial_trace(m, 4, 3, "left"), np.trace(a) * b, atol=1e-12)
    assert np.allclose(partial_trace(m, 3, 4, "right"), np.trace(b) * a, atol=1e-12)


def test_partial_trace_validates_dims():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(6), 4, 2, "left")
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(6), 3, 2, "sideways")


def test_eig_hermitian_reconstructs(rng):
    m = random_hermitian(rng, 6)
    sd = eig_hermitian(m)
    assert op_norm(sd.reconstruct() - m) < 1e-10
    # orthonormal columns
    v = sd.eigenvectors
    assert op_norm(v.conj().T @ v - np.eye(6)) < 1e-12


def test_eig_hermitian_ordering_and_rank():
    m = np.diag([0.5, -0.5, 0.0, 1.0])
    sd = eig_hermitian(m)
    assert np.allclose(sd.eigenvalues, [1.0, 0.5, -0.5, 0.0])
    assert sd.rank == 3
    # values below rank_tol * max|lambda| become exact zeros
    m2 = np.diag([1.0, 1e-14])
    sd2 = eig_hermitian(m2)
    assert sd2.eigenvalues[1] == 0.0
    assert sd2.rank == 1


def test_norms_against_oracle(rng):
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    s = np.linalg.svd(m, compute_uv=False)
    assert abs(op_norm(m) - s[0]) < 1e-12
    assert abs(trace_norm(m) - trace_norm_oracle(m)) < 1e-10
    assert abs(max_entry_norm(m) - np.max(np.abs(m))) < 1e-15
    h = m + m.conj().T
    assert abs(hermitian_op_norm(h) - np.linalg.svd(h, compute_uv=False)[0]) < 1e-12


def test_sparsity_counts_max_row_col():
    m = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    assert sparsity(m) == 3  # middle column
    assert sparsity(np.zeros((3, 3))) == 0
    assert sparsity(np.eye(3)) == 1


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**32 - 1))
def test_unitary_completion_property(n, seed):
    v = random_unit(np.random.default_rng(seed), n)
    u = unitary_completion(v)
    assert np.linalg.norm(u @ u.conj().T - np.eye(n)) < 1e-12
    assert np.linalg.norm(u[:, 0] - v) < 1e-12


def test_unitary_completion_rejects_non_unit():
    with pytest.raises(DimensionMismatch):
        unitary_completion(np.array([1.0, 1.0]))


def test_unitary_completion_zero_leading_entry():
    v = np.array([0.0, 0.6, 0.8], dtype=np.complex128)
    u = unitary_completion(v)
    assert np.linalg.norm(u[:, 0] - v) < 1e-12


def test_expm_matches_taylor_oracle(rng):
    h = random_hermitian(rng, 5, scale=2.0)
    for t in (0.0, 0.3, 1.7, -2.5):
        assert op_norm(expm_hermitian(h, t) - expm_oracle(h, t)) < 1e-11


def test_expm_is_unitary(rng):
    h = random_hermitian(rng, 6)
    u = expm_hermitian(h, 3.21)
    assert op_norm(u @ u.conj().T - np.eye(6)) < 1e-12

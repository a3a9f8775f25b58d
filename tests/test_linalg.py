import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbundle.linalg import (
    ComplexMatrix,
    Tolerance,
    adjoint,
    canonical_basis,
    hs_inner,
    hs_norm,
    identity,
    kron,
    nullspace,
    opnorm,
    projection_residual,
    tensor_power,
)


def rand_mat(rng, n, m):
    return ComplexMatrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))


def rand_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return ComplexMatrix(q)


def test_matrix_shape_and_json_roundtrip():
    a = ComplexMatrix([[1, 2j], [3, 4]])
    assert a.shape == (2, 2) and a.rows == 2 and a.cols == 2
    b = ComplexMatrix.from_json(a.to_json())
    assert np.array_equal(a.a, b.a)


def test_adjoint_involution_and_example():
    a = ComplexMatrix([[0, 1], [0, 0]])
    assert np.array_equal(adjoint(a).a, np.array([[0, 0], [1, 0]], dtype=complex))
    rng = np.random.default_rng(0)
    m = rand_mat(rng, 3, 2)
    assert np.array_equal(adjoint(adjoint(m)).a, m.a)
    assert abs(opnorm(adjoint(m)) - opnorm(m)) < 1e-12


def test_kron_identities():
    assert np.array_equal(kron(identity(2), identity(2)).a, np.eye(4))
    d = ComplexMatrix(np.diag([1.0, 2.0]))
    assert np.array_equal(kron(d, identity(2)).a, np.diag([1.0, 1.0, 2.0, 2.0]))


def test_kron_of_unitaries_is_unitary():
    rng = np.random.default_rng(1)
    x, y = rand_unitary(rng, 2), rand_unitary(rng, 2)
    k = kron(x, y)
    assert np.linalg.norm(k.a.conj().T @ k.a - np.eye(4)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_kron_mixed_product(seed):
    rng = np.random.default_rng(seed)
    a, b = rand_mat(rng, 2, 3), rand_mat(rng, 2, 2)
    c, d = rand_mat(rng, 3, 2), rand_mat(rng, 2, 3)
    left = kron(a, b) @ kron(c, d)
    right = kron(a @ c, b @ d)
    assert np.linalg.norm(left.a - right.a) <= 1e-10 * max(1.0, hs_norm(left))


def test_tensor_power_zeroth_is_scalar():
    a = ComplexMatrix([[2.0]])
    assert tensor_power(a, 0).shape == (1, 1)
    assert tensor_power(a, 0).a[0, 0] == 1.0
    u = ComplexMatrix(np.diag([1j, -1j]))
    assert np.array_equal(tensor_power(u, 2).a, np.kron(u.a, u.a))


def test_opnorm_matches_svd_oracle():
    rng = np.random.default_rng(2)
    m = rand_mat(rng, 5, 3)
    want = float(np.linalg.norm(m.a, ord=2))
    assert abs(opnorm(m) - want) <= 1e-12 * max(1.0, want)
    assert opnorm(ComplexMatrix.zeros(3, 3)) == 0.0


def test_hs_inner_conjugate_linear_in_first():
    rng = np.random.default_rng(3)
    a, b = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
    assert abs(hs_inner(a * 2j, b) - (-2j) * hs_inner(a, b)) < 1e-12
    assert abs(hs_inner(a, a) - hs_norm(a) ** 2) < 1e-10


def test_nullspace_engineered_kernel():
    # rank-1 projector acting on C^3: kernel is the orthogonal plane
    v = np.array([[1.0], [2.0], [2.0]]) / 3.0
    p = v @ v.T
    ker = nullspace(ComplexMatrix(p))
    assert len(ker) == 2
    for x in ker:
        assert np.linalg.norm(p @ x.a) <= 1e-12
        assert abs(np.linalg.norm(x.a) - 1.0) <= 1e-12
    # orthonormal pair
    assert abs(complex(np.vdot(ker[0].a, ker[1].a))) <= 1e-12


def test_nullspace_full_rank_is_empty():
    assert nullspace(ComplexMatrix(np.eye(3))) == []


def test_nullspace_zero_rows():
    ker = nullspace(ComplexMatrix(np.zeros((0, 2))))
    assert len(ker) == 2


def test_nullspace_unit_scale():
    # a numerically zero operator (the holonomy system of a trivial
    # holonomy, say) has every vector in its kernel: the cutoff is
    # tau * max(1, sigma_max), where a purely relative one would keep none
    rng = np.random.default_rng(9)
    assert len(nullspace(rand_mat(rng, 6, 3) * 1e-15)) == 3
    # a small but genuine operator keeps its rank
    assert nullspace(rand_mat(rng, 6, 3) * 1e-6) == []


def test_canonical_basis_is_deterministic():
    rng = np.random.default_rng(4)
    vecs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
    out1 = canonical_basis([v.copy() for v in vecs])
    out2 = canonical_basis([v.copy() for v in reversed(vecs)])
    for a, b in zip(out1, out2):
        assert np.linalg.norm(a - b) <= 1e-12


def test_projection_residual():
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
    v = np.array([1.0, 1.0, 1.0], dtype=complex)
    assert abs(projection_residual(v, [e0, e1]) - 1.0) <= 1e-12
    assert projection_residual(e0, [e0, e1]) <= 1e-12


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(0.0)
    t = Tolerance(1e-6)
    assert t.close(1e-7) and not t.close(1e-5)


def _full_svd_kernel_projector(a, tau=1e-9):
    # reference: full SVD, every right singular vector at or under the cutoff
    m, n = a.shape
    if m == 0:
        return np.eye(n, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    sigma = np.concatenate([s, np.zeros(n - s.size)])
    ker = vh[sigma <= tau * max(1.0, s[0])].conj()
    return ker.T @ ker.conj()


def _low_rank(rng, m, n, rank):
    return (rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))) @ (
        rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    )


@pytest.mark.parametrize(
    "m,n,rank",
    [
        (9, 4, 4),  # tall, full column rank: empty kernel
        (9, 5, 3),  # tall, rank deficient
        (5, 5, 2),  # square, rank deficient
        (3, 7, 3),  # wide, full row rank: kernel entirely from vh rows beyond m
        (4, 9, 2),  # wide, rank deficient: kernel from rows inside and beyond m
        (0, 3, 0),  # zero rows
    ],
)
def test_nullspace_projector_matches_full_svd(m, n, rank):
    rng = np.random.default_rng(100 + 10 * m + n)
    a = _low_rank(rng, m, n, rank) if rank else np.zeros((m, n), dtype=complex)
    ker = nullspace(ComplexMatrix(a))
    assert len(ker) == n - rank
    got = sum((x.a @ x.a.conj().T for x in ker), np.zeros((n, n), dtype=complex))
    assert np.linalg.norm(got - _full_svd_kernel_projector(a)) <= 1e-9
    for x in ker:
        assert np.linalg.norm(a @ x.a) <= 1e-9 * max(1.0, float(np.linalg.norm(a)))

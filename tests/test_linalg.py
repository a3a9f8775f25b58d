import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbundle.linalg import (
    Tolerance,
    _below_cutoff,
    as_matrix,
    canonical_basis,
    hs_inner,
    hs_norm,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    opnorm,
    power_action,
)
from catbundle.groups import full_unitary, lie_basis, special_unitary
from kronecker import kron_action, kron_derivation, slot_action, tensor_power
from spans import projection_residual


def rand_mat(rng, n, m):
    return as_matrix(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))


def test_matrix_shape_and_json_roundtrip():
    a = as_matrix([[1, 2j], [3, 4]])
    assert a.shape == (2, 2)
    b = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(a, b)


def test_tensor_power_zeroth_is_scalar():
    a = as_matrix([[2.0]])
    t = as_matrix([[3.0]])
    assert power_action(a, t, 0, 0).shape == (1, 1)
    assert power_action(a, t, 0, 0)[0, 0] == 3.0
    u = as_matrix(np.diag([1j, -1j]))
    # the columns e_k of H^2 go to the columns of u (x) u
    cols = power_action(u, np.eye(4)[:, :, None], 0, 2)[:, :, 0].T
    assert np.array_equal(cols, np.kron(u, u))


def rand_unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


POWERS = [(r, s) for r in range(4) for s in range(4)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_power_action_matches_kronecker_route(d):
    rng = np.random.default_rng(20 + d)
    u = rand_unitary(rng, d)
    for r, s in POWERS:
        t = rand_mat(rng, d ** s, d ** r)
        got = power_action(u, t, r, s)
        assert got.shape == t.shape
        assert np.abs(got - kron_action(u, t, r, s)).max() <= 1e-12, (r, s)


@pytest.mark.parametrize("group", [special_unitary(2), full_unitary(3)], ids=["su2", "u3"])
def test_lie_power_action_matches_kronecker_sums(group):
    rng = np.random.default_rng(30)
    d = group.degree
    for x in lie_basis(group).matrices:
        for r, s in POWERS:
            if d ** (r + s) > 729:
                continue
            t = rand_mat(rng, d ** s, d ** r)
            got = power_action(x, t, r, s, lie=True)
            assert np.abs(got - kron_derivation(x, t, r, s, d)).max() <= 1e-12, (r, s)


def test_power_action_at_power_zero():
    rng = np.random.default_rng(31)
    u = rand_unitary(rng, 2)
    x = lie_basis(special_unitary(2)).matrices[0]
    row = rand_mat(rng, 1, 8)  # (H^3, H^0): only the column slots move
    col = rand_mat(rng, 8, 1)  # (H^0, H^3): only the row slots move
    u3 = tensor_power(u, 3)
    assert np.abs(power_action(u, row, 3, 0) - row @ u3.conj().T).max() <= 1e-12
    assert np.abs(power_action(u, col, 0, 3) - u3 @ col).max() <= 1e-12
    one = as_matrix([[2.0 - 1j]])
    assert np.array_equal(power_action(u, one, 0, 0), one)
    assert np.array_equal(power_action(x, one, 0, 0, lie=True), np.zeros((1, 1)))


def test_power_action_broadcasts_edges_against_basis():
    rng = np.random.default_rng(32)
    us = np.array([rand_unitary(rng, 2) for _ in range(5)])
    ts = np.array([rand_mat(rng, 4, 8) for _ in range(3)])
    got = power_action(us[:, None], ts, 3, 2)
    assert got.shape == (5, 3, 4, 8)
    for e in range(5):
        for b in range(3):
            assert np.abs(got[e, b] - kron_action(us[e], ts[b], 3, 2)).max() <= 1e-12
    # one unitary per arrow, paired along the same leading axis
    paired = power_action(us[:3], ts, 3, 2)
    assert all(np.abs(paired[k] - got[k, k]).max() <= 1e-12 for k in range(3))


# every (r, s) up to 3, and lopsided powers whose blocks differ in width
BLOCK_POWERS = POWERS + [(0, 5), (5, 0), (1, 4), (4, 1)]


def _lead_cases(rng, d, r, s, lie):
    """(u, t, index pairs) for the three leading shapes: an (E, 1) stack
    of unitaries against m arrows, E unitaries paired with E arrows, and
    a single unitary; each pair names the u and t moved together."""
    make = (lambda: rand_mat(rng, d, d)) if lie else (lambda: rand_unitary(rng, d))
    arrows = np.array([rand_mat(rng, d ** s, d ** r) for _ in range(3)])
    us = np.array([make() for _ in range(2)])
    return [
        (us[:, None], arrows, [((e, 0), b, (e, b)) for e in range(2) for b in range(3)]),
        (us, arrows[:2], [(e, e, e) for e in range(2)]),
        (us[0], arrows[0], [((), (), ())]),
    ]


@pytest.mark.parametrize("lie", [False, True], ids=["group", "lie"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_blocked_power_action_matches_slot_and_kronecker_routes(d, lie):
    rng = np.random.default_rng(40 + d)
    for r, s in BLOCK_POWERS:
        for u, t, pairs in _lead_cases(rng, d, r, s, lie):
            got = power_action(u, t, r, s, lie)
            slot = slot_action(u, t, r, s, lie)
            assert got.shape == slot.shape
            scale = max(1.0, float(np.abs(slot).max()))
            assert np.abs(got - slot).max() <= 1e-12 * scale, (r, s, u.shape)
            for ui, ti, gi in pairs:
                if lie:
                    want = kron_derivation(u[ui], t[ti], r, s, d)
                else:
                    want = kron_action(u[ui], t[ti], r, s)
                assert np.abs(got[gi] - want).max() <= 1e-12 * scale, (r, s, u.shape)


def test_power_action_memory_is_bounded_by_the_image():
    rng = np.random.default_rng(41)
    u = rand_unitary(rng, 2)
    t = rand_mat(rng, 4096, 1)  # (H^0, H^12): the full power would hold 4096^2 entries
    want = slot_action(u, t, 0, 12)
    tracemalloc.start()
    try:
        got = power_action(u, t, 0, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
    assert np.abs(got - want).max() <= 1e-12


def test_opnorm_matches_svd_oracle():
    rng = np.random.default_rng(2)
    m = rand_mat(rng, 5, 3)
    want = float(np.linalg.norm(m, ord=2))
    assert abs(opnorm(m) - want) <= 1e-12 * max(1.0, want)
    assert opnorm(as_matrix(np.zeros((3, 3)))) == 0.0


def test_hs_inner_conjugate_linear_in_first():
    rng = np.random.default_rng(3)
    a, b = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
    assert abs(hs_inner(a * 2j, b) - (-2j) * hs_inner(a, b)) < 1e-12
    assert abs(hs_inner(a, a) - hs_norm(a) ** 2) < 1e-10


def test_nullspace_engineered_kernel():
    # rank-1 projector acting on C^3: kernel is the orthogonal plane
    v = np.array([[1.0], [2.0], [2.0]]) / 3.0
    p = v @ v.T
    ker = nullspace(as_matrix(p))
    assert len(ker) == 2
    for x in ker:
        assert np.linalg.norm(p @ x) <= 1e-12
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    # orthonormal pair
    assert abs(complex(np.vdot(ker[0], ker[1]))) <= 1e-12


def test_nullspace_full_rank_is_empty():
    assert nullspace(as_matrix(np.eye(3))) == []


def test_nullspace_zero_rows():
    ker = nullspace(as_matrix(np.zeros((0, 2))))
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
    ker = nullspace(as_matrix(a))
    assert len(ker) == n - rank
    got = sum((x @ x.conj().T for x in ker), np.zeros((n, n), dtype=complex))
    assert np.linalg.norm(got - _full_svd_kernel_projector(a)) <= 1e-9
    for x in ker:
        assert np.linalg.norm(a @ x) <= 1e-9 * max(1.0, float(np.linalg.norm(a)))


def _loop_nullspace(op, tol):
    """The kernel by the per-index cutoff loop that ``_below_cutoff`` replaced."""
    m, n = op.shape
    _, s, vh = np.linalg.svd(op, full_matrices=m < n)
    smax = float(s[0]) if s.size else 0.0
    cutoff = tol.tau * max(1.0, smax)
    vecs = []
    for i in range(n):
        sigma = float(s[i]) if i < s.size else 0.0
        if sigma <= cutoff:
            vecs.append(vh[i].conj())
    return [as_matrix(v) for v in canonical_basis(vecs)]


@pytest.mark.parametrize("m, n, rank", [(9, 4, 4), (9, 5, 3), (5, 5, 2), (3, 7, 3), (4, 9, 2), (6, 3, 0)])
@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e6])
def test_nullspace_keeps_what_the_cutoff_loop_kept(m, n, rank, scale):
    rng = np.random.default_rng(7 + m * n + rank)
    a = scale * (_low_rank(rng, m, n, rank) if rank else rand_mat(rng, m, n) * 1e-15)
    got, want = nullspace(as_matrix(a)), _loop_nullspace(a, Tolerance())
    assert len(got) == len(want) and all(np.array_equal(x, y) for x, y in zip(got, want))


def test_cutoff_rule_boundaries():
    tol = Tolerance()
    sigma = np.array([2.0, 2.0 * tol.tau, 2.0 * tol.tau * (1 + 1e-15), 0.0])
    assert _below_cutoff(sigma, tol).tolist() == [False, True, False, True]
    # a numerically zero operand is measured on the unit scale
    assert _below_cutoff(np.array([0.5 * tol.tau, tol.tau, 2 * tol.tau]), tol).tolist() == [True, True, False]
    assert _below_cutoff(np.zeros(0), tol).shape == (0,)


def test_cutoff_rule_scales_each_row_by_its_own_largest_value():
    tol = Tolerance()
    rows = np.array([[2.0, 3 * tol.tau, 0.0], [1e6, 1e-4, 2e-3], [0.5 * tol.tau, tol.tau, 2 * tol.tau]])
    got = _below_cutoff(rows, tol)
    assert got.tolist() == [_below_cutoff(row, tol).tolist() for row in rows]
    assert got.tolist() == [[False, False, True], [False, True, False], [True, True, False]]
    assert _below_cutoff(np.zeros((3, 0)), tol).shape == (3, 0)


# ---------------------------------------------------------------------------
# the matrix boundary: as_matrix and its JSON document


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_as_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        as_matrix([[1.0, bad], [0.0, 1.0]])


def test_as_matrix_rejects_three_dimensional_input():
    with pytest.raises(ValueError, match="2-d"):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_copies_and_freezes():
    src = np.arange(4.0).reshape(2, 2)
    a = as_matrix(src)
    assert a.dtype == complex and a.flags.c_contiguous and not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 7.0
    # the caller's array stays writable and unshared
    src[0, 0] = 9.0
    assert a[0, 0] == 0.0
    # a 1-d input becomes a column
    assert as_matrix([1.0, 2.0]).shape == (2, 1)


def test_matrix_from_json_rejects_short_entry_lists():
    doc = matrix_to_json(as_matrix(np.eye(2)))
    with pytest.raises(ValueError, match="entries for shape"):
        matrix_from_json(dict(doc, re=doc["re"][:-1]))
    with pytest.raises(ValueError, match="entries for shape"):
        matrix_from_json(dict(doc, im=doc["im"][:-1]))


def test_matrix_json_document_format():
    doc = matrix_to_json(as_matrix([[1, 2j], [3, 4]]))
    assert doc == {"rows": 2, "cols": 2, "re": [1.0, 0.0, 3.0, 4.0], "im": [0.0, 2.0, 0.0, 0.0]}
    assert not matrix_from_json(doc).flags.writeable

import dataclasses
import itertools
import math

import numpy as np
import pytest

from catbundle import repcat
from catbundle.dralg import DRTruncation, dr_element, fixed_points
from catbundle.errors import SizeCapExceeded
from catbundle.groups import (
    KIND_FINITE,
    GroupSpec,
    cyclic_diagonal_group,
    full_unitary,
    lie_basis,
    quaternion_group,
    special_unitary,
    verify_normalizer,
)
from catbundle.linalg import as_matrix, hs_inner, nullspace, power_action, projection_residual
from catbundle.repcat import (
    _root_generator,
    antisym_projector,
    averaged_fixed_space,
    conjugate_pair,
    intertwiners,
    permutation_unitary,
    special_isometry,
    symmetry_unitary,
)
from catbundle.verify import _schur_weyl_dim
from kronecker import derived_power, tensor_power

# multiplicity tables computed by character arithmetic (finite groups)
# and Clebsch-Gordan bookkeeping (su(2)); frozen here as the oracle
Q8_DIMS = {
    (0, 0): 1, (0, 1): 0, (0, 2): 1, (0, 3): 0,
    (1, 1): 1, (1, 2): 0, (1, 3): 4,
    (2, 2): 4, (2, 3): 0, (3, 3): 16,
}
C4_DIMS = {
    (0, 0): 1, (0, 1): 0, (0, 2): 2, (0, 3): 0,
    (1, 1): 2, (1, 2): 0, (1, 3): 8,
    (2, 2): 8, (2, 3): 0, (3, 3): 32,
}
SU2_DIMS = {
    (0, 0): 1, (0, 1): 0, (0, 2): 1, (0, 3): 0,
    (1, 1): 1, (1, 2): 0, (1, 3): 2,
    (2, 2): 2, (2, 3): 0, (3, 3): 5,
}


def perm_span_dim(d, r):
    mats = [permutation_unitary(p, d) for p in itertools.permutations(range(r))]
    gram = np.array([[complex(hs_inner(a, b)) for b in mats] for a in mats])
    return int(np.linalg.matrix_rank(gram, tol=1e-9))


@pytest.mark.parametrize("d", [2, 3])
def test_full_unitary_dims_match_permutation_span(d):
    g = full_unitary(d)
    for r in range(4):
        assert intertwiners(g, r, r).dim == perm_span_dim(d, r)
    for r in range(4):
        for s in range(4):
            if r != s:
                assert intertwiners(g, r, s).dim == 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_schur_weyl_count_matches_permutation_span(d):
    for r in range(5):
        assert _schur_weyl_dim(d, r) == perm_span_dim(d, r), r
    # with at least r rows every partition counts: the sum of (f^lambda)^2 is r!
    for r in range(d + 1):
        assert _schur_weyl_dim(d, r) == math.factorial(r)


def test_full_unitary_two_leg_space_is_span_of_identity_and_swap():
    sp = intertwiners(full_unitary(2), 2, 2)
    assert sp.dim == 2
    swap = permutation_unitary((1, 0), 2)
    basis = [t.reshape(-1) for t in sp]
    assert projection_residual(np.eye(4, dtype=complex).reshape(-1), basis) <= 1e-9
    assert projection_residual(swap.reshape(-1), basis) <= 1e-9


@pytest.mark.parametrize(
    "maker,table",
    [
        (quaternion_group, Q8_DIMS),
        (cyclic_diagonal_group, C4_DIMS),
        (lambda: special_unitary(2), SU2_DIMS),
    ],
)
def test_dimension_tables(maker, table):
    g = maker()
    for (r, s), want in table.items():
        assert intertwiners(g, r, s).dim == want
        assert intertwiners(g, s, r).dim == want


def test_intertwiner_basis_is_orthonormal_and_invariant():
    g = quaternion_group()
    sp = intertwiners(g, 2, 2)
    for a in range(sp.dim):
        for b in range(sp.dim):
            want = 1.0 if a == b else 0.0
            assert abs(hs_inner(sp[a], sp[b]) - want) <= 1e-10
    for e in g.elements():
        for t in sp:
            moved = power_action(e, t, 2, 2)
            assert np.linalg.norm(moved - t) <= 1e-9


def test_averaging_route_agrees_with_constraint_route():
    for g in (quaternion_group(), cyclic_diagonal_group()):
        for r in range(3):
            for s in range(3):
                avg = averaged_fixed_space(g, r, s)
                con = intertwiners(g, r, s)
                assert len(avg) == con.dim
                av = [m.reshape(-1) for m in avg]
                cv = [m.reshape(-1) for m in con]
                for v in av:
                    assert projection_residual(v, cv) <= 1e-9
                for v in cv:
                    assert projection_residual(v, av) <= 1e-9


def test_permutation_unitary_composition_convention():
    d = 2
    rng = np.random.default_rng(6)
    for _ in range(5):
        p = tuple(rng.permutation(3))
        q = tuple(rng.permutation(3))
        pq = tuple(p[q[k]] for k in range(3))
        left = permutation_unitary(p, d) @ permutation_unitary(q, d)
        assert np.linalg.norm(left - permutation_unitary(pq, d)) <= 1e-12


def test_permutation_unitary_moves_slots():
    d = 3
    cyc = permutation_unitary((1, 2, 0), d)
    rng = np.random.default_rng(7)
    x, y, z = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(3))
    vec = np.kron(np.kron(x, y), z)
    # slot k of the source goes to slot perm[k]: x lands in slot 1, y in 2, z in 0
    want = np.kron(np.kron(z, x), y)
    assert np.linalg.norm(cyc @ vec - want) <= 1e-10


def _sign_by_inversions(p):
    return (-1) ** sum(p[a] > p[b] for a, b in itertools.combinations(range(len(p)), 2))


def loop_permutation_unitary(perm, d):
    """The unitary by its entries: column src, row dst with dst[perm[k]] = src[k]."""
    r = len(perm)
    u = np.zeros((d ** r, d ** r), dtype=complex)
    for src in itertools.product(range(d), repeat=r):
        dst = [0] * r
        for k in range(r):
            dst[perm[k]] = src[k]
        u[np.ravel_multi_index(dst, (d,) * r), np.ravel_multi_index(src, (d,) * r)] = 1.0
    return u


def test_slot_permutations_match_the_entry_loops():
    for d in range(1, 5):
        for r in range(5):
            for p in itertools.permutations(range(r)) if d ** r <= 256 else ():
                u = permutation_unitary(p, d)
                assert np.array_equal(u, loop_permutation_unitary(p, d)) and not u.flags.writeable, (d, p)
        vec = np.zeros((d ** d, 1), dtype=complex)
        coeff = 1.0 / math.sqrt(math.factorial(d))
        for p in itertools.permutations(range(d)):
            vec[np.ravel_multi_index(p, (d,) * d), 0] = _sign_by_inversions(p) * coeff
        assert np.array_equal(special_isometry(d).isometry, vec)
        r = np.zeros((d * d, 1), dtype=complex)
        for k in range(d):
            r[k * d + k, 0] = 1.0
        assert np.array_equal(conjugate_pair(d).r, r)


def test_symmetry_unitary_flips_blocks():
    d = 2
    rng = np.random.default_rng(8)
    v = rng.standard_normal(d ** 2) + 0j
    w = rng.standard_normal(d) + 0j
    th = symmetry_unitary(2, 1, d)
    assert np.linalg.norm(th @ np.kron(v, w) - np.kron(w, v)) <= 1e-10
    assert np.array_equal(symmetry_unitary(0, 2, d), np.eye(4))


def test_symmetry_naturality():
    d = 2
    rng = np.random.default_rng(9)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    th = symmetry_unitary(1, 1, d)
    assert np.linalg.norm(th @ np.kron(a, b) - np.kron(b, a) @ th) <= 1e-10


def test_antisym_projector_properties():
    for d, r, trace in ((2, 2, 1.0), (3, 2, 3.0), (3, 3, 1.0)):
        p = antisym_projector(d, r)
        assert np.linalg.norm(p @ p - p) <= 1e-10
        assert np.linalg.norm(p - p.conj().T) <= 1e-10
        assert abs(np.trace(p).real - trace) <= 1e-10


def test_special_isometry_d2_explicit():
    s = special_isometry(2).isometry
    want = np.zeros((4, 1), dtype=complex)
    want[1, 0] = 1.0 / math.sqrt(2.0)
    want[2, 0] = -1.0 / math.sqrt(2.0)
    assert np.linalg.norm(s - want) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_special_isometry_identities(d):
    data = special_isometry(d)
    s = data.isometry
    assert np.linalg.norm(s.conj().T @ s - 1.0) <= 1e-9
    assert np.linalg.norm(s @ s.conj().T - antisym_projector(d, d)) <= 1e-9
    lhs = np.kron(s.conj().T, np.eye(d)) @ np.kron(np.eye(d), s)
    assert np.linalg.norm(lhs - data.pairing_scalar * np.eye(d)) <= 1e-9


def test_hat_action_on_special_isometry_is_determinant():
    rng = np.random.default_rng(10)
    for d in (2, 3):
        s = special_isometry(d).isometry
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        moved = power_action(q, s, 0, d)
        det = complex(np.linalg.det(q))
        assert np.linalg.norm(moved - det * s) <= 1e-9


def test_hat_action_multiplicative():
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    t = as_matrix(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    one = power_action(u, power_action(v, t, 1, 2), 1, 2)
    two = power_action(u @ v, t, 1, 2)
    assert np.linalg.norm(one - two) <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_conjugate_equations(d):
    pair = conjugate_pair(d)
    r = pair.r
    left = np.kron(r.conj().T, np.eye(d)) @ np.kron(np.eye(d), r)
    right = np.kron(np.eye(d), r.conj().T) @ np.kron(r, np.eye(d))
    assert np.linalg.norm(left - np.eye(d)) <= 1e-9
    assert np.linalg.norm(right - np.eye(d)) <= 1e-9
    assert abs(complex((r.conj().T @ r)[0, 0]) - d) <= 1e-9
    assert pair.dim_value == pytest.approx(float(d))


def test_intertwiner_space_sequence_protocol():
    sp = intertwiners(quaternion_group(), 1, 1)
    assert len(sp) == sp.dim == 1
    assert list(iter(sp))[0] is sp[0]


def test_intertwiner_stack_is_the_one_copy_of_the_basis():
    sp = intertwiners(quaternion_group(), 2, 2)
    assert sp.stack.shape == (len(sp), 4, 4) and not sp.stack.flags.writeable
    for k, b in enumerate(sp.basis):
        assert np.shares_memory(b, sp.stack) and np.array_equal(b, sp.stack[k])
    # equality is identity, so it never reads the arrays; the stack is not in the repr
    other = dataclasses.replace(sp, stack=sp.stack.copy())
    assert other != sp and sp == sp and hash(other) != hash(sp)
    assert "stack" not in repr(sp)
    assert intertwiners(special_unitary(2), 0, 1).stack.shape == (0, 2, 1)


def test_array_holding_records_compare_and_hash_by_identity(monkeypatch):
    q8, su2 = quaternion_group(), special_unitary(2)
    space = intertwiners(q8, 2, 2)
    monkeypatch.setattr(repcat, "_SPACES", {})
    trunc = DRTruncation(level=2, group=q8)
    u = np.diag([1.0, 1j])
    pairs = [
        (space, intertwiners(q8, 2, 2)),
        (special_isometry(2), special_isometry(2)),
        (conjugate_pair(2), conjugate_pair(2)),
        (verify_normalizer(u, q8), verify_normalizer(u, q8)),
        (lie_basis(su2), lie_basis(su2)),
        (dr_element(trunc, 0, 1, np.ones((2, 1))), dr_element(trunc, 0, 1, np.ones((2, 1)))),
    ]
    for a, b in pairs:
        # separately made equal values are distinct objects, never compared entrywise
        assert a == a and a != b and len({a, b}) == 2 and hash(a) == hash(a)


def test_cached_intertwiner_basis_is_read_only():
    g = quaternion_group()
    sp = intertwiners(g, 2, 2)
    before = [t.copy() for t in sp]
    with pytest.raises(ValueError):
        sp[0][0, 0] = 5.0
    again = intertwiners(g, 2, 2)
    assert again is sp
    assert all(np.array_equal(t, want) for t, want in zip(again, before))


# ---------------------------------------------------------------------------
# weight-space solve against the dense stacked-constraint route


def swap_group():
    """Order-2 group generated by [[0, 1], [1, 0]]: no diagonal generator."""
    return GroupSpec(KIND_FINITE, 2, [[[0, 1], [1, 0]]])


def dense_intertwiner_projector(group, r, s, tau=1e-9):
    """Kernel projector of all constraints stacked, one block per generator.

    The route the library used before restricting to matching weights:
    every generator (or Lie basis element) contributes its full
    d^(r+s) x d^(r+s) block, solved by one thin SVD.
    """
    d = group.degree
    ds, dr = d ** s, d ** r
    n = ds * dr
    if group.kind == KIND_FINITE:
        acts = [(tensor_power(g, s), tensor_power(g, r)) for g in group.generators]
    else:
        acts = [
            (derived_power(x, s, d), derived_power(x, r, d))
            for x in lie_basis(group).matrices
        ]
    if not acts:
        return np.eye(n, dtype=complex)
    op = np.vstack([np.kron(a, np.eye(dr)) - np.kron(np.eye(ds), b.T) for a, b in acts])
    _, sv, vh = np.linalg.svd(op, full_matrices=op.shape[0] < n)
    sigma = np.concatenate([sv, np.zeros(n - sv.size)])
    ker = vh[sigma <= tau * sv[0]].conj()
    return ker.T @ ker.conj()


def basis_projector(mats, n):
    return sum(
        (np.outer(m.reshape(-1), m.reshape(-1).conj()) for m in mats),
        np.zeros((n, n), dtype=complex),
    )


ORACLE_GROUPS = {
    "u2": lambda: full_unitary(2),
    "su2": lambda: special_unitary(2),
    "q8": quaternion_group,
    "c4": cyclic_diagonal_group,
    "swap": swap_group,
    "u3": lambda: full_unitary(3),
    "su3": lambda: special_unitary(3),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_weight_space_solve_matches_dense_route(name):
    g = ORACLE_GROUPS[name]()
    for r in range(4):
        for s in range(4):
            n = g.degree ** (r + s)
            if n > 243:
                continue
            sp = intertwiners(g, r, s)
            want = dense_intertwiner_projector(g, r, s)
            assert sp.dim == int(round(np.trace(want).real)), (r, s)
            assert np.linalg.norm(basis_projector(sp, n) - want) <= 1e-9, (r, s)


def _is_diagonal(x):
    return not np.any(x - np.diag(np.diagonal(x)))


def full_basis_intertwiner_projector(group, r, s, tau=1e-9):
    """Kernel projector of the Lie route before the root generator.

    The weight cut of the Cartan elements keeps the matrix units of equal
    weight; then every off-diagonal Lie basis element contributes its
    full d^(r+s) x d^(r+s) derivation block on those units.
    """
    d = group.degree
    ds, dr = d ** s, d ** r
    n = ds * dr
    basis = lie_basis(group).matrices
    keep = np.ones(n, dtype=bool)
    for h in filter(_is_diagonal, basis):
        w = np.diagonal(derived_power(h, s, d))[:, None] - np.diagonal(derived_power(h, r, d))[None, :]
        keep &= np.abs(w.ravel()) < 0.5  # the weights are integers times i
    blocks = [
        (np.kron(derived_power(x, s, d), np.eye(dr)) - np.kron(np.eye(ds), derived_power(x, r, d).T))[:, keep]
        for x in basis
        if not _is_diagonal(x)
    ]
    m = int(keep.sum())
    if blocks and m:
        op = np.vstack(blocks)
        _, sv, vh = np.linalg.svd(op, full_matrices=op.shape[0] < m)
        sigma = np.concatenate([sv, np.zeros(m - sv.size)])
        ker = vh[sigma <= tau * max(1.0, sv[0])].conj()
    else:
        ker = np.eye(m, dtype=complex)
    vecs = np.zeros((len(ker), n), dtype=complex)
    vecs[:, keep] = ker
    return vecs.T @ vecs.conj()


ROOT_GENERATOR_GROUPS = {
    "u1": lambda: full_unitary(1),
    "su1": lambda: special_unitary(1),
    "u2": lambda: full_unitary(2),
    "su2": lambda: special_unitary(2),
    "u3": lambda: full_unitary(3),
    "su3": lambda: special_unitary(3),
    "su4": lambda: special_unitary(4),
}


@pytest.mark.parametrize("name", sorted(ROOT_GENERATOR_GROUPS))
def test_root_generator_solve_matches_the_full_basis_route(name):
    g = ROOT_GENERATOR_GROUPS[name]()
    d = g.degree
    for r in range(10):
        for s in range(10):
            n = d ** (r + s)
            if n > 729 or (d == 1 and max(r, s) > 3):
                continue
            sp = intertwiners(g, r, s)
            want = full_basis_intertwiner_projector(g, r, s)
            assert sp.dim == int(round(np.trace(want).real)), (r, s)
            assert np.linalg.norm(basis_projector(sp, n) - want) <= 1e-9, (r, s)


def test_root_generator_is_one_block_in_the_lie_algebra(monkeypatch):
    for d in (2, 3, 4):
        x = _root_generator(d)
        assert np.array_equal(x, -x.conj().T) and np.trace(x) == 0
        assert np.count_nonzero(x) == 2 * (d - 1)
    shapes = []

    def spy(op, tol=None):
        shapes.append(op.shape)
        return nullspace(op, tol)

    # (3, 3) of u(3): 93 units of equal weight and one derivation block,
    # 240 of whose 729 rows are not zero
    monkeypatch.setattr(repcat, "_SPACES", {})
    monkeypatch.setattr(repcat, "nullspace", spy)
    assert intertwiners(full_unitary(3), 3, 3).dim == 6
    assert shapes == [(240, 93)]


@pytest.mark.parametrize("maker", [full_unitary, special_unitary])
def test_degree_three_top_space_matches_fixed_points(maker):
    g = maker(3)
    sp = intertwiners(g, 3, 3)
    assert sp.dim == perm_span_dim(3, 3) == 6
    fp = fixed_points(g, 3, 3)
    assert len(fp) == sp.dim
    assert np.linalg.norm(basis_projector(sp, 729) - basis_projector(fp, 729)) <= 1e-9


def test_group_without_diagonal_generator_matches_averaging():
    g = swap_group()
    for r in range(4):
        for s in range(4):
            n = 2 ** (r + s)
            sp = intertwiners(g, r, s)
            avg = averaged_fixed_space(g, r, s)
            assert sp.dim == len(avg)
            assert np.linalg.norm(basis_projector(sp, n) - basis_projector(avg, n)) <= 1e-9


def test_size_cap_counts_all_unknowns(monkeypatch):
    # (3, 3) keeps 93 units of equal weight out of 729; (2, 3) keeps none
    # out of 243.  The cap applies before the restriction in both cases.
    monkeypatch.setattr(repcat, "INTERTWINER_UNKNOWN_CAP", 728)
    with pytest.raises(SizeCapExceeded):
        intertwiners(full_unitary(3), 3, 3)
    monkeypatch.setattr(repcat, "INTERTWINER_UNKNOWN_CAP", 242)
    with pytest.raises(SizeCapExceeded):
        intertwiners(full_unitary(3), 2, 3)
    monkeypatch.setattr(repcat, "INTERTWINER_UNKNOWN_CAP", 243)
    assert intertwiners(full_unitary(3), 2, 3).dim == 0


def test_equal_groups_share_one_cached_solve():
    for make in (lambda: special_unitary(2), quaternion_group):
        first, second = make(), make()
        assert first is not second
        assert intertwiners(first, 2, 2) is intertwiners(second, 2, 2)
    # a different value is a different problem
    assert intertwiners(quaternion_group(), 1, 1) is not intertwiners(cyclic_diagonal_group(), 1, 1)


def test_size_cap_is_checked_before_the_cache(monkeypatch):
    assert intertwiners(full_unitary(3), 3, 3).dim == 6
    monkeypatch.setattr(repcat, "INTERTWINER_UNKNOWN_CAP", 728)
    with pytest.raises(SizeCapExceeded):
        intertwiners(full_unitary(3), 3, 3)

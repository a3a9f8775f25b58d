import math

import numpy as np
import pytest

from catbundle.errors import CapExceeded, NotInNormalizer, NotUnitary, WrongKind
from catbundle.groups import (
    KIND_FINITE,
    KIND_SU,
    KIND_U,
    GroupSpec,
    cyclic_diagonal_group,
    enumerate_finite,
    full_unitary,
    group_distance,
    lie_basis,
    quaternion_group,
    special_unitary,
    trivial_group,
    verify_normalizer,
    _bucket_key,
    _unitarity_residual,
)

from octahedra import subdivided_octahedron
from test_glue import _q8_gauged

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


def test_enumerate_cyclic_four():
    # closure by hand: diag(i,-i) -> diag(-1,-1) -> diag(-i,i) -> identity
    g = cyclic_diagonal_group()
    assert g.order() == 4


def test_enumerate_quaternion_eight():
    assert quaternion_group().order() == 8


def test_enumerate_trivial():
    assert trivial_group(3).order() == 1


def test_enumeration_closed_under_products():
    g = quaternion_group()
    elems = g.elements()
    for a in elems:
        for b in elems:
            assert g.contains(a @ b)


def test_enumeration_cap():
    # an order-12 rotation exceeds a cap of 5
    w = np.exp(2j * math.pi / 12)
    g = GroupSpec(KIND_FINITE, 1, [np.array([[w]])], enumeration_cap=5)
    with pytest.raises(CapExceeded):
        g.elements()


def test_nonunitary_generator_rejected():
    with pytest.raises(NotUnitary):
        GroupSpec(KIND_FINITE, 2, [np.array([[1.0, 1.0], [0.0, 1.0]])])


def test_lie_basis_counts():
    assert len(lie_basis(special_unitary(2)).matrices) == 3
    assert len(lie_basis(full_unitary(2)).matrices) == 4
    assert len(lie_basis(special_unitary(3)).matrices) == 8


def test_lie_basis_anti_hermitian_and_traceless():
    for x in lie_basis(special_unitary(3)).matrices:
        assert np.linalg.norm(x + x.conj().T) <= 1e-12
        assert abs(np.trace(x)) <= 1e-12


def test_lie_basis_exponentials_unitary():
    # truncated series at t = 0.1
    for x in lie_basis(full_unitary(2)).matrices:
        acc = np.eye(2, dtype=complex)
        term = np.eye(2, dtype=complex)
        for k in range(1, 30):
            term = term @ (0.1 * x) / k
            acc = acc + term
        assert np.linalg.norm(acc.conj().T @ acc - np.eye(2)) <= 1e-8


def test_lie_basis_wrong_kind():
    with pytest.raises(WrongKind):
        lie_basis(quaternion_group())


def test_normalizer_swap_of_cyclic_diagonal():
    # conjugation by hand: swap exchanges the diagonal entries
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    n = verify_normalizer(swap, cyclic_diagonal_group())
    assert abs(n.phase_det + 1.0) <= 1e-12


def test_normalizer_identity_and_scalars():
    assert verify_normalizer(np.eye(2), quaternion_group()).phase_det == pytest.approx(1.0)
    w = np.exp(1j * math.pi / 7)
    n = verify_normalizer(w * np.eye(2), special_unitary(2))
    assert abs(n.phase_det - np.exp(2j * math.pi / 7)) <= 1e-12


def test_normalizer_of_quaternion():
    for u in (np.diag([1.0, 1j]), HADAMARD):
        verify_normalizer(u, quaternion_group())


def test_normalizer_rejects():
    bad = np.diag([1.0, np.exp(1j * math.pi / 5)])
    with pytest.raises(NotInNormalizer):
        verify_normalizer(bad, quaternion_group())


def test_normalizer_composes():
    g = quaternion_group()
    u = np.diag([1.0, 1j])
    v = HADAMARD
    verify_normalizer(u @ v, g)
    verify_normalizer(v @ u, g)


def test_contains_kinds():
    su = special_unitary(2)
    assert su.contains(HADAMARD @ np.diag([1j, -1j]) @ HADAMARD)
    assert not su.contains(np.diag([1.0, 1j]))
    assert full_unitary(2).contains(np.diag([1.0, 1j]))
    q8 = quaternion_group()
    assert q8.contains(np.diag([1j, -1j]) @ np.array([[0, 1], [-1, 0]]))
    assert not q8.contains(np.exp(1j * math.pi / 4) * np.eye(2))


def test_group_distance():
    q8 = quaternion_group()
    assert group_distance(q8, np.diag([1j, -1j])) <= 1e-12
    assert group_distance(q8, np.exp(1j * math.pi / 4) * np.eye(2)) > 0.5
    assert group_distance(special_unitary(2), HADAMARD) > 0.1  # det = -1
    assert group_distance(full_unitary(2), HADAMARD) <= 1e-12


def test_group_json_roundtrip():
    g = quaternion_group()
    g2 = GroupSpec.from_json(g.to_json())
    assert g2.kind == KIND_FINITE and g2.degree == 2 and g2.order() == 8
    su = GroupSpec.from_json(special_unitary(3).to_json())
    assert su.kind == KIND_SU and su.degree == 3
    u = GroupSpec.from_json(full_unitary(2).to_json())
    assert u.kind == KIND_U


def test_group_elements_are_read_only():
    q8 = quaternion_group()
    before = [e.copy() for e in q8.elements()]
    with pytest.raises(ValueError):
        q8.elements()[1][0, 0] = 5.0
    with pytest.raises(ValueError):
        q8.generators[0][0, 0] = 5.0
    assert all(np.array_equal(e, want) for e, want in zip(q8.elements(), before))


def test_arrays_passed_in_stay_writable():
    gi = np.diag([1j, -1j])
    g = GroupSpec(KIND_FINITE, 2, [gi])
    u = HADAMARD.copy()
    verify_normalizer(u, quaternion_group())
    assert gi.flags.writeable and u.flags.writeable
    # the group holds its own copy
    gi[0, 0] = 7.0
    assert g.generators[0][0, 0] == 1j
    assert g.order() == 4


def test_lie_kind_rejects_generators():
    with pytest.raises(ValueError):
        GroupSpec(KIND_SU, 2, [np.eye(2)])


def test_finite_enumerate_only():
    with pytest.raises(WrongKind):
        special_unitary(2).elements()


# ---------------------------------------------------------------------------
# batched closure against the one-product-at-a-time loop


def _loop_closure(group):
    """The closure one generator product at a time: the oracle for
    ``enumerate_finite``, which batches the products of each element."""
    d = group.degree
    drift_cap = group.tol.tau / 10.0
    eye = np.eye(d, dtype=complex)
    elems = [eye]
    index = {_bucket_key(eye): 0}
    queue = [eye]
    while queue:
        h = queue.pop()
        for g in group.generators:
            p = h @ g
            if _unitarity_residual(p) > drift_cap:
                w, _, vh = np.linalg.svd(p)
                p = w @ vh
            key = _bucket_key(p)
            if key in index:
                continue
            if len(elems) >= group.enumeration_cap:
                raise CapExceeded("group closure exceeds cap %d elements" % group.enumeration_cap)
            index[key] = len(elems)
            elems.append(p)
            queue.append(p)
    return elems


def _assert_same_closure(group):
    got, want = enumerate_finite(group), _loop_closure(group)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    return got


def _rotation12():
    w = np.exp(2j * math.pi / 12)
    return GroupSpec(KIND_FINITE, 1, [np.array([[w]])])


def _q8_near_duplicates():
    gi, gj = quaternion_group().generators
    t = 1e-8  # far inside the 6-decimal bucket of gi
    near_gi = np.diag([np.exp(1j * (math.pi / 2 + t)), np.exp(-1j * (math.pi / 2 + t))])
    assert _bucket_key(near_gi) == _bucket_key(gi) and not np.array_equal(near_gi, gi)
    return GroupSpec(KIND_FINITE, 2, [near_gi, gj, gi, gj, near_gi, gi @ gj])


@pytest.mark.parametrize(
    "make, order",
    [
        (quaternion_group, 8),
        (cyclic_diagonal_group, 4),
        (lambda: trivial_group(3), 1),
        (_rotation12, 12),
        (_q8_near_duplicates, 8),
    ],
    ids=["q8", "c4", "trivial3", "rotation12", "repeats"],
)
def test_batched_closure_matches_loop(make, order):
    assert len(_assert_same_closure(make())) == order


def test_batched_closure_matches_loop_on_gauged_q8_values():
    # the witness search's closure on a 26-vertex base: the values of two
    # gauged Q8 data and the Q8 generators
    c = subdivided_octahedron(1)
    d1, d2 = _q8_gauged(c, 6), _q8_gauged(c, 7)
    gens = list(d1.cocycle.values.values()) + list(d2.cocycle.values.values())
    gens += list(d1.group.generators)
    assert len(gens) == 146
    assert len(_assert_same_closure(GroupSpec(KIND_FINITE, 2, gens))) == 192


def test_batched_closure_polar_correction():
    # a generator off the unitary group by more than tau/10 but within the
    # acceptance bound: every product is re-unitarized, on both routes
    tau = GroupSpec(KIND_FINITE, 2).tol.tau
    g = np.diag([1j, -1j]) * (1.0 + tau / 8.0)
    assert tau / 10.0 < _unitarity_residual(g) <= tau * math.sqrt(2.0)
    elems = _assert_same_closure(GroupSpec(KIND_FINITE, 2, [g]))
    assert len(elems) == 4
    assert not np.array_equal(elems[1], g)
    assert np.linalg.norm(elems[1] - np.diag([1j, -1j])) <= 1e-15
    assert all(_unitarity_residual(e) <= tau / 10.0 for e in elems)


@pytest.mark.parametrize(
    "make, order",
    [(quaternion_group, 8), (cyclic_diagonal_group, 4), (_rotation12, 12)],
    ids=["q8", "c4", "rotation12"],
)
def test_closure_cap_parity(make, order):
    g = make()
    at_order = GroupSpec(KIND_FINITE, g.degree, g.generators, enumeration_cap=order)
    assert len(_assert_same_closure(at_order)) == order
    below = GroupSpec(KIND_FINITE, g.degree, g.generators, enumeration_cap=order - 1)
    with pytest.raises(CapExceeded):
        enumerate_finite(below)
    with pytest.raises(CapExceeded):
        _loop_closure(below)

import itertools
import math

import numpy as np
import pytest

from catbundle.basecech import COEFF_FINITE, CechCocycle, octahedron
from catbundle.errors import (
    CapExceeded,
    ConsistencyError,
    NotACocycleModG,
    NotInNormalizer,
    NotUnitary,
    ToolkitError,
    WrongKind,
)
from catbundle import groups as groups_module
from catbundle.glue import SEARCH_CAP, GluingDatum
from catbundle.groups import (
    DEFAULT_ENUMERATION_CAP,
    KIND_FINITE,
    KIND_SU,
    KIND_U,
    GroupSpec,
    NormalizerElement,
    cyclic_diagonal_group,
    enumerate_finite,
    full_unitary,
    group_distance,
    lie_basis,
    normalizer_classes,
    normalizer_elements,
    quaternion_group,
    special_unitary,
    trivial_group,
    verify_normalizer,
    _bucket_key,
    _require_normalizing,
    _unitarity_residual,
)
from catbundle.linalg import Tolerance, as_matrix

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
    drift_cap = Tolerance().tau / 10.0
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
    gens = [*d1.cocycle.values, *d2.cocycle.values]
    gens += list(d1.group.generators)
    assert len(gens) == 146
    assert len(_assert_same_closure(GroupSpec(KIND_FINITE, 2, gens))) == 192


def test_batched_closure_polar_correction():
    # a generator off the unitary group by more than tau/10 but within the
    # acceptance bound: every product is re-unitarized, on both routes
    tau = Tolerance().tau
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


# ---------------------------------------------------------------------------
# stacked membership against the one-matrix routines it replaced


def _residual_oracle(a):
    return float(np.linalg.norm(a.conj().T @ a - np.eye(a.shape[0])))


def _key_oracle(a):
    return (np.round(a, 6) + 0.0).tobytes()


def _contains_oracle(group, u, tol=None):
    """``GroupSpec.contains`` on one matrix, element by element."""
    tol = tol or Tolerance()
    a = np.asarray(u, dtype=complex)
    if a.shape != (group.degree, group.degree):
        return False
    if _residual_oracle(a) > tol.tau * max(1.0, math.sqrt(group.degree)):
        return False
    if group.kind == KIND_U:
        return True
    if group.kind == KIND_SU:
        return abs(np.linalg.det(a) - 1.0) <= tol.tau * max(1.0, math.sqrt(group.degree))
    elems = group.elements()
    i = {_key_oracle(e): i for i, e in enumerate(elems)}.get(_key_oracle(a))
    if i is not None and np.linalg.norm(a - elems[i]) <= tol.tau:
        return True
    return any(np.linalg.norm(a - e) <= tol.tau for e in elems)


def _distance_oracle(group, a):
    """``group_distance`` on one matrix."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (group.degree, group.degree):
        raise WrongKind("shape %r does not match degree %d" % (a.shape, group.degree))
    if group.kind == KIND_U:
        return _residual_oracle(a)
    if group.kind == KIND_SU:
        return max(_residual_oracle(a), float(abs(np.linalg.det(a) - 1.0)))
    return min(float(np.linalg.norm(a - e)) for e in group.elements())


def _normalizer_oracle(u, group, tol=None):
    """``verify_normalizer`` with one ``contains`` call per generator."""
    tol = tol or Tolerance()
    um = as_matrix(u)
    if um.shape != (group.degree, group.degree):
        raise WrongKind(
            "normalizer candidate has shape %r, group degree is %d" % (um.shape, group.degree)
        )
    res = _residual_oracle(um)
    if not tol.close(res, scale=math.sqrt(um.shape[0])):
        raise NotUnitary("normalizer candidate fails unitarity, residual %g" % res)
    if group.kind == KIND_FINITE:
        for k, g in enumerate(group.generators):
            if not _contains_oracle(group, um @ g @ um.conj().T, tol=tol):
                raise NotInNormalizer("conjugate of generator %d leaves the group" % k)
    return NormalizerElement(u=um, phase_det=complex(np.linalg.det(um)), group=group)


def _outcome(fn, *args):
    """(exception type, message) of a call, or ("ok", None)."""
    try:
        fn(*args)
    except ToolkitError as exc:
        return type(exc), str(exc)
    return "ok", None


GROUPS = {
    "q8": quaternion_group,
    "c4": cyclic_diagonal_group,
    "trivial3": lambda: trivial_group(3),
    "su2": lambda: special_unitary(2),
    "u2": lambda: full_unitary(2),
}


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _probes(group, seed=5):
    """Members; members moved by tau/2 and by 3 tau; non-unitary matrices;
    members times a phase (det != 1, and outside every finite group here)."""
    d, tau = group.degree, Tolerance().tau
    rng = np.random.default_rng(seed)
    if group.kind == KIND_FINITE:
        members = list(group.elements())
    else:
        members = [_random_unitary(rng, d) for _ in range(4)]
        if group.kind == KIND_SU:
            members = [m / np.linalg.det(m) ** (1.0 / d) for m in members]
    direction = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    direction /= np.linalg.norm(direction)
    out = []
    for m in members:
        out += [m, m + 0.5 * tau * direction, m + 3.0 * tau * direction]
        out += [1.5 * m, m + 0.1 * direction, np.exp(1j * math.pi / 5) * m]
    return np.array(out)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_stacked_contains_matches_one_matrix_oracle(name):
    g = GROUPS[name]()
    probes = _probes(g)
    want = [_contains_oracle(g, m) for m in probes]
    assert any(want) and not all(want)
    got = g.contains(probes)
    assert got.dtype == bool and got.tolist() == want
    # leading axes are kept, and one matrix is the 2-d case with a bool
    assert g.contains(probes.reshape((1, -1) + probes.shape[1:])).tolist() == [want]
    singles = [g.contains(m) for m in probes]
    assert singles == want and all(type(x) is bool for x in singles)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_stacked_group_distance_matches_one_matrix_oracle(name):
    g = GROUPS[name]()
    probes = _probes(g)
    want = np.array([_distance_oracle(g, m) for m in probes])
    got = group_distance(g, probes)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, want))
    one = group_distance(g, probes[1])
    assert type(one) is float and abs(one - want[1]) <= 1e-14


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_wrong_trailing_shape_and_empty_stack(name):
    g = GROUPS[name]()
    d = g.degree
    wrong = np.zeros((3, d + 1, d + 1))
    assert g.contains(wrong).tolist() == [False] * 3
    assert g.contains(wrong[0]) is False and _contains_oracle(g, wrong[0]) is False
    assert g.contains(np.eye(d)[0]) is False
    for a in (wrong, wrong[0]):
        with pytest.raises(WrongKind, match=r"does not match degree %d" % d):
            group_distance(g, a)
    empty = np.zeros((0, d, d))
    assert g.contains(empty).shape == (0,) and g.contains(empty).dtype == bool
    assert group_distance(g, empty).shape == (0,)


def test_bucket_keys_of_a_stack_are_the_one_matrix_keys():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    stack[0, 0] = -1e-9  # rounds to -0.0, which must key as +0.0
    stack = np.swapaxes(stack, -1, -2)  # not C-contiguous
    want = [_key_oracle(m) for m in stack.reshape(-1, 2, 2)]
    assert _bucket_key(stack) == want
    assert [_bucket_key(m) for m in stack.reshape(-1, 2, 2)] == want
    assert want[0] == _key_oracle(np.zeros((2, 2), dtype=complex))
    assert _bucket_key(np.zeros((0, 2, 2))) == []


def _rotated_q8():
    """Q8 conjugated by a real rotation chosen so that one element has an
    entry on a 6-decimal rounding boundary."""
    phi = math.acos(0.3000005) / 2.0
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    return GroupSpec(KIND_FINITE, 2, [rot @ g @ rot.T for g in quaternion_group().generators])


def test_contains_falls_back_when_the_bucket_misses():
    g = _rotated_q8()
    assert g.order() == 8
    e = next(e for e in g.elements() if abs(e[0, 0].imag - 0.3000005) < 1e-12)
    nudges = [e + s * 1e-10j * np.diag([1.0, 0.0]) for s in (1.0, -1.0)]
    keys = {_bucket_key(x) for x in g.elements()}
    # one nudge leaves e's bucket for a bucket of no element
    off = [m for m in nudges if _bucket_key(m) not in keys]
    assert len(off) == 1 and np.linalg.norm(off[0] - e) <= Tolerance().tau
    probes = np.array(nudges + [off[0] + 3 * Tolerance().tau * np.eye(2)])
    want = [_contains_oracle(g, m) for m in probes]
    assert want == [True, True, False]
    assert g.contains(probes).tolist() == want
    assert [g.contains(m) for m in probes] == want


def test_contains_on_the_gauged_q8_closure_matches_one_matrix_oracle():
    # the 192-element closure of the witness search on a 26-vertex base,
    # far larger than any group in GROUPS
    c = subdivided_octahedron(1)
    d1, d2 = _q8_gauged(c, 6), _q8_gauged(c, 7)
    g = GroupSpec(KIND_FINITE, 2, [*d1.cocycle.values, *d2.cocycle.values, *d1.group.generators])
    assert g.order() == 192
    tau = Tolerance().tau
    rng = np.random.default_rng(11)
    direction = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    direction /= np.linalg.norm(direction)
    probes = []
    for m in g.elements()[::4]:
        probes += [m, np.exp(1j * math.pi / 5) * m, m + 0.5 * tau * direction, m + 3.0 * tau * direction]
    probes = np.array(probes)
    want = [_contains_oracle(g, m) for m in probes]
    assert want == [True, False, True, False] * 48
    assert g.contains(probes).tolist() == want
    singles = [g.contains(m) for m in probes]
    assert singles == want and all(type(x) is bool for x in singles)


def test_documents_cannot_raise_the_enumeration_cap():
    # a rotation by 0.3 rad has infinite order, so its closure runs to the cap
    rot = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    doc = GroupSpec(KIND_FINITE, 2, [rot]).to_json()
    doc["enumeration_cap"] = 5000
    g = GroupSpec.from_json(doc)
    assert g.enumeration_cap == DEFAULT_ENUMERATION_CAP == 4096
    with pytest.raises(CapExceeded, match="exceeds cap 4096 elements"):
        g.elements()


def _normalizer_probes(group):
    d = group.degree
    rng = np.random.default_rng(3)
    out = list(_probes(group))
    out += [_random_unitary(rng, d), np.diag([1.0] * (d - 1) + [np.exp(1j * math.pi / 5)])]
    if d == 2:
        out += [np.diag([1.0, 1j]), HADAMARD]
    return np.array(out)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_verify_normalizer_matches_one_matrix_oracle(name):
    g = GROUPS[name]()
    probes = _normalizer_probes(g)
    outcomes = [_outcome(_normalizer_oracle, m, g) for m in probes]
    kinds = {o[0] for o in outcomes}
    assert "ok" in kinds and NotUnitary in kinds
    if g.kind == KIND_FINITE and g.generators:
        assert NotInNormalizer in kinds
    for m, want in zip(probes, outcomes):
        assert _outcome(verify_normalizer, m, g) == want
        if want[0] == "ok":
            n, o = verify_normalizer(m, g), _normalizer_oracle(m, g)
            assert np.array_equal(n.u, o.u) and n.phase_det == o.phase_det and n.group is g
    # the stacked route hands out the same elements for the members
    members = probes[[o[0] == "ok" for o in outcomes]]
    for n, m in zip(normalizer_elements(members, g), members, strict=True):
        o = _normalizer_oracle(m, g)
        assert np.array_equal(n.u, o.u) and n.phase_det == o.phase_det and n.group is g
    # a stack raises what the one-matrix loop raises first, from any start
    for k in range(len(probes)):
        first = next((o for o in outcomes[k:] if o[0] != "ok"), ("ok", None))
        assert _outcome(_require_normalizing, probes[k:], g) == first
        assert _outcome(normalizer_elements, probes[k:], g) == first
    assert _outcome(verify_normalizer, np.eye(g.degree + 1), g) == _outcome(
        _normalizer_oracle, np.eye(g.degree + 1), g
    )


def test_generator_checks_keep_their_order():
    bad_unitary = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotUnitary, match="generator 1 fails unitarity"):
        GroupSpec(KIND_FINITE, 2, [np.eye(2), bad_unitary, np.eye(3)])
    with pytest.raises(WrongKind, match="generator 1 has shape"):
        GroupSpec(KIND_FINITE, 2, [np.eye(2), np.eye(3), bad_unitary])


# ---------------------------------------------------------------------------
# gluing data verify their stacks as the loops did


def _loop_outcome(base, group, transitions):
    """What checking a datum one value and one triangle at a time raises."""
    c = CechCocycle(base, COEFF_FINITE, transitions)

    def check():
        for u in c.values:
            _normalizer_oracle(u, group)
        for tri, (ij, jk, ik) in zip(base.triangles(), base.triangle_edges()):
            w = c.values[ij] @ c.values[jk] @ c.values[ik].conj().T
            if not _contains_oracle(group, w):
                raise NotACocycleModG(
                    "transition defect on triangle %r is outside the fibre group" % (tri,)
                )

    return _outcome(check)


NOT_NORMALIZING = np.diag([1.0, np.exp(1j * math.pi / 5)])
NOT_UNITARY = np.array([[1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "early, late, kind",
    [
        (NOT_NORMALIZING, NOT_UNITARY, NotInNormalizer),
        (NOT_UNITARY, NOT_NORMALIZING, NotUnitary),
        (2.0 * NOT_NORMALIZING, np.eye(2), NotUnitary),
        (np.diag([1.0, 1j]), np.eye(2), NotACocycleModG),
        (np.eye(2), np.diag([1j, 1.0]), NotACocycleModG),
    ],
    ids=["normalizer-then-unitary", "unitary-then-normalizer", "both-on-one", "defect", "late-defect"],
)
def test_datum_raises_what_the_loop_raised(early, late, kind):
    base = octahedron()
    edges = base.edges()
    trans = {e: np.eye(2) for e in edges}
    trans[edges[2]] = early
    del trans[edges[7]]
    trans[edges[7][::-1]] = late  # given in the reverse orientation
    want = _loop_outcome(base, quaternion_group(), trans)
    assert want[0] is kind
    assert _outcome(GluingDatum, base, quaternion_group(), trans) == want


def test_datum_of_the_wrong_degree_is_refused_by_its_cocycle():
    # the loop would reach the first value and raise WrongKind for its
    # shape; the datum's cocycle refuses the stack before any check
    base = octahedron()
    trans = {e: np.eye(3) for e in base.edges()}
    assert _loop_outcome(base, quaternion_group(), trans)[0] is WrongKind
    with pytest.raises(ValueError, match="matrix values are 3 x 3, not of degree 2"):
        GluingDatum(base, quaternion_group(), trans)


def test_mod_group_residual_matches_the_loop():
    d = _q8_gauged(subdivided_octahedron(1), 4)
    ij, jk, ik = d.complex.triangle_edges().T
    c = d.cocycle.values
    defects = c[ij] @ c[jk] @ c[ik].conj().transpose(0, 2, 1)
    want = max([0.0] + [_distance_oracle(d.group, w) for w in defects])
    assert abs(d.mod_group_residual() - want) <= 1e-15


# ---------------------------------------------------------------------------
# normalizer classes


def _coset_overlap(els, q):
    """max over g of |tr(g* q)| for each matrix of a stack q: the degree
    exactly when q lies in U(1).G."""
    return np.abs(np.einsum("gij,...ij->...g", np.array(els).conj(), q)).max(axis=-1)


def test_quaternion_normalizer_classes():
    q8 = quaternion_group()
    classes = normalizer_classes(q8, SEARCH_CAP)
    # N(Q8)/(U(1).Q8) is Out(Q8), of order 24 / 4
    assert len(classes) == 6
    assert np.array_equal(classes[0], np.eye(2))
    assert all(not r.flags.writeable for r in classes)
    normalizer_elements(np.array(classes), q8)
    for a, b in itertools.permutations(range(6), 2):
        assert _coset_overlap(q8.elements(), classes[a].conj().T @ classes[b]) < 2 - 1e-6
    # memoized by the group's value
    assert normalizer_classes(quaternion_group(), SEARCH_CAP) is classes


def test_every_clifford_element_lies_in_exactly_one_class():
    # the Clifford group <H, P> normalizes Q8 and meets every class
    q8 = quaternion_group()
    classes = np.array(normalizer_classes(q8, SEARCH_CAP))
    clifford = np.array(GroupSpec(KIND_FINITE, 2, [HADAMARD, np.diag([1, 1j])]).elements())
    hits = _coset_overlap(q8.elements(), classes.conj().transpose(0, 2, 1)[None] @ clifford[:, None]) > 2 - 1e-9
    assert (hits.sum(axis=1) == 1).all()
    assert set(np.argmax(hits, axis=1)) == set(range(6))


def test_normalizer_classes_need_an_irreducible_finite_group():
    # diag(i, -i) commutes with every diagonal matrix: its identity tuple
    # has a two-dimensional kernel
    with pytest.raises(ConsistencyError, match="2-dimensional kernel"):
        normalizer_classes(cyclic_diagonal_group(), SEARCH_CAP)
    with pytest.raises(WrongKind):
        normalizer_classes(special_unitary(2), SEARCH_CAP)
    # degree one: every unitary is a scalar
    assert [r.tolist() for r in normalizer_classes(trivial_group(1), 1)] == [[[1.0]]]


def test_normalizer_classes_cap_the_image_tuples():
    # tr i = tr j = 0, met by the six elements +-i, +-j, +-k each
    with pytest.raises(CapExceeded, match="36 generator image tuples exceed cap 35"):
        normalizer_classes(quaternion_group(), 35)
    assert len(normalizer_classes(quaternion_group(), 36)) == 6


@pytest.mark.parametrize("entries", [1, 5 * 32])
def test_normalizer_classes_do_not_depend_on_the_svd_batches(monkeypatch, entries):
    # one Q8 operator holds 2 x 4 x 4 entries: one or five tuples per SVD
    # against all 36 in one
    want = normalizer_classes(quaternion_group(), SEARCH_CAP)
    monkeypatch.setattr(groups_module, "_CLASSES", {})
    monkeypatch.setattr(groups_module, "_SVD_ENTRIES", entries)
    got = normalizer_classes(quaternion_group(), SEARCH_CAP)
    assert [r.tobytes() for r in got] == [r.tobytes() for r in want]

"""Cech layer: Smith normal form, H^2, circle classes, witnesses."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from catbundle import (
    CechCocycle,
    Cover,
    IrrationalPhase,
    NotACocycle,
    SearchCapExceeded,
    SimplicialComplex,
    WrongKind,
    circle_class,
    det_pushforward,
    equivalent,
    h2_integral,
    is_cocycle,
    lie_basis,
    normalized_lift,
    octahedron,
    quaternion_group,
    smith_normal_form,
    snap_phase,
    special_unitary,
    trivial_cocycle,
)


# ---------------------------------------------------------------------------
# Smith normal form


@pytest.mark.parametrize("shape", [(3, 3), (4, 6), (6, 4), (5, 5), (1, 1), (3, 5)])
def test_smith_normal_form_against_sympy(shape):
    rng = np.random.default_rng(0)
    a = rng.integers(-9, 10, size=shape).tolist()
    diag, u, vinv = smith_normal_form(a)
    # exact transform identity u a = diag vinv, all integer arithmetic
    assert Matrix(u) * Matrix(a) == Matrix(diag) * Matrix(vinv)
    assert abs(Matrix(u).det()) == 1
    assert abs(Matrix(vinv).det()) == 1
    ref = sympy_snf(Matrix(a), domain=ZZ)
    mine = [diag[i][i] for i in range(min(shape))]
    assert mine == [abs(ref[i, i]) for i in range(min(shape))]


def test_smith_normal_form_shape_and_divisibility():
    rng = np.random.default_rng(4)
    a = rng.integers(-20, 21, size=(5, 7)).tolist()
    diag, _, _ = smith_normal_form(a)
    assert len(diag) == 5 and all(len(row) == 7 for row in diag)
    for i in range(5):
        for j in range(7):
            if i != j:
                assert diag[i][j] == 0
    d = [diag[i][i] for i in range(5)]
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0


def test_smith_normal_form_zero_matrix():
    diag, u, vinv = smith_normal_form([[0, 0], [0, 0], [0, 0]])
    assert all(diag[i][j] == 0 for i in range(3) for j in range(2))
    assert abs(Matrix(u).det()) == 1
    assert abs(Matrix(vinv).det()) == 1


# ---------------------------------------------------------------------------
# complexes and H^2


def _rp2():
    # antipodal quotient of the icosahedron boundary: 6 vertices, 10 faces
    faces = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    ]
    return SimplicialComplex.from_maximal(6, [tuple(v - 1 for v in f) for f in faces])


def test_complex_requires_face_closure():
    with pytest.raises(ValueError):
        SimplicialComplex(3, [[0], [1], [2], [0, 1, 2]])


def test_from_maximal_closes_faces():
    c = SimplicialComplex.from_maximal(3, [(0, 1, 2)])
    assert frozenset([0, 1]) in c.simplices
    assert frozenset([2]) in c.simplices
    assert c.dim == 2


def test_octahedron_counts():
    c = octahedron()
    assert c.vertices == 6
    assert len(c.edges()) == 12
    assert len(c.triangles()) == 8
    assert c.components() == [[0, 1, 2, 3, 4, 5]]


def test_h2_sphere_is_free_rank_one():
    s = h2_integral(octahedron())
    assert s.free_rank == 1
    assert s.torsion_orders == ()


def test_h2_projective_plane_is_torsion_two():
    s = h2_integral(_rp2())
    assert s.free_rank == 0
    assert s.torsion_orders == (2,)
    # a single-triangle indicator cochain generates the torsion
    cls = s.reduce({_rp2().triangles()[0]: 1})
    assert cls.free == ()
    assert cls.torsion == (1,)
    assert not cls.is_zero()
    assert (cls + cls).is_zero()


def test_h2_two_spheres():
    shift = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
             (5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 4, 1)]
    faces = shift + [tuple(v + 6 for v in f) for f in shift]
    c = SimplicialComplex.from_maximal(12, faces)
    assert len(c.components()) == 2
    s = h2_integral(c)
    assert s.free_rank == 2
    assert s.torsion_orders == ()


def test_h2_contractible_cases():
    for c in (SimplicialComplex.from_maximal(3, [(0, 1, 2)]),
              SimplicialComplex.from_maximal(4, [(0, 1, 2, 3)])):
        s = h2_integral(c)
        assert s.free_rank == 0
        assert s.torsion_orders == ()


def test_h2_rejects_high_dimension():
    c = SimplicialComplex.from_maximal(5, [(0, 1, 2, 3, 4)])
    with pytest.raises(WrongKind):
        h2_integral(c)


def test_reduce_rejects_non_closed_cochain():
    solid = SimplicialComplex.from_maximal(4, [(0, 1, 2, 3)])
    s = h2_integral(solid)
    with pytest.raises(NotACocycle):
        s.reduce({(0, 1, 2): 1})


# ---------------------------------------------------------------------------
# circle classes


def _coboundary(cover, theta, windings=None):
    vals = {(i, j): theta.get(i, Fraction(0)) - theta.get(j, Fraction(0))
            for (i, j) in cover.complex.edges()}
    return CechCocycle(cover, "phase", vals, windings=windings)


def test_circle_class_of_trivial_is_zero():
    cov = Cover(octahedron())
    assert circle_class(trivial_cocycle(cov, "phase")).is_zero()


def test_circle_class_counts_windings():
    cov = Cover(octahedron())
    tri = cov.complex.triangles()[0]
    c = _coboundary(cov, {}, windings={tri: 1})
    cls = circle_class(c)
    assert cls.torsion == ()
    assert tuple(abs(x) for x in cls.free) == (1,)


def test_circle_class_additive_under_product():
    cov = Cover(octahedron())
    t0, t1 = cov.complex.triangles()[:2]
    a = _coboundary(cov, {0: Fraction(1, 3)}, windings={t0: 1})
    b = _coboundary(cov, {2: Fraction(1, 5)}, windings={t1: 2})
    assert circle_class(a.product(b)) == circle_class(a) + circle_class(b)


def test_circle_class_requires_cocycle():
    cov = Cover(octahedron())
    vals = {e: Fraction(0) for e in cov.complex.edges()}
    vals[(0, 1)] = Fraction(1, 3)
    c = CechCocycle(cov, "phase", vals)
    assert not is_cocycle(c)
    with pytest.raises(NotACocycle):
        circle_class(c)


def test_circle_class_wrong_kind():
    cov = Cover(octahedron())
    with pytest.raises(WrongKind):
        circle_class(trivial_cocycle(cov, "int"))


@given(st.fractions(max_denominator=400))
def test_normalized_lift_window(q):
    lift = normalized_lift(q)
    assert Fraction(-1, 2) < lift <= Fraction(1, 2)
    assert (q - lift).denominator == 1


_THETA = st.lists(st.fractions(max_denominator=12), min_size=6, max_size=6)
_WINDS = st.lists(st.integers(min_value=-2, max_value=2), min_size=8, max_size=8)


@settings(max_examples=25, deadline=None)
@given(_THETA, _WINDS)
def test_circle_class_ignores_flat_coboundary(theta, winds):
    cov = Cover(octahedron())
    tris = cov.complex.triangles()
    w = {t: n for t, n in zip(tris, winds) if n}
    c = _coboundary(cov, dict(enumerate(theta)), windings=w)
    assert circle_class(c) == h2_integral(cov.complex).reduce(w)


# ---------------------------------------------------------------------------
# equivalence witnesses


def test_equivalent_phase_witness():
    cov = Cover(octahedron())
    theta = {0: Fraction(1, 3), 1: Fraction(1, 4), 5: Fraction(-2, 7)}
    c = _coboundary(cov, theta)
    c2 = trivial_cocycle(cov, "phase")
    w = equivalent(c, c2)
    assert w is not None
    for (i, j) in cov.complex.edges():
        resid = w[i] - w[j] - (c.value(i, j) - c2.value(i, j))
        assert resid.denominator == 1


def test_equivalent_phase_none_on_class_mismatch():
    cov = Cover(octahedron())
    tri = cov.complex.triangles()[0]
    c = _coboundary(cov, {}, windings={tri: 1})
    assert equivalent(c, trivial_cocycle(cov, "phase")) is None


def test_equivalent_int_kind():
    cov = Cover(octahedron())
    m = {0: 3, 1: -1, 4: 2}
    vals = {(i, j): m.get(i, 0) - m.get(j, 0) for (i, j) in cov.complex.edges()}
    c = CechCocycle(cov, "int", vals)
    c2 = trivial_cocycle(cov, "int")
    w = equivalent(c, c2)
    assert w is not None
    for (i, j) in cov.complex.edges():
        assert w[i] - w[j] == c.value(i, j)
    # a 1 on a single edge is not a coboundary
    bad = {e: 0 for e in cov.complex.edges()}
    bad[(1, 2)] = 1
    assert equivalent(CechCocycle(cov, "int", bad), c2) is None


def test_equivalent_finite_with_group():
    q8 = quaternion_group()
    cov = Cover(octahedron())
    els = q8.elements()
    u = {v: els[(2 * v + 1) % len(els)].a for v in range(6)}
    vals = {(i, j): u[i] @ u[j].conj().T for (i, j) in cov.complex.edges()}
    c = CechCocycle(cov, "finite", vals, group=q8)
    c2 = trivial_cocycle(cov, "finite", group=q8)
    w = equivalent(c, c2)
    assert w is not None
    for (i, j) in cov.complex.edges():
        lhs = w[i].a @ c2.value(i, j).a
        rhs = c.value(i, j).a @ w[j].a
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_equivalent_none_for_nontrivial_holonomy():
    # a bare 3-cycle has no triangles, so the only obstruction is holonomy
    circ = SimplicialComplex.from_maximal(3, [(0, 1), (1, 2), (0, 2)])
    cov = Cover(circ)
    c = CechCocycle(cov, "finite", {
        (0, 1): np.eye(2), (1, 2): np.eye(2), (0, 2): -np.eye(2)})
    assert equivalent(c, trivial_cocycle(cov, "finite", degree=2)) is None


def test_equivalent_search_cap():
    q8 = quaternion_group()
    cov = Cover(octahedron())
    els = q8.elements()
    u = {v: els[v % len(els)].a for v in range(6)}
    vals = {(i, j): u[i] @ u[j].conj().T for (i, j) in cov.complex.edges()}
    c = CechCocycle(cov, "finite", vals, group=q8)
    with pytest.raises(SearchCapExceeded):
        equivalent(c, trivial_cocycle(cov, "finite", group=q8), search_cap=3)


def _q8_coboundary_without_group():
    els = quaternion_group().elements()
    cov = Cover(octahedron())
    u = {v: els[v % len(els)].a for v in range(6)}
    vals = {(i, j): u[i] @ u[j].conj().T for (i, j) in cov.complex.edges()}
    return CechCocycle(cov, "finite", vals), trivial_cocycle(cov, "finite", degree=2)


def test_equivalent_closure_overflow_is_search_cap():
    # no attached group: candidates come from the closure of the values,
    # which is Q8 (order 8) and leaves a cap of 4
    c, c2 = _q8_coboundary_without_group()
    with pytest.raises(SearchCapExceeded):
        equivalent(c, c2, search_cap=4)
    assert equivalent(c, c2) is not None


def test_equivalent_closure_propagates_unrelated_errors(monkeypatch):
    import catbundle.groups as groups_module

    def broken(group, tol=None):
        raise RuntimeError("enumeration broke")

    c, c2 = _q8_coboundary_without_group()
    monkeypatch.setattr(groups_module, "enumerate_finite", broken)
    with pytest.raises(RuntimeError, match="enumeration broke"):
        equivalent(c, c2)


# ---------------------------------------------------------------------------
# determinant pushforward


def test_snap_phase_exact_and_irrational():
    assert snap_phase(cmath.exp(2j * math.pi / 3)) == Fraction(1, 3)
    assert snap_phase(1.0 + 0j) == Fraction(0)
    with pytest.raises(IrrationalPhase):
        snap_phase(cmath.exp(1j))
    with pytest.raises(IrrationalPhase):
        snap_phase(0.5 + 0j)


def test_det_pushforward_scalar_transitions():
    cov = Cover(octahedron())
    q = Fraction(1, 5)
    vals = {e: cmath.exp(2j * math.pi * float(q)) * np.eye(2)
            for e in cov.complex.edges()}
    tri = cov.complex.triangles()[0]
    c = CechCocycle(cov, "finite", vals, windings={tri: 3})
    p = det_pushforward(c)
    assert all(v == Fraction(2, 5) for v in p.values.values())
    assert p.windings == {tri: 3}


def test_det_pushforward_ignores_unimodular_factors():
    # transitions e^{2 pi i (t_i - t_j)} a_i a_j^* with det(a) = 1: the
    # determinant class only sees the windings
    cov = Cover(octahedron())
    basis = lie_basis(special_unitary(2)).matrices
    a = {}
    for v in range(6):
        x = 0.3 * basis[v % len(basis)].a
        m = np.eye(2)
        term = np.eye(2)
        for k in range(1, 30):
            term = term @ x / k
            m = m + term
        a[v] = m
    theta = {v: Fraction(v, 7) for v in range(6)}
    tri = cov.complex.triangles()[2]
    edges = cov.complex.edges()

    def datum(with_su2):
        vals = {}
        for (i, j) in edges:
            ph = cmath.exp(2j * math.pi * float(theta[i] - theta[j]))
            m = a[i] @ a[j].conj().T if with_su2 else np.eye(2)
            vals[(i, j)] = ph * m
        return CechCocycle(cov, "finite", vals, windings={tri: 2})

    plain = circle_class(det_pushforward(datum(False)))
    dressed = circle_class(det_pushforward(datum(True)))
    assert plain == dressed
    assert plain == h2_integral(cov.complex).reduce({tri: 2})


# ---------------------------------------------------------------------------
# serialization


def test_cocycle_json_roundtrip_phase():
    cov = Cover(octahedron())
    tri = cov.complex.triangles()[1]
    c = _coboundary(cov, {0: Fraction(2, 9)}, windings={tri: -1})
    doc = c.to_json()
    assert any("/" in item["value"] for item in doc["values"])
    back = CechCocycle.from_json(doc, cov)
    assert back.values == c.values
    assert back.windings == c.windings
    assert circle_class(back) == circle_class(c)


def test_cocycle_json_roundtrip_finite():
    q8 = quaternion_group()
    cov = Cover(octahedron())
    els = q8.elements()
    vals = {e: els[(e[0] + e[1]) % len(els)].a for e in cov.complex.edges()}
    c = CechCocycle(cov, "finite", vals, group=q8)
    back = CechCocycle.from_json(c.to_json(), cov, group=q8)
    for e in cov.complex.edges():
        assert np.array_equal(back.value(*e).a, c.value(*e).a)


def test_complex_json_roundtrip():
    c = _rp2()
    back = SimplicialComplex.from_json(c.to_json())
    assert back == c
    assert h2_integral(back).torsion_orders == (2,)


def test_cover_basics():
    cov = Cover(octahedron())
    assert cov.patch_count == 6
    assert cov.overlap_pairs() == octahedron().edges()
    star0 = cov.patch(0)
    assert frozenset([0, 1, 2]) in star0
    assert frozenset([5]) not in star0


def test_cocycle_rejects_bad_input():
    cov = Cover(octahedron())
    with pytest.raises(ValueError):
        CechCocycle(cov, "phase", {(0, 5): Fraction(1, 2)})  # not an edge
    with pytest.raises(ValueError):
        CechCocycle(cov, "int", {(0, 1): 1}, windings={(0, 1, 2): 1})
    with pytest.raises(WrongKind):
        trivial_cocycle(cov, "phase").product(trivial_cocycle(cov, "int"))

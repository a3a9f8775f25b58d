"""Cech layer: Smith normal form, H^2, circle classes, witnesses."""

import cmath
import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from catbundle import (
    CechCocycle,
    IrrationalPhase,
    MissingValue,
    NotACocycle,
    NotInNormalizer,
    SearchCapExceeded,
    SimplicialComplex,
    Tolerance,
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
    snap_phases,
    special_unitary,
    trivial_cocycle,
)
from catbundle import basecech
from catbundle.basecech import PHASE_DENOMINATOR_BOUND
from cochain_oracle import (
    FractionCochain,
    exact_holonomies,
    loop_circle_class,
    loop_det_pushforward,
    loop_is_cocycle,
    loop_snap_phases,
)
from octahedra import annulus, barycentric, subdivided_octahedron
from witness_oracle import bfs_forest, propagation_equivalent, union_find_components


# ---------------------------------------------------------------------------
# Smith normal form


def _dense_snf(a, stats=None):
    """Dense reference Smith normal form: the oracle for the sparse one.

    Same pivot rule and operations as the library; returns the full
    m x n normal form and the dense transforms.  ``stats`` counts the
    non-unit pivots and stray-row folds taken.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    vinv = [[int(i == j) for j in range(n)] for i in range(n)]
    stats = {} if stats is None else stats

    def row_add(i, j, c):
        d[i] = [d[i][t] + c * d[j][t] for t in range(n)]
        u[i] = [u[i][t] + c * u[j][t] for t in range(m)]

    def col_add(i, j, c):
        for t in range(m):
            d[t][j] += c * d[t][i]
        vinv[i] = [vinv[i][t] - c * vinv[j][t] for t in range(n)]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for t in range(m):
            d[t][i], d[t][j] = d[t][j], d[t][i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_neg(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        p = d[t][t]
        if abs(p) != 1:
            stats["non_unit"] = stats.get("non_unit", 0) + 1
        for i in range(t + 1, m):
            if d[i][t]:
                row_add(i, t, -(d[i][t] // p))
        if any(d[i][t] for i in range(t + 1, m)):
            continue
        for j in range(t + 1, n):
            if d[t][j]:
                col_add(t, j, -(d[t][j] // p))
        if any(d[t][j] for j in range(t + 1, n)):
            continue
        stray = None
        for i in range(t + 1, m):
            if any(d[i][j] % p for j in range(t + 1, n)):
                stray = i
                break
        if stray is not None:
            stats["stray"] = stats.get("stray", 0) + 1
            row_add(t, stray, 1)
            continue
        if p < 0:
            row_neg(t)
        t += 1
    return d, u, vinv


def _sparse(a, cols):
    return [{j: x for j, x in enumerate(row) if x} for row in a], cols


def _dense(rows, cols):
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def _snf(a):
    """Dense <-> sparse adapter: the library primitive on a dense matrix,
    answered in the dense oracle's format (full normal form, dense transforms)."""
    m = len(a)
    n = len(a[0]) if m else 0
    diag, u, vinv = smith_normal_form(*_sparse(a, n))
    full = [[0] * n for _ in range(m)]
    for i, x in enumerate(diag):
        full[i][i] = x
    return full, _dense(u, m), _dense(vinv, n)


@pytest.mark.parametrize("shape", [(3, 3), (4, 6), (6, 4), (5, 5), (1, 1), (3, 5)])
def test_smith_normal_form_against_sympy(shape):
    rng = np.random.default_rng(0)
    a = rng.integers(-9, 10, size=shape).tolist()
    diag, u, vinv = _snf(a)
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
    diag, _, _ = _snf(a)
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
    diag, u, vinv = _snf([[0, 0], [0, 0], [0, 0]])
    assert all(diag[i][j] == 0 for i in range(3) for j in range(2))
    assert abs(Matrix(u).det()) == 1
    assert abs(Matrix(vinv).det()) == 1


def _assert_matches_oracle(a, stats=None):
    assert _snf(a) == tuple(_dense_snf(a, stats))


def test_smith_normal_form_matches_dense_oracle_on_random_matrices():
    rng = random.Random(11)
    # entry pools without units (or with few) force non-unit pivots and
    # stray rows that the pivot does not divide
    pools = [
        [0, 0, 0, 2, -2, 3, 4, -6, 6, 9],
        list(range(-12, 13)),
        [0, 0, 2, 4, -4, 6, 8, -10],
    ]
    stats = {}
    for _ in range(360):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        pool = rng.choice(pools)
        _assert_matches_oracle([[rng.choice(pool) for _ in range(n)] for _ in range(m)], stats)
    assert stats["non_unit"] > 100
    assert stats["stray"] > 10


def _cone(c):
    apex = c.vertices
    return SimplicialComplex.from_maximal(apex + 1, [t + (apex,) for t in c.triangles()])


def _coboundary_matrix(lower, upper):
    """Dense coboundary: one row per upper simplex, alternating signs over
    its codimension-one faces in increasing vertex order."""
    idx = {s: k for k, s in enumerate(lower)}
    rows = []
    for s in upper:
        row = [0] * len(lower)
        for k in range(len(s)):
            row[idx[s[:k] + s[k + 1:]]] += (-1) ** k
        rows.append(row)
    return rows


def _d1(c):
    return _coboundary_matrix(c.edges(), c.triangles())


def _d2(c):
    return _coboundary_matrix(c.triangles(), c.tetrahedra())


@pytest.mark.parametrize("times", [0, 1, 2])
def test_smith_normal_form_matches_dense_oracle_on_sphere_d1(times):
    c = subdivided_octahedron(times)
    assert c.vertices == (6, 26, 146)[times]
    _assert_matches_oracle(_d1(c))


def test_smith_normal_form_matches_dense_oracle_on_d2():
    solid = SimplicialComplex.from_maximal(4, [(0, 1, 2, 3)])
    _assert_matches_oracle(_d2(solid))
    cone = _cone(subdivided_octahedron(1))
    assert len(cone.tetrahedra()) == 48
    _assert_matches_oracle(_d2(cone))


def test_smith_normal_form_matches_dense_oracle_on_rp2():
    _assert_matches_oracle(_d1(_rp2()))


@pytest.mark.parametrize("rows, cols", [
    ([], 3),                                  # no rows
    ([{}, {}], 0),                            # no columns
    ([{0: 2, 2: -4}, {}, {1: 3}, {}], 3),     # all-zero rows among others
    ([{}, {}, {}], 4),                        # zero matrix
])
def test_smith_normal_form_edge_cases(rows, cols):
    diag, u, vinv = smith_normal_form(rows, cols)
    m = len(rows)
    assert len(diag) == min(m, cols) and len(u) == m and len(vinv) == cols
    full = Matrix.zeros(m, cols)
    for i, x in enumerate(diag):
        full[i, i] = x
    a = Matrix(m, cols, [x for row in _dense(rows, cols) for x in row])
    mu = Matrix(m, m, [x for row in _dense(u, m) for x in row])
    mv = Matrix(cols, cols, [x for row in _dense(vinv, cols) for x in row])
    assert mu * a == full * mv
    assert abs(mu.det()) == 1
    assert abs(mv.det()) == 1


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


def test_simplex_lists_are_formed_once_and_immutable():
    c = _cone(subdivided_octahedron(1))
    for k, get in enumerate((lambda: c.simplices_of_dim(0), c.edges, c.triangles, c.tetrahedra)):
        first = get()
        assert first == tuple(sorted(tuple(sorted(s)) for s in c.simplices if len(s) == k + 1))
        assert get() is first and c.simplices_of_dim(k) is first
        assert isinstance(first, tuple) and all(isinstance(s, tuple) for s in first)
        with pytest.raises(TypeError):
            first[0] = (0,)
    assert len(c.tetrahedra()) == 48


def test_position_tables_are_formed_once_and_read_only():
    c = _cone(subdivided_octahedron(1))
    for k in range(4):
        pos = c.positions(k)
        assert c.positions(k) is pos
        assert list(pos) == list(c.simplices_of_dim(k)) and list(pos.values()) == list(range(len(pos)))
        with pytest.raises(TypeError):
            pos[(0,) * (k + 1)] = 0
    table = c.triangle_edges()
    assert c.triangle_edges() is table and not table.flags.writeable
    edges = c.edges()
    assert [(edges[a], edges[b], edges[e]) for a, b, e in table] == [
        ((i, j), (j, k), (i, k)) for i, j, k in c.triangles()
    ]


def _forest_cases():
    """Connected bases, two disjoint spheres, a sphere beside isolated
    vertices, vertices with no edge at all, and a relabelled base whose
    components interleave their vertices."""
    faces = octahedron().triangles()
    two = SimplicialComplex.from_maximal(12, list(faces) + [tuple(v + 6 for v in f) for f in faces])
    mixed = SimplicialComplex.from_maximal(9, list(faces) + [(6,), (7, 8)])
    points = SimplicialComplex(4, [[v] for v in range(4)])
    # even vertices on one triangle, odd ones on a path
    woven = SimplicialComplex.from_maximal(7, [(0, 2, 4), (6, 4), (1, 5), (5, 3)])
    return [octahedron(), subdivided_octahedron(1), annulus(5), _cone(octahedron()), two, mixed, points, woven]


@pytest.mark.parametrize("k", range(8))
def test_spanning_forest_matches_the_bfs_oracle(k):
    c = _forest_cases()[k]
    assert c.components() == union_find_components(c)
    assert [(root, list(tree)) for root, tree in c.spanning_forest()] == bfs_forest(c)
    # one tree edge per non-root vertex
    assert sum(len(tree) for _, tree in c.spanning_forest()) == c.vertices - len(c.components())


def test_spanning_forest_is_one_frozen_memo():
    c = SimplicialComplex.from_maximal(7, [(0, 2, 4), (6, 4), (1, 5), (5, 3)])
    forest = c.spanning_forest()
    assert c.spanning_forest() is forest
    assert forest == ((0, ((0, 2), (0, 4), (4, 6))), (1, ((1, 5), (5, 3))))
    assert isinstance(forest, tuple) and all(isinstance(tree, tuple) for _, tree in forest)
    with pytest.raises(TypeError):
        forest[0] = (0, ())
    with pytest.raises(TypeError):
        forest[0][1][0] = (0, 1)
    # components are formed from it, each call a fresh list
    comps = c.components()
    assert comps == [[0, 2, 4, 6], [1, 3, 5]] and c.components() is not comps


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


def test_h2_summary_is_shared_by_equal_complexes(monkeypatch):
    import catbundle.basecech as basecech_module

    calls = []
    snf = basecech_module.smith_normal_form

    def counted(a, cols):
        calls.append(cols)
        return snf(a, cols)

    monkeypatch.setattr(basecech_module, "_H2", {})
    monkeypatch.setattr(basecech_module, "smith_normal_form", counted)
    a, b = _rp2(), _rp2()
    assert a is not b and a == b
    assert h2_integral(a) is h2_integral(b)
    assert calls == [len(a.edges())]


def test_h2_rejects_high_dimension():
    c = SimplicialComplex.from_maximal(5, [(0, 1, 2, 3, 4)])
    with pytest.raises(WrongKind):
        h2_integral(c)


def test_reduce_rejects_non_closed_cochain():
    solid = SimplicialComplex.from_maximal(4, [(0, 1, 2, 3)])
    s = h2_integral(solid)
    with pytest.raises(NotACocycle):
        s.reduce({(0, 1, 2): 1})


@pytest.mark.parametrize("n", [1, -2, 5])
def test_h2_large_sphere_counts_planted_winding(n):
    # three subdivisions of the octahedron: 866 vertices, 1728 triangles
    c = subdivided_octahedron(3)
    assert (c.vertices, len(c.edges()), len(c.triangles())) == (866, 2592, 1728)
    s = h2_integral(c)
    assert s.free_rank == 1
    assert s.torsion_orders == ()
    cls = s.reduce({c.triangles()[len(c.triangles()) // 2]: n})
    assert cls.torsion == ()
    assert tuple(abs(x) for x in cls.free) == (abs(n),)


def test_h2_subdivided_projective_plane_keeps_torsion_two():
    c = barycentric(_rp2())
    s = h2_integral(c)
    assert s.free_rank == 0
    assert s.torsion_orders == (2,)
    cls = s.reduce({c.triangles()[0]: 1})
    assert cls.torsion == (1,)
    assert (cls + cls).is_zero()


def test_h2_cone_over_large_sphere_is_acyclic():
    cone = _cone(subdivided_octahedron(2))
    assert cone.dim == 3 and len(cone.tetrahedra()) == 288
    s = h2_integral(cone)
    assert s.free_rank == 0
    assert s.torsion_orders == ()
    # the coboundary of an edge indicator is closed and reduces to zero
    edge = cone.edges()[7]
    z = {t: (-1) ** k for t in cone.triangles() for k in range(3) if t[:k] + t[k + 1:] == edge}
    cls = s.reduce(z)
    assert cls.free == () and cls.torsion == ()
    with pytest.raises(NotACocycle):
        s.reduce({cone.triangles()[0]: 1})


def test_h2_sphere_with_attached_tetrahedron_counts_winding():
    # a solid tetrahedron glued to the octahedron along one face leaves
    # H^2 = Z, whose classes now pass through the kernel of delta2
    c = SimplicialComplex.from_maximal(7, list(octahedron().triangles()) + [(0, 1, 2, 6)])
    assert c.dim == 3
    s = h2_integral(c)
    assert s.free_rank == 1
    assert s.torsion_orders == ()
    cls = s.reduce({(3, 4, 5): -3})
    assert cls.torsion == ()
    assert tuple(abs(x) for x in cls.free) == (3,)


# ---------------------------------------------------------------------------
# circle classes


def _coboundary(cover, theta, windings=None):
    vals = {(i, j): theta.get(i, Fraction(0)) - theta.get(j, Fraction(0))
            for (i, j) in cover.edges()}
    return CechCocycle(cover, "phase", vals, windings=windings)


def test_circle_class_of_trivial_is_zero():
    cov = octahedron()
    assert circle_class(trivial_cocycle(cov, "phase")).is_zero()


def test_circle_class_counts_windings():
    cov = octahedron()
    tri = cov.triangles()[0]
    c = _coboundary(cov, {}, windings={tri: 1})
    cls = circle_class(c)
    assert cls.torsion == ()
    assert tuple(abs(x) for x in cls.free) == (1,)


def test_circle_class_additive_under_product():
    cov = octahedron()
    t0, t1 = cov.triangles()[:2]
    a = _coboundary(cov, {0: Fraction(1, 3)}, windings={t0: 1})
    b = _coboundary(cov, {2: Fraction(1, 5)}, windings={t1: 2})
    assert circle_class(a.product(b)) == circle_class(a) + circle_class(b)


def test_circle_class_requires_cocycle():
    cov = octahedron()
    vals = {e: Fraction(0) for e in cov.edges()}
    vals[(0, 1)] = Fraction(1, 3)
    c = CechCocycle(cov, "phase", vals)
    assert not is_cocycle(c)
    with pytest.raises(NotACocycle):
        circle_class(c)


def test_circle_class_wrong_kind():
    cov = octahedron()
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
    cov = octahedron()
    tris = cov.triangles()
    w = {t: n for t, n in zip(tris, winds) if n}
    c = _coboundary(cov, dict(enumerate(theta)), windings=w)
    assert circle_class(c) == h2_integral(cov).reduce(w)


# ---------------------------------------------------------------------------
# equivalence witnesses


def test_equivalent_phase_witness():
    cov = octahedron()
    theta = {0: Fraction(1, 3), 1: Fraction(1, 4), 5: Fraction(-2, 7)}
    c = _coboundary(cov, theta)
    c2 = trivial_cocycle(cov, "phase")
    w = equivalent(c, c2)
    assert w is not None
    for (i, j) in cov.edges():
        resid = w[i] - w[j] - (c.value(i, j) - c2.value(i, j))
        assert resid.denominator == 1


def test_equivalent_phase_none_on_class_mismatch():
    cov = octahedron()
    tri = cov.triangles()[0]
    c = _coboundary(cov, {}, windings={tri: 1})
    assert equivalent(c, trivial_cocycle(cov, "phase")) is None


def test_equivalent_int_kind():
    cov = octahedron()
    m = {0: 3, 1: -1, 4: 2}
    vals = {(i, j): m.get(i, 0) - m.get(j, 0) for (i, j) in cov.edges()}
    c = CechCocycle(cov, "int", vals)
    c2 = trivial_cocycle(cov, "int")
    w = equivalent(c, c2)
    assert w is not None
    for (i, j) in cov.edges():
        assert w[i] - w[j] == c.value(i, j)
    # a 1 on a single edge is not a coboundary
    bad = {e: 0 for e in cov.edges()}
    bad[(1, 2)] = 1
    assert equivalent(CechCocycle(cov, "int", bad), c2) is None


def test_equivalent_finite_with_group():
    q8 = quaternion_group()
    cov = octahedron()
    els = q8.elements()
    u = {v: els[(2 * v + 1) % len(els)] for v in range(6)}
    vals = {(i, j): u[i] @ u[j].conj().T for (i, j) in cov.edges()}
    c = CechCocycle(cov, "finite", vals, group=q8)
    c2 = trivial_cocycle(cov, "finite", group=q8)
    w = equivalent(c, c2)
    assert w is not None
    for (i, j) in cov.edges():
        lhs = w[i] @ c2.value(i, j)
        rhs = c.value(i, j) @ w[j]
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_equivalent_none_for_nontrivial_holonomy():
    # a bare 3-cycle has no triangles, so the only obstruction is holonomy
    circ = SimplicialComplex.from_maximal(3, [(0, 1), (1, 2), (0, 2)])
    cov = circ
    c = CechCocycle(cov, "finite", {
        (0, 1): np.eye(2), (1, 2): np.eye(2), (0, 2): -np.eye(2)})
    assert equivalent(c, trivial_cocycle(cov, "finite", degree=2)) is None


def test_equivalent_search_cap():
    q8 = quaternion_group()
    cov = octahedron()
    els = q8.elements()
    u = {v: els[v % len(els)] for v in range(6)}
    vals = {(i, j): u[i] @ u[j].conj().T for (i, j) in cov.edges()}
    c = CechCocycle(cov, "finite", vals, group=q8)
    with pytest.raises(SearchCapExceeded):
        equivalent(c, trivial_cocycle(cov, "finite", group=q8), search_cap=3)


def _q8_coboundary_without_group():
    els = quaternion_group().elements()
    cov = octahedron()
    u = {v: els[v % len(els)] for v in range(6)}
    vals = {(i, j): u[i] @ u[j].conj().T for (i, j) in cov.edges()}
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


@pytest.mark.parametrize("coeff", ["phase", "int"])
def test_equivalent_budget_is_one_root_plus_the_propagated_vertices(coeff):
    # one root candidate, 0, on the single component: 1 + 5 units
    cov = annulus(3)
    c = trivial_cocycle(cov, coeff)
    assert equivalent(c, c, search_cap=6) == {v: 0 for v in range(6)}
    with pytest.raises(SearchCapExceeded):
        equivalent(c, c, search_cap=5)


def test_equivalent_modulo_needs_c2_in_the_normalizer():
    # the twist-free search is exact only when every value of c2 normalizes
    # the quotient group; a generic rotation does not normalize Q8
    cov = annulus(3)
    c = trivial_cocycle(cov, "finite", degree=2)
    vals = {e: np.eye(2) for e in cov.edges()}
    vals[(0, 1)] = math.cos(0.3) * np.eye(2) + 1j * math.sin(0.3) * np.array([[0, 1], [1, 0]])
    c2 = CechCocycle(cov, "finite", vals)
    with pytest.raises(NotInNormalizer):
        equivalent(c, c2, modulo=quaternion_group())
    # the same rotation in c: rejected up front, before a closure of
    # infinite order is enumerated up to the search cap
    with pytest.raises(NotInNormalizer):
        equivalent(c2, c, modulo=quaternion_group())


def test_equivalent_on_isolated_vertices_returns_identity_witnesses():
    # a base without edges keeps the degree it is given: a (0, 2, 2) stack
    points = SimplicialComplex(2, [[0], [1]])
    c = trivial_cocycle(points, "finite", degree=2)
    assert c.degree() == 2 and c.values.shape == (0, 2, 2)
    for modulo in (None, quaternion_group()):
        w = equivalent(c, c, modulo=modulo)
        assert list(w) == [0, 1]
        assert all(np.array_equal(u, np.eye(2)) for u in w.values())
    # with no degree given there is none to take
    with pytest.raises(MissingValue):
        CechCocycle(points, "finite", {}).degree()


def _cech_engine_pairs(pairs=10, seed=7):
    """Phase pairs made as ``verify.cech_engine_checks`` makes them: a
    coboundary with random windings, and its product with a second
    coboundary."""
    cov = octahedron()
    rng = np.random.default_rng(seed)

    def cochain():
        return {v: Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 9))) for v in range(6)}

    for _ in range(pairs):
        theta = cochain()
        w = {t: int(rng.integers(-2, 3)) for t in cov.triangles() if rng.integers(0, 2)}
        c = _coboundary(cov, theta, windings=w)
        yield c, c.product(_coboundary(cov, cochain()))


def _abelian_pairs():
    cov = octahedron()
    pairs = list(_cech_engine_pairs())
    # a class mismatch: equal flat parts, one winding apart
    pairs.append((_coboundary(cov, {}, windings={cov.triangles()[0]: 1}), trivial_cocycle(cov, "phase")))
    m = {0: 3, 1: -1, 4: 2}
    good = CechCocycle(cov, "int", {(i, j): m.get(i, 0) - m.get(j, 0) for (i, j) in cov.edges()})
    pairs.append((good, trivial_cocycle(cov, "int")))
    # a bad integer edge: 1 on (1, 2) is not a coboundary
    bad = {e: 0 for e in cov.edges()} | {(1, 2): 1}
    pairs.append((CechCocycle(cov, "int", bad), trivial_cocycle(cov, "int")))
    # two components, phases on both
    two = SimplicialComplex.from_maximal(12, list(cov.triangles()) + [tuple(v + 6 for v in t) for t in cov.triangles()])
    theta = {v: Fraction(v, 7) for v in range(12)}
    pairs.append((_coboundary(two, theta), trivial_cocycle(two, "phase")))
    return pairs


def _outcome(f, *args, **kw):
    try:
        return f(*args, **kw)
    except SearchCapExceeded:
        return SearchCapExceeded


@pytest.mark.parametrize("k", range(14))
def test_abelian_witnesses_match_the_propagation_oracle(k):
    c, c2 = _abelian_pairs()[k]
    want = propagation_equivalent(c, c2)
    got = equivalent(c, c2)
    assert got == want
    if want is not None:
        assert [type(x) for x in got.values()] == [type(x) for x in want.values()]
    # one root candidate: the budget runs out at the same caps
    for cap in range(1, c.complex.vertices + 2):
        assert _outcome(equivalent, c, c2, search_cap=cap) == _outcome(propagation_equivalent, c, c2, search_cap=cap)


def test_abelian_oracle_pairs_cover_both_verdicts():
    verdicts = [equivalent(c, c2) is None for c, c2 in _abelian_pairs()]
    assert verdicts.count(True) == 2 and verdicts.count(False) == 12


def _holonomy_cases():
    cov = octahedron()
    els = quaternion_group().elements()
    two = SimplicialComplex.from_maximal(9, list(cov.triangles()) + [(6,), (7, 8)])
    theta = {v: Fraction(v * v, 11) for v in range(9)}
    return {
        "phase": _coboundary(two, theta, windings={cov.triangles()[2]: 1}),
        "int": CechCocycle(two, "int", {e: (3 * e[0] - e[1]) % 5 for e in two.edges()}),
        "q8": CechCocycle(two, "finite", {e: els[(e[0] + 2 * e[1]) % 8] for e in two.edges()}),
        "edgeless": trivial_cocycle(SimplicialComplex(3, [[0], [1], [2]]), "finite", degree=2),
    }


@pytest.mark.parametrize("kind", ["phase", "int", "q8", "edgeless"])
def test_holonomy_table_is_one_read_only_memo_along_the_forest(kind):
    c = _holonomy_cases()[kind]
    frames, hol = table = c.holonomies()
    assert c.holonomies() is table
    n, edges = c.complex.vertices, c.complex.edges()
    assert len(frames) == n and len(hol) == len(edges)
    for a in table:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[:1] = a[:1]
    finite = c.coeff == "finite"
    if not finite:
        # integer numerators over the cocycle's one denominator
        assert frames.dtype == hol.dtype == np.int64
        frames, hol = ([Fraction(int(x), c.denominator) for x in a] for a in table)
    tree = set()
    for root, order in c.complex.spanning_forest():
        assert np.array_equal(frames[root], np.eye(2)) if finite else frames[root] == 0
        for pv, cv in order:
            step = c.value(cv, pv) @ frames[pv] if finite else c.value(cv, pv) + frames[pv]
            assert np.array_equal(frames[cv], step)
            tree.add((min(pv, cv), max(pv, cv)))
    pos = c.complex.positions(1)
    on_tree = [pos[e] for e in sorted(tree)]
    if finite:
        assert np.abs(hol[on_tree] - np.eye(2)).max(initial=0.0) <= 1e-12
    else:
        assert all(hol[a] == 0 for a in on_tree)
        for (i, j), h in zip(edges, hol):
            assert h == c.value(i, j) - frames[i] + frames[j]


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
    cov = octahedron()
    q = Fraction(1, 5)
    vals = {e: cmath.exp(2j * math.pi * float(q)) * np.eye(2)
            for e in cov.edges()}
    tri = cov.triangles()[0]
    c = CechCocycle(cov, "finite", vals, windings={tri: 3})
    p = det_pushforward(c)
    assert all(v == Fraction(2, 5) and isinstance(v, Fraction) for v in p.values)
    assert p.windings == {tri: 3}


def test_det_pushforward_ignores_unimodular_factors():
    # transitions e^{2 pi i (t_i - t_j)} a_i a_j^* with det(a) = 1: the
    # determinant class only sees the windings
    cov = octahedron()
    basis = lie_basis(special_unitary(2)).matrices
    a = {}
    for v in range(6):
        x = 0.3 * basis[v % len(basis)]
        m = np.eye(2)
        term = np.eye(2)
        for k in range(1, 30):
            term = term @ x / k
            m = m + term
        a[v] = m
    theta = {v: Fraction(v, 7) for v in range(6)}
    tri = cov.triangles()[2]
    edges = cov.edges()

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
    assert plain == h2_integral(cov).reduce({tri: 2})


# ---------------------------------------------------------------------------
# serialization


def test_cocycle_json_roundtrip_phase():
    cov = octahedron()
    tri = cov.triangles()[1]
    c = _coboundary(cov, {0: Fraction(2, 9)}, windings={tri: -1})
    doc = c.to_json()
    assert any("/" in item["value"] for item in doc["values"])
    back = CechCocycle.from_json(doc, cov)
    assert list(back.values) == list(c.values)
    assert back.windings == c.windings
    assert circle_class(back) == circle_class(c)


def test_cocycle_json_roundtrip_finite():
    q8 = quaternion_group()
    cov = octahedron()
    els = q8.elements()
    vals = {e: els[(e[0] + e[1]) % len(els)] for e in cov.edges()}
    c = CechCocycle(cov, "finite", vals, group=q8)
    back = CechCocycle.from_json(c.to_json(), cov, group=q8)
    for e in cov.edges():
        assert np.array_equal(back.value(*e), c.value(*e))


def test_complex_json_roundtrip():
    c = _rp2()
    back = SimplicialComplex.from_json(c.to_json())
    assert back == c
    assert h2_integral(back).torsion_orders == (2,)


def test_cover_basics():
    cov = octahedron()
    assert cov.vertices == 6
    assert cov.edges() == octahedron().edges()
    star0 = octahedron().star(0)
    assert frozenset([0, 1, 2]) in star0
    assert frozenset([5]) not in star0


def test_cocycle_rejects_bad_input():
    cov = octahedron()
    with pytest.raises(ValueError):
        CechCocycle(cov, "phase", {(0, 5): Fraction(1, 2)})  # not an edge
    with pytest.raises(ValueError):
        CechCocycle(cov, "int", {(0, 1): 1}, windings={(0, 1, 2): 1})
    with pytest.raises(WrongKind):
        trivial_cocycle(cov, "phase").product(trivial_cocycle(cov, "int"))


# ---------------------------------------------------------------------------
# edge-ordered value arrays


def test_cocycle_needs_a_value_on_every_edge():
    cov = octahedron()
    vals = {e: Fraction(0) for e in cov.edges()[1:]}
    with pytest.raises(ValueError, match="no value on overlap"):
        CechCocycle(cov, "phase", vals)
    c = CechCocycle(cov, "phase", {(j, i): v for (i, j), v in vals.items()} | {(0, 1): 0})
    with pytest.raises(MissingValue):
        c.value(0, 5)  # not an edge
    with pytest.raises(MissingValue):
        c.value(2, 2)


def _one_cocycle_per_kind():
    cov = octahedron()
    els = quaternion_group().elements()
    edges = cov.edges()
    return cov, [
        CechCocycle(cov, "finite", {e: els[(3 * a) % len(els)] for a, e in enumerate(edges)}),
        _coboundary(cov, {0: Fraction(1, 3), 4: Fraction(-5, 7)}),
        CechCocycle(cov, "int", {e: a - 5 for a, e in enumerate(edges)}),
    ]


def test_cocycle_values_are_one_read_only_edge_ordered_array():
    cov, cocycles = _one_cocycle_per_kind()
    for c in cocycles:
        assert len(c.values) == len(cov.edges()) and not c.values.flags.writeable
        with pytest.raises(ValueError):
            c.values[0] = c.values[1]
        for (i, j), v in zip(cov.edges(), c.values):
            assert c.value(i, j) is v or np.shares_memory(c.value(i, j), c.values)
            back = c.value(j, i)
            if c.coeff == "finite":
                assert np.array_equal(back, v.conj().T) and not back.flags.writeable
                with pytest.raises(ValueError):
                    back[0, 0] = 0.0
            else:
                assert back == -v and type(back) is type(v)
                assert isinstance(v, Fraction if c.coeff == "phase" else int)


def test_cocycle_values_taken_in_either_orientation():
    cov, cocycles = _one_cocycle_per_kind()
    for c in cocycles:
        flipped = CechCocycle(cov, c.coeff, {(j, i): c.value(j, i) for (i, j) in cov.edges()})
        assert all(np.array_equal(a, b) for a, b in zip(flipped.values, c.values))


def test_phase_values_stay_fractions_under_product_and_pushforward():
    cov, (fin, phase, _) = _one_cocycle_per_kind()
    for c in (phase.product(phase), det_pushforward(fin)):
        assert all(isinstance(v, Fraction) for v in c.values)
    assert list(phase.product(phase).values) == [2 * v for v in phase.values]


_BASES = {"octahedron": octahedron(), "rp2": _rp2()}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_array_routes_match_the_loops_on_phase_cochains(data):
    # a coboundary with lifts shifted by integers, windings, and sometimes
    # a few edges pushed off the cocycle identity
    cov = _BASES[data.draw(st.sampled_from(sorted(_BASES)))]
    edges, tris = cov.edges(), cov.triangles()
    small = st.fractions(min_value=-2, max_value=2, max_denominator=12)
    theta = data.draw(st.lists(small, min_size=cov.vertices, max_size=cov.vertices))
    shift = data.draw(st.lists(st.integers(-2, 2), min_size=len(edges), max_size=len(edges)))
    winds = data.draw(st.lists(st.integers(-3, 3), min_size=len(tris), max_size=len(tris)))
    pushed = data.draw(st.dictionaries(st.sampled_from(edges), small, max_size=2))
    vals = {
        (i, j): theta[i] - theta[j] + n + pushed.get((i, j), 0)
        for (i, j), n in zip(edges, shift)
    }
    c = CechCocycle(cov, "phase", vals, windings=dict(zip(tris, winds)))
    check = is_cocycle(c)
    assert check == loop_is_cocycle(c)
    if check:
        assert circle_class(c) == loop_circle_class(c)
    # diag(e^(2 pi i q), e^(2 pi i t)) has determinant phase q + t
    fin = CechCocycle(cov, "finite", {
        (i, j): np.diag([cmath.exp(2j * math.pi * float(q)), cmath.exp(2j * math.pi * float(theta[j]))])
        for (i, j), q in vals.items()
    }, windings=c.windings)
    pushed_forward, oracle = det_pushforward(fin), loop_det_pushforward(fin)
    assert pushed_forward.to_json() == oracle.to_json()
    assert all(isinstance(v, Fraction) for v in pushed_forward.values)


def _abelian_cochain(data, cov, kind):
    """Values on every edge, keyed in either orientation: a coboundary with
    integer lift shifts and sometimes a few edges pushed off the cocycle
    identity, plus windings for phases."""
    edges, tris = cov.edges(), cov.triangles()
    small = st.fractions(min_value=-2, max_value=2, max_denominator=12) if kind == "phase" else st.integers(-3, 3)
    theta = data.draw(st.lists(small, min_size=cov.vertices, max_size=cov.vertices))
    shift = data.draw(st.lists(st.integers(-2, 2), min_size=len(edges), max_size=len(edges)))
    flip = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    pushed = data.draw(st.dictionaries(st.sampled_from(edges), small, max_size=2))
    vals = {}
    for (i, j), n, f in zip(edges, shift, flip):
        v = theta[i] - theta[j] + n + pushed.get((i, j), 0)
        vals.update({(j, i): -v} if f else {(i, j): v})
    winds = data.draw(st.lists(st.integers(-3, 3), min_size=len(tris), max_size=len(tris)))
    return vals, dict(zip(tris, winds)) if kind == "phase" else None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_routes_match_the_fraction_oracle(data):
    cov = _BASES[data.draw(st.sampled_from(sorted(_BASES)))]
    kind = data.draw(st.sampled_from(["phase", "int"]))
    (vals, w), (vals2, w2) = _abelian_cochain(data, cov, kind), _abelian_cochain(data, cov, kind)
    c, c2 = CechCocycle(cov, kind, vals, windings=w), CechCocycle(cov, kind, vals2, windings=w2)
    f, f2 = FractionCochain(cov, kind, vals, windings=w), FractionCochain(cov, kind, vals2, windings=w2)
    for ours, oracle in ((c, f), (c2, f2), (c.product(c2), f.product(f2))):
        assert ours.numerators.dtype == np.int64
        assert list(ours.values) == list(oracle.values)
        assert all(type(v) is (Fraction if kind == "phase" else int) for v in ours.values)
        assert json.dumps(ours.to_json()) == json.dumps(oracle.to_json())
        assert exact_holonomies(ours) == oracle.holonomies()
        assert is_cocycle(ours) == loop_is_cocycle(oracle)
    if loop_is_cocycle(f) and loop_is_cocycle(f2):
        got = equivalent(c, c2)
        assert got == propagation_equivalent(f, f2)
        if got is not None:
            assert all(type(v) is (Fraction if kind == "phase" else int) for v in got.values())


_PRIMES = (331, 337, 347, 349, 353, 359, 367, 373)


@pytest.mark.parametrize("count", [8, 7])
def test_numerators_past_int64_take_python_ints(count):
    # eight primes: the lcm passes 2^63; seven: the numerators fit int64,
    # but with integer shifts up to 14 their triangle sums pass 2^63
    primes = _PRIMES[:count]
    cov = subdivided_octahedron(1)
    tris = cov.triangles()

    def cochain(k):
        theta = {v: Fraction(3 * v + k, primes[(v + k) % count]) for v in range(cov.vertices)}
        return {(i, j): theta[i] - theta[j] + (i * j) % 15 for (i, j) in cov.edges()}

    w = {tris[0]: 2, tris[5]: -1}
    c = CechCocycle(cov, "phase", cochain(1), windings=w)
    c2 = c.product(CechCocycle(cov, "phase", cochain(4)))
    f = FractionCochain(cov, "phase", cochain(1), windings=w)
    f2 = f.product(FractionCochain(cov, "phase", cochain(4)))
    assert c.denominator == math.prod(primes) and (math.prod(primes) > 2 ** 63) == (count == 8)
    for ours, oracle in ((c, f), (c2, f2)):
        assert list(ours.values) == list(oracle.values)
        assert json.dumps(ours.to_json()) == json.dumps(oracle.to_json())
        assert exact_holonomies(ours) == oracle.holonomies()
        assert circle_class(ours) == loop_circle_class(oracle)
    assert circle_class(c) == h2_integral(cov).reduce(w)
    want = propagation_equivalent(f, f2)
    assert want is not None and equivalent(c, c2) == want
    assert c.numerators.dtype == c2.numerators.dtype == object


def _right_neighbour(q):
    """The least rational above q with denominator <= PHASE_DENOMINATOR_BOUND."""
    return min(Fraction(q.numerator * b // q.denominator + 1, b) for b in range(1, PHASE_DENOMINATOR_BOUND + 1))


@st.composite
def _snap_cases(draw):
    """Rationals of denominator <= 360 on the circle, moved just inside or
    just outside the exp check, the hit window or the unit-circle check,
    or put midway between two neighbouring rationals."""
    # below 1e-12 the exp check's bound stays 1e-12 and the unit-circle
    # check alone can fail
    tau = draw(st.sampled_from([1e-13, 1e-9, 1e-3]))
    t = max(tau, 1e-12)
    zs = []
    for _ in range(draw(st.integers(1, 8))):
        b = draw(st.integers(1, PHASE_DENOMINATOR_BOUND))
        q = Fraction(draw(st.integers(-b, b)), b)
        kind = draw(st.sampled_from(["exact", "chord", "window", "tie", "radius"]))
        side = draw(st.sampled_from([-1, 1]))
        edge = 1 + draw(st.sampled_from([-1, 1])) * draw(st.floats(1e-6, 1e-2))
        ang, r = float(q), 1.0
        if kind == "chord":  # |exp(2 pi i q) - z| = t * edge
            ang += side * math.asin(t * edge / 2) / math.pi
        elif kind == "window":  # |x - q| = 2 t * edge
            ang += side * 2 * t * edge
        elif kind == "tie":
            ang = float((q + _right_neighbour(q)) / 2)
        elif kind == "radius":  # ||z| - 1| = tau * edge
            r += side * tau * edge
        zs.append(r * cmath.exp(2j * math.pi * ang))
    return tau, zs


def _snap_outcome(f, zs, tol):
    try:
        return f(zs, tol)
    except IrrationalPhase as exc:
        return str(exc)


def _stacked_snap(zs, tol):
    num, den = snap_phases(zs, tol)
    return [Fraction(n, den) for n in num.tolist()]


@settings(max_examples=300, deadline=None)
@given(_snap_cases())
def test_stacked_snap_matches_the_scalar_oracle(case):
    # the same phases, or IrrationalPhase on the same (first failing) value
    tau, zs = case
    tol = Tolerance(tau)
    assert _snap_outcome(_stacked_snap, zs, tol) == _snap_outcome(loop_snap_phases, zs, tol)
    for z in zs:  # each alone, so that every entry that passes is compared
        assert _snap_outcome(_stacked_snap, [z], tol) == _snap_outcome(loop_snap_phases, [z], tol)


def test_the_window_settles_every_hit_at_the_default_tolerance():
    rng = random.Random(5)
    dens = [rng.randint(1, PHASE_DENOMINATOR_BOUND) for _ in range(2000)]
    qs = [Fraction(rng.randint(-(b // 2), b // 2), b) for b in dens]
    # well inside the exp check: a chord of about t / 3
    zs = [cmath.exp(2j * math.pi * (float(q) + rng.choice([-1, 1]) * 5e-11)) for q in qs]
    with mock.patch.object(basecech, "snap_phase", side_effect=AssertionError("scalar route taken")):
        num, den = snap_phases(zs, Tolerance(1e-9))
    assert [Fraction(n, den) for n in num.tolist()] == [normalized_lift(q) for q in qs]
    # at the CLI ceiling every entry may admit a second rational
    with mock.patch.object(basecech, "snap_phase", wraps=basecech.snap_phase) as scalar:
        assert _stacked_snap(zs[:50], Tolerance(1e-3)) == loop_snap_phases(zs[:50], Tolerance(1e-3))
    assert scalar.call_count == 50

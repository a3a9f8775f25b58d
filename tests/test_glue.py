"""Glued categories: data validation, arrow spaces, classification, extraction."""

import contextlib
import importlib.util
import io
import json
import math
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from catbundle import (
    CapExceeded,
    CechCocycle,
    ConsistencyError,
    GluingDatum,
    GroupSpec,
    NotACocycleModG,
    NotInNormalizer,
    NotUnitary,
    RankDeficientVModule,
    SearchCapExceeded,
    SimplicialComplex,
    SizeCapExceeded,
    Tolerance,
    ToolkitError,
    WrongKind,
    as_matrix,
    cyclic_diagonal_group,
    extract_twisted_special,
    full_unitary,
    glued_space,
    glued_symmetry,
    h2_integral,
    hs_inner,
    isomorphic,
    norm_function,
    normalizer_classes,
    nullspace,
    octahedron,
    opnorm,
    power_action,
    quaternion_group,
    scalar_datum,
    snap_phase,
    special_unitary,
    GluedArrow,
    trivial_group,
)
from catbundle import cli, glue, groups
from catbundle.verify import su2_octa_datum
from glue_oracle import (
    arrow_functor_checks,
    arrow_residual,
    forest_holonomies,
    overlap_residuals,
    pushed,
    transport_sections,
    vertex_extraction,
)
from kronecker import kron_action
from octahedra import annulus, subdivided_octahedron
from witness_oracle import backtracking_equivalent, propagation_equivalent

HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

# multiplicity table of su(2) tensor powers on the 2-sphere base; scalar
# twists and windings never cut the section spaces down, so the glued
# dimensions reproduce the fibre ones
SU2_GLUED = {
    (0, 0): 1, (0, 1): 0, (0, 2): 1,
    (1, 0): 0, (1, 1): 1, (1, 2): 0,
    (2, 0): 1, (2, 1): 0, (2, 2): 2,
}


def _q8_coboundary(windings=None):
    q8 = quaternion_group()
    octa = octahedron()
    els = q8.elements()
    a = {v: els[(3 * v) % len(els)] for v in range(6)}
    trans = {(i, j): a[i] @ a[j].conj().T for (i, j) in octa.edges()}
    return GluingDatum(octa, q8, trans, windings=windings)


def _q8_trivial(base=None):
    base = base or octahedron()
    return GluingDatum(base, quaternion_group(), {e: np.eye(2) for e in base.edges()})


# ---------------------------------------------------------------------------
# datum validation


def test_datum_rejects_non_normalizer_transition():
    edge = SimplicialComplex.from_maximal(2, [(0, 1)])
    with pytest.raises(NotInNormalizer):
        GluingDatum(edge, cyclic_diagonal_group(), {(0, 1): HAD})


def test_datum_refuses_non_unitary_values():
    # 2 * 1 preserves every group under conjugation, but is not unitary
    cov = annulus(3)
    with pytest.raises(NotUnitary, match="normalizer candidate fails unitarity"):
        GluingDatum(cov, trivial_group(2), dict.fromkeys(cov.edges(), 2.0 * np.eye(2)))


def test_datum_needs_values_in_the_normalizer():
    # the twist-free witness search is exact only when every value
    # normalizes the fibre group; a generic rotation does not normalize
    # Q8, and as a search candidate its closure would be infinite
    cov = annulus(3)
    vals = {e: np.eye(2) for e in cov.edges()}
    vals[(0, 1)] = math.cos(0.3) * np.eye(2) + 1j * math.sin(0.3) * np.array([[0, 1], [1, 0]])
    with pytest.raises(NotInNormalizer):
        GluingDatum(cov, quaternion_group(), vals)


def test_datum_rejects_missing_transition():
    tri = SimplicialComplex.from_maximal(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match="no value on overlap"):
        GluingDatum(tri, trivial_group(2), {(0, 1): np.eye(2), (2, 1): np.eye(2)})


def test_datum_rejects_cocycle_defect_outside_group():
    tri = SimplicialComplex.from_maximal(3, [(0, 1, 2)])
    with pytest.raises(NotACocycleModG):
        GluingDatum(
            tri,
            trivial_group(2),
            {(0, 1): np.eye(2), (1, 2): np.eye(2), (0, 2): 1j * np.eye(2)},
        )


def test_mod_group_residual_vanishes_on_honest_data():
    assert su2_octa_datum(1).mod_group_residual() <= 1e-12
    assert _q8_coboundary().mod_group_residual() <= 1e-12


def test_datum_over_a_base_without_edges():
    # a base with no edges stores its cocycle values as a (0, d, d) stack
    point = SimplicialComplex(1, [[0]])
    d = GluingDatum(point, quaternion_group(), {})
    assert d.cocycle.values.shape == (0, 2, 2)
    assert d.mod_group_residual() == 0.0
    assert glued_space(d, 1, 1).dim == 1


def test_datum_json_roundtrip():
    d = su2_octa_datum(2, phases={0: Fraction(1, 3)})
    back = GluingDatum.from_json(d.to_json())
    assert back.group.kind == d.group.kind
    assert back.windings == d.windings
    for e in d.complex.edges():
        assert np.allclose(back.transition(*e), d.transition(*e))
    assert back.mod_group_residual() <= 1e-12


@pytest.mark.parametrize("base", ["octahedron", "point"])
def test_from_json_builds_the_cocycle_once(base, monkeypatch):
    if base == "point":
        d = GluingDatum(SimplicialComplex(1, [[0]]), quaternion_group(), {})
    else:
        d = su2_octa_datum(2, phases={0: Fraction(1, 3)})
    doc = d.to_json()
    init, built = CechCocycle.__init__, []

    def counted(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(CechCocycle, "__init__", counted)
    back = GluingDatum.from_json(doc)
    assert built == [back.cocycle]
    monkeypatch.undo()
    # the same datum as a second construction from the values read
    c = CechCocycle.from_json(doc["cocycle"], d.complex)
    twice = GluingDatum(d.complex, d.group, zip(d.complex.edges(), c.values), windings=c.windings)
    assert back.cocycle.values.shape == twice.cocycle.values.shape == d.cocycle.values.shape
    assert json.dumps(back.to_json()) == json.dumps(twice.to_json())


# ---------------------------------------------------------------------------
# glued spaces


@pytest.mark.parametrize("twist", [0, 1, "phases"])
def test_glued_dims_insensitive_to_twist(twist):
    if twist == "phases":
        d = su2_octa_datum(1, phases={v: Fraction(v, 8) for v in range(6)})
    else:
        d = su2_octa_datum(twist)
    assert {rs: glued_space(d, *rs).dim for rs in SU2_GLUED} == SU2_GLUED


def _quarter_twist_circle():
    circ = SimplicialComplex.from_maximal(3, [(0, 1), (1, 2), (0, 2)])
    return GluingDatum(
        circ,
        special_unitary(2),
        {(0, 1): np.eye(2), (1, 2): np.eye(2), (0, 2): np.diag([1.0, 1j])},
    )


def test_glued_space_can_be_cut_to_zero():
    # a quarter twist around a closed edge path leaves no invariant line
    d = _quarter_twist_circle()
    assert glued_space(d, 0, 2).dim == 0
    with pytest.raises(RankDeficientVModule):
        extract_twisted_special(d)


def test_glued_arrows_satisfy_overlap_matching():
    d = su2_octa_datum(1, phases={v: Fraction(v, 8) for v in range(6)})
    for rs in SU2_GLUED:
        for arrow in glued_space(d, *rs).arrows:
            assert arrow.compatibility_residual() <= 1e-9


def test_arrow_operations_stay_glued():
    d = su2_octa_datum(1, phases={v: Fraction(v, 8) for v in range(6)})
    a = glued_space(d, 1, 1).arrows[0]
    b = glued_space(d, 2, 2).arrows[0]
    for out in [
        a.compose(a),
        a.adjoint(),
        a.tensor(a),
        a.tensor(b),
        a + a,
        a - 0.5 * a,
        2.0j * a,
    ]:
        assert out.compatibility_residual() <= 1e-9
    assert a.compose(a).r == 1 and a.compose(a).s == 1
    assert a.tensor(b).r == 3 and a.tensor(b).s == 3
    with pytest.raises(ValueError):
        a.compose(b)
    with pytest.raises(ValueError):
        a + b


def test_identity_and_symmetry_are_glued():
    d = su2_octa_datum(1)
    th = glued_symmetry(1, 1, d)
    assert th.compatibility_residual() <= 1e-12
    # braiding squares to the identity on matched powers
    assert np.abs(th.compose(th).components - np.eye(4)).max() <= 1e-12


def test_norm_function_sup_formula():
    d = su2_octa_datum(1, phases={v: Fraction(v, 8) for v in range(6)})
    a = glued_space(d, 2, 2).arrows[-1]
    b = glued_space(d, 2, 2).arrows[0]
    arrow = a + 0.7j * b
    report = norm_function(arrow)
    assert set(report["per_vertex"]) == set(range(6))
    assert report["global"] == pytest.approx(max(report["per_vertex"].values()), abs=1e-10)


# ---------------------------------------------------------------------------
# classification over a finite fibre


def test_isomorphic_finite_coboundary():
    rep = isomorphic(_q8_coboundary(), _q8_trivial(), rmax=1)
    assert rep.isomorphic
    assert rep.witness is not None
    assert set(rep.witness) == set(range(6))
    assert max(r for _, r in rep.checks) <= 1e-9


def test_isomorphic_finite_distinguished_by_winding():
    tri = octahedron().triangles()[0]
    rep = isomorphic(_q8_coboundary(windings={tri: 1}), _q8_trivial(), rmax=1)
    assert not rep.isomorphic
    assert rep.witness is None
    assert rep.distinguishing["invariant"] == "determinant class"
    first = rep.distinguishing["first"]["free"]
    second = rep.distinguishing["second"]["free"]
    assert sorted(map(abs, first)) != sorted(map(abs, second))


def test_isomorphic_rejects_mismatched_bases():
    tri = SimplicialComplex.from_maximal(3, [(0, 1, 2)])
    d1 = GluingDatum(tri, quaternion_group(), {e: np.eye(2) for e in tri.edges()})
    with pytest.raises(WrongKind):
        isomorphic(d1, _q8_trivial())


# ---------------------------------------------------------------------------
# twisted special extraction


@pytest.mark.parametrize("n", [0, 2])
def test_extraction_matches_pushforward(n):
    d = su2_octa_datum(n)
    out = extract_twisted_special(d)
    assert out.classes_agree
    assert tuple(abs(x) for x in out.extracted_class.free) == (n,)
    assert out.extracted_class.torsion == ()
    for _, resid in out.checks:
        assert resid <= 1e-9
    # patchwise isometries onto the antisymmetric line
    for V in out.isometries:
        assert V.shape == (4, 1)
        assert abs(float(np.linalg.norm(V)) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "make", [lambda: su2_octa_datum(2), lambda: _su2_scalar(subdivided_octahedron(1), 5)]
)
def test_extraction_phases_match_per_edge_inner_products(make):
    # the phases were read from two inner products per edge; they are now
    # read from one inner product per vertex
    d = make()
    out = extract_twisted_special(d)
    sref = out.isometries[0]
    for (i, j), q in zip(d.complex.edges(), out.phase_cocycle.values):
        ci, cj = hs_inner(sref, out.isometries[i]), hs_inner(sref, out.isometries[j])
        assert q == snap_phase(ci * cj.conjugate() / abs(ci * cj))


def test_extraction_carries_windings():
    d = su2_octa_datum(3)
    out = extract_twisted_special(d)
    assert out.phase_cocycle.windings == d.windings
    assert out.extracted_class == h2_integral(d.complex).reduce(
        {t: n for t, n in d.windings.items()}
    )


def test_scalar_datum_transitions():
    octa = octahedron()
    phases = {e: Fraction(0) for e in octa.edges()}
    phases[(0, 1)] = Fraction(1, 4)
    # a bare quarter twist on one edge is a cocycle mod the full unitary fibre
    d = scalar_datum(octa, full_unitary(2), phases)
    t = d.transition(0, 1)
    assert np.allclose(t, 1j * np.eye(2))
    assert np.allclose(d.transition(1, 0), -1j * np.eye(2))


# ---------------------------------------------------------------------------
# transport and holonomy against the dense overlap system

PHASE_GATE = np.diag([1.0, 1j])


def _clifford_word(rng):
    """A random product of the Hadamard and phase gates; both normalize Q8."""
    u = np.eye(2, dtype=complex)
    for _ in range(rng.randint(0, 6)):
        u = u @ rng.choice((HAD, PHASE_GATE))
    return u


def _su2_scalar(c, seed, windings=None):
    """Scalar su(2) datum with coboundary phases theta_i - theta_j."""
    rng = random.Random(seed)
    theta = [Fraction(rng.randint(-6, 6), rng.randint(1, 12)) for _ in range(c.vertices)]
    phases = {(i, j): theta[i] - theta[j] for (i, j) in c.edges()}
    return scalar_datum(c, special_unitary(2), phases, windings=windings)


def _q8_gauged(c, seed, twist=None):
    """Q8 transitions g_i h_ij t_ij g_j* with Clifford gauges g, random Q8
    elements h and twists t (the identity off ``twist``)."""
    rng = random.Random(seed)
    els = list(quaternion_group().elements())
    g = [_clifford_word(rng) for _ in range(c.vertices)]
    twist = twist or {}
    trans = {
        (i, j): g[i] @ rng.choice(els) @ twist.get((i, j), np.eye(2)) @ g[j].conj().T
        for (i, j) in c.edges()
    }
    return GluingDatum(c, quaternion_group(), trans)


def _seam(k):
    """The three edges of the k-sector annulus crossing the seam between
    sectors k-1 and 0."""
    return {(0, k - 1), (0, 2 * k - 1), (k, 2 * k - 1)}


def _q8_holonomy(k=4, seed=3):
    """Q8 datum on the annulus whose holonomy around the ring is the Hadamard
    matrix: it sits on the seam edges, and every triangle defect stays in Q8."""
    return _q8_gauged(annulus(k), seed, {e: HAD for e in _seam(k)})


def _hadamard_pair(k):
    """The Q8 datum on the k-sector annulus whose only non-identity
    transitions are the Hadamard gate on the seam edges, and its conjugate
    by the phase gate: equivalent modulo Q8."""
    c = annulus(k)
    trans = {e: HAD if e in _seam(k) else np.eye(2) for e in c.edges()}
    conj = {e: PHASE_GATE @ u @ PHASE_GATE.conj().T for e, u in trans.items()}
    return GluingDatum(c, quaternion_group(), trans), GluingDatum(c, quaternion_group(), conj)


def _two_octahedra():
    """Two disjoint octahedra with windings 1 and -2, one on each."""
    faces = octahedron().triangles()
    c = SimplicialComplex.from_maximal(12, list(faces) + [tuple(v + 6 for v in f) for f in faces])
    windings = {faces[0]: 1, tuple(v + 6 for v in faces[3]): -2}
    return _su2_scalar(c, 4, windings), windings


def _transition_action(datum, i, j, r, s):
    """Coordinates of the Kronecker-route action on each fibre basis element, one at a time."""
    basis = datum.fibre_basis(r, s)
    u = datum.transition(i, j)
    return np.array(
        [[hs_inner(a, kron_action(u, b, r, s)) for b in basis] for a in basis], dtype=complex
    ).reshape(len(basis), len(basis))


def _dense_glued_coefficients(datum, r, s):
    """Oracle: the kernel of the stacked (E*m) x (V*m) system c_i - M_ij c_j."""
    m, n = len(datum.fibre_basis(r, s)), datum.complex.vertices
    edges = datum.complex.edges()
    op = np.zeros((len(edges) * m, n * m), dtype=complex)
    for e, (i, j) in enumerate(edges):
        blk = slice(e * m, (e + 1) * m)
        op[blk, i * m : (i + 1) * m] += np.eye(m)
        op[blk, j * m : (j + 1) * m] -= _transition_action(datum, i, j, r, s)
    vecs = [x.ravel() for x in nullspace(op, tol=datum.tol)]
    return np.array(vecs, dtype=complex).reshape(len(vecs), n * m)


def _glued_coefficients(space):
    """Fibre-basis coordinates of each arrow, after checking that its
    components lie in the fibre space."""
    basis = space.datum.fibre_basis(space.r, space.s)
    rows = []
    for arrow in space.arrows:
        row = []
        for v in range(space.datum.complex.vertices):
            t = arrow.components[v]
            c = [hs_inner(b, t) for b in basis]
            back = sum((x * b for x, b in zip(c, basis)), np.zeros_like(t))
            assert np.linalg.norm(t - back) <= 1e-12
            row += c
        rows.append(row)
    return np.array(rows, dtype=complex).reshape(space.dim, -1)


def _projector(rows):
    return rows.T @ rows.conj()


def _octahedron_and_twisted_circle():
    """An octahedron and a disjoint quarter-twisted circle: the antisymmetric
    line is glued on the first component and cut to zero on the second."""
    faces = octahedron().triangles()
    c = SimplicialComplex.from_maximal(9, list(faces) + [(6, 7), (7, 8), (6, 8)])
    trans = {e: np.eye(2) for e in c.edges()}
    trans[(6, 8)] = np.diag([1.0, 1j])
    return GluingDatum(c, special_unitary(2), trans)


ALL_2 = [(r, s) for r in range(3) for s in range(3)]
ALL_3 = [(r, s) for r in range(4) for s in range(4)]
ORACLE_CASES = {
    "octahedron-su2": (lambda: _su2_scalar(octahedron(), 1, {(0, 1, 2): 2}), ALL_3),
    "octahedron-q8": (lambda: _q8_gauged(octahedron(), 2), ALL_3),
    "v26-su2": (lambda: _su2_scalar(subdivided_octahedron(1), 5, {(0, 6, 18): -1}), ALL_3),
    "v26-q8": (lambda: _q8_gauged(subdivided_octahedron(1), 6), ALL_2),
    "v146-su2": (lambda: _su2_scalar(subdivided_octahedron(2), 8), [(0, 2), (1, 1), (2, 2), (3, 3)]),
    "q8-holonomy": (_q8_holonomy, ALL_3),
    "cut-to-zero": (_quarter_twist_circle, ALL_3),
    "two-components": (lambda: _two_octahedra()[0], ALL_3),
    # a family of one component is not fixed by the other's holonomy
    "twisted-circle": (_octahedron_and_twisted_circle, ALL_3),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_glued_space_matches_dense_oracle(case):
    make, pairs = ORACLE_CASES[case]
    d = make()
    for (r, s) in pairs:
        sp = glued_space(d, r, s)
        want = _dense_glued_coefficients(d, r, s)
        assert sp.dim == want.shape[0], (r, s)
        if sp.dim:
            got = _glued_coefficients(sp)
            assert np.abs(_projector(got) - _projector(want)).max() <= 1e-9, (r, s)
            # unit, mutually orthogonal sections, as the dense kernel has
            assert np.abs(got.conj() @ got.T - np.eye(sp.dim)).max() <= 1e-9, (r, s)
        for arrow in sp.arrows:
            assert arrow.compatibility_residual() <= 1e-9


def _fibre_projector(datum, r, s, sections):
    """The projector onto the span of a section stack, in fibre-basis
    coordinates (vertices * m of them)."""
    basis = datum.fibre_basis(r, s).stack
    coords = np.tensordot(sections, basis.conj(), axes=([2, 3], [1, 2])).reshape(len(sections), -1)
    return _projector(coords)


TRANSPORT_CASES = dict(
    ORACLE_CASES, edgeless=(lambda: _q8_trivial(SimplicialComplex(3, [[0], [1], [2]])), ALL_3)
)


@pytest.mark.parametrize("case", sorted(TRANSPORT_CASES))
def test_holonomy_route_matches_the_transport_oracle(case):
    make, pairs = TRANSPORT_CASES[case]
    d = make()
    for (r, s) in pairs:
        got, want = glued_space(d, r, s).sections, transport_sections(d, r, s)
        assert got.shape == want.shape, (r, s)
        if len(got):
            diff = _fibre_projector(d, r, s, got) - _fibre_projector(d, r, s, want)
            assert np.abs(diff).max() <= 1e-9, (r, s)


@pytest.mark.parametrize("case", sorted(TRANSPORT_CASES))
def test_datum_holonomies_match_the_frame_walk(case):
    d = TRANSPORT_CASES[case][0]()
    got, want = d._holonomies(), forest_holonomies(d)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # the frames and holonomies are the cocycle's one table
    assert got[0] is d.cocycle.holonomies()[0]


def test_glued_space_skips_hat_matrix_and_svd_when_holonomies_lie_in_the_group(monkeypatch):
    d = _q8_gauged(subdivided_octahedron(1), 6)
    frames, comp, ends, hol = d._holonomies()
    assert ends.shape == (0, 2) and hol.shape == (0, 2, 2)
    # the fibre intertwiners are solved (by SVD) before the glued spaces
    fibre = {rs: len(d.fibre_basis(*rs)) for rs in ALL_3}
    calls = []
    monkeypatch.setattr(glue.GluingDatum, "hat_matrix", lambda *a: calls.append("hat_matrix"))
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd") or real_svd(*a, **k))
    dims = {rs: glued_space(d, *rs).dim for rs in ALL_3}
    assert calls == [] and dims == fibre
    # the annulus keeps its Hadamard holonomy, one per cycle at most
    hol = _q8_holonomy()
    assert 0 < len(hol._holonomies()[2]) <= len(hol.complex.edges()) - hol.complex.vertices + 1


def test_oracle_cases_cover_cut_spaces():
    # the holonomy and the quarter twist really cut the fibre spaces down
    hol = _q8_holonomy()
    assert any(glued_space(hol, r, s).dim < len(hol.fibre_basis(r, s)) for r, s in ALL_3)
    assert glued_space(_quarter_twist_circle(), 0, 2).dim == 0
    assert len(_quarter_twist_circle().fibre_basis(0, 2)) == 1


@pytest.mark.parametrize("make", [lambda: _q8_gauged(octahedron(), 2), _q8_holonomy])
def test_batched_hat_matrix_matches_per_element_hat_action(make):
    d = make()
    for (r, s) in ALL_2:
        hats = d.hat_matrix(r, s)
        assert hats.shape[0] == len(d.complex.edges())
        for e, (i, j) in enumerate(d.complex.edges()):
            # the stored orientation i < j, and its adjoint for the reverse
            assert np.abs(hats[e] - _transition_action(d, i, j, r, s)).max(initial=0.0) <= 1e-12
            back = hats[e].conj().T
            assert np.abs(back - _transition_action(d, j, i, r, s)).max(initial=0.0) <= 1e-12


def test_hat_matrix_rejects_transition_leaving_the_fibre_space():
    edge = SimplicialComplex.from_maximal(2, [(0, 1)])
    d = GluingDatum(edge, cyclic_diagonal_group(), {(0, 1): np.eye(2)})
    # swap in a transition outside the normalizer, past the constructor's check
    d.cocycle = CechCocycle(edge, "finite", {(0, 1): HAD})
    with pytest.raises(ConsistencyError):
        d.hat_matrix(1, 1)


def test_hat_matrix_is_one_action_under_one_cap_check(monkeypatch):
    d = _q8_gauged(subdivided_octahedron(1), 6)
    whole = {rs: d.hat_matrix(*rs) for rs in ALL_3}
    edges = len(d.complex.edges())
    m = whole[(3, 3)].shape[1]
    # the images of every edge: m fibre basis elements of 8 x 8 entries each
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", edges * m * 8 * 8)
    for rs, want in whole.items():
        got = d.hat_matrix(*rs)
        assert got.shape == want.shape == (edges,) + want.shape[1:]
        assert np.array_equal(got, want) and not got.flags.writeable, rs
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", edges * m * 8 * 8 - 1)
    with pytest.raises(SizeCapExceeded):
        d.hat_matrix(3, 3)


def _runs_of(monkeypatch):
    """Record the (unitaries, images) of every power_action that
    ``glue._mismatch`` makes."""
    runs, inside = [], []
    real_mismatch, real_action = glue._mismatch, glue.power_action

    def mismatch(*args):
        inside.append(True)
        try:
            return real_mismatch(*args)
        finally:
            inside.pop()

    def action(u, t, r, s, **kw):
        out = real_action(u, t, r, s, **kw)
        if inside:
            runs.append((u, out))
        return out

    monkeypatch.setattr(glue, "_mismatch", mismatch)
    monkeypatch.setattr(glue, "power_action", action)
    return runs


def test_edge_runs_hold_their_images_within_the_budget(monkeypatch):
    d = _q8_gauged(subdivided_octahedron(1), 6)
    arrow = glued_space(d, 1, 1).arrows[0]
    want = arrow.compatibility_residual()
    runs = _runs_of(monkeypatch)
    # one edge of a (1, 1) arrow moves 2 x 2 entries: room for 3 edges
    monkeypatch.setattr(glue, "EDGE_RUN_ENTRIES", 3 * 4 + 3)
    assert arrow.compatibility_residual() == want
    assert [len(u) for u, _ in runs] == [3] * (len(d.complex.edges()) // 3)
    assert all(img.size <= 15 for _, img in runs)
    # the cap refuses only an edge whose own images exceed it
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", 4)
    assert arrow.compatibility_residual() == want
    assert all(len(u) == 1 for u, _ in runs[-len(d.complex.edges()):])
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", 3)
    with pytest.raises(SizeCapExceeded):
        arrow.compatibility_residual()


def test_edge_runs_are_views_of_the_cocycle_stack(monkeypatch):
    d = _q8_gauged(octahedron(), 2)
    stack = d.cocycle.values
    arrow = glued_space(d, 1, 1).arrows[0]
    runs = _runs_of(monkeypatch)
    monkeypatch.setattr(glue, "EDGE_RUN_ENTRIES", 4 * 4)
    arrow.compatibility_residual()
    assert [len(u) for u, _ in runs] == [4, 4, 4]
    for u, _ in runs:
        assert np.shares_memory(u, stack) and not u.flags.writeable
    assert np.array_equal(np.concatenate([u for u, _ in runs]), stack)


def test_glued_and_pushed_components_are_read_only():
    d1, d2 = _q8_gauged(octahedron(), 2), _q8_gauged(octahedron(), 2)
    witness = {v: as_matrix(HAD if v % 2 else PHASE_GATE) for v in range(6)}
    for r, s in [(1, 1), (0, 2), (2, 1)]:
        for arrow in glued_space(d2, r, s).arrows:
            moved = pushed(d1, witness, arrow)
            for v in range(6):
                with pytest.raises(ValueError):
                    arrow.components[v][0, 0] = 5.0
                with pytest.raises(ValueError):
                    moved.components[v][0, 0] = 5.0
                want = kron_action(witness[v], arrow.components[v], r, s)
                assert np.abs(moved.components[v] - want).max() <= 1e-12


def test_arrow_norm_matches_per_component_opnorm():
    d = _q8_holonomy()
    rng = np.random.default_rng(5)
    for r, s in [(1, 1), (0, 2), (2, 2), (3, 1)]:
        # unglued families too, so the norms differ from patch to patch
        comps = np.array(
            [(v + 1) * rng.standard_normal((2 ** s, 2 ** r)) for v in range(d.complex.vertices)]
        )
        for arrow in glued_space(d, r, s).arrows + [GluedArrow(d, r, s, comps)]:
            want = max(opnorm(t) for t in arrow.components)
            assert abs(arrow.norm() - want) <= 1e-12 * max(1.0, want)


def test_compatibility_residual_sees_a_broken_arrow():
    d = _q8_holonomy()
    arrow = glued_space(d, 1, 1).arrows[0]
    comps = arrow.components.copy()
    comps[0] = -comps[0]
    assert arrow.compatibility_residual() <= 1e-9
    assert GluedArrow(d, 1, 1, comps).compatibility_residual() >= 0.1


@pytest.mark.parametrize("patches", [5, 7])
def test_glued_arrow_needs_exactly_the_patches_of_the_base(patches):
    d = su2_octa_datum(1)
    comps = glued_space(d, 1, 1).arrows[0].components
    stack = np.concatenate([comps, comps])[:patches]
    with pytest.raises(ValueError):
        GluedArrow(d, 1, 1, stack)
    with pytest.raises(ValueError):
        GluedArrow(d, 1, 1, dict(enumerate(stack)))


def test_stack_operations_match_a_per_patch_kronecker_loop():
    """Patches that differ, so that a product mixing patches (np.kron on
    two stacks, say) cannot agree with the patch-by-patch loop."""
    d = _q8_holonomy()
    n = d.complex.vertices
    rng = np.random.default_rng(21)

    def stack(s, r):
        shape = (n, 2 ** s, 2 ** r)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x, y = stack(1, 1), stack(2, 1)
    out = GluedArrow(d, 1, 1, x).tensor(GluedArrow(d, 1, 2, y))
    assert (out.r, out.s) == (2, 3)
    for v in range(n):
        assert np.abs(out.components[v] - np.kron(x[v], y[v])).max() <= 1e-12


def test_glued_space_is_memoized_on_the_datum():
    d = su2_octa_datum(1)
    sp = glued_space(d, 2, 2)
    assert glued_space(d, 2, 2) is sp
    assert glued_space(d, 0, 2) is glued_space(d, 0, 2)
    assert glued_space(su2_octa_datum(1), 2, 2) is not sp


def test_memoized_glued_arrows_are_read_only():
    d = su2_octa_datum(1)
    sp = glued_space(d, 2, 2)
    before = sp.arrows[0].components.copy()
    with pytest.raises(ValueError):
        sp.arrows[0].components[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        d.transition(0, 1)[0, 0] = 5.0
    again = glued_space(d, 2, 2)
    assert again is sp
    assert np.array_equal(again.arrows[0].components, before)


def _glued_need(d, r, s):
    """The entries ``glued_space`` forms (see GLUED_COEFF_CAP): k m (D + m)
    for the k holonomies outside the group, and K m D for the coefficients."""
    m, size = len(d.fibre_basis(r, s)), d.degree ** (r + s)
    k, comps = len(d._holonomies()[3]), len(d.complex.components())
    return k * m * (size + m) + comps * m * size


def test_glued_cap_bounds_the_holonomy_system(monkeypatch):
    d = su2_octa_datum(1)
    # every transition is 1, so no holonomy leaves the group, and the
    # octahedron is one component: m = 2 at (2, 2), one 2 x 4 x 4 block
    need = 2 * 16
    assert _glued_need(d, 2, 2) == need
    with monkeypatch.context() as patched:
        patched.setattr(glue, "GLUED_COEFF_CAP", need - 1)
        with pytest.raises(SizeCapExceeded):
            glued_space(d, 2, 2)
        patched.setattr(glue, "GLUED_COEFF_CAP", need)
        assert glued_space(d, 2, 2).dim == 2
        # the memoized space is still guarded
        patched.setattr(glue, "GLUED_COEFF_CAP", need - 1)
        with pytest.raises(SizeCapExceeded):
            glued_space(d, 2, 2)
    # the annulus: k Hadamard holonomies, m = 4 at (2, 2), so k blocks of
    # 4 images of 4 x 4 entries and a 4 x 4 block (H_e - 1) each
    hol = _q8_holonomy()
    k = len(hol._holonomies()[3])
    assert k and len(hol.fibre_basis(2, 2)) == 4
    need = k * 4 * (16 + 4) + 4 * 16
    assert _glued_need(hol, 2, 2) == need
    with monkeypatch.context() as patched:
        patched.setattr(glue, "GLUED_COEFF_CAP", need - 1)
        with pytest.raises(SizeCapExceeded):
            glued_space(hol, 2, 2)
        patched.setattr(glue, "GLUED_COEFF_CAP", need)
        sp = glued_space(hol, 2, 2)
    assert 0 < sp.dim < 4
    # reading the sections forms dim x vertices x 4 x 4 entries
    stack = sp.dim * hol.complex.vertices * 16
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", stack)
    assert sp.sections.shape == (sp.dim, hol.complex.vertices, 4, 4)
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", stack - 1)
    with pytest.raises(SizeCapExceeded):
        sp.sections
    with pytest.raises(SizeCapExceeded):
        sp.arrows


def test_extraction_on_two_components():
    d, windings = _two_octahedra()
    sp = glued_space(d, 0, 2)
    assert sp.dim == 2
    supports = [
        {v for v in range(12) if np.linalg.norm(a.components[v]) > 1e-12} for a in sp.arrows
    ]
    assert sorted(map(sorted, supports)) == [list(range(6)), list(range(6, 12))]
    out = extract_twisted_special(d)
    assert out.classes_agree
    assert out.extracted_class == h2_integral(d.complex).reduce(windings)
    assert sorted(abs(x) for x in out.extracted_class.free) == [1, 2]
    for _, resid in out.checks:
        assert resid <= 1e-9


def test_large_sphere_glued_dims_and_chern():
    # three subdivisions of the octahedron: 866 vertices and 2592 edges, so
    # the dense overlap system at (0, 2) alone is 2592 x 866
    c = subdivided_octahedron(3)
    t = c.triangles()[len(c.triangles()) // 3]
    d = _su2_scalar(c, 9, {t: -2})
    assert {rs: glued_space(d, *rs).dim for rs in [(0, 2), (2, 2), (3, 3)]} == {
        (0, 2): 1, (2, 2): 2, (3, 3): 5,
    }
    ext = extract_twisted_special(d)
    assert ext.classes_agree
    assert ext.extracted_class == h2_integral(c).reduce({t: -2})
    assert tuple(abs(x) for x in ext.extracted_class.free) == (2,)


# ---------------------------------------------------------------------------
# section stacks against the per-arrow and per-vertex loops


def _gauged(d, seed):
    """``d`` conjugated patchwise by Clifford words g (they normalize Q8 and
    SU(2)), and g as the witness carrying d's glued arrows to the result's."""
    rng = random.Random(seed)
    g = [as_matrix(_clifford_word(rng)) for _ in range(d.complex.vertices)]
    trans = {(i, j): g[i] @ d.transition(i, j) @ g[j].conj().T for (i, j) in d.complex.edges()}
    return GluingDatum(d.complex, d.group, trans, windings=dict(d.windings)), dict(enumerate(g))


def test_glued_space_is_one_read_only_section_stack():
    # a cut space, and spaces with a family on each of two components
    for d in (_q8_holonomy(), _two_octahedra()[0]):
        frames, comp = d._holonomies()[:2]
        for r, s in ALL_3:
            sp = glued_space(d, r, s)
            # the space keeps its coefficients and their components, nothing else
            assert set(vars(sp)) == {"datum", "r", "s", "coefficients", "owner"}
            assert sp.coefficients.shape == (sp.dim, 2 ** s, 2 ** r)
            assert sp.owner.shape == (sp.dim,) and list(sp.owner) == sorted(sp.owner)
            assert not sp.coefficients.flags.writeable and not sp.owner.flags.writeable
            # the sections are formed on each access, unit and frame-carried
            sections = sp.sections
            assert sections.shape == (sp.dim, d.complex.vertices, 2 ** s, 2 ** r)
            assert not sections.flags.writeable and sp.sections is not sections
            assert np.array_equal(sp.sections, sections)
            for k, x in enumerate(sp.coefficients):
                v = np.flatnonzero(comp == sp.owner[k])
                want = np.zeros_like(sections[k])
                want[v] = power_action(frames[v], x, r, s) / math.sqrt(len(v))
                assert np.abs(sections[k] - want).max() <= 1e-14
                assert np.array_equal(sp._form([k])[0], sections[k])
            arrows = sp.arrows
            assert len(arrows) == sp.dim
            for arrow, t in zip(arrows, sections):
                assert (arrow.r, arrow.s) == (r, s) and np.array_equal(arrow.components, t)


def _roundoff(got, want, norms):
    """Residual lists that agree within 1e-13 max(1, norm), entry by entry."""
    return len(got) == len(want) == len(norms) and all(
        abs(a - b) <= 1e-13 * max(1.0, n) for a, b, n in zip(got, want, norms)
    )


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_stacked_overlap_residuals_match_the_arrow_loop(case):
    d = ORACLE_CASES[case][0]()
    for r, s in ALL_3:
        sp = glued_space(d, r, s)
        got = sp._residuals()
        assert got.shape == (sp.dim,)
        norms = [a.norm() for a in sp.arrows]
        assert _roundoff(got, [arrow_residual(a) for a in sp.arrows], norms), (r, s)
        assert _roundoff(got, overlap_residuals(d, r, s, sp.sections), norms), (r, s)
        arrows = [a.compatibility_residual() for a in sp.arrows]
        assert _roundoff(arrows, [arrow_residual(a) for a in sp.arrows], norms), (r, s)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_stacked_functor_checks_match_the_arrow_loop(case):
    d2 = ORACLE_CASES[case][0]()
    d1, witness = _gauged(d2, 17)
    got = glue._functor_checks(d1, d2, witness, 3, Tolerance())
    want = arrow_functor_checks(d1, d2, witness, 3, Tolerance())
    assert _same_checks(got, want)
    # a gauge is a witness, so every arrow of every space was checked
    assert got[1]
    transports = [x for name, x in got[0] if name.startswith("transport")]
    assert len(transports) == sum(glued_space(d2, r, s).dim for r, s in ALL_3)
    # the section-stack route, pushing the families a group at a time
    u = np.array([witness[v] for v in range(d2.complex.vertices)])
    spaces = [glued_space(d2, r, s) for r, s in ALL_3]
    stacked = [x for sp in spaces for x in overlap_residuals(d1, sp.r, sp.s, sp.sections, witness=u)]
    assert _roundoff(transports, stacked, [a.norm() for sp in spaces for a in sp.arrows])


def _same_checks(got, want):
    """Functor check reports with the same verdict and names, and values
    within 1e-13 of each other (residuals of unit arrows)."""
    (a, ok_a), (b, ok_b) = got, want
    names = [n for n, _ in a] == [n for n, _ in b]
    return ok_a == ok_b and names and _roundoff([x for _, x in a], [x for _, x in b], [1.0] * len(a))


def test_functor_checks_stop_at_a_failing_arrow_mid_space():
    d1, d2 = _q8_holonomy(), _q8_holonomy()
    witness = {v: as_matrix(np.eye(2)) for v in range(d1.complex.vertices)}
    r, s = 2, 2
    sp = glued_space(d2, r, s)
    k = sp.dim // 2
    assert 0 < k < sp.dim - 1
    # a unit fibre intertwiner orthogonal to the glued ones: the Hadamard
    # holonomy does not fix it
    basis = d2.fibre_basis(r, s).stack
    glued = np.tensordot(sp.coefficients, basis.conj(), axes=([1, 2], [1, 2]))
    cut = nullspace(glued.conj(), tol=d2.tol)[0].ravel()
    planted = np.array(sp.coefficients)
    planted[k] = np.tensordot(cut, basis, axes=1)
    d2._spaces[(r, s)] = glue.GluedSpace(d2, r, s, planted, sp.owner)
    got = glue._functor_checks(d1, d2, witness, 3, Tolerance())
    want = arrow_functor_checks(d1, d2, witness, 3, Tolerance())
    assert _same_checks(got, want)
    for checks, ok in (got, want):
        assert not ok
        assert checks[-1][0] == "transport (2,2)" and checks[-1][1] >= 0.1
        assert [name for name, _ in checks].count("transport (2,2)") == k + 1


@pytest.mark.parametrize("case", ["q8-holonomy", "v26-q8", "two-components"])
def test_witness_push_stays_within_the_run_budget(monkeypatch, case):
    d2 = ORACLE_CASES[case][0]()
    d1, witness = _gauged(d2, 17)
    want = arrow_functor_checks(d1, d2, witness, 3, Tolerance())
    budget = 1 << 9
    monkeypatch.setattr(glue, "EDGE_RUN_ENTRIES", budget)
    runs = _runs_of(monkeypatch)
    got = glue._functor_checks(d1, d2, witness, 3, Tolerance())
    assert _same_checks(got, want) and got[1] and runs
    # each run's images fit the budget, or the run is one edge
    assert all(img.size <= budget or len(u) == 1 for u, img in runs)
    # and some space was checked in more than one run
    assert len(runs) > len(ALL_3)


@pytest.mark.parametrize("rs", [(2, 2), (1, 3), (3, 3), (1, 1)])
def test_space_built_under_a_cap_is_checked_under_it(monkeypatch, rs):
    r, s = rs
    # (1, 1) has m = 1 for Q8 and su(2) alike; su(2) at (1, 1) was once
    # built under a cap of 12 that its overlap check then exceeded
    data = {"v26-q8": _q8_gauged(subdivided_octahedron(1), 6), "q8-holonomy": _q8_holonomy(), "su2": su2_octa_datum(1)}
    for name, d in data.items():
        need = _glued_need(d, r, s)
        with monkeypatch.context() as patched:
            patched.setattr(glue, "GLUED_COEFF_CAP", need)
            sp = glued_space(d, r, s)
            got = sp._residuals()
        if (name, rs) == ("su2", (1, 1)):
            assert need <= 12
        assert got.max(initial=0.0) <= 1e-9
        assert _roundoff(got, [arrow_residual(a) for a in sp.arrows], [1.0] * sp.dim)
        with monkeypatch.context() as patched:
            patched.setattr(glue, "GLUED_COEFF_CAP", need - 1)
            with pytest.raises(SizeCapExceeded):
                glued_space(d, r, s)


def _perfbench_inputs():
    """``perfbench/inputs.py``, loaded from its file."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_glue_dims_and_functor_checks_never_form_the_sections(monkeypatch, tmp_path):
    reads = []
    sections = glue.GluedSpace.sections
    monkeypatch.setattr(glue.GluedSpace, "sections", property(lambda sp: reads.append(sp) or sections.fget(sp)))
    for case in sorted(ORACLE_CASES):
        d2 = ORACLE_CASES[case][0]()
        d1, witness = _gauged(d2, 17)
        assert glue._functor_checks(d1, d2, witness, 3, Tolerance())[1], case
    # the benchmark's generated glue inputs: a 146-vertex su(2) datum and
    # a gauge-equivalent Q8 pair on 26 vertices
    files, _ = _perfbench_inputs().generate("glue-classify", 1)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    q8 = [str(tmp_path / ("q8-equal-%d.json" % k)) for k in (0, 1)]
    calls = [["glue-dims", "--input", str(tmp_path / "su2-v146.json")], ["glue-dims", "--input", q8[0]]]
    calls.append(["classify", "--input", q8[0], "--input", q8[1]])
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0, argv
        assert json.loads(out.getvalue())["command"] == argv[0]
    assert reads == []
    # the spy sees a read
    assert glued_space(ORACLE_CASES["octahedron-q8"][0](), 1, 1).sections.shape == (1, 6, 2, 2)
    assert len(reads) == 1


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_stacked_extraction_matches_the_vertex_loop(case):
    d = ORACLE_CASES[case][0]()
    try:
        want = vertex_extraction(d, d.tol)
    except ToolkitError as exc:
        with pytest.raises(type(exc), match="^%s$" % re.escape(str(exc))):
            extract_twisted_special(d)
        return
    comps, checks, cocycle, extracted, pushforward = want
    out = extract_twisted_special(d)
    assert np.array_equal(out.isometries, comps)
    assert out.checks == checks
    assert out.phase_cocycle.to_json() == cocycle.to_json()
    assert (out.extracted_class, out.pushforward_class) == (extracted, pushforward)


@dataclass(frozen=True)
class _StrictChecks(Tolerance):
    """A tolerance whose ``close`` accepts residuals up to ``limit`` only."""

    limit: float = 0.0

    def close(self, residual, scale=1.0):
        return residual <= self.limit


@pytest.mark.parametrize("case", ["octahedron-q8", "v26-q8", "v146-su2"])
def test_stacked_extraction_names_the_first_failing_identity_check(case):
    d = ORACLE_CASES[case][0]()
    resids = [r for _, r in vertex_extraction(d, d.tol)[1]]
    tol = _StrictChecks(d.tol.tau, max(resids[:3]))
    # some later check fails, so the first failure is not the first check
    assert max(resids) > tol.limit
    with pytest.raises(ConsistencyError) as want:
        vertex_extraction(d, tol)
    with pytest.raises(ConsistencyError, match="^%s$" % re.escape(str(want.value))):
        extract_twisted_special(d, tol)


def test_extraction_cases_cover_a_patch_rank_failure():
    with pytest.raises(RankDeficientVModule, match="patch ranks .*6: 0"):
        extract_twisted_special(_octahedron_and_twisted_circle())
    assert extract_twisted_special(_su2_scalar(octahedron(), 1, {(0, 1, 2): 2})).classes_agree


def test_norm_function_per_vertex_matches_per_patch_opnorm():
    d = _q8_holonomy()
    rng = np.random.default_rng(9)
    comps = np.array([(v + 1) * rng.standard_normal((4, 2)) for v in range(d.complex.vertices)])
    arrow = GluedArrow(d, 1, 2, comps)
    report = norm_function(arrow)
    assert report["per_vertex"] == {v: opnorm(t) for v, t in enumerate(arrow.components)}
    assert report["global"] == pytest.approx(max(report["per_vertex"].values()), abs=1e-10)


# ---------------------------------------------------------------------------
# witness search against the backtracking oracle

WITNESS_CASES = {
    "q8-coboundary": lambda: (_q8_coboundary(), _q8_trivial()),
    "q8-gauged": lambda: (_q8_gauged(octahedron(), 2), _q8_gauged(octahedron(), 5)),
    "q8-gauged-trivial": lambda: (_q8_gauged(octahedron(), 2), _q8_trivial()),
    "q8-holonomy": lambda: (_q8_holonomy(), _q8_holonomy()),
    "q8-holonomy-trivial": lambda: (_q8_holonomy(k=3), _q8_trivial(annulus(3))),
    "hadamard-pair": lambda: _hadamard_pair(3),
}


def _search(d1, d2, group=None):
    """The witness of ``glue._witness_search`` or None; no group is the
    trivial group, as for the oracles."""
    return glue._witness_search(d1.cocycle, d2.cocycle, group or trivial_group(d1.degree), None)[0]


@pytest.mark.parametrize("modulo", [None, "q8"])
@pytest.mark.parametrize("case", sorted(WITNESS_CASES))
def test_witness_search_matches_backtracking_oracle(case, modulo):
    d1, d2 = WITNESS_CASES[case]()
    group = quaternion_group() if modulo else None
    got = _search(d1, d2, group)
    want = backtracking_equivalent(d1.cocycle, d2.cocycle, modulo=group)
    assert (got is None) == (want is None)
    if want is not None:
        assert list(got) == list(want)
        for v in want:
            assert np.array_equal(got[v], want[v])
    # the per-candidate propagation route it replaced
    want = propagation_equivalent(d1.cocycle, d2.cocycle, modulo=group)
    assert (got is None) == (want is None)
    if want is not None:
        assert list(got) == list(want)
        for v in want:
            assert np.array_equal(got[v], want[v])


def _search_outcome(search, d1, d2, modulo, cap):
    """One search spending at most ``cap`` units: SEARCH_CAP lowered for
    ``_search``, the oracles' own ``search_cap`` argument."""
    try:
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(glue, "SEARCH_CAP", cap)
            if search is _search:
                w = _search(d1, d2, modulo)
            else:
                w = search(d1.cocycle, d2.cocycle, modulo=modulo, search_cap=cap)
    except SearchCapExceeded:
        return "cap"
    return w if w is None else [w[v].tobytes() for v in range(d1.complex.vertices)]


def _memo_closure(monkeypatch):
    """Enumerate each candidate closure once: a closure of more elements
    than the cap raises CapExceeded, as ``enumerate_finite`` does."""
    real, memo = groups.enumerate_finite, {}

    def enumerate_once(group):
        key = np.array(group.generators).tobytes()
        if key not in memo:
            memo[key] = real(GroupSpec(group.kind, group.degree, group.generators, enumeration_cap=10 ** 6))
        if len(memo[key]) > group.enumeration_cap:
            raise CapExceeded("group closure exceeds cap %d elements" % group.enumeration_cap)
        return memo[key]

    monkeypatch.setattr(groups, "enumerate_finite", enumerate_once)


@pytest.mark.parametrize("modulo", [None, "q8"])
@pytest.mark.parametrize("case", ["q8-coboundary", "q8-gauged", "q8-gauged-trivial"])
def test_witness_search_caps_match_the_propagation_oracle(monkeypatch, case, modulo):
    d1, d2 = WITNESS_CASES[case]()
    group = quaternion_group() if modulo else None
    if group is None:
        # the closure of the values: it overflows below its order
        size = count = len(GroupSpec("finite", 2, [*d1.cocycle.values, *d2.cocycle.values]).elements())
    else:
        # the normalizer classes of Q8: the images of i and j are two of
        # the six elements of trace 0, 36 tuples, and there are 6 classes
        size, count = 36, 6
        assert len(normalizer_classes(group, size)) == count
    # the candidate set overflows below its size and fits at it
    for cap in (size - 1, size):
        got = _search_outcome(_search, d1, d2, group, cap)
        assert got == _search_outcome(propagation_equivalent, d1, d2, group, cap)
    _memo_closure(monkeypatch)
    # the least cap that lets the search finish, by bisection (more units
    # never make it fail); each candidate costs one unit per vertex
    lo, hi = 0, max(size, 6 * count)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _search_outcome(_search, d1, d2, group, mid) == "cap" else (lo, mid)
    first = hi
    # every cap from 1 up to it; with no witness (6 * count units) the caps
    # between 240 and the last dozen are skipped to bound the quadratic cost
    caps = sorted(set(range(1, min(first, 240) + 1)) | set(range(first - 12, first + 1)))
    for cap in caps:
        got = _search_outcome(_search, d1, d2, group, cap)
        assert got == _search_outcome(propagation_equivalent, d1, d2, group, cap), cap
        assert (got == "cap") == (cap < first)


def test_oracle_cases_cover_both_verdicts():
    verdicts = {
        _search(d1, d2, quaternion_group()) is None
        for d1, d2 in (make() for make in WITNESS_CASES.values())
    }
    assert verdicts == {True, False}


def test_six_sector_hadamard_pair_has_a_witness_within_the_cap(monkeypatch):
    # backtracking over the twists spends the 2000 units on failing root
    # candidates; the twist-free propagation finds the witness
    d1, d2 = _hadamard_pair(6)
    q8 = quaternion_group()
    monkeypatch.setattr(glue, "SEARCH_CAP", 2000)
    w = _search(d1, d2, q8)
    assert w is not None
    assert set(w) == set(range(12))
    for (i, j) in d1.complex.edges():
        lhs = w[i] @ d2.transition(i, j)
        rhs = d1.transition(i, j) @ w[j]
        assert q8.contains(rhs.conj().T @ lhs)


def test_forty_sector_hadamard_pair_is_isomorphic():
    rep = isomorphic(*_hadamard_pair(40), rmax=1)
    assert rep.isomorphic
    assert max(r for _, r in rep.checks) <= 1e-9


# ---------------------------------------------------------------------------
# the search over the normalizer classes of Q8


def _closure_pairs():
    """Every witness-case pair, and the two classify pairs of the
    benchmark's glue-classify inputs for seeds 1-8."""
    pairs = [make() for make in WITNESS_CASES.values()]
    inputs = _perfbench_inputs()
    for seed in range(1, 9):
        files, _ = inputs.generate("glue-classify", seed)
        for a, b in (("q8-equal-0", "q8-equal-1"), ("q8-class-a", "q8-class-b")):
            pairs.append(tuple(GluingDatum.from_json(json.loads(files[n + ".json"])) for n in (a, b)))
    return pairs


def test_class_search_finds_every_witness_the_closure_search_finds():
    found = 0
    for d1, d2 in _closure_pairs():
        closure = propagation_equivalent(d1.cocycle, d2.cocycle, modulo=d1.group, closure=True)
        if closure is not None:
            assert _search(d1, d2, d1.group) is not None
            found += 1
    # the closure finds one on all 16 benchmark pairs and on every case but
    # q8-holonomy-trivial, whose Hadamard holonomy no gauge removes
    assert found == 21


@pytest.mark.parametrize("a", range(6))
def test_data_gauged_by_each_normalizer_class_classify_as_equivalent(a, tmp_path, capsys):
    # seeded Q8 data, and the same data gauged at each vertex by the class
    # representative r_a times a Q8 element times a rational phase
    d1 = _q8_gauged(octahedron(), 23)
    q8 = quaternion_group()
    r = normalizer_classes(q8, glue.SEARCH_CAP)[a]
    rng = random.Random(a)
    els = q8.elements()
    u = [r @ rng.choice(els) * np.exp(2j * math.pi * rng.randrange(24) / 24) for _ in range(6)]
    trans = {(i, j): u[i].conj().T @ d1.transition(i, j) @ u[j] for (i, j) in d1.complex.edges()}
    d2 = GluingDatum(d1.complex, q8, trans)
    paths = []
    for k, d in enumerate((d1, d2)):
        paths += ["--input", str(tmp_path / ("d%d.json" % k))]
        (tmp_path / ("d%d.json" % k)).write_text(json.dumps(d.to_json()), encoding="utf-8")
    assert cli.main(["classify", *paths, "--rmax", "1"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["verdict"] == "equivalent" and data["distinguishing"] is None


def _two_circles(second):
    """Q8 data on two disjoint 3-vertex circles, trivial on the first and
    with the holonomy ``second`` on the edge (3, 5) of the second."""
    c = SimplicialComplex.from_maximal(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    return GluingDatum(c, quaternion_group(), {e: second if e == (3, 5) else np.eye(2) for e in c.edges()})


def test_no_class_passes_names_the_component_and_each_class_edge():
    # i.1 normalizes Q8 but lies outside it, and w* 1 w (i.1) = i.1 for
    # every w: no class passes on the second circle.  The determinant
    # classes agree (no triangles) and so do the glued dims up to rmax 1,
    # since a scalar acts on the (r, s) arrows by i^(s - r)
    d1, d2 = _two_circles(np.eye(2)), _two_circles(1j * np.eye(2))
    rep = isomorphic(d1, d2, rmax=1)
    assert not rep.isomorphic and rep.witness is None
    # the second circle's spanning tree is (3, 4), (3, 5): (4, 5) closes it
    assert rep.distinguishing == {
        "invariant": "no normalizer class passes",
        "component": 1,
        "first_failing_edges": [[4, 5]] * 6,
    }
    # a glued dimension that differs takes precedence: (0, 2) sees i^2
    rep = isomorphic(d1, d2, rmax=2)
    assert rep.distinguishing == {"invariant": "glued dimension at (0, 2)", "first": 2, "second": 1}


def test_isomorphic_searches_once_for_the_witness_and_its_proof(monkeypatch):
    # every binding of the search in the package is counted, so a search
    # reached under any name is seen
    calls = []
    for name, mod in list(sys.modules.items()):
        search = getattr(mod, "_witness_search", None) if name.startswith("catbundle") else None
        if search is not None:
            def counted(*args, search=search):
                calls.append(args)
                return search(*args)

            monkeypatch.setattr(mod, "_witness_search", counted)
    rep = isomorphic(_two_circles(np.eye(2)), _two_circles(1j * np.eye(2)), rmax=1)
    assert rep.distinguishing["invariant"] == "no normalizer class passes"
    assert len(calls) == 1

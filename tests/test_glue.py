"""Glued categories: data validation, arrow spaces, classification, extraction."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from catbundle import (
    CapExceeded,
    CechCocycle,
    ConsistencyError,
    DRTruncation,
    GluingDatum,
    GroupSpec,
    NotACocycleModG,
    NotInNormalizer,
    RankDeficientVModule,
    SearchCapExceeded,
    SimplicialComplex,
    SizeCapExceeded,
    Tolerance,
    ToolkitError,
    as_matrix,
    build_glued,
    canonical_endo,
    cyclic_diagonal_group,
    dr_element,
    dr_mul,
    dr_norm,
    eq_rhoeps,
    equivalent,
    extract_twisted_special,
    fibre_eval,
    full_unitary,
    gauge_action,
    glued_identity,
    glued_space,
    glued_symmetry,
    h2_integral,
    hs_inner,
    isomorphic,
    norm_function,
    nullspace,
    octahedron,
    opnorm,
    quaternion_group,
    scalar_datum,
    snap_phase,
    special_unitary,
    GluedArrow,
    tensor_glued,
    trivial_group,
)
from catbundle import glue, groups
from catbundle.verify import su2_octa_datum
from glue_oracle import (
    arrow_functor_checks,
    arrow_residual,
    forest_holonomies,
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


# ---------------------------------------------------------------------------
# glued spaces


@pytest.mark.parametrize("twist", [0, 1, "phases"])
def test_glued_dims_insensitive_to_twist(twist):
    if twist == "phases":
        d = su2_octa_datum(1, phases={v: Fraction(v, 8) for v in range(6)})
    else:
        d = su2_octa_datum(twist)
    assert build_glued(d, 2).dims() == SU2_GLUED


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
    cat = build_glued(d, 2)
    for sp in cat.spaces.values():
        for arrow in sp.arrows:
            assert arrow.compatibility_residual() <= 1e-9


def test_arrow_operations_stay_glued():
    d = su2_octa_datum(1, phases={v: Fraction(v, 8) for v in range(6)})
    a = glued_space(d, 1, 1).arrows[0]
    b = glued_space(d, 2, 2).arrows[0]
    for out in [
        a.compose(a),
        a.adjoint(),
        a.tensor(a),
        a + a,
        a - 0.5 * a,
        2.0j * a,
        tensor_glued(a, b),
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
    one = glued_identity(d, 2)
    assert one.compatibility_residual() <= 1e-12
    assert one.compose(one).norm() == pytest.approx(1.0)
    th = glued_symmetry(1, 1, d)
    assert th.compatibility_residual() <= 1e-12
    # braiding squares to the identity on matched powers
    assert (th.compose(th) - glued_identity(d, 2)).norm() <= 1e-12


def test_fibre_eval_returns_components():
    d = su2_octa_datum(0)
    a = glued_space(d, 1, 1).arrows[0]
    for v in range(6):
        assert np.array_equal(fibre_eval(a, v), a.components[v])


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
    with pytest.raises(ValueError):
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


def test_extraction_accepts_category():
    d = su2_octa_datum(1)
    cat = build_glued(d, 2)
    out = extract_twisted_special(cat)
    assert out.classes_agree


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


def test_chunked_hat_matrix_equals_unchunked(monkeypatch):
    d = _q8_gauged(subdivided_octahedron(1), 6)
    whole = {rs: d.hat_matrix(*rs) for rs in ALL_3}
    # room for 3 edges of the (3, 3) images (16 x 8 x 8 entries each)
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", 3 * 16 * 8 * 8)
    for rs, want in whole.items():
        got = d.hat_matrix(*rs)
        assert got.shape == want.shape == (len(d.complex.edges()),) + want.shape[1:]
        assert np.abs(got - want).max(initial=0.0) <= 1e-14, rs
    # one edge's (3, 3) images alone would exceed the cap
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", 16 * 8 * 8 - 1)
    with pytest.raises(SizeCapExceeded):
        d.hat_matrix(3, 3)


def test_edge_run_budget_counts_the_powers(monkeypatch):
    d = _q8_gauged(subdivided_octahedron(1), 6)
    want = d.hat_matrix(3, 3)
    m = want.shape[1]
    # one edge's (3, 3) images, plus the 8 x 8 powers on its rows and columns
    need = m * 8 * 8 + 2 * 8 * 8
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", need)
    assert np.abs(d.hat_matrix(3, 3) - want).max(initial=0.0) <= 1e-14
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", need - 1)
    with pytest.raises(SizeCapExceeded):
        d.hat_matrix(3, 3)
    arrow = glued_space(d, 1, 1).arrows[0]
    # both ends, the image and the two 2 x 2 powers of one (1, 1) edge
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", 3 * 4 + 2 * 4 - 1)
    with pytest.raises(SizeCapExceeded):
        arrow.compatibility_residual()


def test_edge_runs_are_views_of_the_cocycle_stack():
    d = _q8_gauged(octahedron(), 2)
    stack = d.cocycle.values
    runs = list(d._edge_runs(glue.EDGE_RUN_ENTRIES // 4))
    assert [len(run) for run, _ in runs] == [4, 4, 4]
    assert [e for run, _ in runs for e in run] == list(d.complex.edges())
    for run, u in runs:
        assert np.shares_memory(u, stack) and not u.flags.writeable
        for (i, j), t in zip(run, u):
            assert np.array_equal(t, d.transition(i, j))


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

    glued = DRTruncation(level=3, datum=d)
    plain = DRTruncation(level=3, group=quaternion_group())
    g = HAD @ PHASE_GATE
    a, b, c = stack(1, 1), stack(2, 1), stack(1, 2)
    ga, gb, gc = dr_element(glued, 1, 1, a), dr_element(glued, 1, 2, b), dr_element(glued, 2, 1, c)
    ops = [
        lambda x, y, z: dr_mul(x, y),  # pads the left factor
        lambda x, y, z: dr_mul(z, x),  # pads the right factor
        lambda x, y, z: canonical_endo(x),
        lambda x, y, z: gauge_action(g, y),
    ]
    for op in ops:
        got = op(ga, gb, gc)
        for v in range(n):
            ref = op(*(dr_element(plain, e.r, e.s, e.value[v]) for e in (ga, gb, gc)))
            assert (got.r, got.s) == (ref.r, ref.s)
            assert np.abs(got.value[v] - ref.value).max() <= 1e-12 * max(1.0, dr_norm(ref))
    assert np.abs(dr_mul(ga, gb).value[0] - np.kron(a[0], np.eye(2)) @ b[0]).max() <= 1e-12
    assert np.abs(dr_mul(gc, ga).value[0] - c[0] @ np.kron(a[0], np.eye(2))).max() <= 1e-12
    # the exchange identity holds for every matrix, so both sides are roundoff
    for e in (ga, gb, gc):
        want = max(eq_rhoeps(dr_element(plain, e.r, e.s, e.value[v])) for v in range(n))
        assert max(eq_rhoeps(e), want) <= 1e-12 * max(1.0, dr_norm(e))


def test_glued_space_is_memoized_on_the_datum():
    d = su2_octa_datum(1)
    sp = glued_space(d, 2, 2)
    assert glued_space(d, 2, 2) is sp
    cat = build_glued(d, 2)
    assert cat.space(2, 2) is sp and cat.spaces[(2, 2)] is sp
    assert cat.space(0, 2) is glued_space(d, 0, 2)
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


def test_glued_cap_bounds_the_holonomy_system():
    d = su2_octa_datum(1)
    # octahedron: 6 vertices, 12 edges, so 7 independent cycles; m = 2 at
    # (2, 2): holonomy rows and transports hold (7 + 6) * 2 * 2 entries
    need = (7 + 6) * 2 * 2
    with pytest.raises(SizeCapExceeded):
        glued_space(d, 2, 2, cap=need - 1)
    assert glued_space(d, 2, 2, cap=need).dim == 2
    # the memoized space is still guarded
    with pytest.raises(SizeCapExceeded):
        glued_space(d, 2, 2, cap=need - 1)
    with pytest.raises(SizeCapExceeded):
        build_glued(d, 2, cap=need - 1)


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


def _octahedron_and_twisted_circle():
    """An octahedron and a disjoint quarter-twisted circle: the antisymmetric
    line is glued on the first component and cut to zero on the second."""
    faces = octahedron().triangles()
    c = SimplicialComplex.from_maximal(9, list(faces) + [(6, 7), (7, 8), (6, 8)])
    trans = {e: np.eye(2) for e in c.edges()}
    trans[(6, 8)] = np.diag([1.0, 1j])
    return GluingDatum(c, special_unitary(2), trans)


def test_glued_space_is_one_read_only_section_stack():
    d = _q8_holonomy()
    for r, s in ALL_3:
        sp = glued_space(d, r, s)
        assert sp.sections.shape == (sp.dim, d.complex.vertices, 2 ** s, 2 ** r)
        assert not sp.sections.flags.writeable
        # the arrows are formed from the stack on access, not kept beside it
        assert set(vars(sp)) == {"datum", "r", "s", "sections", "fibre_dim"}
        arrows = sp.arrows
        assert len(arrows) == sp.dim
        for arrow, t in zip(arrows, sp.sections):
            assert (arrow.r, arrow.s) == (r, s) and np.array_equal(arrow.components, t)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_stacked_overlap_residuals_match_the_arrow_loop(case):
    d = ORACLE_CASES[case][0]()
    for r, s in ALL_3:
        sp = glued_space(d, r, s)
        got = d._overlap_residuals(r, s, sp.sections)
        assert got.shape == (sp.dim,)
        assert got.tolist() == [arrow_residual(a) for a in sp.arrows], (r, s)
        assert [a.compatibility_residual() for a in sp.arrows] == got.tolist(), (r, s)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_stacked_functor_checks_match_the_arrow_loop(case):
    d2 = ORACLE_CASES[case][0]()
    d1, witness = _gauged(d2, 17)
    got = glue._functor_checks(d1, d2, witness, 3, Tolerance())
    assert got == arrow_functor_checks(d1, d2, witness, 3, Tolerance())
    # a gauge is a witness, so every arrow of every space was checked
    assert got[1]
    transports = [name for name, _ in got[0] if name.startswith("transport")]
    assert len(transports) == sum(glued_space(d2, r, s).dim for r, s in ALL_3)


def test_functor_checks_stop_at_a_failing_arrow_mid_space():
    d1, d2 = _q8_gauged(octahedron(), 2), _q8_gauged(octahedron(), 2)
    witness = {v: as_matrix(np.eye(2)) for v in range(6)}
    sp = glued_space(d2, 2, 2)
    k = sp.dim // 2
    assert 0 < k < sp.dim - 1
    broken = np.array(sp.sections)
    broken[k, 0] = -broken[k, 0]
    d2._spaces[(2, 2)] = glue.GluedSpace(d2, 2, 2, glue._as_stack(broken), sp.fibre_dim)
    got = glue._functor_checks(d1, d2, witness, 3, Tolerance())
    assert got == arrow_functor_checks(d1, d2, witness, 3, Tolerance())
    checks, ok = got
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
    frames = np.array([witness[v] for v in range(d2.complex.vertices)])
    pushes = []
    real = glue.power_action

    def spy(u, t, r, s, **kw):
        if np.shape(u) == frames.shape and np.array_equal(u, frames):
            pushes.append((np.shape(t), glued_space(d2, r, s).dim))
        return real(u, t, r, s, **kw)

    monkeypatch.setattr(glue, "power_action", spy)
    assert glue._functor_checks(d1, d2, witness, 3, Tolerance()) == want
    assert want[1] and pushes
    for shape, dim in pushes:
        family = math.prod(shape[1:])
        # a group of families fits the budget, or is one family
        assert shape[0] * family <= budget or shape[0] == 1
        assert shape[0] < dim or dim * family <= budget
    # and some space was too large to push whole
    assert any(shape[0] < dim for shape, dim in pushes)


@pytest.mark.parametrize("rs", [(2, 2), (1, 3), (3, 3)])
def test_space_built_under_a_cap_is_checked_under_it(monkeypatch, rs):
    r, s = rs
    d = _q8_gauged(subdivided_octahedron(1), 6)
    m = len(d.fibre_basis(r, s))
    # hat_matrix's need for one edge: its m images and the two powers
    need = m * 2 ** (r + s) + 4 ** r + 4 ** s
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", need)
    sp = glued_space(d, r, s)
    # the whole stack needs more than the cap, so it is checked in groups
    assert 3 * sp.dim * 2 ** (r + s) + 4 ** r + 4 ** s > need
    got = d._overlap_residuals(r, s, sp.sections)
    assert got.max() <= 1e-9
    assert got.tolist() == [arrow_residual(a) for a in sp.arrows]
    monkeypatch.setattr(glue, "GLUED_COEFF_CAP", need - 1)
    with pytest.raises(SizeCapExceeded):
        d.hat_matrix(r, s)


EXTRACTION_CASES = dict(ORACLE_CASES, **{"twisted-circle": (_octahedron_and_twisted_circle, [])})


@pytest.mark.parametrize("case", sorted(EXTRACTION_CASES))
def test_stacked_extraction_matches_the_vertex_loop(case):
    d = EXTRACTION_CASES[case][0]()
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


@pytest.mark.parametrize("modulo", [None, "q8"])
@pytest.mark.parametrize("case", sorted(WITNESS_CASES))
def test_witness_search_matches_backtracking_oracle(case, modulo):
    d1, d2 = WITNESS_CASES[case]()
    group = quaternion_group() if modulo else None
    got = equivalent(d1.cocycle, d2.cocycle, modulo=group)
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
    try:
        w = search(d1.cocycle, d2.cocycle, modulo=modulo, search_cap=cap)
    except SearchCapExceeded:
        return "cap"
    return w if w is None else [w[v].tobytes() for v in range(d1.complex.vertices)]


def _memo_closure(monkeypatch):
    """Enumerate each candidate closure once: a closure of more elements
    than the cap raises CapExceeded, as ``enumerate_finite`` does."""
    real, memo = groups.enumerate_finite, {}

    def enumerate_once(group, tol=None):
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
    gens = [*d1.cocycle.values, *d2.cocycle.values, *(group.generators if group else ())]
    order = len(GroupSpec("finite", 2, gens).elements())
    # the real closure overflows below its order and fits at it
    for cap in (order - 1, order):
        got = _search_outcome(equivalent, d1, d2, group, cap)
        assert got == _search_outcome(propagation_equivalent, d1, d2, group, cap)
    _memo_closure(monkeypatch)
    # the least cap that lets the search finish, by bisection (more units
    # never make it fail)
    lo, hi = 0, 6 * order
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _search_outcome(equivalent, d1, d2, group, mid) == "cap" else (lo, mid)
    first = hi
    # every cap from 1 up to it; with no witness (6 * order units) the caps
    # between 240 and the last dozen are skipped to bound the quadratic cost
    caps = sorted(set(range(1, min(first, 240) + 1)) | set(range(first - 12, first + 1)))
    for cap in caps:
        got = _search_outcome(equivalent, d1, d2, group, cap)
        assert got == _search_outcome(propagation_equivalent, d1, d2, group, cap), cap
        assert (got == "cap") == (cap < first)


def test_oracle_cases_cover_both_verdicts():
    verdicts = {
        equivalent(d1.cocycle, d2.cocycle, modulo=quaternion_group()) is None
        for d1, d2 in (make() for make in WITNESS_CASES.values())
    }
    assert verdicts == {True, False}


def test_six_sector_hadamard_pair_has_a_witness_within_the_cap():
    # backtracking over the twists spends the 2000 units on failing root
    # candidates; the twist-free propagation finds the witness
    d1, d2 = _hadamard_pair(6)
    q8 = quaternion_group()
    w = equivalent(d1.cocycle, d2.cocycle, modulo=q8, search_cap=2000)
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

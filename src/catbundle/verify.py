"""Built-in verification suites.

Each suite returns a list of named checks with a residual and a verdict
against an absolute tolerance, mirroring the package-level guarantees:
special object identities, permutation-spanned intertwiner spaces,
conjugate equations, the cohomology engine, classification over the
octahedron, Chern class consistency, the norm sup formula, the
truncated algebra identities, and stabilizer faithfulness.  The command
line front end runs these; the test suite asserts them one by one.

Everything is seeded and deterministic.  The pseudo-random data (the
cochains of the cohomology engine suite, the coefficients of the norm
sup suite, the pairs of the stabilizer suite) are drawn from the
standard library's ``random.Random``, seeded 7, 11 and 13, so no suite
loads ``numpy.random``.  The suites over the octahedron import
``basecech`` and ``glue`` when they run, so ``dr_identity_checks`` and
``stabilizer_checks`` (the ``dr-check`` command) load only the fibre
layers.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .checks import _c, _exact
from .dralg import (
    DRTruncation,
    circle_action,
    dr_add,
    dr_element,
    dr_mul,
    dr_norm,
    dr_one,
    eq_rhoeps,
    fixed_points,
    inner_endo_nu,
    special_element,
    stabilizer_test,
)
from .groups import (
    cyclic_diagonal_group,
    full_unitary,
    normalizer_elements,
    quaternion_group,
    special_unitary,
)
from .linalg import projection_residual
from .repcat import (
    antisym_projector,
    conjugate_pair,
    intertwiners,
    special_isometry,
)

DEFAULT_CHECK_TOL = 1e-9
CLASSIFICATION_TOL = 1e-8


# ---------------------------------------------------------------------------
# engineered octahedron data


def _positive_triangle():
    """A triangle whose indicator 2-cocycle reduces to free coordinate +1."""
    from .basecech import h2_integral, octahedron

    comp = octahedron()
    h2 = h2_integral(comp)
    for t in comp.triangles():
        if h2.reduce({t: 1}).free == (1,):
            return comp, t
    raise RuntimeError("no positively oriented triangle found")


def su2_octa_datum(n, phases=None, windings=None, tol=None):
    """Scalar SU(2) datum on the octahedron of determinant class n.

    The class is carried by a winding of n on one positively oriented
    triangle; optional extra phases (a rational 0-cochain boundary) and
    extra windings (an integer 1-cochain boundary) produce different
    presentations of the same class.
    """
    from .glue import scalar_datum

    comp, tpos = _positive_triangle()
    qs = {e: Fraction(0) for e in comp.edges()}
    if phases:
        for v, q in dict(phases).items():
            for (i, j) in comp.edges():
                if i == v:
                    qs[(i, j)] += q
                if j == v:
                    qs[(i, j)] -= q
    w = {tpos: n} if n else {}
    if windings:
        for t, m in dict(windings).items():
            t = tuple(sorted(t))
            w[t] = w.get(t, 0) + int(m)
    w = {t: m for t, m in w.items() if m}
    return scalar_datum(comp, special_unitary(2), qs, windings=w, tol=tol)


def _edge_coboundary_windings(comp, edge_values):
    """delta of an integer 1-cochain, as a triangle winding dictionary."""
    out = {}
    for (i, j, k) in comp.triangles():
        n = (
            edge_values.get((j, k), 0)
            - edge_values.get((i, k), 0)
            + edge_values.get((i, j), 0)
        )
        if n:
            out[(i, j, k)] = n
    return out


# ---------------------------------------------------------------------------
# the nine suites


def special_object_checks(tol=DEFAULT_CHECK_TOL):
    out = []
    for d in (2, 3):
        data = special_isometry(d)
        s = data.isometry
        out.append(_c("special d=%d isometry" % d, np.linalg.norm(s.conj().T @ s - 1.0), tol))
        out.append(
            _c(
                "special d=%d range projector" % d,
                np.linalg.norm(s @ s.conj().T - antisym_projector(d, d)),
                tol,
            )
        )
        lhs = np.kron(s.conj().T, np.eye(d)) @ np.kron(np.eye(d), s)
        want = data.pairing_scalar * np.eye(d)
        out.append(_c("special d=%d pairing" % d, np.linalg.norm(lhs - want), tol))
    return out


def _partitions(r, parts, largest=None):
    """The partitions of r into at most ``parts`` parts, largest part first."""
    largest = r if largest is None else largest
    if r == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(r, largest), 0, -1):
        for rest in _partitions(r - first, parts - 1, first):
            yield (first,) + rest


def _hook_count(shape):
    """f^shape, the number of standard Young tableaux, by the hook length formula."""
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for other in shape[i + 1:] if other > j)
            hooks *= row - j + below
    return math.factorial(sum(shape)) // hooks


def _schur_weyl_dim(d, r):
    """dim (H^r, H^r) for u(d): the sum of (f^lambda)^2 over the partitions
    lambda of r with at most d rows (Schur-Weyl duality), an exact count."""
    return sum(_hook_count(shape) ** 2 for shape in _partitions(r, d))


def schur_weyl_checks():
    out = []
    for d in (2, 3):
        g = full_unitary(d)
        for r in range(4):
            got = intertwiners(g, r, r).dim
            want = _schur_weyl_dim(d, r)
            out.append(_exact("schur-weyl d=%d r=%d dim %d" % (d, r, want), got == want))
        off = all(
            intertwiners(g, r, s).dim == 0
            for r in range(4)
            for s in range(4)
            if r != s
        )
        out.append(_exact("schur-weyl d=%d off-diagonal zero" % d, off))
    return out


def conjugate_checks(tol=DEFAULT_CHECK_TOL):
    out = []
    for d in (2, 3):
        pair = conjugate_pair(d)
        r = pair.r
        left = np.kron(r.conj().T, np.eye(d)) @ np.kron(np.eye(d), r)
        right = np.kron(np.eye(d), r.conj().T) @ np.kron(r, np.eye(d))
        out.append(_c("conjugate d=%d equation 1" % d, np.linalg.norm(left - np.eye(d)), tol))
        out.append(_c("conjugate d=%d equation 2" % d, np.linalg.norm(right - np.eye(d)), tol))
        dim = complex((r.conj().T @ r)[0, 0])
        out.append(_c("conjugate d=%d dimension" % d, abs(dim - pair.dim_value), tol))
    return out


def _random_phase_cochain(rng, vertices):
    return {v: Fraction(rng.randint(-6, 6), rng.randint(1, 8)) for v in range(vertices)}


def _coboundary_phases(comp, theta):
    return {(i, j): theta[i] - theta[j] for (i, j) in comp.edges()}


def cech_engine_checks():
    from .basecech import (
        COEFF_PHASE,
        CechCocycle,
        circle_class,
        equivalent,
        h2_integral,
        is_cocycle,
        octahedron,
    )

    out = []
    comp = octahedron()
    h2 = h2_integral(comp)
    out.append(_exact("octahedron free rank 1", h2.free_rank == 1))
    out.append(_exact("octahedron no torsion", h2.torsion_orders == ()))
    rng = random.Random(7)
    agree = True
    witnessed = True
    for _ in range(10):
        theta = _random_phase_cochain(rng, comp.vertices)
        w = {t: rng.randint(-2, 2) for t in comp.triangles() if rng.randint(0, 1)}
        c = CechCocycle(comp, COEFF_PHASE, _coboundary_phases(comp, theta), windings=w)
        eta = _random_phase_cochain(rng, comp.vertices)
        pert = CechCocycle(comp, COEFF_PHASE, _coboundary_phases(comp, eta))
        c2 = c.product(pert)
        if not (is_cocycle(c) and is_cocycle(c2)):
            agree = False
            break
        if circle_class(c) != circle_class(c2):
            agree = False
        if equivalent(c, c2) is None:
            witnessed = False
    out.append(_exact("circle class invariant on 10 perturbed pairs", agree))
    out.append(_exact("coboundary witnesses found", witnessed))
    return out


def classification_checks(tol=CLASSIFICATION_TOL, rmax=3):
    from .basecech import octahedron
    from .glue import isomorphic

    out = []
    comp = octahedron()
    theta = {v: Fraction(v, 8) for v in range(comp.vertices)}
    extra = _edge_coboundary_windings(comp, {(1, 2): 1})
    d1 = su2_octa_datum(1)
    d2 = su2_octa_datum(1, phases=theta, windings=extra)
    report = isomorphic(d1, d2, rmax=rmax)
    out.append(_exact("equal classes give a witness", report.isomorphic))
    if report.isomorphic:
        worst = max(resid for _, resid in report.checks)
        out.append(_c("witness functor residual (r,s <= %d)" % rmax, worst, tol))
    d0 = su2_octa_datum(0)
    contrast = isomorphic(d0, d1, rmax=1)
    out.append(_exact("classes 0 and 1 inequivalent", not contrast.isomorphic))
    dist = contrast.distinguishing or {}
    zero = dist.get("first", {})
    one = dist.get("second", {})
    out.append(
        _exact(
            "distinguishing Chern classes 0 and 1",
            dist.get("invariant") == "determinant class"
            and zero.get("free") == [0]
            and one.get("free") == [1],
        )
    )
    return out


def chern_consistency_checks():
    from .glue import extract_twisted_special

    out = []
    for n in (0, 1, 2):
        datum = su2_octa_datum(n, phases={v: Fraction(v, 6) for v in range(6)} if n else None)
        ext = extract_twisted_special(datum)
        ok = (
            ext.classes_agree
            and ext.extracted_class.free == (n,)
            and ext.extracted_class.torsion == ()
        )
        out.append(_exact("chern extraction = pushforward, class %d" % n, ok))
    return out


def norm_sup_checks(tol=DEFAULT_CHECK_TOL):
    from .basecech import octahedron
    from .glue import GluedArrow, glued_space, norm_function, scalar_datum

    datum = su2_octa_datum(0)
    tr = scalar_datum(octahedron(), quaternion_group(), {e: Fraction(0) for e in octahedron().edges()})
    # each space's sections formed once, then read by every arrow drawn from it
    spaces = (glued_space(datum, 2, 2), glued_space(tr, 2, 2), glued_space(tr, 1, 1))
    spaces = [(sp, sp.sections) for sp in spaces]
    rng = random.Random(11)
    worst = 0.0
    made = 0
    while made < 100:
        sp, sections = spaces[made % len(spaces)]
        if sp.dim == 0:
            made += 1
            continue
        coeffs = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(sp.dim)]
        comps = sum(t * c for t, c in zip(sections, coeffs))
        nf = norm_function(GluedArrow(sp.datum, sp.r, sp.s, comps))
        worst = max(worst, abs(nf["global"] - max(nf["per_vertex"].values())))
        made += 1
    return [_c("norm sup formula on 100 random glued arrows", worst, tol)]


def dr_identity_checks(tol=DEFAULT_CHECK_TOL, level=3):
    out = []
    q8 = quaternion_group()
    trunc = DRTruncation(level=max(level, 4), group=q8)
    worst = 0.0
    for r in range(level + 1):
        for s in range(level + 1):
            for t in intertwiners(q8, r, s):
                el = dr_element(trunc, r, s, t)
                worst = max(worst, eq_rhoeps(el))
    out.append(_c("exchange identity, all bases r,s <= %d" % level, worst, tol))

    a = dr_element(trunc, 1, 1, intertwiners(q8, 1, 1)[0])
    b = dr_element(trunc, 0, 2, intertwiners(q8, 0, 2)[0])
    prod = dr_mul(a, b)
    grading_ok = (
        prod.grade == a.grade + b.grade
        and dr_mul(b, b).grade == 2 * b.grade
        and np.array_equal(circle_action(1j, b).value, (1j ** b.grade) * b.value)
    )
    z = complex(np.exp(0.73j))
    resid = dr_norm(
        dr_add(circle_action(z, prod), dr_mul(circle_action(z, a), circle_action(z, b)), scalar=-1.0)
    )
    out.append(_exact("circle grading exact", grading_ok))
    out.append(_c("circle action multiplicative", resid, tol))

    vbasis = [special_element(trunc)]
    worst = 0.0
    for r in range(3):
        for s in range(3):
            for t in intertwiners(q8, r, s):
                el = dr_element(trunc, r, s, t)
                lhs = inner_endo_nu(vbasis, circle_action(z, el))
                rhs = circle_action(z, inner_endo_nu(vbasis, el))
                worst = max(worst, dr_norm(dr_add(lhs, rhs, scalar=-1.0)))
    out.append(_c("inner endomorphism commutes with the circle", worst, tol))
    nu_one = inner_endo_nu(vbasis, dr_one(trunc))
    proj = dr_element(trunc, 2, 2, antisym_projector(2, 2))
    out.append(
        _c("inner endomorphism of 1 is the antisymmetric projector",
           dr_norm(dr_add(nu_one, proj, scalar=-1.0)), tol)
    )

    comparisons = (
        (q8, "quaternion", 3),
        (cyclic_diagonal_group(), "cyclic-4", 3),
        (special_unitary(2), "su(2)", 4),
    )
    for group, label, rtop in comparisons:
        ok = True
        worst = 0.0
        for r in range(rtop):
            for s in range(rtop):
                fp = fixed_points(group, r, s)
                tw = intertwiners(group, r, s)
                if len(fp) != tw.dim:
                    ok = False
                    continue
                fvecs = [m.reshape(-1) for m in fp]
                tvecs = [m.reshape(-1) for m in tw]
                for v in fvecs:
                    worst = max(worst, projection_residual(v, tvecs))
                for v in tvecs:
                    worst = max(worst, projection_residual(v, fvecs))
        out.append(_exact("fixed points dimension match (%s)" % label, ok))
        out.append(_c("fixed points span match (%s)" % label, worst, tol))
    return out


def stabilizer_checks():
    # at level 1 the gauge actions of some of these pairs agree although
    # their quotient leaves Q8, which the stabilizer test reports as a
    # contradiction; level 2 tells all of them apart, and higher levels
    # give the same verdicts
    q8 = quaternion_group()
    pool = q8.elements()
    extra = [
        np.diag([1.0, 1j]),
        np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
        np.exp(1j * math.pi / 4) * np.eye(2),
    ]
    rng = random.Random(13)
    us, vs = [], []
    for k in range(20):
        us.append(rng.choice(pool))
        vs.append(rng.choice(pool))
        if k % 2:
            us[-1] = us[-1] @ extra[k % len(extra)]
    # every candidate verified in one stacked call, handed on as verified
    elems = normalizer_elements(np.array(us + vs), q8)
    agree = np.array([stabilizer_test(u, v, q8, level=2).agree for u, v in zip(elems[:20], elems[20:])])
    member = q8.contains(np.array(us) @ np.array(vs).conj().transpose(0, 2, 1))
    return [
        _exact("stabilizer verdicts match membership on 20 pairs", (agree == member).all()),
        _exact("both membership outcomes exercised", bool(member.any() and not member.all())),
    ]


def builtin_checks(tol=DEFAULT_CHECK_TOL, rmax=3, level=3):
    """The full built-in suite, in criterion order."""
    out = []
    out += special_object_checks(tol)
    out += schur_weyl_checks()
    out += conjugate_checks(tol)
    out += cech_engine_checks()
    out += classification_checks(max(tol, CLASSIFICATION_TOL), rmax)
    out += chern_consistency_checks()
    out += norm_sup_checks(tol=tol)
    out += dr_identity_checks(tol, level)
    out += stabilizer_checks()
    return out

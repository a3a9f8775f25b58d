"""Oracles for the routes of ``catbundle.glue``: the loops and the stacks.

A glued space is its fibre coefficients, checked against the overlaps
and pushed by a witness on those alone, and read by the extraction
through its (dim, vertices, d^s, d^r) section stack.  The helpers here
do the same work on the sections: ``overlap_residuals`` checks a whole
section stack against the transitions, pushing it by a witness a group
of families at a time (the route the coefficient checks replaced), and
the loops work one arrow, or one vertex, at a time: each arrow's overlap
residual on the transitions of all edges, each arrow pushed and checked
on its own, and each patch rank of the extraction from its own
``nullspace``.  On every input the routes must give the same check
names and errors, and the same numbers up to roundoff.

``forest_holonomies`` forms a datum's frames, components and holonomies
outside the fibre group by the walk ``GluingDatum._holonomies`` made
before it read ``CechCocycle.holonomies``; both must be bit-identical.

``transport_sections`` solves a glued space the way the holonomy route
replaced: the transition action on the fibre basis along every edge
(``hat_matrix``), m x m transports along the spanning tree, and one
(cycles * m) x m kernel per component.  Both routes must span the same
space.
"""

import math

import numpy as np

from catbundle import (
    COEFF_PHASE,
    CechCocycle,
    ConsistencyError,
    GluedArrow,
    RankDeficientVModule,
    antisym_projector,
    circle_class,
    det_pushforward,
    glued_space,
    glued_symmetry,
    is_cocycle,
    nullspace,
    power_action,
    snap_phase,
)
from catbundle import glue
from catbundle.linalg import _as_stack
from witness_oracle import bfs_forest


def forest_holonomies(datum):
    """(frames, component of each vertex, (k, 2) edges, (k, d, d)
    holonomies outside the group), walking the forest frame by frame."""
    d, n = datum.degree, datum.complex.vertices
    frames = np.empty((n, d, d), dtype=complex)
    comp = np.empty(n, dtype=int)
    for k, (root, tree) in enumerate(datum.complex.spanning_forest()):
        frames[root], comp[root] = np.eye(d), k
        for pv, cv in tree:
            frames[cv], comp[cv] = datum.transition(cv, pv) @ frames[pv], k
    ends = np.array(datum.complex.edges(), dtype=int).reshape(-1, 2)
    c = datum.cocycle.values.reshape(-1, d, d)
    hol = frames[ends[:, 0]].conj().transpose(0, 2, 1) @ c @ frames[ends[:, 1]]
    off = ~datum.group.contains(hol, tol=datum.tol)
    return frames, comp, ends[off], hol[off]


def transport_sections(datum, r, s):
    """The (dim, vertices, d^s, d^r) orthonormal sections by transport:
    c_cv = M_(cv,pv) c_pv along the tree from the root coefficients c,
    then (T_i - M_ij T_j) c = 0 on every edge off the tree."""
    stack = datum.fibre_basis(r, s).stack
    m, ds, dr = stack.shape
    n = datum.complex.vertices
    edges = datum.complex.edges()
    hats = datum.hat_matrix(r, s)
    index = {e: k for k, e in enumerate(edges)}
    trans = np.zeros((n, m, m), dtype=complex)
    coeffs = []
    for root, tree in bfs_forest(datum.complex):
        trans[root] = np.eye(m)
        verts = [root]
        for (pv, cv) in tree:
            # the action is unitary, so the reverse of an edge is the adjoint
            step = hats[index[(cv, pv)]] if cv < pv else hats[index[(pv, cv)]].conj().T
            trans[cv] = step @ trans[pv]
            verts.append(cv)
        on_tree, inside = {(min(e), max(e)) for e in tree}, set(verts)
        off = [k for k, (i, j) in enumerate(edges) if i in inside and (i, j) not in on_tree]
        i, j = np.array(edges, dtype=int).reshape(-1, 2)[off].T
        op = (trans[i] - hats[off] @ trans[j]).reshape(len(off) * m, m)
        for x in nullspace(op, tol=datum.tol):
            c = np.zeros((n, m), dtype=complex)
            c[verts] = (trans[verts] @ x.ravel()) / math.sqrt(len(verts))
            coeffs.append(c)
    sections = np.reshape(coeffs, (len(coeffs), n, m)) @ stack.reshape(m, ds * dr)
    return sections.reshape(len(coeffs), n, ds, dr)


def arrow_residual(arrow):
    """One arrow's worst overlap mismatch |t_i - c_ij . t_j|, every edge
    moved by its transition in one power_action."""
    i, j = np.array(arrow.datum.complex.edges(), dtype=int).reshape(-1, 2).T
    img = power_action(arrow.datum.cocycle.values, arrow.components[j], arrow.r, arrow.s)
    return float(np.linalg.norm(arrow.components[i] - img, axis=(1, 2)).max(initial=0.0))


def overlap_residuals(datum, r, s, stack, witness=None):
    """The worst |t_i - c_ij . t_j| over the edges for each family of a
    (..., vertices, d^s, d^r) section stack, one power_action per run of
    edges moving a group of families.  With a (vertices, d, d) ``witness``
    w the families are first pushed patchwise, t_v -> w_v . t_v, in groups
    whose pushed copy fits one run's entry budget (at least one family)."""
    d = datum.degree
    fams = stack.reshape((-1,) + stack.shape[-3:])
    # per edge: both ends and the image of each family, and the powers
    one, powers = 3 * d ** (r + s), d ** (2 * r) + d ** (2 * s)
    budget = min(glue.EDGE_RUN_ENTRIES, glue.GLUED_COEFF_CAP)
    group = max(1, (glue.GLUED_COEFF_CAP - powers) // one)
    if witness is not None:
        group = min(group, max(1, budget // max(1, math.prod(fams.shape[1:]))))
    ends = np.array(datum.complex.edges(), dtype=int).reshape(-1, 2)
    worst = np.zeros(len(fams))
    for lo in range(0, len(fams), group):
        part, w = fams[lo : lo + group], worst[lo : lo + group]
        if witness is not None:
            part = power_action(witness, part, r, s)
        step = max(1, budget // (len(part) * one + powers))
        for e in range(0, len(ends), step):
            i, j = ends[e : e + step].T
            diff = part[:, i] - power_action(datum.cocycle.values[e : e + step], part[:, j], r, s)
            np.maximum(w, np.linalg.norm(diff, axis=(-2, -1)).max(axis=1), out=w)
    return worst.reshape(stack.shape[:-3])


def pushed(datum, witness, arrow):
    """The arrow conjugated patchwise by the witness, as an arrow over ``datum``."""
    u = np.array([witness[v] for v in range(len(arrow.components))])
    return GluedArrow(datum, arrow.r, arrow.s, power_action(u, arrow.components, arrow.r, arrow.s))


def arrow_functor_checks(d1, d2, witness, rmax, tol):
    """The functor checks with every arrow of a space pushed and checked
    on its own, stopping at the first failing one."""
    checks = []

    def push(arrow):
        return pushed(d1, witness, arrow)

    pairs = [(r, s) for r in range(rmax + 1) for s in range(rmax + 1)]
    for (r, s) in pairs:
        s1 = glued_space(d1, r, s)
        s2 = glued_space(d2, r, s)
        checks.append(("dim (%d,%d)" % (r, s), float(abs(s1.dim - s2.dim))))
        if s1.dim != s2.dim:
            return checks, False
        for arrow in s2.arrows:
            resid = arrow_residual(push(arrow))
            checks.append(("transport (%d,%d)" % (r, s), resid))
            if not tol.close(resid, scale=max(1.0, arrow.norm())):
                return checks, False
    sample = glued_space(d2, 1, 1)
    if sample.dim:
        a = sample.arrows[0]
        resid = (push(a.compose(a)) - push(a).compose(push(a))).norm()
        checks.append(("composition", resid))
        resid = (push(a.adjoint()) - push(a).adjoint()).norm()
        checks.append(("adjoint", resid))
        resid = (push(a.tensor(a)) - push(a).tensor(push(a))).norm()
        checks.append(("tensor", resid))
    th2 = glued_symmetry(1, 1, d2)
    resid = (push(th2) - glued_symmetry(1, 1, d1)).norm()
    checks.append(("braiding", resid))
    return checks, all(tol.close(r) for _, r in checks)


def vertex_extraction(datum, tol):
    """The twisted special extraction with one ``nullspace`` rank and one
    set of identity checks per vertex: (isometries, checks, phase cocycle,
    extracted class, pushforward class), or the same error."""
    d = datum.degree
    space = glued_space(datum, 0, d)
    if space.dim == 0:
        raise RankDeficientVModule("no glued antisymmetric sections at all")
    proj = antisym_projector(d, d)
    n = datum.complex.vertices
    sections = np.array([arrow.components for arrow in space.arrows])
    op = ((np.eye(d ** d) - proj) @ sections).reshape(space.dim, -1).T
    coeffs = nullspace(op, tol=tol)
    if not coeffs:
        raise RankDeficientVModule("no antisymmetric sections among the glued ones")
    stacks = np.tensordot(np.array([x.reshape(-1) for x in coeffs]), sections, axes=1)
    ranks = {}
    for v in range(n):
        block = stacks[:, v].reshape(len(stacks), -1)
        ranks[v] = len(stacks) - len(nullspace(block.T, tol=tol))
    if any(rk != 1 for rk in ranks.values()):
        raise RankDeficientVModule(
            "antisymmetric section module has patch ranks %r, need all 1" % (ranks,)
        )
    vee = np.zeros(stacks.shape[1:], dtype=complex)
    for comp in datum.complex.components():
        for f in stacks:
            if all(float(np.linalg.norm(f[v])) > tol.tau for v in comp):
                vee[comp] = f[comp]
                break
        else:
            raise RankDeficientVModule(
                "every antisymmetric section vanishes on some patch of the component of vertex %d"
                % comp[0]
            )
    scale = np.array([1.0 / float(np.linalg.norm(V)) for V in vee])
    comps = _as_stack(vee * scale[:, None, None])
    checks = []
    sd = d ** d
    for v in range(n):
        V = comps[v]
        checks.append(("isometry patch %d" % v, float(abs((V.conj().T @ V)[0, 0] - 1.0))))
        checks.append(
            (
                "range projector patch %d" % v,
                float(np.linalg.norm(V @ V.conj().T - proj, axis=(-2, -1))),
            )
        )
        lhs = np.kron(V.conj().T, np.eye(d)) @ np.kron(np.eye(d), V)
        want = ((-1.0) ** (d - 1)) / d * np.eye(d)
        checks.append(("pairing patch %d" % v, float(np.linalg.norm(lhs - want, axis=(-2, -1)))))
    for name, resid in checks:
        if not tol.close(resid, scale=math.sqrt(sd)):
            raise ConsistencyError("twisted special identity failed: %s (%g)" % (name, resid))
    inner = comps.reshape(n, sd) @ comps[0].conj().ravel()
    i, j = np.array(datum.complex.edges(), dtype=int).reshape(-1, 2).T
    z = inner[i] * inner[j].conj()
    phases = {e: snap_phase(complex(w), tol) for e, w in zip(datum.complex.edges(), z / np.abs(z))}
    cocycle = CechCocycle(datum.complex, COEFF_PHASE, phases, windings=dict(datum.windings))
    if not is_cocycle(cocycle, tol):
        raise ConsistencyError("extracted phases fail the cocycle identity")
    pushed_class = circle_class(det_pushforward(datum.cocycle, tol), tol)
    return comps, checks, cocycle, circle_class(cocycle, tol), pushed_class

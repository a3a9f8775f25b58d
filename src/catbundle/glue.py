"""Categories glued from group intertwiner fibres over a simplicial base.

A gluing datum assigns to every edge of the base a unitary normalizing
the fibre symmetry group, with the cocycle identity holding modulo the
group.  Conjugation by tensor powers of these transitions acts on the
intertwiner spaces of the fibre, and that action depends only on the
transition modulo the group, so the datum is exactly the amount of
information the glued category sees.  An arrow of the glued category is
a family of fibre intertwiners, one per patch, matched across overlaps
by the transition action; all operations are computed patchwise and the
overlap compatibility is what cuts the space down.

On a connected base such a family is fixed by its value at one patch.
Frames u_v carried along the base's spanning forest turn every edge
into a holonomy h_e = u_i* c_ij u_j in the normalizer (1 on the tree
edges), so a glued arrow is a fibre intertwiner x fixed by every
holonomy, carried to patch v by its frame.  A holonomy in the fibre
group fixes every intertwiner, so only the holonomies outside it cut
the space down; glued spaces are solved that way, per component.

Circle-valued winding numbers on triangles travel with the datum and
carry the part of the bundle class that constant transitions cannot
express; they are inert in all patchwise computations and resurface in
the determinant pushforward and the twisted special extraction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .basecech import (
    COEFF_FINITE,
    COEFF_PHASE,
    CechCocycle,
    SimplicialComplex,
    circle_class,
    det_pushforward,
    equivalent,
    is_cocycle,
    snap_phases,
)
from .errors import (
    ConsistencyError,
    NotACocycleModG,
    RankDeficientVModule,
    SizeCapExceeded,
)
from .groups import (
    GroupSpec,
    KIND_SU,
    KIND_U,
    NormalizerElement,
    _require_normalizing,
    group_distance,
)
from .linalg import (
    Tolerance,
    _as_stack,
    _below_cutoff,
    as_matrix,
    nullspace,
    opnorm,
    power_action,
)
from .repcat import antisym_projector, intertwiners, symmetry_unitary

GLUED_COEFF_CAP = 2_000_000
# transitions act on runs of edges whose stacked images hold at most this
# many entries (and never more than GLUED_COEFF_CAP): batched, yet small
EDGE_RUN_ENTRIES = 1 << 13


class GluingDatum:
    """Transitions in the normalizer of the fibre group, cocycle modulo it.

    ``transitions`` maps every overlap pair, in either orientation, to a
    unitary (ValueError if an edge has none); values on (j, i) are the
    adjoints of values on (i, j).  ``windings`` maps triangles to
    integers.  Both become ``cocycle``, whose (E, d, d) ``values`` stack
    in ``complex.edges()`` order, (0, d, d) on a base without edges, is
    the datum's one copy of the transitions.  Construction checks the
    transition stack for normalizer membership, then the triangle defect
    stack for the cocycle identity modulo the fibre group, one call each,
    and raises for the first offending edge, or NotACocycleModG with the
    first offending triangle.

    ``_holonomies`` filters the cocycle's one frame and holonomy table;
    it and the glued spaces are kept on the datum.  Unitaries act on
    fibre basis stacks through ``_basis_action``, and the transitions on
    section stacks through ``power_action``, one batched call per run of
    edges (``_edge_runs``).
    """

    def __init__(self, complex_, group, transitions, windings=None, tol=None):
        vals = {e: u.u if isinstance(u, NormalizerElement) else u for e, u in dict(transitions).items()}
        self._adopt(CechCocycle(complex_, COEFF_FINITE, vals, windings=windings, degree=group.degree), group, tol)

    def _adopt(self, cocycle, group, tol):
        """Check the transition stack of ``cocycle`` and keep it."""
        self.complex = cocycle.complex
        self.group = group
        self.tol = tol or Tolerance()
        self.cocycle = cocycle
        _require_normalizing(self.cocycle.values, group, tol=self.tol)
        inside = group.contains(self._triangle_defects(), tol=self.tol)
        if not inside.all():
            tri = self.complex.triangles()[np.argmin(inside)]  # the first False
            raise NotACocycleModG("transition defect on triangle %r is outside the fibre group" % (tri,))
        self._spaces = {}
        self._holonomy = None

    @property
    def degree(self):
        return self.group.degree

    @property
    def windings(self):
        return self.cocycle.windings

    def transition(self, i, j):
        return self.cocycle.value(i, j)

    def mod_group_residual(self):
        """Worst distance of a triangle transition defect from the fibre group."""
        return float(group_distance(self.group, self._triangle_defects()).max(initial=0.0))

    def _triangle_defects(self):
        """The defects c_ij c_jk c_ik* of ``complex.triangles()``, one (T, d, d) product."""
        ij, jk, ik = self.complex.triangle_edges().T
        c = self.cocycle.values
        return c[ij] @ c[jk] @ c[ik].conj().transpose(0, 2, 1)

    def fibre_basis(self, r, s):
        return intertwiners(self.group, r, s, tol=self.tol)

    def _edge_runs(self, per_edge):
        """``complex.edges()`` cut into runs, each with its (len, d, d)
        transitions, so that ``per_edge`` entries per edge stay within
        EDGE_RUN_ENTRIES and GLUED_COEFF_CAP.  Each run's transitions are
        a read-only slice of the cocycle's ``values`` stack."""
        if per_edge > GLUED_COEFF_CAP:
            raise SizeCapExceeded(
                "one edge needs %d entries, cap is %d" % (per_edge, GLUED_COEFF_CAP)
            )
        edges = self.complex.edges()
        step = max(1, min(EDGE_RUN_ENTRIES, GLUED_COEFF_CAP) // max(1, per_edge))
        for lo in range(0, len(edges), step):
            yield edges[lo : lo + step], self.cocycle.values[lo : lo + step]

    def _overlap_residuals(self, r, s, stack, witness=None):
        """The worst |t_i - u_ij . t_j| over the edges for each family of a
        (..., vertices, d^s, d^r) stack, one ``power_action`` per run moving
        all the families one edge fits under GLUED_COEFF_CAP (SizeCapExceeded
        only if a single family does not fit).  With a (vertices, d, d)
        ``witness`` w the families are first pushed patchwise, t_v -> w_v . t_v,
        in groups whose pushed copy fits one run's entry budget (at least
        one family), so the whole stack is never pushed at once."""
        d = self.degree
        fams = stack.reshape((-1,) + stack.shape[-3:])
        # per edge: both ends and the image of each family, and the powers
        one, powers = 3 * d ** (r + s), d ** (2 * r) + d ** (2 * s)
        group = max(1, (GLUED_COEFF_CAP - powers) // one)
        if witness is not None:
            budget = min(EDGE_RUN_ENTRIES, GLUED_COEFF_CAP)
            group = min(group, max(1, budget // max(1, math.prod(fams.shape[1:]))))
        worst = np.zeros(len(fams))
        for lo in range(0, len(fams), group):
            part, w = fams[lo : lo + group], worst[lo : lo + group]
            if witness is not None:
                part = power_action(witness, part, r, s)
            for run, u in self._edge_runs(len(part) * one + powers):
                i, j = np.array(run, dtype=int).reshape(-1, 2).T
                diff = part[:, i] - power_action(u, part[:, j], r, s)
                np.maximum(w, np.linalg.norm(diff, axis=(-2, -1)).max(axis=1), out=w)
        return worst.reshape(stack.shape[:-3])

    def _basis_action(self, u, r, s, edges):
        """The (k, m, m) action of a (k, d, d) stack on the (r, s) fibre basis,
        laid out as in ``hat_matrix``.  Each image must stay in the fibre
        space; ConsistencyError names the ``edges`` entry of the first not."""
        stack = self.fibre_basis(r, s).stack
        m, ds, dr = stack.shape
        if not len(u):
            return np.zeros((0, m, m), dtype=complex)
        flat = stack.reshape(m, ds * dr)
        imgs = power_action(u[:, None], stack, r, s).reshape(len(u), m, ds * dr)
        coords = flat.conj() @ imgs.transpose(0, 2, 1)
        resid = np.linalg.norm(imgs - coords.transpose(0, 2, 1) @ flat, axis=2)
        scale = np.linalg.norm(imgs, axis=2) + 1.0
        bad = np.flatnonzero(~(resid <= self.tol.tau * scale).all(axis=1))
        if bad.size:
            i, j = edges[bad[0]]
            raise ConsistencyError(
                "the action on edge (%d, %d) does not preserve the (%d, %d) fibre space" % (i, j, r, s)
            )
        return coords

    def hat_matrix(self, r, s):
        """Actions of the transitions on the (r, s) fibre intertwiner basis.

        Returns an (E, m, m) array over ``complex.edges()`` in the stored
        orientation i < j, entry [e, a, b] the coordinate on basis a of
        the image of basis b; the reverse orientation is the adjoint.  The
        edges are moved in runs (see ``_edge_runs``; SizeCapExceeded if
        one edge's images and tensor powers exceed GLUED_COEFF_CAP), each
        by one ``_basis_action``.
        """
        m, ds, dr = self.fibre_basis(r, s).stack.shape
        # per edge: the m images, and power_action's powers (at most
        # d^(2s) entries on the rows and d^(2r) on the columns)
        runs = self._edge_runs(m * ds * dr + ds * ds + dr * dr)
        out = [self._basis_action(u, r, s, run) for run, u in runs]
        out = np.concatenate(out) if out else np.zeros((0, m, m), dtype=complex)
        out.setflags(write=False)
        return out

    def _holonomies(self):
        """Formed once: the cocycle's frames u (``CechCocycle.holonomies``),
        each vertex's component, and the (k, 2) edges whose holonomy lies
        outside the fibre group with those (k, d, d) holonomies, kept by one
        ``contains``; k is at most the number of cycles."""
        if self._holonomy is None:
            frames, hol = self.cocycle.holonomies()
            comp = np.empty(self.complex.vertices, dtype=int)
            for k, verts in enumerate(self.complex.components()):
                comp[verts] = k
            ends = np.array(self.complex.edges(), dtype=int).reshape(-1, 2)
            off = ~self.group.contains(hol, tol=self.tol)
            self._holonomy = (frames, comp, ends[off], hol[off])
        return self._holonomy

    def to_json(self):
        return {
            "complex": self.complex.to_json(),
            "group": self.group.to_json(),
            "cocycle": self.cocycle.to_json(),
        }

    @classmethod
    def from_json(cls, doc, tol=None):
        complex_ = SimplicialComplex.from_json(doc["complex"])
        group = GroupSpec.from_json(doc["group"])
        # the cocycle document is read as matrix data whatever its "coeff"
        c = CechCocycle.from_json(dict(doc["cocycle"], coeff=COEFF_FINITE), complex_, degree=group.degree)
        datum = cls.__new__(cls)
        datum._adopt(c, group, tol)
        return datum


def scalar_datum(complex_, group, phases, windings=None, tol=None):
    """Datum whose transitions are the scalar unitaries exp(2*pi*i*q) * 1.

    ``phases`` maps edges to rational phases q.  Scalars normalize every
    fibre group, so this is the quickest way to write down twisted data.
    """
    d = group.degree
    eye = np.eye(d)
    transitions = {}
    for (i, j), q in dict(phases).items():
        transitions[(i, j)] = cmath.exp(2j * math.pi * float(q)) * eye
    return GluingDatum(complex_, group, transitions, windings=windings, tol=tol)


@dataclass
class GluedArrow:
    """A family of fibre intertwiners matched across overlaps.

    ``components`` is one read-only (vertices, d^s, d^r) stack: slice v
    is the fibre arrow over patch v.  The constructor checks that shape
    against the base (ValueError on a family that misses a patch or has
    one too many) and freezes a copy, so every operation below is one
    expression on the stack.
    """

    datum: GluingDatum
    r: int
    s: int
    components: np.ndarray

    def __post_init__(self):
        d = self.datum.degree
        want = (self.datum.complex.vertices, d ** self.s, d ** self.r)
        shape = np.shape(self.components)
        if shape != want:
            raise ValueError(
                "components have shape %r, the (%d, %d) family needs %r" % (shape, self.r, self.s, want)
            )
        self.components = _as_stack(self.components)

    def compose(self, other):
        if other.datum is not self.datum or other.s != self.r:
            raise ValueError("arrows do not compose")
        return GluedArrow(self.datum, other.r, self.s, self.components @ other.components)

    def adjoint(self):
        return GluedArrow(self.datum, self.s, self.r, self.components.conj().transpose(0, 2, 1))

    def tensor(self, other):
        if other.datum is not self.datum:
            raise ValueError("arrows live over different data")
        # the Kronecker product patch by patch: np.kron of two stacks
        # would also multiply across the patch axis
        a, b = self.components, other.components
        n = len(a)
        prod = a[:, :, None, :, None] * b[:, None, :, None, :]
        comps = prod.reshape(n, a.shape[1] * b.shape[1], a.shape[2] * b.shape[2])
        return GluedArrow(self.datum, self.r + other.r, self.s + other.s, comps)

    def __add__(self, other):
        if other.datum is not self.datum or (other.r, other.s) != (self.r, self.s):
            raise ValueError("arrows live in different spaces")
        return GluedArrow(self.datum, self.r, self.s, self.components + other.components)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return GluedArrow(self.datum, self.r, self.s, self.components * complex(scalar))

    __rmul__ = __mul__

    def norm(self):
        """The largest operator norm of a component, from one stacked SVD."""
        return float(np.linalg.svd(self.components, compute_uv=False)[:, 0].max())

    def compatibility_residual(self):
        """The one-family case of the datum's ``_overlap_residuals``."""
        return float(self.datum._overlap_residuals(self.r, self.s, self.components))


def glued_identity(datum, r):
    eye = np.eye(datum.degree ** r)
    return GluedArrow(datum, r, r, np.broadcast_to(eye, (datum.complex.vertices,) + eye.shape))


def glued_symmetry(r, s, datum):
    """The braiding family: constant because permutations commute with tensor powers."""
    th = symmetry_unitary(r, s, datum.degree)
    n = datum.complex.vertices
    return GluedArrow(datum, r + s, s + r, np.broadcast_to(th, (n,) + th.shape))


@dataclass
class GluedSpace:
    """All glued arrows between two tensor powers as one read-only
    (dim, vertices, d^s, d^r) stack ``sections`` of orthonormal sections,
    checked against the overlaps or pushed by a witness in one call;
    ``arrows`` forms the basis arrows from it on each access."""

    datum: GluingDatum
    r: int
    s: int
    sections: np.ndarray
    fibre_dim: int

    @property
    def dim(self):
        return len(self.sections)

    @property
    def arrows(self):
        return [GluedArrow(self.datum, self.r, self.s, t) for t in self.sections]


def glued_space(datum, r, s, cap=GLUED_COEFF_CAP):
    """Solve the overlap matching constraints from the holonomies.

    With the datum's frames u_v (``GluingDatum._holonomies``), a family
    t_v = u_v . x matches across every tree edge, and across an edge
    (i, j) exactly when x is fixed by its holonomy h_e = u_i* c_ij u_j.
    So on each component the glued arrows are the (r, s) fibre
    intertwiners fixed by its holonomies outside the fibre group (those
    inside fix every intertwiner): the kernel of the stacked m x m blocks
    H_e - 1 of their fibre-basis actions, decided by ``nullspace`` on its
    unit scale, since a trivial action makes the system numerically zero.
    With no holonomy left the operator is empty and the kernel is the
    whole fibre basis, with no SVD.  A kernel vector x gives the unit
    section u_v . x / sqrt(|component|) on its component and zero
    elsewhere, all from one ``power_action`` of the frames.

    ``cap`` bounds the holonomy system by (cycles + vertices) * m * m
    entries, an upper bound since at most one holonomy per cycle lies
    outside the group, and is checked on every call; the space is solved
    once per (datum, r, s) and kept on the datum as one read-only section
    stack (GluedSpace), checked against the overlaps and pushed by a
    witness in one call.
    """
    m = len(datum.fibre_basis(r, s))
    n = datum.complex.vertices
    cycles = len(datum.complex.edges()) - n + len(datum.complex.spanning_forest())
    if (cycles + n) * m * m > cap:
        raise SizeCapExceeded(
            "glued holonomy system (%d + %d) x %d blocks of %d x %d exceeds the cap"
            % (cycles, n, m, m, m)
        )
    if (r, s) not in datum._spaces:
        sections = _holonomy_sections(datum, r, s)
        sections.setflags(write=False)
        datum._spaces[(r, s)] = GluedSpace(datum, r, s, sections, m)
    return datum._spaces[(r, s)]


def _holonomy_sections(datum, r, s):
    """The (dim, vertices, d^s, d^r) orthonormal sections, by component (see glued_space)."""
    stack = datum.fibre_basis(r, s).stack
    m, ds, dr = stack.shape
    frames, comp, ends, hol = datum._holonomies()
    blocks = datum._basis_action(hol, r, s, ends) - np.eye(m)
    owner, coeffs = [], []
    for k in range(len(datum.complex.spanning_forest())):
        op = blocks[comp[ends[:, 0]] == k]
        kernel = nullspace(op.reshape(len(op) * m, m), tol=datum.tol)
        owner += [k] * len(kernel)
        coeffs += [x.ravel() for x in kernel]
    owner = np.array(owner, dtype=int)
    x = np.reshape(coeffs, (len(coeffs), 1, m)) @ stack.reshape(m, ds * dr)
    # the unit section u_v . x / sqrt(|component|) on x's component, 0 elsewhere
    weight = (comp == owner[:, None]) / np.sqrt(np.bincount(comp)[owner])[:, None]
    return power_action(frames, x.reshape(-1, 1, ds, dr), r, s) * weight[:, :, None, None]


class GluedCategory:
    """Arrow spaces of the glued category up to a tensor power cap."""

    def __init__(self, datum, r_max, cap=GLUED_COEFF_CAP):
        if r_max < 0:
            raise ValueError("the power cap must be nonnegative")
        self.datum = datum
        self.r_max = r_max
        self.cap = cap
        self.spaces = {
            (r, s): self.space(r, s) for r in range(r_max + 1) for s in range(r_max + 1)
        }

    def space(self, r, s):
        return glued_space(self.datum, r, s, cap=self.cap)

    def dims(self):
        return {rs: sp.dim for rs, sp in sorted(self.spaces.items())}


def build_glued(datum, r_max, cap=GLUED_COEFF_CAP):
    """All glued arrow spaces with powers up to the cap."""
    return GluedCategory(datum, r_max, cap=cap)


def fibre_eval(arrow, v):
    """Evaluate a glued arrow in the fibre over patch v."""
    return arrow.components[v]


def norm_function(arrow):
    """Patchwise operator norms plus the global norm.

    The global norm is computed on the direct sum of the components, not
    as a maximum, so comparing it against the patchwise supremum is a
    real check of the sup formula.
    """
    comps = arrow.components
    n, ds, dr = comps.shape
    per = dict(enumerate(np.linalg.svd(comps, compute_uv=False)[:, 0].tolist()))
    # block v of the direct sum sits at rows v*ds.. and columns v*dr..
    block = np.zeros((n, ds, n, dr), dtype=complex)
    block[np.arange(n), :, np.arange(n), :] = comps
    return {"per_vertex": per, "global": opnorm(block.reshape(n * ds, n * dr))}


def tensor_glued(a, b, tol=None):
    """Tensor of glued arrows, with the overlap matching rechecked."""
    tol = tol or Tolerance()
    out = a.tensor(b)
    if not tol.close(out.compatibility_residual(), scale=max(1.0, out.norm())):
        raise ConsistencyError("tensor of glued arrows drifted off the overlap matching")
    return out


# ---------------------------------------------------------------------------
# classification


@dataclass
class IsomorphismReport:
    isomorphic: bool
    witness: dict | None = None
    distinguishing: dict | None = None
    checks: list = field(default_factory=list)

    def __bool__(self):
        return self.isomorphic


def _functor_checks(d1, d2, witness, rmax, tol):
    """Verify that patchwise conjugation by the witness carries glued
    arrows of the second datum to glued arrows of the first and respects
    composition, adjoints, tensor products and the braiding."""
    checks = []
    u = np.array([witness[v] for v in range(d1.complex.vertices)])

    def push(arrow):
        return GluedArrow(d1, arrow.r, arrow.s, power_action(u, arrow.components, arrow.r, arrow.s))

    for r, s in np.ndindex(rmax + 1, rmax + 1):
        s1 = glued_space(d1, r, s)
        s2 = glued_space(d2, r, s)
        checks.append(("dim (%d,%d)" % (r, s), float(abs(s1.dim - s2.dim))))
        if s1.dim != s2.dim:
            return checks, False
        # one overlap check per space, pushing the families by the witness
        # a group at a time, and one SVD per space, reported by arrow
        resids = d1._overlap_residuals(r, s, s2.sections, witness=u)
        norms = np.linalg.svd(s2.sections, compute_uv=False)[..., 0].max(axis=1)
        for resid, norm in zip(resids.tolist(), norms):
            checks.append(("transport (%d,%d)" % (r, s), resid))
            if not tol.close(resid, scale=max(1.0, norm)):
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


def isomorphic(d1, d2, rmax=2, tol=None):
    """Decide whether two gluing data present the same glued category.

    Special unitary fibre: the transition action factors through the
    determinant, so the data are isomorphic exactly when the determinant
    phase cocycles are equivalent (flat parts cohomologous and equal
    integral classes); the witness is scalar per patch.  Finite fibre:
    search for patchwise normalizer witnesses modulo the fibre group and
    require equal determinant classes.  When no witness exists the report
    carries a distinguishing invariant.
    """
    tol = tol or Tolerance()
    if d1.complex != d2.complex:
        raise ValueError("data live over different bases")
    if d1.group.kind != d2.group.kind or d1.degree != d2.degree:
        raise ValueError("fibre groups do not match")

    if d1.group.kind == KIND_U:
        # every transition acts trivially on the fibre spaces, which are
        # spanned by permutation operators
        d = d1.degree
        witness = {
            v: as_matrix(np.eye(d)) for v in range(d1.complex.vertices)
        }
        checks, ok = _functor_checks(d1, d2, witness, rmax, tol)
        if not ok:
            raise ConsistencyError("identity witness failed on a permutation fibre")
        return IsomorphismReport(True, witness, None, checks)

    p1 = det_pushforward(d1.cocycle, tol)
    p2 = det_pushforward(d2.cocycle, tol)
    c1 = circle_class(p1, tol)
    c2 = circle_class(p2, tol)
    by_class = {"invariant": "determinant class", "first": c1.to_json(), "second": c2.to_json()}

    if d1.group.kind == KIND_SU:
        theta = equivalent(p1, p2, tol=tol)
        if theta is None:
            dist = by_class if c1 != c2 else {"invariant": "determinant holonomy"}
            return IsomorphismReport(False, None, dist)
        d = d1.degree
        witness = {
            v: as_matrix(cmath.exp(2j * math.pi * float(q) / d) * np.eye(d))
            for v, q in theta.items()
        }
        checks, ok = _functor_checks(d1, d2, witness, rmax, tol)
        if not ok:
            raise ConsistencyError("scalar witness failed the functor checks")
        return IsomorphismReport(True, witness, None, checks)

    if c1 != c2:
        return IsomorphismReport(False, None, by_class)
    w = equivalent(d1.cocycle, d2.cocycle, modulo=d1.group, tol=tol)
    if w is None:
        dist = {"invariant": "no witness in the transition closure"}
        dims = [
            ((r, s), glued_space(d1, r, s).dim, glued_space(d2, r, s).dim)
            for r in range(rmax + 1)
            for s in range(rmax + 1)
        ]
        differ = next((x for x in dims if x[1] != x[2]), None)
        if differ is not None:
            rs, a, b = differ
            dist = {"invariant": "glued dimension at %r" % (rs,), "first": a, "second": b}
        return IsomorphismReport(False, None, dist)
    _require_normalizing(np.array(list(w.values())), d1.group, tol=tol)
    checks, ok = _functor_checks(d1, d2, w, rmax, tol)
    if not ok:
        raise ConsistencyError("cocycle witness failed the functor checks")
    return IsomorphismReport(True, w, None, checks)


# ---------------------------------------------------------------------------
# twisted special extraction


@dataclass
class TwistedSpecialExtraction:
    """``isometries`` is the read-only (vertices, d^d, 1) stack of the
    unit antisymmetric section, patch v at slice v."""

    isometries: np.ndarray
    module_basis: list
    phase_cocycle: CechCocycle
    extracted_class: object
    pushforward_class: object
    checks: list

    @property
    def classes_agree(self):
        return self.extracted_class == self.pushforward_class


def extract_twisted_special(cat, tol=None):
    """Recover the determinant twist from the glued antisymmetric line.

    The antisymmetric isometries in the fibres form a glued family of
    rank one over each patch; its patch-to-patch phases reproduce the
    determinants of the transitions, and the integral class of those
    phases (windings included) is the class of the datum.  Computed
    without ever looking at the transition determinants, then compared
    against the determinant pushforward route.  Accepts a glued category
    or a bare datum.  The space's section stack is read whole: one stacked
    SVD gives every patch rank, and each identity is checked on all patches
    in one expression."""
    datum = cat.datum if isinstance(cat, GluedCategory) else cat
    tol = tol or datum.tol
    d = datum.degree
    space = cat.space(0, d) if isinstance(cat, GluedCategory) else glued_space(datum, 0, d)
    if space.dim == 0:
        raise RankDeficientVModule("no glued antisymmetric sections at all")
    proj = antisym_projector(d, d)
    n = datum.complex.vertices
    op = ((np.eye(d ** d) - proj) @ space.sections).reshape(space.dim, -1).T
    # arrows are unit sections, so the reference scale for "this column
    # combination is antisymmetric" is nullspace's unit one: the op is
    # numerically zero exactly when every section is already antisymmetric
    coeffs = nullspace(op, tol=tol)
    if not coeffs:
        raise RankDeficientVModule("no antisymmetric sections among the glued ones")
    stacks = np.tensordot(np.array([x.reshape(-1) for x in coeffs]), space.sections, axes=1)
    # the rank of every patch's (d^d, families) block from one stacked SVD
    blocks = stacks.reshape(len(stacks), n, -1).transpose(1, 2, 0)
    above = ~_below_cutoff(np.linalg.svd(blocks, compute_uv=False), tol)
    ranks = dict(enumerate(above.sum(axis=1).tolist()))
    if any(rk != 1 for rk in ranks.values()):
        raise RankDeficientVModule(
            "antisymmetric section module has patch ranks %r, need all 1" % (ranks,)
        )
    # a section may vanish on whole components of the base, so the
    # nowhere-vanishing one is picked component by component
    alive = np.linalg.norm(stacks, axis=(2, 3)) > tol.tau
    vee = np.zeros(stacks.shape[1:], dtype=complex)
    for comp in datum.complex.components():
        live = np.flatnonzero(alive[:, comp].all(axis=1))
        if not live.size:
            raise RankDeficientVModule(
                "every antisymmetric section vanishes on some patch of the component of vertex %d"
                % comp[0]
            )
        vee[comp] = stacks[live[0], comp]
    # patchwise norms of a section are constant on components, so this
    # normalization keeps the overlap matching exact
    scale = np.array([1.0 / float(np.linalg.norm(V)) for V in vee])
    comps = _as_stack(vee * scale[:, None, None])
    adj = comps.conj().transpose(0, 2, 1)
    # np.kron takes the stacks patch by patch (the 2-d identity is promoted)
    pairing = np.kron(adj, np.eye(d)) @ np.kron(np.eye(d), comps) - (-1.0) ** (d - 1) / d * np.eye(d)
    resids = [np.abs((adj @ comps)[:, 0, 0] - 1.0), np.linalg.norm(comps @ adj - proj, axis=(1, 2))]
    resids.append(np.linalg.norm(pairing, axis=(1, 2)))
    names = ("isometry patch %d", "range projector patch %d", "pairing patch %d")
    checks = [(name % v, float(x[v])) for v in range(n) for name, x in zip(names, resids)]
    # every check at once, in the order of ``checks``
    ok = tol.close(np.stack(resids, axis=1).ravel(), scale=math.sqrt(d ** d))
    if not ok.all():
        name, resid = checks[np.argmin(ok)]
        raise ConsistencyError("twisted special identity failed: %s (%g)" % (name, resid))
    # <sref, comps[v]> for every vertex in one product, sref = comps[0]
    inner = comps.reshape(n, -1) @ comps[0].conj().ravel()
    i, j = np.array(datum.complex.edges(), dtype=int).reshape(-1, 2).T
    z = inner[i] * inner[j].conj()
    num, den = snap_phases(z / np.abs(z), tol)
    cocycle = CechCocycle.from_numerators(datum.complex, COEFF_PHASE, num, den, windings=datum.windings)
    if not is_cocycle(cocycle, tol):
        raise ConsistencyError("extracted phases fail the cocycle identity")
    extracted = circle_class(cocycle, tol)
    pushed = circle_class(det_pushforward(datum.cocycle, tol), tol)
    families = [GluedArrow(datum, 0, d, f) for f in stacks]
    return TwistedSpecialExtraction(comps, families, cocycle, extracted, pushed, checks)

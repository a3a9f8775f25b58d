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

On a connected base such a family is fixed by its value at one patch:
transport along a spanning tree gives the rest, and the edges off the
tree (one per independent cycle) leave exactly the root values fixed by
the holonomy.  Glued spaces are solved that way, per component.

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
    _spanning_forest,
    circle_class,
    det_pushforward,
    equivalent,
    is_cocycle,
    snap_phase,
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
    group_distance,
    verify_normalizer,
)
from .linalg import (
    Tolerance,
    _as_stack,
    as_matrix,
    hs_inner,
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
    integers.  Both become ``cocycle``, whose ``values`` stack in
    ``complex.edges()`` order is the datum's one copy of the
    transitions.  Construction verifies normalizer membership of every
    transition and the cocycle identity modulo the fibre group on every
    triangle, raising NotACocycleModG with the offending triangle.

    The stacked fibre bases, the spanning forest and the glued spaces are
    formed once and kept on the datum; the transitions act on a fibre
    basis through ``power_action``, in runs of edges (see
    ``_edge_runs``), one batched call per run.
    """

    def __init__(self, complex_, group, transitions, windings=None, tol=None):
        self.complex = complex_
        self.group = group
        self.tol = tol or Tolerance()
        vals = {e: u.u if isinstance(u, NormalizerElement) else u for e, u in dict(transitions).items()}
        self.cocycle = CechCocycle(self.complex, COEFF_FINITE, vals, windings=windings)
        for u in self.cocycle.values:
            verify_normalizer(u, group, tol=self.tol)
        for tri, w in zip(self.complex.triangles(), self._triangle_defects()):
            if not group.contains(w, tol=self.tol):
                raise NotACocycleModG(
                    "transition defect on triangle %r is outside the fibre group" % (tri,)
                )
        self._stacks = {}
        self._spaces = {}
        self._forest = None

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
        return max([0.0] + [group_distance(self.group, w) for w in self._triangle_defects()])

    def _triangle_defects(self):
        """The defects c_ij c_jk c_ik* of ``complex.triangles()``, as one
        (T, d, d) product over the stacked transitions."""
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

    def _stack(self, r, s):
        """The fibre basis as one (m, d^s, d^r) array."""
        st = self._stacks.get((r, s))
        if st is None:
            d = self.degree
            basis = self.fibre_basis(r, s)
            st = np.array(basis.basis).reshape(len(basis), d ** s, d ** r)
            st.setflags(write=False)
            self._stacks[(r, s)] = st
        return st

    def _trees(self):
        """The spanning forest of the base: (root, tree edges) per component."""
        if self._forest is None:
            self._forest = _spanning_forest(self.complex)
        return self._forest

    def hat_matrix(self, r, s):
        """Actions of the transitions on the (r, s) fibre intertwiner basis.

        Returns an (E, m, m) array over ``complex.edges()`` in the stored
        orientation i < j, entry [e, a, b] the coordinate on basis a of
        the image of basis b; the reverse orientation is the adjoint.  The
        edges are moved in runs (see ``_edge_runs``; SizeCapExceeded if
        one edge's images and tensor powers exceed GLUED_COEFF_CAP), and
        each image must stay in the fibre space, which is checked element
        by element.
        """
        stack = self._stack(r, s)
        m, ds, dr = stack.shape
        flat = stack.reshape(m, ds * dr)
        out = []
        # per edge: the m images, and power_action's powers (at most
        # d^(2s) entries on the rows and d^(2r) on the columns)
        for run, u in self._edge_runs(m * ds * dr + ds * ds + dr * dr):
            imgs = power_action(u[:, None], stack, r, s).reshape(len(run), m, ds * dr)
            coords = flat.conj() @ imgs.transpose(0, 2, 1)
            resid = np.linalg.norm(imgs - coords.transpose(0, 2, 1) @ flat, axis=2)
            scale = np.linalg.norm(imgs, axis=2) + 1.0
            bad = np.flatnonzero(~(resid <= self.tol.tau * scale).all(axis=1))
            if bad.size:
                i, j = run[bad[0]]
                raise ConsistencyError(
                    "transition (%d, %d) does not preserve the (%d, %d) fibre space" % (i, j, r, s)
                )
            out.append(coords)
        out = np.concatenate(out) if out else np.zeros((0, m, m), dtype=complex)
        out.setflags(write=False)
        return out

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
        c = CechCocycle.from_json(dict(doc["cocycle"], coeff=COEFF_FINITE), complex_)
        return cls(complex_, group, zip(complex_.edges(), c.values), windings=c.windings, tol=tol)


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
        d = self.datum.degree
        worst = 0.0
        # per edge: both ends and the image, and power_action's powers
        per_edge = 3 * d ** (self.r + self.s) + d ** (2 * self.r) + d ** (2 * self.s)
        for run, u in self.datum._edge_runs(per_edge):
            i, j = np.array(run, dtype=int).reshape(-1, 2).T
            img = power_action(u, self.components[j], self.r, self.s)
            worst = max(worst, float(np.linalg.norm(self.components[i] - img, axis=(1, 2)).max()))
        return worst


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
    """All glued arrows between two tensor powers."""

    datum: GluingDatum
    r: int
    s: int
    arrows: list
    fibre_dim: int

    @property
    def dim(self):
        return len(self.arrows)


def glued_space(datum, r, s, cap=GLUED_COEFF_CAP):
    """Solve the overlap matching constraints by transport and holonomy.

    An arrow is determined by one coefficient vector per patch over the
    fibre intertwiner basis; each edge imposes c_i = M_ij c_j where M_ij
    is the transition action in that basis.  The M_ij are unitary (the
    basis is orthonormal), so along a spanning tree of each component
    c_v = T_v c_root with T_v a product of M's and adjoints, and the
    edges off the tree leave the root values with (T_i - M_ij T_j) c = 0:
    one (cycles * m) x m kernel per component, decided on nullspace's
    unit scale, since a trivial holonomy makes the whole system
    numerically zero.  A kernel vector c gives the unit section T_v c /
    sqrt(|component|) on its component and zero elsewhere.

    ``cap`` bounds the entries of what is built, the holonomy rows plus
    the transports, and is checked on every call; the space itself is
    solved once per (datum, r, s) and kept on the datum.
    """
    m = len(datum.fibre_basis(r, s))
    n = datum.complex.vertices
    edges = datum.complex.edges()
    forest = datum._trees()
    cycles = len(edges) - n + len(forest)
    if (cycles + n) * m * m > cap:
        raise SizeCapExceeded(
            "glued holonomy system (%d + %d) x %d blocks of %d x %d exceeds the cap"
            % (cycles, n, m, m, m)
        )
    space = datum._spaces.get((r, s))
    if space is None:
        space = GluedSpace(datum, r, s, _holonomy_sections(datum, r, s, edges) if m else [], m)
        datum._spaces[(r, s)] = space
    return space


def _holonomy_sections(datum, r, s, edges):
    """Orthonormal glued sections, component by component (see glued_space)."""
    stack = datum._stack(r, s)
    m, ds, dr = stack.shape
    n = datum.complex.vertices
    flat = stack.reshape(m, ds * dr)
    hats = datum.hat_matrix(r, s)
    index = datum.complex.positions(1)
    ends = np.array(edges, dtype=int).reshape(-1, 2)
    trans = np.zeros((n, m, m), dtype=complex)
    arrows = []
    for root, tree in datum._trees():
        trans[root] = np.eye(m)
        verts = [root]
        for (pv, cv) in tree:
            # c_cv = M_(cv, pv) c_pv, and M_(cv, pv) = M_(pv, cv)* since the
            # action is unitary, so only the stored orientation i < j is kept
            if cv < pv:
                step = hats[index[(cv, pv)]]
            else:
                step = hats[index[(pv, cv)]].conj().T
            trans[cv] = step @ trans[pv]
            verts.append(cv)
        on_tree = {(min(e), max(e)) for e in tree}
        inside = set(verts)
        off = [k for k, (i, j) in enumerate(edges) if i in inside and (i, j) not in on_tree]
        i, j = ends[off].T
        op = (trans[i] - hats[off] @ trans[j]).reshape(len(off) * m, m)
        for x in nullspace(op, tol=datum.tol):
            coeffs = np.zeros((n, m), dtype=complex)
            coeffs[verts] = (trans[verts] @ x.ravel()) / math.sqrt(len(verts))
            arrows.append(GluedArrow(datum, r, s, (coeffs @ flat).reshape(n, ds, dr)))
    return arrows


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
    per = {v: opnorm(t) for v, t in enumerate(comps)}
    # block v of the direct sum sits at rows v*ds.. and columns v*dr..
    block = np.zeros((n, ds, n, dr), dtype=complex)
    block[np.arange(n), :, np.arange(n), :] = comps
    return {"per_vertex": per, "global": opnorm(block.reshape(n * ds, n * dr))}


def tensor_glued(a, b, tol=None):
    """Tensor of glued arrows, with the overlap matching rechecked."""
    tol = tol or Tolerance()
    out = a.tensor(b)
    resid = out.compatibility_residual()
    if not tol.close(resid, scale=max(1.0, out.norm())):
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


def _pushed(datum, witness, arrow):
    """The arrow conjugated patchwise by the witness, as an arrow over ``datum``."""
    u = np.array([witness[v] for v in range(len(arrow.components))])
    return GluedArrow(datum, arrow.r, arrow.s, power_action(u, arrow.components, arrow.r, arrow.s))


def _functor_checks(d1, d2, witness, rmax, tol):
    """Verify that patchwise conjugation by the witness carries glued
    arrows of the second datum to glued arrows of the first and respects
    composition, adjoints, tensor products and the braiding."""
    checks = []

    def push(arrow):
        return _pushed(d1, witness, arrow)

    pairs = [(r, s) for r in range(rmax + 1) for s in range(rmax + 1)]
    for (r, s) in pairs:
        s1 = glued_space(d1, r, s)
        s2 = glued_space(d2, r, s)
        checks.append(("dim (%d,%d)" % (r, s), float(abs(s1.dim - s2.dim))))
        if s1.dim != s2.dim:
            return checks, False
        for arrow in s2.arrows:
            resid = push(arrow).compatibility_residual()
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

    if d1.group.kind == KIND_SU:
        theta = equivalent(p1, p2, tol=tol)
        if theta is None:
            if c1 != c2:
                dist = {"invariant": "determinant class", "first": c1.to_json(), "second": c2.to_json()}
            else:
                dist = {"invariant": "determinant holonomy"}
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
        dist = {"invariant": "determinant class", "first": c1.to_json(), "second": c2.to_json()}
        return IsomorphismReport(False, None, dist)
    w = equivalent(d1.cocycle, d2.cocycle, modulo=d1.group, tol=tol)
    if w is None:
        dims = {}
        differ = None
        for r in range(rmax + 1):
            for s in range(rmax + 1):
                a, b = glued_space(d1, r, s).dim, glued_space(d2, r, s).dim
                dims[(r, s)] = (a, b)
                if a != b and differ is None:
                    differ = (r, s)
        if differ is not None:
            dist = {
                "invariant": "glued dimension at %r" % (differ,),
                "first": dims[differ][0],
                "second": dims[differ][1],
            }
        else:
            dist = {"invariant": "no witness in the transition closure"}
        return IsomorphismReport(False, None, dist)
    for v, u in w.items():
        verify_normalizer(u, d1.group, tol=tol)
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
    or a bare datum.
    """
    datum = cat.datum if isinstance(cat, GluedCategory) else cat
    tol = tol or datum.tol
    d = datum.degree
    space = cat.space(0, d) if isinstance(cat, GluedCategory) else glued_space(datum, 0, d)
    if space.dim == 0:
        raise RankDeficientVModule("no glued antisymmetric sections at all")
    proj = antisym_projector(d, d)
    n = datum.complex.vertices
    sections = np.array([arrow.components for arrow in space.arrows])
    op = ((np.eye(d ** d) - proj) @ sections).reshape(space.dim, -1).T
    # arrows are unit sections, so the reference scale for "this column
    # combination is antisymmetric" is nullspace's unit one: the op is
    # numerically zero exactly when every section is already antisymmetric
    coeffs = nullspace(op, tol=tol)
    if not coeffs:
        raise RankDeficientVModule("no antisymmetric sections among the glued ones")
    stacks = np.tensordot(np.array([x.reshape(-1) for x in coeffs]), sections, axes=1)
    families = [GluedArrow(datum, 0, d, f) for f in stacks]
    ranks = {}
    for v in range(n):
        block = stacks[:, v].reshape(len(families), -1)
        ranks[v] = len(families) - len(nullspace(block.T, tol=tol))
    if any(rk != 1 for rk in ranks.values()):
        raise RankDeficientVModule(
            "antisymmetric section module has patch ranks %r, need all 1" % (ranks,)
        )
    # a section may vanish on whole components of the base, so the
    # nowhere-vanishing one is picked component by component
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
    # patchwise norms of a section are constant on components, so this
    # normalization keeps the overlap matching exact
    scale = np.array([1.0 / float(np.linalg.norm(V)) for V in vee])
    comps = _as_stack(vee * scale[:, None, None])
    checks = []
    sd = d ** d
    for v in range(n):
        V = comps[v]
        checks.append(("isometry patch %d" % v, float(abs((V.conj().T @ V)[0, 0] - 1.0))))
        checks.append(
            ("range projector patch %d" % v, float(np.linalg.norm(V @ V.conj().T - proj)))
        )
        lhs = np.kron(V.conj().T, np.eye(d)) @ np.kron(np.eye(d), V)
        want = ((-1.0) ** (d - 1)) / d * np.eye(d)
        checks.append(("pairing patch %d" % v, float(np.linalg.norm(lhs - want))))
    for name, resid in checks:
        if not tol.close(resid, scale=math.sqrt(sd)):
            raise ConsistencyError("twisted special identity failed: %s (%g)" % (name, resid))
    sref = comps[0]
    phases = {}
    for (i, j) in datum.complex.edges():
        ci = complex(hs_inner(sref, comps[i]))
        cj = complex(hs_inner(sref, comps[j]))
        phases[(i, j)] = snap_phase(ci * cj.conjugate() / abs(ci * cj), tol)
    cocycle = CechCocycle(
        datum.complex, COEFF_PHASE, phases, windings=dict(datum.windings)
    )
    if not is_cocycle(cocycle, tol):
        raise ConsistencyError("extracted phases fail the cocycle identity")
    extracted = circle_class(cocycle, tol)
    pushed = circle_class(det_pushforward(datum.cocycle, tol), tol)
    return TwistedSpecialExtraction(comps, families, cocycle, extracted, pushed, checks)

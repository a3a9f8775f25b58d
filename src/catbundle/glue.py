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
the space down; glued spaces are solved that way, per component, kept
as those x and checked on x alone, as the frames act unitarily.

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
    CechCocycle,
    SimplicialComplex,
    circle_class,
    det_pushforward,
    equivalent,
    is_cocycle,
    snap_phases,
)
from .errors import (
    CapExceeded,
    ConsistencyError,
    IncompleteSearch,
    NotACocycleModG,
    RankDeficientVModule,
    SearchCapExceeded,
    SizeCapExceeded,
    WrongKind,
)
from .groups import (
    GroupSpec,
    KIND_FINITE,
    KIND_SU,
    KIND_U,
    NormalizerElement,
    _require_normalizing,
    group_distance,
    normalizer_classes,
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
"""Entries a glued space may form.  With m = |(r, s) fibre basis|,
D = d^(r+s), k holonomies outside the fibre group and K components,
``glued_space`` refuses when k m (D + m) + K m D exceeds it: the k m
basis images, their k m x m system (H_e - 1) and the coefficients, at
most m per component.  Sections are refused past dim V D entries, an
overlap check when one edge's images (families x D) exceed it,
``hat_matrix`` when all E m D images do.  Read at each call."""
# the entries of one run of edges in an overlap check: batched, yet small
EDGE_RUN_ENTRIES = 1 << 13
SEARCH_CAP = 10 ** 6
"""Units of a witness search (``_witness_search``): one per root
candidate tried and one per other vertex of its component; also the most
normalizer class generator image tuples or closure elements it forms.
Read at each call."""


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
    fibre basis stacks through ``_basis_action``.
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
        the image of basis b; the reverse orientation is the adjoint: one
        ``_basis_action`` under one cap check (see GLUED_COEFF_CAP), kept
        for the tests' transport oracle and the benchmark tracer.
        """
        m, ds, dr = self.fibre_basis(r, s).stack.shape
        need = len(self.cocycle.values) * m * ds * dr
        if need > GLUED_COEFF_CAP:
            raise SizeCapExceeded("the transition images need %d entries, cap is %d" % (need, GLUED_COEFF_CAP))
        out = self._basis_action(self.cocycle.values, r, s, self.complex.edges())
        out.setflags(write=False)
        return out

    def _holonomies(self):
        """Formed once: the cocycle's frames u (``CechCocycle.holonomies``),
        each vertex's component, and the (k, 2) edges whose holonomy lies
        outside the fibre group with those (k, d, d) holonomies, kept by one
        ``contains``; k is at most the number of cycles."""
        if self._holonomy is None:
            frames, hol = self.cocycle.holonomies()
            off = ~self.group.contains(hol, tol=self.tol)
            self._holonomy = (frames, self.complex.component_index(), self.complex.edge_ends()[off], hol[off])
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
        return float(np.linalg.svd(self.components, compute_uv=False)[:, 0].max(initial=0.0))

    def compatibility_residual(self):
        """The worst |t_i - c_ij . t_j| over the edges (i, j), by ``_mismatch``."""
        i, j = self.datum.complex.edge_ends().T
        return float(_mismatch(self.components[None], self.datum.cocycle.values, i, j, self.r, self.s)[0])


def _mismatch(y, g, a, b, r, s):
    """Per family of a (families, nodes, d^s, d^r) stack y, the worst
    |y[a_e] - g_e . y[b_e]| over the edges e of an (E, d, d) stack g, one
    ``power_action`` per run of edges whose images (as large as the ends
    and difference, at least half the powers) fit EDGE_RUN_ENTRIES."""
    one = math.prod(y.shape[:1] + y.shape[2:])
    if one > GLUED_COEFF_CAP:
        raise SizeCapExceeded("one edge's images need %d entries, cap is %d" % (one, GLUED_COEFF_CAP))
    step = max(1, min(EDGE_RUN_ENTRIES, GLUED_COEFF_CAP) // max(1, one))
    worst = np.zeros(len(y))
    for lo in range(0, len(g), step):
        run = slice(lo, lo + step)
        diff = y[:, a[run]] - power_action(g[run], y[:, b[run]], r, s)
        np.maximum(worst, np.linalg.norm(diff, axis=(-2, -1)).max(axis=1), out=worst)
    return worst


def glued_symmetry(r, s, datum):
    """The braiding family: constant because permutations commute with tensor powers."""
    th = symmetry_unitary(r, s, datum.degree)
    n = datum.complex.vertices
    return GluedArrow(datum, r + s, s + r, np.broadcast_to(th, (n,) + th.shape))


@dataclass
class GluedSpace:
    """All glued arrows between two tensor powers by their fibre
    coefficients: family k, the intertwiner x = ``coefficients[k]`` (a
    read-only block), is fixed by the holonomies of component ``owner[k]``;
    its unit section, formed on access, is u_v . x / sqrt(n) on the n
    patches there and 0 elsewhere."""

    datum: GluingDatum
    r: int
    s: int
    coefficients: np.ndarray
    owner: np.ndarray

    @property
    def dim(self):
        return len(self.coefficients)

    def _form(self, families=slice(None)):
        """The read-only (families, vertices, d^s, d^r) sections, within GLUED_COEFF_CAP."""
        x, owner = self.coefficients[families], self.owner[families]
        need = x.size * self.datum.complex.vertices
        if need > GLUED_COEFF_CAP:
            raise SizeCapExceeded("the sections need %d entries, cap is %d" % (need, GLUED_COEFF_CAP))
        frames, comp = self.datum._holonomies()[:2]
        weight = (comp == owner[:, None]) / np.sqrt(np.bincount(comp)[owner])[:, None]
        out = power_action(frames, x[:, None], self.r, self.s) * weight[:, :, None, None]
        out.setflags(write=False)
        return out

    sections = property(_form)

    @property
    def arrows(self):
        return [GluedArrow(self.datum, self.r, self.s, t) for t in self.sections]

    def _scaled(self):
        """x / sqrt(n) for each family: its section at each patch up to the frame."""
        comp = self.datum._holonomies()[1]
        return self.coefficients / np.sqrt(np.bincount(comp)[self.owner])[:, None, None]

    def _residuals(self, g=None):
        """Each family's worst |x - g_e . x| / sqrt(n) over its component's edges,
        one ``_mismatch`` per component: for the holonomies g (the default),
        the worst overlap mismatch |t_i - c_ij . t_j| of its unit section."""
        g = self.datum.cocycle.holonomies()[1] if g is None else g
        comp = self.datum._holonomies()[1]
        on_comp = comp[self.datum.complex.edge_ends()[:, 0]]
        y, worst = self._scaled(), np.zeros(self.dim)
        for k in set(self.owner.tolist()):
            own, on = self.owner == k, on_comp == k
            node = np.zeros(np.count_nonzero(on), dtype=int)
            worst[own] = _mismatch(y[own, None], g[on], node, node, self.r, self.s)
        return worst


def glued_space(datum, r, s):
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
    whole fibre basis, with no SVD.  The kernel vectors are the space's
    coefficients (GluedSpace), solved once per (datum, r, s) and kept on
    the datum; GLUED_COEFF_CAP is checked on every call.
    """
    stack = datum.fibre_basis(r, s).stack
    m, ds, dr = stack.shape
    _, comp, ends, hol = datum._holonomies()
    count = len(datum.complex.spanning_forest())
    need = len(hol) * m * (ds * dr + m) + count * m * ds * dr
    if need > GLUED_COEFF_CAP:
        raise SizeCapExceeded("glued (%d, %d) space forms %d entries, cap is %d" % (r, s, need, GLUED_COEFF_CAP))
    if (r, s) not in datum._spaces:
        blocks = datum._basis_action(hol, r, s, ends) - np.eye(m)
        on_comp, owner, coeffs = comp[ends[:, 0]], [], []
        for k in range(count):
            op = blocks[on_comp == k]
            kernel = nullspace(op.reshape(len(op) * m, m), tol=datum.tol)
            owner += [k] * len(kernel)
            coeffs += [x.ravel() for x in kernel]
        x = (np.reshape(coeffs, (len(coeffs), 1, m)) @ stack.reshape(m, ds * dr)).reshape(-1, ds, dr)
        owner = np.array(owner, dtype=int)
        for a in (x, owner):
            a.setflags(write=False)
        datum._spaces[(r, s)] = GluedSpace(datum, r, s, x, owner)
    return datum._spaces[(r, s)]


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
    u = np.array([witness[v] for v in range(d1.complex.vertices)]).reshape(-1, d1.degree, d1.degree)

    def push(arrow):
        return GluedArrow(d1, arrow.r, arrow.s, power_action(u, arrow.components, arrow.r, arrow.s))

    # a pushed family (w_v u_v) . x (u_v d2's frames) matches d1 where these fix x
    wu = u @ d2.cocycle.holonomies()[0]
    i, j = d1.complex.edge_ends().T
    moved = wu[i].conj().transpose(0, 2, 1) @ d1.cocycle.values @ wu[j]
    for r, s in np.ndindex(rmax + 1, rmax + 1):
        s1 = glued_space(d1, r, s)
        s2 = glued_space(d2, r, s)
        checks.append(("dim (%d,%d)" % (r, s), float(abs(s1.dim - s2.dim))))
        if s1.dim != s2.dim:
            return checks, False
        # one overlap check and one SVD per space, reported by arrow
        resids = s2._residuals(moved)
        norms = np.linalg.svd(s2._scaled(), compute_uv=False)[..., 0]
        for resid, norm in zip(resids.tolist(), norms):
            checks.append(("transport (%d,%d)" % (r, s), resid))
            if not tol.close(resid, scale=max(1.0, norm)):
                return checks, False
    sample = glued_space(d2, 1, 1)
    if sample.dim:
        a = GluedArrow(d2, 1, 1, sample._form([0])[0])
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


def _witness_search(c1, c2, group, tol):
    """A witness u with u_i c2_ij = c1_ij u_j h_ij, each h_ij in the
    finite ``group``, and the proof of a failure: (witness, None) or
    (None, proof).  The caller guarantees that every value of both matrix
    cocycles normalizes ``group``.

    On the frames f1, f2 and holonomies h1, h2 of both cocycles
    (``CechCocycle.holonomies``), a root candidate w carried along the
    spanning forest by u_cv = c1_(cv,pv) u_pv c2_(pv,cv) gives u_v = f1_v
    w f2_v*, so an edge passes when w* h1_e* w h2_e is in the group.  No
    twist h is tried: right-multiplying any u_v by an element of the
    group, or by a scalar, changes no verdict when every value of c2
    normalizes it.  On each component the root candidates are tested in
    turn, each on all its edges at once, and the first to pass is carried
    to every vertex.  The root candidates, in order:

    * an irreducible group G (``intertwiners(G, 1, 1).dim == 1``):
      ``groups.normalizer_classes(G)``, one unitary per class of
      N(G)/(U(1).G).  Every element of N(G) is a class representative
      times an element of G times a scalar, so by the invariance above
      some class passes exactly when some root value in N(G) does: the
      search is complete for witnesses that normalize G, the only ones
      ``isomorphic`` accepts.  By Schur's lemma the centralizer of G is
      the scalars, so the classes are finitely many (N(G)/(U(1).G) embeds
      in Out(G)).  The proof of a failure is (k, edges): k the first
      component on which every class fails, edges the first edge there
      that each class fails, in class order.
    * a reducible group, such as the trivial group of a degree above 1,
      whose quotient is infinite: the closure generated by the values of
      both cocycles and the group, in enumeration order.  This set need
      not hold a witness when one exists, so a failure has no proof
      (None).

    One unit of SEARCH_CAP is spent per root candidate tried and one per
    other vertex of its component; SearchCapExceeded is raised when the
    units run out, when the candidate closure overflows the cap, or when
    the generator image tuples of the normalizer classes outnumber it.
    The witness is a dict of read-only matrices by vertex.
    """
    complete = intertwiners(group, 1, 1, tol).dim == 1
    if complete:
        try:
            candidates = normalizer_classes(group, SEARCH_CAP, tol)
        except CapExceeded as exc:
            raise SearchCapExceeded("normalizer classes did not fit: %s" % exc)
    else:
        gens = [*c1.values, *c2.values, *group.generators]
        closure = GroupSpec(KIND_FINITE, group.degree, gens, enumeration_cap=SEARCH_CAP)
        try:
            candidates = closure.elements()
        except CapExceeded as exc:
            raise SearchCapExceeded("candidate closure did not stay finite: %s" % exc)
    (_, h1), (_, h2) = c1.holonomies(), c2.holonomies()
    base = c1.complex
    on_comp = base.component_index()[base.edge_ends()[:, 0]]
    budget = SEARCH_CAP
    witness = {}
    for k, (root, tree) in enumerate(base.spanning_forest()):
        on = np.flatnonzero(on_comp == k)
        failing = []
        for w in candidates:
            budget -= 1 + len(tree)
            if budget < 0:
                raise SearchCapExceeded("witness search passed %d assignments" % SEARCH_CAP)
            h1w, wh2 = h1[on] @ w, w @ h2[on]
            ok = group.contains(h1w.conj().transpose(0, 2, 1) @ wh2, tol=tol)
            if ok.all():
                break
            failing.append(base.edges()[on[np.argmin(ok)]])
        else:
            return None, ((k, failing) if complete else None)
        witness[root] = w
        for pv, cv in tree:
            witness[cv] = c1.value(cv, pv) @ witness[pv] @ c2.value(pv, cv)
    return {v: as_matrix(m) for v, m in witness.items()}, None


def isomorphic(d1, d2, rmax=2, tol=None):
    """Decide whether two gluing data present the same glued category.

    Special unitary fibre: the transition action factors through the
    determinant, so the data are isomorphic exactly when the determinant
    phase cocycles are equivalent (flat parts cohomologous and equal
    integral classes); the witness is scalar per patch.  Finite fibre:
    require equal determinant classes, then search once for patchwise
    normalizer witnesses modulo the fibre group (``_witness_search``, on
    the two data's verified cocycles), which returns the witness or its
    proof of failure.  When no witness exists the report carries a
    distinguishing invariant: a glued dimension that differs (first in
    (r, s) order up to ``rmax``) or, for an irreducible fibre group,
    whose normalizer classes make the search complete, the search's
    proof: the first component on which every class fails and each
    class's first failing edge there.  A reducible fibre group is searched over the closure of
    the transitions only, which can miss a witness: with no witness
    there and no glued dimension apart, IncompleteSearch is raised
    rather than an unproven verdict.
    """
    tol = tol or Tolerance()
    if d1.complex != d2.complex:
        raise WrongKind("data live over different bases")
    # groups of one kind and degree match when each one's generators lie
    # in the other (Lie kinds have none)
    pairs = ((d1.group, d2.group), (d2.group, d1.group))
    if d1.group.kind != d2.group.kind or d1.degree != d2.degree or not all(
        h.contains(np.reshape(g.generators, (-1, d1.degree, d1.degree)), tol=tol).all() for g, h in pairs
    ):
        raise WrongKind("fibre groups do not match")

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
    w, proof = _witness_search(d1.cocycle, d2.cocycle, d1.group, tol)
    if w is None:
        dims = [
            ((r, s), glued_space(d1, r, s).dim, glued_space(d2, r, s).dim)
            for r in range(rmax + 1)
            for s in range(rmax + 1)
        ]
        differ = next((x for x in dims if x[1] != x[2]), None)
        if differ is not None:
            rs, a, b = differ
            dist = {"invariant": "glued dimension at %r" % (rs,), "first": a, "second": b}
        elif proof is None:
            raise IncompleteSearch(
                "no witness in the transition closure of a reducible fibre group, and the"
                " determinant classes and the glued dims up to rmax = %d agree" % rmax
            )
        else:
            k, edges = proof
            dist = {
                "invariant": "no normalizer class passes",
                "component": k,
                "first_failing_edges": [list(e) for e in edges],
            }
        return IsomorphismReport(False, None, dist)
    _require_normalizing(np.array(list(w.values())).reshape(-1, d1.degree, d1.degree), d1.group, tol=tol)
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
    phase_cocycle: CechCocycle
    extracted_class: object
    pushforward_class: object
    checks: list

    @property
    def classes_agree(self):
        return self.extracted_class == self.pushforward_class


def extract_twisted_special(datum, tol=None):
    """Recover the determinant twist from the glued antisymmetric line.

    The antisymmetric isometries in the fibres form a glued family of
    rank one over each patch; its patch-to-patch phases reproduce the
    determinants of the transitions, and the integral class of those
    phases (windings included) is the class of the datum.  Computed
    without ever looking at the transition determinants, then compared
    against the determinant pushforward route.  The space's section
    stack is formed once and read whole: one stacked SVD gives every
    patch rank, and each identity is checked on all patches in one
    expression."""
    tol = tol or datum.tol
    d = datum.degree
    space = glued_space(datum, 0, d)
    if space.dim == 0:
        raise RankDeficientVModule("no glued antisymmetric sections at all")
    proj = antisym_projector(d, d)
    n = datum.complex.vertices
    sections = space.sections
    op = ((np.eye(d ** d) - proj) @ sections).reshape(space.dim, -1).T
    # arrows are unit sections, so the reference scale for "this column
    # combination is antisymmetric" is nullspace's unit one: the op is
    # numerically zero exactly when every section is already antisymmetric
    coeffs = nullspace(op, tol=tol)
    if not coeffs:
        raise RankDeficientVModule("no antisymmetric sections among the glued ones")
    stacks = np.tensordot(np.array([x.reshape(-1) for x in coeffs]), sections, axes=1)
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
    comp = datum.complex.component_index()
    for k, (root, _) in enumerate(datum.complex.spanning_forest()):
        on = comp == k
        live = np.flatnonzero(alive[:, on].all(axis=1))
        if not live.size:
            raise RankDeficientVModule(
                "every antisymmetric section vanishes on some patch of the component of vertex %d" % root
            )
        vee[on] = stacks[live[0], on]
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
    i, j = datum.complex.edge_ends().T
    z = inner[i] * inner[j].conj()
    num, den = snap_phases(z / np.abs(z), tol)
    cocycle = CechCocycle.from_numerators(datum.complex, num, den, windings=datum.windings)
    if not is_cocycle(cocycle, tol):
        raise ConsistencyError("extracted phases fail the cocycle identity")
    extracted = circle_class(cocycle, tol)
    pushed = circle_class(det_pushforward(datum.cocycle, tol), tol)
    return TwistedSpecialExtraction(comps, cocycle, extracted, pushed, checks)

"""Compact matrix groups presented by generators.

Three kinds are supported: finite matrix groups (enumerated by closure
under products), the special unitary group, and the full unitary group
of a given degree.  Continuous groups are never enumerated or sampled;
downstream intertwiner computations reach them exclusively through the
Lie algebra bases produced here.  Membership runs on stacks: ``contains``,
``group_distance`` and normalizer verification take a (..., d, d) stack,
one matrix being its 2-d case.

The normalizer N(G) of an irreducible finite group G in U(d) (one whose
character has <chi, chi> = 1, ``repcat.intertwiner_dim(G, 1, 1) == 1``)
is known by its classes modulo U(1).G (``normalizer_classes``): by
Schur's lemma the centralizer of G is the scalars, so a class is fixed
by the automorphism u g u* it induces, and the classes are as many as
the automorphisms of G that a unitary realizes (six for the quaternion
group).  Each is found by solving u g_i = e_i u for a tuple of generator
images, the tuples in batched SVDs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, ConsistencyError, NotInNormalizer, NotUnitary, WrongKind
from .linalg import (
    Tolerance,
    _below_cutoff,
    _canonical_phase,
    as_matrix,
    matrix_from_json,
    matrix_to_json,
)

KIND_FINITE = "finite"
KIND_SU = "su"
KIND_U = "u"

_KINDS = (KIND_FINITE, KIND_SU, KIND_U)

DEFAULT_ENUMERATION_CAP = 4096

# enumerated elements by (kind, degree, generator bytes)
_ELEMENTS = {}


def _unitarity_residual(a):
    """||a* a - 1|| per matrix of a (..., d, d) stack; a float for one matrix."""
    res = np.linalg.norm(np.swapaxes(a, -1, -2).conj() @ a - np.eye(a.shape[-1]), axis=(-2, -1))
    return float(res) if a.ndim == 2 else res


def _bucket_key(a):
    """The bytes key of a matrix, or the list of keys of a (..., d, d) stack."""
    # 6-decimal quantization of the real view (rounding as complex rounding
    # does, only faster); group elements at desk scale are far apart.
    # Adding 0.0 folds -0.0 into +0.0, whose byte patterns differ.
    q = np.round(np.ascontiguousarray(a, dtype=complex).view(float), 6) + 0.0
    if q.ndim == 2:
        return q.tobytes()
    return [m.tobytes() for m in q.reshape(-1, q.shape[-2] * q.shape[-1])]


class GroupSpec:
    """A compact matrix group of fixed degree.

    Finite groups carry generator matrices and are enumerated lazily,
    capped at ``enumeration_cap`` elements.  The ``su`` and ``u`` kinds
    carry no generators; they are presented through ``lie_basis``.
    """

    def __init__(self, kind, degree, generators=(), enumeration_cap=DEFAULT_ENUMERATION_CAP):
        if kind not in _KINDS:
            raise ValueError("unknown group kind %r" % (kind,))
        if degree < 1:
            raise ValueError("degree must be at least 1")
        gens = tuple(as_matrix(g) for g in generators)
        if kind != KIND_FINITE and gens:
            raise ValueError("%s groups are Lie presented and take no generators" % kind)
        n = next((k for k, g in enumerate(gens) if g.shape != (degree, degree)), len(gens))
        res = _unitarity_residual(np.reshape(gens[:n], (n, degree, degree)))
        ok = Tolerance().close(res, math.sqrt(degree))
        if not ok.all():
            k = int(np.argmin(ok))  # the first False
            raise NotUnitary("generator %d fails unitarity, residual %g" % (k, res[k]))
        if n < len(gens):
            raise WrongKind("generator %d has shape %r, expected degree %d" % (n, gens[n].shape, degree))
        self.kind = kind
        self.degree = degree
        self.generators = gens
        self.enumeration_cap = int(enumeration_cap)
        # the group's value: the key of the memos of its elements, its
        # intertwiner spaces and its normalizer classes
        self._value = (kind, degree, b"".join(g.tobytes() for g in gens))

    def elements(self):
        """The elements of a finite group, enumerated once per group value
        (kind, degree, generators); a cap below a memoized order raises
        CapExceeded, as the enumeration does."""
        if self.kind != KIND_FINITE:
            raise WrongKind("only finite groups enumerate; kind is %r" % (self.kind,))
        elems = _ELEMENTS.get(self._value)
        if elems is None:
            elems = _ELEMENTS[self._value] = enumerate_finite(self)
        elif len(elems) > self.enumeration_cap:
            raise CapExceeded("group closure exceeds cap %d elements" % self.enumeration_cap)
        return elems

    def order(self):
        return len(self.elements())

    def contains(self, u, tol=None):
        """Membership within tolerance of a matrix (a bool) or of each matrix
        of a (..., d, d) stack (an array); a wrong trailing shape is no
        member.  Lie kinds test their defining property; a unitary matrix
        belongs to a finite group when its ``group_distance`` is within
        tau."""
        tol = tol or Tolerance()
        a = np.asarray(u, dtype=complex)
        d = self.degree
        if a.shape[-2:] != (d, d):
            return False if a.ndim <= 2 else np.zeros(a.shape[:-2], dtype=bool)
        flat = a.reshape(-1, d, d)
        ok = tol.close(_unitarity_residual(flat), math.sqrt(d))
        if self.kind == KIND_SU:
            ok &= tol.close(np.abs(np.linalg.det(flat) - 1.0), math.sqrt(d))
        elif self.kind == KIND_FINITE and ok.any():
            ok &= group_distance(self, flat) <= tol.tau
        return bool(ok[0]) if a.ndim == 2 else ok.reshape(a.shape[:-2])

    def to_json(self):
        return {
            "kind": self.kind,
            "degree": self.degree,
            "generators": [matrix_to_json(g) for g in self.generators],
        }

    @classmethod
    def from_json(cls, doc):
        return cls(doc["kind"], int(doc["degree"]), [matrix_from_json(g) for g in doc.get("generators", [])])

    def __repr__(self):
        return "GroupSpec(kind=%r, degree=%d, generators=%d)" % (
            self.kind,
            self.degree,
            len(self.generators),
        )


@dataclass(frozen=True, eq=False)
class LieBasis:
    """Anti-Hermitian basis of the Lie algebra of an su/u group."""

    kind: str
    degree: int
    matrices: tuple


@dataclass(frozen=True, eq=False)
class NormalizerElement:
    """A verified normalizer element together with its determinant phase."""

    u: np.ndarray
    phase_det: complex
    group: GroupSpec


def enumerate_finite(group):
    """All elements of a finite matrix group, by closure from the generators.

    Depth-first from the identity, which is always included.  Only the
    distinct generators act (the first of each ``_bucket_key``; a
    repeat's products fall in buckets already seen), and each popped
    element h is multiplied by all of them in one batched product, whose
    unitarity residuals and bucket keys are also taken in one pass.  The
    new keys are then walked in generator order, so the elements, their
    order and their values are those of multiplying one generator at a
    time.  Products are re-unitarized by a polar correction when
    accumulated drift exceeds tau/10.  Raises CapExceeded when the
    closure leaves ``enumeration_cap``.
    """
    if group.kind != KIND_FINITE:
        raise WrongKind("enumerate_finite needs a finite group, got %r" % (group.kind,))
    d = group.degree
    drift_cap = Tolerance().tau / 10.0
    eye = np.eye(d, dtype=complex)
    distinct = {}
    for g in group.generators:
        distinct.setdefault(_bucket_key(g), g)
    gens = np.array(list(distinct.values()), dtype=complex).reshape(-1, d, d)
    elems = [eye]
    index = {_bucket_key(eye): 0}
    queue = [eye]
    while queue:
        prods = queue.pop() @ gens
        for k in np.flatnonzero(_unitarity_residual(prods) > drift_cap):
            w, _, vh = np.linalg.svd(prods[k])
            prods[k] = w @ vh
        for k, key in enumerate(_bucket_key(prods)):
            if key in index:
                continue
            if len(elems) >= group.enumeration_cap:
                raise CapExceeded(
                    "group closure exceeds cap %d elements" % group.enumeration_cap
                )
            p = prods[k].copy()  # a view would keep the whole batch alive
            index[key] = len(elems)
            elems.append(p)
            queue.append(p)
    return tuple(as_matrix(e) for e in elems)


def lie_basis(group):
    """Standard anti-Hermitian basis of su(d) or u(d).

    Off-diagonal pairs E_jk - E_kj and i(E_jk + E_kj) for j < k, then the
    traceless diagonals i(E_jj - E_(j+1)(j+1)); the u(d) kind appends i*I.
    """
    if group.kind == KIND_FINITE:
        raise WrongKind("finite groups have no Lie presentation")
    d = group.degree
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = -1.0
            out.append(as_matrix(m))
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1j
            m[k, j] = 1j
            out.append(as_matrix(m))
    for j in range(d - 1):
        m = np.zeros((d, d), dtype=complex)
        m[j, j] = 1j
        m[j + 1, j + 1] = -1j
        out.append(as_matrix(m))
    if group.kind == KIND_U:
        out.append(as_matrix(1j * np.eye(d)))
    return LieBasis(kind=group.kind, degree=d, matrices=tuple(out))


def verify_normalizer(u, group, tol=None):
    """Check that u normalizes the group and record its determinant phase.

    For a finite group this conjugates every generator and tests
    membership; it is enough to test generators because conjugation is an
    automorphism.  Every unitary of matching degree normalizes su(d) and
    u(d).  Raises NotInNormalizer with the offending generator index.
    This is the one-matrix case of ``normalizer_elements``.
    """
    return normalizer_elements(as_matrix(u)[None], group, tol)[0]


def normalizer_elements(us, group, tol=None):
    """``verify_normalizer`` for each matrix of an (n, d, d) stack, checked
    by one ``_require_normalizing`` call and one batched determinant."""
    us = np.asarray(us, dtype=complex)
    _require_normalizing(us, group, tol)
    dets = np.linalg.det(us)
    return [
        NormalizerElement(u=as_matrix(u), phase_det=complex(det), group=group)
        for u, det in zip(us, dets)
    ]


def _require_normalizing(us, group, tol=None):
    """``verify_normalizer``'s checks on an (n, d, d) stack, raising for
    the first failure in a table of n rows (unitarity, then the conjugate
    of each generator, formed in one product and tested by one
    ``contains`` call), read row by row."""
    tol = tol or Tolerance()
    d = group.degree
    if us.shape[1:] != (d, d):
        raise WrongKind("normalizer candidate has shape %r, group degree is %d" % (us.shape[1:], d))
    res = _unitarity_residual(us)
    table = tol.close(res, math.sqrt(d))[:, None]
    if group.kind == KIND_FINITE and group.generators:
        v = us[:, None]
        conj = v @ np.array(group.generators) @ np.swapaxes(v, -1, -2).conj()
        table = np.hstack([table, group.contains(conj, tol=tol)])
    if not table.all():
        k, g = divmod(int(np.argmin(table)), table.shape[1])  # the first False, row by row
        if g == 0:
            raise NotUnitary("normalizer candidate fails unitarity, residual %g" % res[k])
        raise NotInNormalizer("conjugate of generator %d leaves the group" % (g - 1))


# classes of N(G)/(U(1).G), solved once per (kind, degree, generators, tau):
# (the number of generator image tuples, the class representatives)
_CLASSES = {}
# operator entries per batched SVD of the image tuples: 16 MB, so the
# operators of SEARCH_CAP tuples are never formed at once
_SVD_ENTRIES = 2 ** 20


def normalizer_classes(group, cap, tol=None):
    """One unitary per class of N(G)/(U(1).G) for an irreducible finite G
    (``repcat.intertwiner_dim(G, 1, 1) == 1``), the identity first.

    A normalizing u maps each generator g_i to an element e_i = u g_i u*
    of G with tr e_i = tr g_i.  Every such tuple of images is solved, no
    tuple alone: the operators u -> (u g_i - e_i u)_i are stacked over
    the tuples and their kernels read from batched SVDs by the
    ``linalg._below_cutoff`` rule, each SVD taking as many tuples as fit
    in ``_SVD_ENTRIES`` operator entries (all 36 of Q8 in one).  By
    Schur's lemma a nonzero kernel is the line of a normalizing unitary
    (u* u commutes with G, so it is a scalar); a larger kernel raises
    ConsistencyError, as a reducible G does.  Each solution, scaled to a
    unitary and phase-fixed at its largest entry, is kept when no class
    kept before it lies in its U(1).G coset (|tr(g* r* u)| = d for some g
    in G); the solution of the identity tuple is the identity itself.

    Raises CapExceeded when the tuples number more than ``cap``, before
    the operator is formed, and before any memoized result is returned.
    Results are memoized by the group's value (kind, degree, generators)
    and the tolerance.
    """
    tol = tol or Tolerance()
    if group.kind != KIND_FINITE:
        raise WrongKind("normalizer classes need a finite group, got %r" % (group.kind,))
    d = group.degree
    key = group._value + (tol.tau,)
    hit = _CLASSES.get(key)
    if hit is None:
        elems = np.array(group.elements())
        # a group without generators is generated by the identity
        gens = np.array(group.generators or [np.eye(d)], dtype=complex)
        traces = np.trace(elems, axis1=1, axis2=2)
        images = [np.flatnonzero(tol.close(np.abs(traces - np.trace(g)), d)) for g in gens]
        count = math.prod(len(e) for e in images)
    else:
        count = hit[0]
    if count > cap:
        raise CapExceeded("%d generator image tuples exceed cap %d" % (count, cap))
    if hit is not None:
        return hit[1]
    # row-major vec: u g -> (1 (x) g^T) vec u, e u -> (e (x) 1) vec u
    eye = np.eye(d)
    right = np.array([np.kron(eye, g.T) for g in gens])
    tuples = itertools.product(*images)
    per_svd = max(1, _SVD_ENTRIES // right.size)
    classes = [np.eye(d, dtype=complex)]
    for start in range(0, count, per_svd):
        idx = np.array(list(itertools.islice(tuples, per_svd))).reshape(-1, len(gens))
        left = np.einsum("tiac,bd->tiabcd", elems[idx], eye).reshape((len(idx),) + right.shape)
        _, sigma, vh = np.linalg.svd((right - left).reshape(len(idx), -1, d * d), full_matrices=False)
        dims = _below_cutoff(sigma, tol).sum(axis=1)
        if (dims > 1).any():
            t = int(np.argmax(dims > 1))
            raise ConsistencyError(
                "generator image tuple %d has a %d-dimensional kernel: the group is not irreducible"
                % (start + t, dims[t])
            )
        for t in np.flatnonzero(dims == 1):
            # the kernel vector is the last right singular vector
            u = math.sqrt(d) * _canonical_phase(vh[t, -1].conj()).reshape(d, d)
            quotients = np.array(classes).conj().transpose(0, 2, 1) @ u
            overlaps = np.abs(np.einsum("gij,kij->gk", elems.conj(), quotients))
            if not tol.close(d - overlaps.max(), d):
                classes.append(u)
    hit = _CLASSES[key] = (count, tuple(as_matrix(u) for u in classes))
    return hit[1]


def group_distance(group, a, tol=None):
    """Frobenius distance to the group of a matrix (a float) or of each
    matrix of a (..., d, d) stack (an array).  Finite kind: minimum over
    the enumerated elements, one at a time against the stack.  Lie kinds:
    the defining-property residuals (unitarity, and for su the
    determinant), which vanish exactly on the group.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[-2:] != (group.degree, group.degree):
        raise WrongKind("shape %r does not match degree %d" % (a.shape, group.degree))
    if group.kind == KIND_U:
        return _unitarity_residual(a)
    if group.kind == KIND_SU:
        dist = np.maximum(_unitarity_residual(a), np.abs(np.linalg.det(a) - 1.0))
    else:
        dist = np.full(a.shape[:-2], np.inf)
        for e in group.elements():
            dist = np.minimum(dist, np.linalg.norm(a - e, axis=(-2, -1)))
    return float(dist) if a.ndim == 2 else dist


def trivial_group(degree):
    return GroupSpec(KIND_FINITE, degree)


def cyclic_diagonal_group(degree=2):
    """The order-4 diagonal cyclic subgroup of SU(2), generated by diag(i, -i)."""
    if degree != 2:
        raise ValueError("the order-4 diagonal cyclic group is defined at degree 2")
    return GroupSpec(KIND_FINITE, 2, [np.diag([1j, -1j])])


def quaternion_group():
    """The quaternion group of order 8 inside SU(2)."""
    gi = np.array([[1j, 0], [0, -1j]])
    gj = np.array([[0, 1], [-1, 0]], dtype=complex)
    return GroupSpec(KIND_FINITE, 2, [gi, gj])


def special_unitary(degree):
    return GroupSpec(KIND_SU, degree)


def full_unitary(degree):
    return GroupSpec(KIND_U, degree)

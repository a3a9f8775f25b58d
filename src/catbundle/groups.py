"""Compact matrix groups presented by generators.

Three kinds are supported: finite matrix groups (enumerated by closure
under products), the special unitary group, and the full unitary group
of a given degree.  Continuous groups are never enumerated or sampled;
downstream intertwiner computations reach them exclusively through the
Lie algebra bases produced here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, NotInNormalizer, NotUnitary, WrongKind
from .linalg import Tolerance, as_matrix, matrix_from_json, matrix_to_json

KIND_FINITE = "finite"
KIND_SU = "su"
KIND_U = "u"

_KINDS = (KIND_FINITE, KIND_SU, KIND_U)

DEFAULT_ENUMERATION_CAP = 4096


def _unitarity_residual(a):
    d = a.shape[0]
    return float(np.linalg.norm(a.conj().T @ a - np.eye(d)))


def _require_unitary(a, tol, what):
    if a.shape[0] != a.shape[1]:
        raise NotUnitary("%s is not square: shape %r" % (what, a.shape))
    res = _unitarity_residual(a)
    if not tol.close(res, scale=math.sqrt(a.shape[0])):
        raise NotUnitary("%s fails unitarity, residual %g" % (what, res))


def _bucket_key(a):
    # 6-decimal quantization; group elements at desk scale are separated
    # by far more than the rounding step.  Adding 0.0 folds -0.0 into
    # +0.0, whose byte patterns differ.
    return (np.round(a, 6) + 0.0).tobytes()


class GroupSpec:
    """A compact matrix group of fixed degree.

    Finite groups carry generator matrices and are enumerated lazily,
    capped at ``enumeration_cap`` elements.  The ``su`` and ``u`` kinds
    carry no generators; they are presented through ``lie_basis``.
    """

    def __init__(self, kind, degree, generators=(), enumeration_cap=DEFAULT_ENUMERATION_CAP, tol=None):
        if kind not in _KINDS:
            raise ValueError("unknown group kind %r" % (kind,))
        if degree < 1:
            raise ValueError("degree must be at least 1")
        tol = tol or Tolerance()
        gens = tuple(as_matrix(g) for g in generators)
        if kind != KIND_FINITE and gens:
            raise ValueError("%s groups are Lie presented and take no generators" % kind)
        for k, g in enumerate(gens):
            if g.shape != (degree, degree):
                raise WrongKind("generator %d has shape %r, expected degree %d" % (k, g.shape, degree))
            _require_unitary(g, tol, "generator %d" % k)
        self.kind = kind
        self.degree = degree
        self.generators = gens
        self.enumeration_cap = int(enumeration_cap)
        self.tol = tol
        self._elements = None
        self._element_index = None

    def elements(self):
        if self.kind != KIND_FINITE:
            raise WrongKind("only finite groups enumerate; kind is %r" % (self.kind,))
        if self._elements is None:
            self._elements = enumerate_finite(self)
            self._element_index = {_bucket_key(e): i for i, e in enumerate(self._elements)}
        return self._elements

    def order(self):
        return len(self.elements())

    def contains(self, u, tol=None):
        """Membership within tolerance; for Lie kinds this is a defining-property check."""
        tol = tol or self.tol
        a = np.asarray(u, dtype=complex)
        if a.shape != (self.degree, self.degree):
            return False
        if _unitarity_residual(a) > tol.tau * max(1.0, math.sqrt(self.degree)):
            return False
        if self.kind == KIND_U:
            return True
        if self.kind == KIND_SU:
            return abs(np.linalg.det(a) - 1.0) <= tol.tau * max(1.0, math.sqrt(self.degree))
        elems = self.elements()
        i = self._element_index.get(_bucket_key(a))
        if i is not None and np.linalg.norm(a - elems[i]) <= tol.tau:
            return True
        # fallback scan guards against quantization boundaries
        return any(np.linalg.norm(a - e) <= tol.tau for e in elems)

    def to_json(self):
        return {
            "kind": self.kind,
            "degree": self.degree,
            "generators": [matrix_to_json(g) for g in self.generators],
        }

    @classmethod
    def from_json(cls, doc):
        return cls(
            doc["kind"],
            int(doc["degree"]),
            [matrix_from_json(g) for g in doc.get("generators", [])],
            enumeration_cap=int(doc.get("enumeration_cap", DEFAULT_ENUMERATION_CAP)),
        )

    def __repr__(self):
        return "GroupSpec(kind=%r, degree=%d, generators=%d)" % (
            self.kind,
            self.degree,
            len(self.generators),
        )


@dataclass(frozen=True)
class LieBasis:
    """Anti-Hermitian basis of the Lie algebra of an su/u group."""

    kind: str
    degree: int
    matrices: tuple


@dataclass(frozen=True)
class NormalizerElement:
    """A verified normalizer element together with its determinant phase."""

    u: np.ndarray
    phase_det: complex
    group: GroupSpec


def enumerate_finite(group, tol=None):
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
    tol = tol or group.tol
    d = group.degree
    drift_cap = tol.tau / 10.0
    eye = np.eye(d, dtype=complex)
    distinct = {}
    for g in group.generators:
        distinct.setdefault(_bucket_key(g), g)
    gens = np.array(list(distinct.values()), dtype=complex).reshape(-1, d, d)
    step = d * d * eye.itemsize
    elems = [eye]
    index = {_bucket_key(eye): 0}
    queue = [eye]
    while queue:
        prods = queue.pop() @ gens
        drift = np.linalg.norm(prods.conj().transpose(0, 2, 1) @ prods - eye, axis=(1, 2))
        for k in np.flatnonzero(drift > drift_cap):
            w, _, vh = np.linalg.svd(prods[k])
            prods[k] = w @ vh
        keys = (np.round(prods, 6) + 0.0).tobytes()
        for k in range(len(gens)):
            key = keys[k * step : (k + 1) * step]
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
    return [as_matrix(e) for e in elems]


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
    """
    tol = tol or group.tol
    um = as_matrix(u)
    if um.shape != (group.degree, group.degree):
        raise WrongKind(
            "normalizer candidate has shape %r, group degree is %d" % (um.shape, group.degree)
        )
    _require_unitary(um, tol, "normalizer candidate")
    if group.kind == KIND_FINITE:
        for k, g in enumerate(group.generators):
            c = um @ g @ um.conj().T
            if not group.contains(c, tol=tol):
                raise NotInNormalizer("conjugate of generator %d leaves the group" % k)
    det = complex(np.linalg.det(um))
    return NormalizerElement(u=um, phase_det=det, group=group)


def group_distance(group, a, tol=None):
    """Frobenius distance from a matrix to the group.

    Finite kind: minimum over the enumerated elements.  Lie kinds: the
    defining-property residuals (unitarity, and for su the determinant),
    which vanish exactly on the group.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (group.degree, group.degree):
        raise WrongKind("shape %r does not match degree %d" % (a.shape, group.degree))
    if group.kind == KIND_U:
        return _unitarity_residual(a)
    if group.kind == KIND_SU:
        return max(_unitarity_residual(a), float(abs(np.linalg.det(a) - 1.0)))
    return min(float(np.linalg.norm(a - e)) for e in group.elements())


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

"""Truncated arrow algebras with circle and gauge actions.

Arrows between tensor powers up to a fixed window assemble into a
graded *-algebra: a product pads the factors with identity legs on the
right until the powers meet, and (r, s, t) is identified with
(r+1, s+1, t (x) 1).  Elements are kept in reduced form by stripping
identity legs off whenever the matrix splits that way, so equality of
elements is equality of reduced representatives.

The ambient algebra is built from full matrix spaces; the gauge action
of a fibre group carves out the intertwiner subalgebra as its fixed
points, and unitaries normalizing the group act on that subalgebra.
The circle acts by the power grade s - r.  The inner endomorphism along
the antisymmetric isometry family commutes with both, which is the
algebraic shadow of the determinant twist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, NotUnitary, TruncationOverflow, WrongKind
from .groups import (
    KIND_FINITE,
    NormalizerElement,
    _unitarity_residual,
    lie_basis,
    verify_normalizer,
)
from .linalg import Tolerance, as_matrix, hs_norm, nullspace, opnorm, power_action
from .repcat import (
    averaged_fixed_space,
    intertwiners,
    special_isometry,
    symmetry_unitary,
)

DEFAULT_LEVEL = 4


@dataclass(frozen=True)
class DRTruncation:
    """Finite window onto the graded algebra of a fibre group: source
    powers capped at level.

    Target powers may overhang the level by the fibre degree so that the
    antisymmetric isometry and its inner endomorphism fit.
    """

    level: int
    group: object

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("truncation level must be at least 1")

    @property
    def degree(self):
        return self.group.degree

    def admits(self, r, s):
        return r <= self.level and s <= self.level + self.degree


@dataclass(frozen=True, eq=False)
class DRElement:
    """Reduced representative (r, s, t) of a truncated algebra element."""

    trunc: DRTruncation
    r: int
    s: int
    value: np.ndarray

    @property
    def grade(self):
        return self.s - self.r


def _strip_once(t, r, s, d, tol):
    """If t = t0 (x) 1 on the last leg, return t0, else None."""
    if r < 1 or s < 1:
        return None
    rows, cols = d ** (s - 1), d ** (r - 1)
    t0 = np.trace(t.reshape(rows, d, cols, d), axis1=1, axis2=3) / d
    if tol.close(hs_norm(t - _pad(t0, 1, d)), scale=hs_norm(t)):
        return t0
    return None


def _reduced(trunc, r, s, value, tol=None):
    """The element (r, s, value) with identity legs stripped off while
    they split, its value frozen."""
    tol = tol or Tolerance()
    d = trunc.degree
    while True:
        t0 = _strip_once(value, r, s, d, tol)
        if t0 is None:
            return DRElement(trunc, r, s, as_matrix(value))
        value, r, s = t0, r - 1, s - 1


def _pad(value, q, d):
    """Identity legs on the right."""
    return value if q == 0 else np.kron(value, np.eye(d ** q))


def dr_element(trunc, r, s, value, tol=None):
    """Wrap a d^s x d^r matrix as a reduced algebra element; a value of
    any other shape is a ValueError."""
    d = trunc.degree
    if not trunc.admits(r, s):
        raise TruncationOverflow(
            "powers (%d, %d) exceed the truncation window at level %d" % (r, s, trunc.level)
        )
    value = np.asarray(value)
    if value.shape != (d ** s, d ** r):
        raise ValueError("value shape %r does not match powers (%d, %d)" % (value.shape, r, s))
    # frozen before reducing, so that non-finite entries fail here
    return _reduced(trunc, r, s, as_matrix(value), tol)


def dr_one(trunc):
    return dr_element(trunc, 0, 0, np.eye(1))


def _same_carrier(a, b):
    if a.trunc is not b.trunc and a.trunc != b.trunc:
        raise WrongKind("elements live in different truncations")


def dr_mul(a, b, tol=None):
    """Product after padding the shorter factor with identity legs.

    The source power of a is matched against the target power of b;
    whichever is smaller gets identity legs appended on the right.  A
    padding that pushes a source power past the window is refused.
    """
    _same_carrier(a, b)
    trunc = a.trunc
    d = trunc.degree
    if a.r >= b.s:
        p, q = 0, a.r - b.s
    else:
        p, q = b.s - a.r, 0
    r_out, s_out = b.r + q, a.s + p
    if a.r + p > trunc.level or b.r + q > trunc.level or not trunc.admits(r_out, s_out):
        raise TruncationOverflow(
            "product pads to source power %d, window level is %d"
            % (max(a.r + p, b.r + q), trunc.level)
        )
    return _reduced(trunc, r_out, s_out, _pad(a.value, p, d) @ _pad(b.value, q, d), tol)


def dr_adjoint(a):
    return DRElement(a.trunc, a.s, a.r, as_matrix(a.value.conj().T))


def dr_add(a, b, scalar=1.0, tol=None):
    """a + scalar * b; grades must agree, the shorter one is padded up."""
    _same_carrier(a, b)
    trunc = a.trunc
    d = trunc.degree
    if a.grade != b.grade:
        raise WrongKind("sum of elements of different grades is not representable")
    q = a.r - b.r
    if q >= 0:
        xv, yv, r, s = a.value, _pad(b.value, q, d), a.r, a.s
    else:
        xv, yv, r, s = _pad(a.value, -q, d), b.value, b.r, b.s
    if not trunc.admits(r, s):
        raise TruncationOverflow("sum needs powers (%d, %d)" % (r, s))
    return _reduced(trunc, r, s, xv + yv * complex(scalar), tol)


def dr_norm(a):
    return opnorm(a.value)


def circle_action(z, a, tol=None):
    tol = tol or Tolerance()
    if abs(abs(z) - 1.0) > tol.tau:
        raise ValueError("circle parameter must have modulus one")
    scal = z ** a.grade
    return DRElement(a.trunc, a.r, a.s, as_matrix(a.value * complex(scal)))


def gauge_action(g, a, tol=None):
    """Conjugation on all tensor legs by a unitary (as groups bound it) of the fibre degree."""
    tol = tol or Tolerance()
    g = g.u if isinstance(g, NormalizerElement) else as_matrix(g)
    d = a.trunc.degree
    if g.shape != (d, d):
        raise WrongKind("gauge unitary has shape %r, fibre degree is %d" % (g.shape, d))
    if not tol.close(_unitarity_residual(g), scale=math.sqrt(d)):
        raise NotUnitary("gauge parameter is not unitary")
    return DRElement(a.trunc, a.r, a.s, as_matrix(power_action(g, a.value, a.r, a.s)))


def eq_rhoeps(a):
    """Residual of the exchange identity 1 (x) t = th(s,1) (t (x) 1) th(1,r).

    The identity holds for every d^s x d^r matrix t, intertwiner or not,
    so the residual says nothing about ``a``: it only checks that
    ``symmetry_unitary`` is the tensor flip that moves an identity leg
    from the right of t to its left.
    """
    d = a.trunc.degree
    ths = symmetry_unitary(a.s, 1, d)
    thr = symmetry_unitary(1, a.r, d)
    lhs = np.kron(np.eye(d), a.value)
    rhs = ths @ _pad(a.value, 1, d) @ thr
    return hs_norm(lhs - rhs)


def special_element(trunc, tol=None):
    """The antisymmetric isometry as an algebra element of pure grade d."""
    d = trunc.degree
    return dr_element(trunc, 0, d, special_isometry(d).isometry, tol=tol)


def inner_endo_nu(vbasis, a, tol=None):
    """The inner endomorphism t -> sum_l psi_l t psi_l* along the V-module."""
    tol = tol or Tolerance()
    if not vbasis:
        raise ValueError("the V-module basis is empty")
    d = a.trunc.degree
    out = None
    for psi in vbasis:
        if (psi.r, psi.s) != (0, d):
            raise WrongKind("V-module elements must have powers (0, %d)" % d)
        term = dr_mul(dr_mul(psi, a, tol), dr_adjoint(psi), tol)
        out = term if out is None else dr_add(out, term, tol=tol)
    return out


def fixed_points(group, r, s, tol=None):
    """Basis of the arrows fixed by the whole fibre gauge group.

    Finite fibres go through the averaging projector; Lie fibres through
    the kernel of the stacked derivations, one block per Lie algebra basis
    element, on the whole d^s x d^r matrix space.  Both routes are
    independent of the generator-constraint route behind the fibre
    bases, so agreement between the two is a real consistency check.
    """
    tol = tol or Tolerance()
    if max(r, s) > DEFAULT_LEVEL:
        raise TruncationOverflow("powers exceed the truncation level")
    if group.kind == KIND_FINITE:
        return averaged_fixed_space(group, r, s, tol=tol)
    d = group.degree
    ds, dr = d ** s, d ** r
    units = np.eye(ds * dr, dtype=complex).reshape(-1, ds, dr)
    # column k of each block is the derivation applied to the k-th unit
    ks = [
        power_action(x, units, r, s, lie=True).reshape(ds * dr, ds * dr).T
        for x in lie_basis(group).matrices
    ]
    return [as_matrix(x.reshape(ds, dr)) for x in nullspace(np.vstack(ks), tol)]


@dataclass(frozen=True)
class StabilizerVerdict:
    agree: bool
    in_group: bool
    witness: tuple | None

    def __bool__(self):
        return self.agree


def stabilizer_test(u, v, group, level=3, tol=None):
    """Compare the gauge actions of two normalizers against membership.

    The actions agree on every intertwiner space up to the level exactly
    when u v* lies in the fibre group; any discrepancy between the two
    answers would break faithfulness, so it is raised instead of
    returned.  The verdict is truthy iff the actions agree, and carries
    the first witnessing intertwiner when they do not.
    """
    tol = tol or Tolerance()
    if group.kind != KIND_FINITE:
        raise WrongKind("the stabilizer test needs a finite fibre group")
    un = u if isinstance(u, NormalizerElement) else verify_normalizer(u, group, tol=tol)
    vn = v if isinstance(v, NormalizerElement) else verify_normalizer(v, group, tol=tol)
    witness = _first_disagreement(un.u, vn.u, group, level, tol)
    agree = witness is None
    in_group = group.contains(un.u @ vn.u.conj().T, tol=tol)
    if agree != in_group:
        raise ConsistencyError(
            "gauge action agreement (%s) contradicts membership (%s)" % (agree, in_group)
        )
    return StabilizerVerdict(agree, in_group, witness)


def _first_disagreement(u, v, group, level, tol):
    """The first (r, s, basis index) where u and v act differently on an
    intertwiner (a NaN residual counts as a difference), or None."""
    for r in range(level + 1):
        for s in range(level + 1):
            stack = intertwiners(group, r, s, tol=tol).stack
            diff = power_action(u, stack, r, s) - power_action(v, stack, r, s)
            resid = np.linalg.norm(diff, axis=(1, 2))
            scale = np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
            ok = resid <= tol.tau * scale
            if not ok.all():
                return (r, s, int(np.argmin(ok)))  # the first False
    return None

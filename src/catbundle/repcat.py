"""Intertwiner spaces of tensor powers of the defining representation.

Objects are tensor powers H^r of C^d carrying g -> g^(x r); arrows from
H^r to H^s are the d^s x d^r matrices t with g^(x s) t = t g^(x r) for
every group element.  For finite groups the constraint is imposed for
each generator; for the su/u kinds the equivalent derivative condition
L_s(A) t = t L_r(A) is imposed for the Cartan elements of the Lie
algebra basis and for the one root generator
X = sum_j (E_(j,j+1) - E_(j+1,j)), so continuous groups are never
sampled.  Both are the one ``power_action`` of ``linalg`` (blocks of at
most half the slots, each a product by a formed power no bigger than
one image), applied to a stack of matrix units, whose images are the
columns of the constraint operator.

The Cartan elements and X are enough: the A with L_s(A) t = t L_r(A)
form a complex Lie subalgebra of gl(d), ad of the Cartan elements
splits X into its root vectors E_(j,j+1) and E_(j+1,j) (the simple
roots and their negatives, all distinct), and those generate sl(d).
So the subalgebra holds the whole of su(d) (and of u(d), with i*I)
whenever it holds the Cartan elements and X, and the kernel is that of
the full Lie basis.

The solve is restricted to matching weights, then the remaining
constraints.  A diagonal constraint (a Cartan element, i*I, a diagonal
finite generator) acts on the matrix unit e_i e_j* by the scalar
weight(i) - weight(j), so its kernel is spanned by the matrix units of
equal weight; only the other constraints are solved, on those units.

``intertwiner_dim`` counts the same spaces exactly, never solving.  The
module also builds the permutation unitaries and symmetries of the
tensor powers, antisymmetric projectors, the top antisymmetric isometry
with its sign identity, and the standard conjugate solutions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SizeCapExceeded
from .groups import KIND_FINITE, KIND_U, GroupSpec, lie_basis
from .linalg import (
    Tolerance, _as_stack, _below_cutoff, as_matrix, canonical_basis, matrix_to_json, nullspace,
    power_action,
)

INTERTWINER_UNKNOWN_CAP = 10_000
ANTISYM_POWER_CAP = 6

# solved intertwiner spaces by (kind, degree, generator bytes, r, s, tau)
_SPACES = {}


@dataclass(frozen=True, eq=False)
class IntertwinerSpace:
    """Orthonormal basis (Hilbert-Schmidt) of (H^r, H^s) for one group.

    Behaves as a sequence of its basis matrices, the slices of ``stack``,
    the read-only (m, d^s, d^r) array they are views into.  Compared by
    identity: the solve cache hands out one space per value.
    """

    group: GroupSpec
    r: int
    s: int
    basis: tuple
    stack: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return len(self.basis)

    def __len__(self):
        return len(self.basis)

    def __iter__(self):
        return iter(self.basis)

    def __getitem__(self, k):
        return self.basis[k]

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "r": self.r,
            "s": self.s,
            "basis": [matrix_to_json(b) for b in self.basis],
        }


@dataclass(frozen=True, eq=False)
class SpecialObjectData:
    """Top antisymmetric isometry S in (1, H^d) with S*S = 1."""

    degree: int
    isometry: np.ndarray

    @property
    def projector(self):
        return as_matrix(self.isometry @ self.isometry.conj().T)

    @property
    def pairing_scalar(self):
        """Expected value of (S* x 1)(1 x S) as a multiple of the identity."""
        d = self.degree
        return (-1.0) ** (d - 1) / d


@dataclass(frozen=True, eq=False)
class ConjugatePair:
    """Standard solution of the conjugate equations for the defining power."""

    degree: int
    r: np.ndarray
    dim_value: float


def _power_diagonal(lam, power, lie):
    """Diagonal of the power action of diag(lam), row-major over slots.

    Lie kinds add the slot eigenvalues (the derivative of the tensor
    power); finite kinds multiply them.
    """
    combine = np.add if lie else np.multiply
    out = np.full(1, 0.0 if lie else 1.0, dtype=complex)
    for _ in range(power):
        out = combine.outer(out, lam).ravel()
    return out


def _root_generator(d):
    """X = sum_j (E_(j,j+1) - E_(j+1,j)), real and antisymmetric, so in su(d)."""
    x = np.zeros((d, d), dtype=complex)
    j = np.arange(d - 1)
    x[j, j + 1] = 1.0
    x[j + 1, j] = -1.0
    return x


def intertwiners(group, r, s, tol=None):
    """Orthonormal basis of the intertwiner space (H^r, H^s).

    The constraints are those of the finite generators, or for a Lie
    kind those of the Cartan elements of ``lie_basis`` and of the root
    generator X = sum_j (E_(j,j+1) - E_(j+1,j)) (``_root_generator``; the
    module docstring says why they cut out the same kernel as the whole
    basis).  The unknowns are restricted to matching weights, then the
    remaining constraints are solved.  Diagonal constraints keep the
    matrix units e_i e_j* whose weight difference vanishes under the rule
    nullspace applies to their stacked diagonal; the other constraints
    are built on the kept units only, all-zero rows dropped, and their
    kernel is scattered back into d^s x d^r matrices in canonical order.

    Raises SizeCapExceeded when the vectorized problem has more than
    INTERTWINER_UNKNOWN_CAP unknowns, before any cached result is
    consulted.  Results are cached by the group's value (kind, degree,
    generators), so separately built equal groups share one solve.
    """
    tol = tol or Tolerance()
    d = group.degree
    n = d ** r * d ** s
    if n > INTERTWINER_UNKNOWN_CAP:
        raise SizeCapExceeded(
            "intertwiner problem has %d unknowns, cap is %d" % (n, INTERTWINER_UNKNOWN_CAP)
        )
    key = group._value + (r, s, tol.tau)
    hit = _SPACES.get(key)
    if hit is not None:
        return hit
    ds, dr = d ** s, d ** r
    lie = group.kind != KIND_FINITE
    gens = lie_basis(group).matrices if lie else group.generators
    diagonal, others = [], []
    for a in gens:
        (diagonal if np.array_equal(a, np.diag(np.diagonal(a))) else others).append(a)
    if lie:
        # one root generator stands in for the off-diagonal basis elements
        others = [_root_generator(d)] if d > 1 else []
    # singular values of the stacked diagonal constraints, one per unknown
    sq = np.zeros(n)
    for a in diagonal:
        lam = np.diagonal(a)
        w = _power_diagonal(lam, s, lie)[:, None] - _power_diagonal(lam, r, lie)[None, :]
        sq += np.abs(w.ravel()) ** 2
    sigma = np.sqrt(sq)
    keep = np.flatnonzero(_below_cutoff(sigma, tol))
    # column k of each block is the image of the k-th kept unit E: the
    # action of a generator minus E, or the derivative for a Lie element
    units = np.zeros((keep.size, n), dtype=complex)
    units[np.arange(keep.size), keep] = 1.0
    units = units.reshape(keep.size, ds, dr)
    blocks = []
    for a in others:
        moved = power_action(a, units, r, s, lie)
        blk = (moved if lie else moved - units).reshape(keep.size, n).T
        blocks.append(blk[np.any(blk, axis=1)])
    op = np.vstack(blocks) if blocks else np.zeros((0, keep.size), dtype=complex)
    kernel = nullspace(op, tol)
    vecs = np.zeros((len(kernel), n), dtype=complex)
    vecs[:, keep] = np.reshape(kernel, (len(kernel), keep.size))
    stack = _as_stack(np.reshape(canonical_basis(vecs), (len(vecs), ds, dr)))
    space = IntertwinerSpace(group=group, r=r, s=s, basis=tuple(stack), stack=stack)
    _SPACES[key] = space
    return space


def _partitions(r, parts, largest=None):
    """The partitions of r into at most ``parts`` parts, largest part first."""
    if r == 0:
        yield ()
    elif parts:
        for first in range(min(r, largest or r), 0, -1):
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


def intertwiner_dim(group, r, s):
    """dim (H^r, H^s), an exact count: nothing is solved.

    By Schur-Weyl duality H^r is the sum, over the partitions lambda of r
    with at most d rows, of the irreducible V_lambda of U(d) with
    multiplicity f^lambda (``_hook_count``).  Over u(d) the scalars i*I
    act by i r, so the count is the sum of (f^lambda)^2 when r = s and 0
    otherwise.  Over su(d) V_lambda and V_mu agree exactly when lambda
    and mu differ by k columns of height d, so the count is 0 unless d
    divides r - s, and otherwise the sum over lambda of min(r, s) of
    f^lambda f^(lambda + (k^d)), with k = |r - s| / d.  A finite group
    gives the character average (1/|G|) sum_g conj(tr g)^r (tr g)^s,
    rounded to its integer.
    """
    d = group.degree
    if group.kind == KIND_FINITE:
        tr = np.trace(np.array(group.elements()), axis1=1, axis2=2)
        return int(round(float(np.mean(tr.conj() ** r * tr ** s).real)))
    if (r - s) % d or (group.kind == KIND_U and r != s):
        return 0
    k = abs(r - s) // d
    total = 0
    for shape in _partitions(min(r, s), d):
        padded = shape + (0,) * (d - len(shape))
        total += _hook_count(shape) * _hook_count(tuple(row + k for row in padded))
    return total


def permutation_unitary(perm, d):
    """Unitary on (C^d)^(x r) moving tensor slot k to slot perm[k].

    Composition convention: permutation_unitary(p) @ permutation_unitary(q)
    equals permutation_unitary(p after q).
    """
    r = len(perm)
    if sorted(perm) != list(range(r)):
        raise ValueError("not a permutation of 0..%d: %r" % (r - 1, perm))
    n = d ** r
    # the identity with its row slots transposed: row slot perm[k] reads
    # column slot k, so row a has its one entry in column src[a]
    src = np.arange(n).reshape((d,) * r).transpose(np.argsort(perm)).ravel()
    u = np.zeros((n, n), dtype=complex)
    u[np.arange(n), src] = 1.0
    return as_matrix(u)


def symmetry_unitary(r, s, d):
    """The flip of tensor blocks: v x w -> w x v for v in H^r, w in H^s."""
    perm = [k + s for k in range(r)] + list(range(s))
    return permutation_unitary(perm, d)


def _sign(perm):
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1


def antisym_projector(d, r):
    """Projector (1/r!) sum over permutations of sign(p) times the permutation unitary."""
    if r > ANTISYM_POWER_CAP:
        raise SizeCapExceeded("antisymmetrizer capped at power %d" % ANTISYM_POWER_CAP)
    n = d ** r
    acc = np.zeros((n, n), dtype=complex)
    for p in itertools.permutations(range(r)):
        acc += _sign(p) * permutation_unitary(p, d)
    return as_matrix(acc / math.factorial(r))


def special_isometry(d):
    """The normalized top antisymmetric vector as an isometry 1 -> H^d.

    Phase convention: positive coefficient on e_1 x ... x e_d.
    """
    perms = list(itertools.permutations(range(d)))
    coeff = 1.0 / math.sqrt(math.factorial(d))
    vec = np.zeros((d ** d, 1), dtype=complex)
    vec[np.ravel_multi_index(np.array(perms).T, (d,) * d), 0] = [_sign(p) * coeff for p in perms]
    return SpecialObjectData(degree=d, isometry=as_matrix(vec))


def conjugate_pair(d):
    """Unnormalized standard conjugate solution R = sum_k e_k x e_k, the
    vectorized identity; the dimension value R* R equals d."""
    return ConjugatePair(degree=d, r=as_matrix(np.eye(d).reshape(d * d, 1)), dim_value=float(d))

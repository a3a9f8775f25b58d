"""Dense complex matrices under a single numerical contract.

A matrix is a plain 2-d complex128 ndarray.  ``as_matrix`` is the one
place one is made: it copies, checks the shape and the entries, and
freezes the copy, so every matrix a result or a cache holds is
read-only and finite; ``matrix_to_json`` and ``matrix_from_json`` are
its JSON boundary.  A stack of matrices (leading axes first, as a
family over the patches of a base is kept) goes through the same checks
by ``_as_stack``.

Every dimension reported by the rest of the package (intertwiner spaces,
glued section spaces, cohomology ranks of numerical origin) traces back
to the rank decisions made here, so the conventions are pinned once:

* double precision complex entries, read-only once ``as_matrix`` made them;
* one tolerance tau, measured against max(1, the largest singular value
  of the operand), as ``Tolerance.close`` measures residuals: the
  operators solved here are built from unitaries, unit vectors and
  integer weights, so their natural scale is 1 even when the operand is
  numerically zero;
* nullspace bases are orthonormal and canonically ordered (each vector
  phase-fixed at its largest entry, then sorted lexicographically) so
  repeated runs report identical bases.

``power_action`` is the one tensor-power action of the package.  It
moves the r + s slots of an arrow in blocks of at most (r + s) // 2
slots (one slot at r + s <= 3), one batched product by a formed power
per block, so no power it forms beyond u itself holds more entries than
one image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TAU = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance for rank and residual decisions."""

    tau: float = DEFAULT_TAU

    def __post_init__(self):
        if not (self.tau > 0.0):
            raise ValueError("tolerance must be positive, got %r" % (self.tau,))

    def close(self, residual, scale=1.0):
        """Accept a residual measured against max(1, scale)."""
        return residual <= self.tau * max(1.0, scale)


def as_matrix(entries):
    """A read-only, C-ordered complex128 copy of ``entries`` as a 2-d array.

    A 1-d input becomes a column.  The copy is always taken, so freezing
    it never reaches the caller's array.  Raises ValueError on any other
    rank and on non-finite entries.
    """
    a = np.array(entries, dtype=complex, order="C")
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array, got shape %r" % (a.shape,))
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    a.setflags(write=False)
    return a


def _as_stack(entries):
    """``as_matrix`` for a (..., rows, cols) stack: the leading axes fold
    into the rows for the copy, the checks and the freeze, then unfold."""
    a = np.asarray(entries)
    if a.ndim < 2:
        raise ValueError("expected a stack of matrices, got shape %r" % (a.shape,))
    return as_matrix(a.reshape(-1 if a.size else 0, a.shape[-1])).reshape(a.shape)


def matrix_to_json(a):
    """The ``{rows, cols, re, im}`` document of a matrix, entries row-major."""
    rows, cols = a.shape
    return {
        "rows": rows,
        "cols": cols,
        "re": [float(x) for x in a.real.ravel()],
        "im": [float(x) for x in a.imag.ravel()],
    }


def matrix_from_json(doc):
    """Inverse of ``matrix_to_json``, checking the entry count and the entries."""
    rows, cols = int(doc["rows"]), int(doc["cols"])
    re, im = doc["re"], doc["im"]
    if len(re) != rows * cols or len(im) != rows * cols:
        raise ValueError(
            "matrix document has %d/%d entries for shape %d x %d"
            % (len(re), len(im), rows, cols)
        )
    a = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    return as_matrix(a.reshape(rows, cols))


def _slot_blocks(first, count, width):
    """``count`` consecutive slots from ``first`` cut into at most ``width``
    wide blocks of near-equal width: (first slot, width) pairs."""
    nb = -(-count // width)
    blocks = []
    for k in range(nb):
        size = count // nb + (k < count % nb)
        blocks.append((first, size))
        first += size
    return blocks


def _block_power(x, k, lie):
    """x^(x k) for a stack (..., d, d), or with ``lie`` the Kronecker sum
    of x over k slots; one broadcast outer product per extra slot."""
    d = x.shape[-1]
    p = x
    for j in range(1, k):
        w = d ** j
        if lie:
            grown = p[..., :, None, :, None] * np.eye(d)[:, None, :]
            grown = grown + np.eye(w)[:, None, :, None] * x[..., None, :, None, :]
        else:
            grown = p[..., :, None, :, None] * x[..., None, :, None, :]
        p = grown.reshape(x.shape[:-2] + (w * d, w * d))
    return p


def power_action(u, t, r, s, lie=False):
    """The action t -> u^(x s) t (u^(x r))* of a unitary on (H^r, H^s).

    ``u`` has shape (..., d, d) and ``t`` shape (..., d^s, d^r); their
    leading axes broadcast, so one call moves a whole stack of arrows by
    a whole stack of unitaries.

    The r + s tensor slots of t (the s row slots, then the r column
    slots) are cut into blocks of at most max(1, (r + s) // 2)
    consecutive slots, never mixing rows and columns, and each block
    takes one batched product by a formed power: u^(x k) on a block of k
    row slots, conj(u)^(x k) on a block of k column slots.  The width
    rule keeps every power of two or more slots at d^(2k) <= d^(r + s)
    entries per unitary, no more than one image, so the images bound the
    memory whatever the powers: at r = s = 3 a call is two products by d^3 x d^3 powers, and
    at (0, 12) two by d^6 x d^6 ones, never the d^12 x d^12 power.

    With ``lie`` set, u is a Lie algebra element x and the block terms
    are summed instead, each block power being the Kronecker sum of x
    over its slots, giving the derivative L_s(x) t + t L_r(x)* of the
    action at the identity (L_k(x) the sum of x over the k slots).
    """
    u = np.asarray(u, dtype=complex)
    t = np.asarray(t, dtype=complex)
    d = u.shape[-1]
    n = r + s
    lead = np.broadcast_shapes(u.shape[:-2], t.shape[:-2])
    shape = lead + t.shape[-2:]
    if n == 0:
        return np.zeros(shape, dtype=complex) if lie else np.broadcast_to(t, shape)
    width = max(1, n // 2)
    blocks = [(p, k, False) for p, k in _slot_blocks(0, s, width)]
    blocks += [(p, k, True) for p, k in _slot_blocks(s, r, width)]
    powers = {}
    out = np.zeros(shape, dtype=complex) if lie else t
    for p, k, col in blocks:
        if k not in powers:
            powers[k] = _block_power(u, k, lie)
        power = powers[k].conj() if col else powers[k]
        src = t if lie else out
        a, b = d ** p, d ** (n - p - k)
        if b == 1:
            # the last slots: one right product by the transposed power
            moved = src.reshape(src.shape[:-2] + (a, d ** k)) @ np.swapaxes(power, -1, -2)
        else:
            moved = power[..., None, :, :] @ src.reshape(src.shape[:-2] + (a, d ** k, b))
        if lie:
            out += moved.reshape(shape)
        else:
            out = moved.reshape(shape)
    return out


def opnorm(a):
    """Operator norm (largest singular value)."""
    if np.size(a) == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def hs_inner(a, b):
    """Hilbert-Schmidt inner product trace(a* b), conjugate-linear in a."""
    return complex(np.vdot(a, b))


def hs_norm(a):
    return float(np.linalg.norm(a))


def _canonical_phase(v):
    # rotate the largest entry (first on ties) onto the positive real axis
    j = int(np.argmax(np.abs(v)))
    pivot = v[j]
    if abs(pivot) == 0.0:
        return v
    return v * (pivot.conjugate() / abs(pivot))


def _sort_key(v):
    r = np.round(v.real, 9) + 0.0  # fold -0.0 into 0.0
    i = np.round(v.imag, 9) + 0.0
    return tuple(np.stack([r, i], axis=1).ravel())


def canonical_basis(vectors):
    """Phase-fix and order a list of 1-d arrays deterministically."""
    fixed = [_canonical_phase(np.asarray(v, dtype=complex).ravel()) for v in vectors]
    fixed.sort(key=_sort_key, reverse=True)
    return fixed


def nullspace(op, tol=None):
    """Orthonormal basis of the numerical kernel of ``op``.

    A vector v is kept when ||op v|| <= tau * max(1, ||op||) * ||v||,
    decided by the singular values of op.  The unit floor matters when
    op is numerically zero (a trivial holonomy, say): a purely relative
    cutoff would then discard the whole kernel.  Returns read-only
    column vectors, in canonical order.

    The SVD is thin when op has at least as many rows as columns: the
    kernel lives in the right factor, so the m x m left factor of a tall
    operator is never formed.  A wide operator keeps the full right
    factor, whose rows beyond m span part of the kernel.
    """
    tol = tol or Tolerance()
    m, n = op.shape
    if n == 0:
        return []
    if m == 0:
        vecs = list(np.eye(n, dtype=complex))
    else:
        _, s, vh = np.linalg.svd(op, full_matrices=m < n)
        # right singular vectors past the singular values have sigma 0
        keep = np.append(_below_cutoff(s, tol), np.ones(n - s.size, dtype=bool))
        vecs = list(vh[keep].conj())
    return [as_matrix(v) for v in canonical_basis(vecs)]


def _below_cutoff(sigma, tol):
    """The singular values at or below tau * max(1, the largest of them):
    the one kernel rule, shared with ``repcat.intertwiners``.  Each row of
    a (..., k) array is scaled by its own largest value."""
    return sigma <= tol.tau * np.maximum(1.0, np.max(sigma, axis=-1, keepdims=True, initial=0.0))


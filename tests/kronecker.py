"""Oracles for ``power_action``: the Kronecker route and the slot-wise kernel.

The library applies the tensor powers in blocks of at most half the
slots, each block one product by a formed power of that width, so no
power it forms (beyond u itself) holds more entries than one image.  These
helpers reach the same action two other ways, so the tests can compare:
``kron_action`` and ``kron_derivation`` form the whole powers and their
derivatives as explicit matrices, and ``slot_action`` forms no power
at all and moves one slot at a time by a batched product with u
(conj(u) on the column slots).
"""

import numpy as np


def tensor_power(a, r):
    """r-fold Kronecker power; the zeroth power is the 1 x 1 identity."""
    out = np.eye(1, dtype=complex)
    for _ in range(r):
        out = np.kron(out, a)
    return out


def derived_power(x, r, d):
    """Derivative of g -> g^(x r) at the identity: the Kronecker sum of x over r slots."""
    out = np.zeros((d ** r, d ** r), dtype=complex)
    for k in range(r):
        out += np.kron(np.kron(np.eye(d ** k), x), np.eye(d ** (r - 1 - k)))
    return out


def kron_action(u, t, r, s):
    """u^(x s) t (u^(x r))* through the formed powers."""
    return tensor_power(u, s) @ t @ tensor_power(u, r).conj().T


def kron_derivation(x, t, r, s, d):
    """L_s(x) t + t L_r(x)* through the formed Kronecker sums."""
    return derived_power(x, s, d) @ t + t @ derived_power(x, r, d).conj().T


def slot_action(u, t, r, s, lie=False):
    """``power_action`` one slot at a time, with the same broadcasting."""
    u = np.asarray(u, dtype=complex)
    t = np.asarray(t, dtype=complex)
    d = u.shape[-1]
    n = r + s
    lead = np.broadcast_shapes(u.shape[:-2], t.shape[:-2])
    shape = lead + t.shape[-2:]
    whole = np.broadcast_to(t, shape)
    out = np.zeros(shape, dtype=complex) if lie else whole
    rows, cols = u[..., None, :, :], u.conj()[..., None, :, :]
    for p in range(n):
        slot = (whole if lie else out).reshape(lead + (d ** p, d, d ** (n - 1 - p)))
        moved = ((rows if p < s else cols) @ slot).reshape(shape)
        if lie:
            out += moved
        else:
            out = moved
    return out

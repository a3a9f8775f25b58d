"""The Kronecker route to tensor powers: the oracle for ``power_action``.

The library applies a unitary slot by slot and never forms u^(x r);
these helpers form the powers and their derivatives as explicit
matrices, the way the library once did, so the tests can compare.
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

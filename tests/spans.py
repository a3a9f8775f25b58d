"""Distance of a vector to a span: the tests' check that a solved basis
holds a known vector."""

import numpy as np


def projection_residual(vec, basis_vectors):
    """Distance from ``vec`` to the span of orthonormal ``basis_vectors``."""
    v = np.ravel(vec)
    rem = v
    for b in basis_vectors:
        bb = np.ravel(b)
        rem = rem - np.vdot(bb, v) * bb
    return float(np.linalg.norm(rem))

"""Oracle for the cochain array routes: the per-triangle and per-edge loops.

``is_cocycle`` and ``circle_class`` read each triangle's three edge
values from one (T, 3) table of edge positions and work on the whole
value array at once; ``det_pushforward`` takes one batched determinant.
The loops here read every value through ``CechCocycle.value`` and do the
exact arithmetic one triangle (or edge) at a time, so on every input
both routes must agree exactly: classes, phases and failing triangles.
"""

import math

import numpy as np

from catbundle import CechCocycle, Tolerance, h2_integral, normalized_lift, snap_phase
from catbundle.basecech import CocycleCheck


def loop_is_cocycle(c, tol=None):
    """The cocycle identity triangle by triangle; the first failure wins."""
    tol = tol or Tolerance()
    for (i, j, k) in c.complex.triangles():
        gij = c.value(i, j)
        gjk = c.value(j, k)
        gik = c.value(i, k)
        if c.coeff == "phase":
            defect = gij + gjk - gik
            if defect.denominator != 1:
                return CocycleCheck(False, (i, j, k), float(abs(defect - round(defect))))
        elif c.coeff == "int":
            defect = gij + gjk - gik
            if defect != 0:
                return CocycleCheck(False, (i, j, k), float(abs(defect)))
        else:
            res = float(np.linalg.norm(gij @ gjk - gik))
            if not tol.close(res, scale=math.sqrt(gij.shape[0])):
                return CocycleCheck(False, (i, j, k), res)
    return CocycleCheck(True)


def loop_circle_class(c):
    """Reduce delta(normalized lifts) + windings, summed triangle by triangle."""
    assert loop_is_cocycle(c)
    z = {}
    for (i, j, k) in c.complex.triangles():
        n = (
            normalized_lift(c.value(i, j))
            + normalized_lift(c.value(j, k))
            - normalized_lift(c.value(i, k))
        )
        assert n.denominator == 1
        z[(i, j, k)] = int(n) + c.winding(i, j, k)
    return h2_integral(c.complex).reduce(z)


def loop_det_pushforward(c, tol=None):
    """The determinant phase cocycle, one determinant per edge."""
    vals = {}
    for (i, j) in c.complex.edges():
        vals[(i, j)] = snap_phase(complex(np.linalg.det(c.value(i, j))), tol)
    return CechCocycle(c.complex, "phase", vals, windings=dict(c.windings))

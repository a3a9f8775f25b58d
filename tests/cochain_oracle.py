"""Oracle for the cochain array routes: the per-triangle and per-edge loops,
and the exact ``Fraction`` storage of phase cochains.

``is_cocycle`` and ``circle_class`` read each triangle's three edge
values from one (T, 3) table of edge positions and work on the whole
value array at once; ``det_pushforward`` and the twisted extraction snap
all phases in one stacked call.  Phase and integer cocycles keep integer
numerators over one denominator.  The loops here read every value
through ``value`` and do the exact arithmetic one triangle (or edge) at a
time, and ``FractionCochain`` keeps the values as one object array of
``Fraction``s (phase) or Python ints (integer), as the package did before
it stored numerators: its values, JSON, holonomy frames and products are
sums of ``Fraction``s.  On every input both routes must agree exactly:
classes, phases, failing triangles, witnesses and JSON bytes.
"""

import math
from fractions import Fraction

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


def loop_snap_phases(z, tol=None):
    """``snap_phase`` entry by entry; the first failure raises."""
    return [snap_phase(complex(w), tol) for w in z]


def loop_det_pushforward(c, tol=None):
    """The determinant phase cocycle, one determinant per edge."""
    vals = {}
    for (i, j) in c.complex.edges():
        vals[(i, j)] = snap_phase(complex(np.linalg.det(c.value(i, j))), tol)
    return CechCocycle(c.complex, "phase", vals, windings=dict(c.windings))


class FractionCochain:
    """A phase or integer cochain stored as exact values in ``edges()``
    order, with the routes that read them one value at a time."""

    def __init__(self, complex_, coeff, values, windings=None):
        self.complex, self.coeff = complex_, coeff
        pos = complex_.positions(1)
        exact = Fraction if coeff == "phase" else int
        vals = [None] * len(pos)
        for (i, j), v in dict(values).items():
            vals[pos[(min(i, j), max(i, j))]] = -exact(v) if i > j else exact(v)
        self.values = np.array(vals, dtype=object)
        self.windings = {tuple(sorted(t)): int(n) for t, n in dict(windings or {}).items() if n}

    def value(self, i, j):
        pos = self.complex.positions(1)
        return self.values[pos[(i, j)]] if (i, j) in pos else -self.values[pos[(j, i)]]

    def winding(self, i, j, k):
        return self.windings.get(tuple(sorted((i, j, k))), 0)

    def holonomies(self):
        """Frames f_cv = c_(cv,pv) + f_pv along the spanning forest, and
        c_ij - f_i + f_j on every edge."""
        frames = [None] * self.complex.vertices
        for root, tree in self.complex.spanning_forest():
            frames[root] = Fraction(0) if self.coeff == "phase" else 0
            for pv, cv in tree:
                frames[cv] = self.value(cv, pv) + frames[pv]
        hol = [v - frames[i] + frames[j] for (i, j), v in zip(self.complex.edges(), self.values)]
        return frames, hol

    def product(self, other):
        wind = dict(self.windings)
        for t, n in other.windings.items():
            wind[t] = wind.get(t, 0) + n
        return FractionCochain(self.complex, self.coeff, zip(self.complex.edges(), self.values + other.values), wind)

    def to_json(self):
        doc = {"coeff": self.coeff, "values": []}
        for (i, j), v in zip(self.complex.edges(), self.values):
            vv = "%d/%d" % (v.numerator, v.denominator) if self.coeff == "phase" else int(v)
            doc["values"].append({"edge": [i, j], "value": vv})
        if self.windings:
            doc["windings"] = [{"triangle": list(t), "value": n} for t, n in sorted(self.windings.items())]
        return doc


def exact_holonomies(c):
    """A phase or integer cocycle's holonomy table as exact values."""
    return tuple([Fraction(int(x), c.denominator) for x in a] for a in c.holonomies())

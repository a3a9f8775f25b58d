"""Cech cohomology of transition data over finite simplicial bases.

The cover of a complex is always the family of closed vertex stars, so
patches are indexed by vertices, two patches overlap exactly when their
vertices span an edge, and triple overlaps correspond to triangles: the
nerve of the cover is the complex itself, and Cech data that is constant
per overlap is simplicial data.  All overlaps of closed stars are
connected, which is what makes the constant model meaningful.

Coefficient kinds:

* ``finite``: matrix values (group elements or normalizer representatives);
* ``phase``: rational circle phases, value q meaning exp(2*pi*i*q);
* ``int``: integers.

Circle-valued data carries an extra integer winding number per triangle
(default zero).  The windings record how the underlying circle-valued
transition functions wrap on triple overlaps; constant phases cannot see
that, and on a base whose second cohomology is free every nontrivial
class lives entirely in the windings.  The integral class of a phase
cocycle is the reduction of delta(normalized lifts) + windings; it is
independent of the choice of lifts.  Witnesses found by ``equivalent``
are constant per patch; equal classes are also required, since a pair of
phase cocycles with distinct integral classes is never equivalent even
when the flat parts match up.

Integral second cohomology comes from an exact sparse unit-pivot Smith
normal form with unimodular transforms, so classes come with
coordinates: free coordinates in Z and torsion coordinates modulo the
stored orders.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import (
    CapExceeded,
    IrrationalPhase,
    MissingValue,
    NotACocycle,
    SearchCapExceeded,
    WrongKind,
)
from .groups import GroupSpec, KIND_FINITE, verify_normalizer
from .linalg import Tolerance, _as_stack, as_matrix, matrix_from_json, matrix_to_json

COEFF_FINITE = "finite"
COEFF_PHASE = "phase"
COEFF_INT = "int"

_COEFFS = (COEFF_FINITE, COEFF_PHASE, COEFF_INT)

SEARCH_CAP = 10 ** 6
PHASE_DENOMINATOR_BOUND = 360


class SimplicialComplex:
    """A finite abstract simplicial complex, closed under taking faces.

    Vertices are 0..vertices-1 and every vertex is a 0-simplex.  The
    orientation convention everywhere is increasing vertex order.
    """

    def __init__(self, vertices, simplices):
        self.vertices = int(vertices)
        simps = set()
        for s in simplices:
            fs = frozenset(int(v) for v in s)
            if not fs:
                raise ValueError("empty simplex")
            if any(v < 0 or v >= self.vertices for v in fs):
                raise ValueError("simplex %r has a vertex outside 0..%d" % (sorted(fs), self.vertices - 1))
            simps.add(fs)
        for v in range(self.vertices):
            if frozenset([v]) not in simps:
                raise ValueError("vertex %d is not listed as a 0-simplex" % v)
        for s in simps:
            if len(s) > 1:
                for v in s:
                    if s - {v} not in simps:
                        raise ValueError("face %r of %r is missing" % (sorted(s - {v}), sorted(s)))
        self.simplices = frozenset(simps)
        self._by_dim = {}
        self._positions = {}
        self._triangle_edges = None

    @classmethod
    def from_maximal(cls, vertices, maximal):
        """Build the face closure of the given simplices, plus all vertices."""
        simps = set(frozenset([v]) for v in range(vertices))
        stack = [frozenset(int(v) for v in s) for s in maximal]
        while stack:
            s = stack.pop()
            if s in simps or not s:
                continue
            simps.add(s)
            for v in s:
                stack.append(s - {v})
        return cls(vertices, simps)

    @property
    def dim(self):
        return max(len(s) for s in self.simplices) - 1

    def simplices_of_dim(self, k):
        """The k-simplices as sorted vertex tuples, in increasing order.

        Formed once per k; the result is a tuple, so the shared value
        cannot be changed by a caller.
        """
        out = self._by_dim.get(k)
        if out is None:
            out = tuple(sorted(tuple(sorted(s)) for s in self.simplices if len(s) == k + 1))
            self._by_dim[k] = out
        return out

    def positions(self, k):
        """Each k-simplex's position in ``simplices_of_dim(k)``, as a
        read-only mapping formed once per k."""
        out = self._positions.get(k)
        if out is None:
            index = {s: a for a, s in enumerate(self.simplices_of_dim(k))}
            out = self._positions[k] = MappingProxyType(index)
        return out

    def triangle_edges(self):
        """The read-only (T, 3) table of each triangle (i, j, k)'s edge
        positions in ``edges()``, in the order (ij, jk, ik)."""
        if self._triangle_edges is None:
            pos = self.positions(1)
            rows = [(pos[(i, j)], pos[(j, k)], pos[(i, k)]) for i, j, k in self.triangles()]
            self._triangle_edges = np.array(rows, dtype=int).reshape(-1, 3)
            self._triangle_edges.setflags(write=False)
        return self._triangle_edges

    def edges(self):
        return self.simplices_of_dim(1)

    def triangles(self):
        return self.simplices_of_dim(2)

    def tetrahedra(self):
        return self.simplices_of_dim(3)

    def components(self):
        """Vertex sets of the connected components of the 1-skeleton."""
        parent = list(range(self.vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j in self.edges():
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        groups = {}
        for v in range(self.vertices):
            groups.setdefault(find(v), []).append(v)
        return [sorted(g) for g in sorted(groups.values())]

    def star(self, v):
        """Simplices of the closed star of vertex v."""
        closed = set()
        stack = [s for s in self.simplices if v in s]
        while stack:
            s = stack.pop()
            if s in closed:
                continue
            closed.add(s)
            if len(s) > 1:
                stack.extend(s - {w} for w in s)
        return frozenset(closed)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.simplices == other.simplices
        )

    def __hash__(self):
        return hash((self.vertices, self.simplices))

    def to_json(self):
        return {
            "vertices": self.vertices,
            "simplices": [sorted(s) for s in sorted(self.simplices, key=lambda x: (len(x), sorted(x)))],
        }

    @classmethod
    def from_json(cls, doc):
        return cls.from_maximal(int(doc["vertices"]), doc["simplices"])


def octahedron():
    """Boundary of the octahedron: the 6-vertex triangulation of the 2-sphere."""
    faces = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 4, 1),
    ]
    return SimplicialComplex.from_maximal(6, faces)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError("phase values must be exact rationals, got %r" % (x,))


def normalized_lift(q):
    """The representative of q mod 1 in the half-open interval (-1/2, 1/2];
    elementwise on an object array of rationals."""
    return q + (Fraction(1, 2) - q) // 1


class CechCocycle:
    """Transition data on the closed-star cover of a complex.

    ``values`` is one read-only array in ``complex.edges()`` order, the
    value on (i, j) with i < j: an (E, d, d) stack for the finite kind,
    and a 1-d object array of exact ``Fraction``s (phase) or Python ints
    (integer) otherwise.  The construction takes a value on every edge,
    keyed by either orientation (ValueError if one is missing); the
    values on (j, i), the inverses, are formed once as a second read-only
    array, so ``value`` only ever reads a stored entry.
    Phase and finite kinds may carry integer windings on triangles.
    An optional structure group may be attached to a finite-kind cocycle;
    ``equivalent`` then searches witnesses in that group.
    """

    def __init__(self, complex_, coeff, values, windings=None, group=None):
        if coeff not in _COEFFS:
            raise ValueError("unknown coefficient kind %r" % (coeff,))
        self.complex = complex_
        self.coeff = coeff
        self.group = group
        if group is not None and coeff != COEFF_FINITE:
            raise ValueError("a structure group only makes sense for matrix values")
        edges = complex_.edges()
        pos = complex_.positions(1)
        slots = [None] * len(edges)
        for (i, j), v in dict(values).items():
            i, j = int(i), int(j)
            key = (min(i, j), max(i, j))
            a = pos.get(key)
            if a is None:
                raise ValueError("pair %r is not an overlap of the cover" % (key,))
            if slots[a] is not None:
                raise ValueError("duplicate value for %r" % (key,))
            slots[a] = (i > j, v)
        if None in slots:
            raise ValueError("no value on overlap %r" % (edges[slots.index(None)],))
        flip = np.array([f for f, _ in slots], dtype=bool)
        if coeff == COEFF_FINITE:
            d = group.degree if group is not None else 0
            vals = np.array([v for _, v in slots] or np.zeros((0, d, d)), dtype=complex)
            if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
                raise ValueError("matrix values must be square and of one size")
            vals[flip] = vals[flip].conj().transpose(0, 2, 1)
            self.values, self._reversed = _as_stack(vals), _as_stack(vals.conj().transpose(0, 2, 1))
        else:
            exact = _as_fraction if coeff == COEFF_PHASE else int
            vals = np.array([exact(v) for _, v in slots], dtype=object)
            vals[flip] = -vals[flip]
            self.values, self._reversed = vals, -vals
            for a in (self.values, self._reversed):
                a.setflags(write=False)
        wind = {}
        if windings:
            if coeff == COEFF_INT:
                raise ValueError("integer cocycles carry no windings")
            tris = complex_.positions(2)
            for t, n in dict(windings).items():
                key = tuple(sorted(int(v) for v in t))
                if key not in tris:
                    raise ValueError("winding on %r which is not a triangle" % (key,))
                if int(n):
                    wind[key] = int(n)
        self.windings = wind

    def degree(self):
        if self.coeff != COEFF_FINITE:
            raise WrongKind("degree only makes sense for matrix values")
        if len(self.values) or self.group is not None:
            return self.values.shape[1]
        raise MissingValue("cocycle has no values to take a degree from")

    def value(self, i, j):
        """The stored value on the overlap (i, j), in either orientation."""
        pos = self.complex.positions(1)
        a = pos.get((i, j))
        if a is not None:
            return self.values[a]
        a = pos.get((j, i))
        if a is None:
            raise MissingValue("no value on overlap %r" % ((min(i, j), max(i, j)),))
        return self._reversed[a]

    def winding(self, i, j, k):
        return self.windings.get(tuple(sorted((i, j, k))), 0)

    def product(self, other):
        """Pointwise product; abelian kinds only, windings add."""
        if self.coeff == COEFF_FINITE or other.coeff != self.coeff:
            raise WrongKind("cocycle products are defined for phase and integer kinds")
        if self.complex != other.complex:
            raise ValueError("cocycles live on different covers")
        wind = dict(self.windings)
        for t, n in other.windings.items():
            wind[t] = wind.get(t, 0) + n
        vals = zip(self.complex.edges(), self.values + other.values)
        return CechCocycle(self.complex, self.coeff, vals, windings=wind)

    def to_json(self):
        doc = {"coeff": self.coeff, "values": []}
        for (i, j), v in zip(self.complex.edges(), self.values):
            if self.coeff == COEFF_PHASE:
                vv = "%d/%d" % (v.numerator, v.denominator)
            elif self.coeff == COEFF_INT:
                vv = int(v)
            else:
                vv = matrix_to_json(v)
            doc["values"].append({"edge": [i, j], "value": vv})
        if self.windings:
            doc["windings"] = [
                {"triangle": list(t), "value": n} for t, n in sorted(self.windings.items())
            ]
        return doc

    @classmethod
    def from_json(cls, doc, complex_, group=None):
        coeff = doc["coeff"]
        values = {}
        for item in doc.get("values", []):
            i, j = item["edge"]
            v = item["value"]
            if coeff == COEFF_FINITE:
                v = matrix_from_json(v)
            values[(int(i), int(j))] = v
        windings = {}
        for item in doc.get("windings", []):
            windings[tuple(item["triangle"])] = int(item["value"])
        return cls(complex_, coeff, values, windings=windings, group=group)


def trivial_cocycle(complex_, coeff, degree=None, group=None):
    if coeff == COEFF_FINITE:
        one = np.eye(degree if degree is not None else group.degree)
    else:
        one = Fraction(0) if coeff == COEFF_PHASE else 0
    return CechCocycle(complex_, coeff, dict.fromkeys(complex_.edges(), one), group=group)


@dataclass(frozen=True)
class CocycleCheck:
    ok: bool
    triangle: tuple | None = None
    residual: float | None = None

    def __bool__(self):
        return self.ok


def is_cocycle(c, tol=None):
    """Check the cocycle identity on every triangle of the base.

    Matrix values are checked within tolerance, phases and integers
    exactly (a phase triple must sum to an integer).  The first failing
    triangle is reported with its residual: the Frobenius norm of
    g_ij g_jk - g_ik, or the distance of the sum to the nearest integer.
    """
    tol = tol or Tolerance()
    ij, jk, ik = c.complex.triangle_edges().T
    g = c.values
    if c.coeff == COEFF_FINITE:
        res = np.linalg.norm(g[ij] @ g[jk] - g[ik], axis=(1, 2))
        bad = np.flatnonzero(~(res <= tol.tau * max(1.0, math.sqrt(g.shape[1]))))
    else:
        res = g[ij] + g[jk] - g[ik]
        bad = np.flatnonzero((res % 1 if c.coeff == COEFF_PHASE else res) != 0)
    if not bad.size:
        return CocycleCheck(True)
    x = res[bad[0]] - round(res[bad[0]]) if c.coeff == COEFF_PHASE else res[bad[0]]
    return CocycleCheck(False, c.complex.triangles()[bad[0]], float(abs(x)))


# ---------------------------------------------------------------------------
# integer Smith normal form with unimodular transforms


def _axpy(dst, src, c):
    """dst += c * src on sparse integer rows {col: value}."""
    for k, x in src.items():
        y = dst.get(k, 0) + c * x
        if y:
            dst[k] = y
        else:
            dst.pop(k, None)


def _dot(row, v):
    """Sparse integer row {col: value} times a dense vector."""
    return sum(x * v[k] for k, x in row.items())


def smith_normal_form(a, cols):
    """Exact Smith normal form over the integers, on sparse rows.

    ``a`` is a list of m rows, each a dict {column: int} of its nonzero
    entries, with columns in 0..cols-1.  Returns (diag, u, vinv): diag
    lists the min(m, cols) diagonal entries of the normal form D, and u
    (m x m) and vinv (cols x cols) are unimodular, given as sparse rows,
    with u a = D vinv.  vinv is the inverse of the right transform, which
    is what coordinate computations need.  Arbitrary precision throughout.

    The pivot is the first entry of least absolute value in row-major
    order of the remaining block, so the scan stops at the first row
    holding a unit.  A column -> rows index lets every operation touch
    only nonzeros, which keeps coboundary matrices (rows of a few +-1
    entries) sparse while they are eliminated.
    """
    m, n = len(a), cols
    d = [{k: int(x) for k, x in row.items() if x} for row in a]
    u = [{i: 1} for i in range(m)]
    vinv = [{j: 1} for j in range(n)]
    at = [set() for _ in range(n)]  # column -> rows with a nonzero there
    for i, row in enumerate(d):
        for k in row:
            at[k].add(i)

    def row_add(i, j, c):
        # row_i += c * row_j, on d and u
        ri = d[i]
        for k, x in d[j].items():
            y = ri.get(k, 0) + c * x
            if y:
                if k not in ri:
                    at[k].add(i)
                ri[k] = y
            elif k in ri:
                del ri[k]
                at[k].discard(i)
        _axpy(u[i], u[j], c)

    def col_add(i, j, c):
        # col_j += c * col_i on d; vinv tracks the inverse: row_i -= c * row_j
        for r in list(at[i]):
            row = d[r]
            y = row.get(j, 0) + c * row[i]
            if y:
                row[j] = y
                at[j].add(r)
            elif j in row:
                del row[j]
                at[j].discard(r)
        _axpy(vinv[i], vinv[j], -c)

    def row_swap(i, j):
        if i == j:
            return
        for k in d[i]:
            at[k].discard(i)
        for k in d[j]:
            at[k].discard(j)
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for k in d[i]:
            at[k].add(i)
        for k in d[j]:
            at[k].add(j)

    def col_swap(i, j):
        if i == j:
            return
        for r in at[i] | at[j]:
            row = d[r]
            x, y = row.pop(i, 0), row.pop(j, 0)
            if y:
                row[i] = y
            if x:
                row[j] = x
        at[i], at[j] = at[j], at[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    # rows t.. hold nonzeros only in columns t.., rows above t only their
    # diagonal entry
    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j, x in d[i].items():
                key = (abs(x), i, j)
                if pivot is None or key < pivot:
                    pivot = key
            if pivot is not None and pivot[0] == 1:
                break
        if pivot is None:
            break
        row_swap(t, pivot[1])
        col_swap(t, pivot[2])
        p = d[t][t]
        # clear column t; any nonzero remainder is smaller than the pivot,
        # so restarting with a fresh pivot strictly shrinks it
        for i in sorted(at[t] - {t}):
            row_add(i, t, -(d[i][t] // p))
        if len(at[t]) > 1:
            continue
        # with the column clean these touch row t only
        for j, x in sorted(d[t].items()):
            if j != t:
                col_add(t, j, -(x // p))
        if len(d[t]) > 1:
            continue
        # pivot must divide the rest of the block for the invariant chain;
        # folding the offending row into row t forces a strictly smaller
        # remainder on the next pass (a unit pivot divides everything)
        if abs(p) != 1:
            stray = next(
                (i for i in range(t + 1, m) if any(x % p for x in d[i].values())), None
            )
            if stray is not None:
                row_add(t, stray, 1)
                continue
        if p < 0:
            d[t][t] = -p
            u[t] = {k: -x for k, x in u[t].items()}
        t += 1
    diag = [d[i].get(i, 0) for i in range(min(m, n))]
    return diag, u, vinv


# ---------------------------------------------------------------------------
# integral second cohomology


@dataclass(frozen=True)
class IntegralCohomClass:
    """Coordinates of a class in H^2: free part over Z, torsion part mod orders."""

    free: tuple
    torsion: tuple
    torsion_orders: tuple

    def is_zero(self):
        return all(x == 0 for x in self.free) and all(x == 0 for x in self.torsion)

    def __add__(self, other):
        if self.torsion_orders != other.torsion_orders or len(self.free) != len(other.free):
            raise ValueError("classes live in different groups")
        return IntegralCohomClass(
            free=tuple(a + b for a, b in zip(self.free, other.free)),
            torsion=tuple(
                (a + b) % o for a, b, o in zip(self.torsion, other.torsion, self.torsion_orders)
            ),
            torsion_orders=self.torsion_orders,
        )

    def to_json(self):
        return {
            "free": list(self.free),
            "torsion": list(self.torsion),
            "torsion_orders": list(self.torsion_orders),
        }

    def __str__(self):
        return "H2 class free=%r torsion=%r mod %r" % (
            list(self.free),
            list(self.torsion),
            list(self.torsion_orders),
        )


class CohomologySummary:
    """H^2 of a complex with an exact reduction map for integral 2-cocycles."""

    def __init__(self, complex_):
        if complex_.dim > 3:
            raise WrongKind("second cohomology is computed for complexes of dimension <= 3")
        self.complex = complex_
        tets = complex_.tetrahedra()
        tidx = complex_.positions(2)
        n1, n2 = len(complex_.edges()), len(tidx)
        self._tris = complex_.triangles()
        # delta1 as one sparse row per triangle, over the edges
        d1 = [{jk: 1, ik: -1, ij: 1} for ij, jk, ik in complex_.triangle_edges().tolist()]
        if tets:
            d2 = [
                {tidx[(j, k, l)]: 1, tidx[(i, k, l)]: -1, tidx[(i, j, l)]: 1, tidx[(i, j, k)]: -1}
                for (i, j, k, l) in tets
            ]
            diag_b, _, vinv_b = smith_normal_form(d2, n2)
            self._vinv_b = vinv_b
            self._rank_b = sum(1 for x in diag_b if x)
            # coordinates of the image of delta1 inside the kernel of delta2
            c = []
            for a, row in enumerate(vinv_b):
                image = {}
                for k, x in row.items():
                    _axpy(image, d1[k], x)
                if a < self._rank_b and image:
                    raise NotACocycle("2-cochain is not closed")
                c.append(image)
            c = c[self._rank_b:]
        else:
            self._vinv_b = None
            self._rank_b = 0
            c = d1
        kernel_dim = n2 - self._rank_b
        diag_c, u_c, _ = smith_normal_form(c, n1)
        rank_c = sum(1 for x in diag_c if x)
        factors = diag_c[:rank_c]
        # only the rows of u_c that reduce() reads: torsion, then free
        self._torsion_rows = [(u_c[i], f) for i, f in enumerate(factors) if f > 1]
        self._free_rows = u_c[rank_c:]
        self.kernel_dim = kernel_dim
        self.free_rank = kernel_dim - rank_c
        self.torsion_orders = tuple(f for f in factors if f > 1)

    def _kernel_coords(self, z):
        if self._vinv_b is None:
            return z
        x = [_dot(row, z) for row in self._vinv_b]
        if any(x[i] != 0 for i in range(self._rank_b)):
            raise NotACocycle("2-cochain is not closed")
        return x[self._rank_b:]

    def reduce(self, zdict):
        """Class coordinates of an integral 2-cocycle given per triangle."""
        return self._reduce([int(zdict.get(t, 0)) for t in self._tris])

    def _reduce(self, z):
        """Class coordinates of the integers z in ``triangles()`` order."""
        x = self._kernel_coords(z)
        torsion = tuple(_dot(row, x) % f for row, f in self._torsion_rows)
        free = tuple(_dot(row, x) for row in self._free_rows)
        return IntegralCohomClass(free=free, torsion=torsion, torsion_orders=self.torsion_orders)


_H2 = {}  # H^2 summaries by the complex's value


def h2_integral(complex_):
    """Integral H^2 summary of a complex, formed once per complex value, so
    separately built equal complexes share one Smith normal form."""
    summary = _H2.get(complex_)
    if summary is None:
        summary = _H2[complex_] = CohomologySummary(complex_)
    return summary


def circle_class(c, tol=None):
    """Integral class of a circle cocycle: reduce delta(lifts) + windings.

    Changing the lifts changes delta(lifts) by an integer coboundary, so
    the class does not depend on the stored representatives.
    """
    if c.coeff != COEFF_PHASE:
        raise WrongKind("circle classes are defined for phase cocycles")
    check = is_cocycle(c, tol)
    if not check:
        raise NotACocycle(
            "phase data fails the cocycle identity on %r" % (check.triangle,)
        )
    ij, jk, ik = c.complex.triangle_edges().T
    lift = normalized_lift(c.values)
    # an integer on every triangle, since c passed the cocycle check
    z = (lift[ij] + lift[jk] - lift[ik]) // 1
    pos = c.complex.positions(2)
    for t, n in c.windings.items():
        z[pos[t]] += n
    return h2_integral(c.complex)._reduce(z)


# ---------------------------------------------------------------------------
# equivalence witnesses


def _spanning_forest(complex_):
    """BFS tree edges per component, rooted at each component's least vertex."""
    from collections import deque

    adj = {}
    for i, j in complex_.edges():
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    seen = set()
    forest = []
    for comp in complex_.components():
        root = comp[0]
        order = []
        seen.add(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in sorted(adj.get(v, [])):
                if w not in seen:
                    seen.add(w)
                    order.append((v, w))
                    queue.append(w)
        forest.append((root, order))
    return forest


def equivalent(c, c2, modulo=None, search_cap=SEARCH_CAP, tol=None):
    """Search for a coboundary witness u with u_i c2_ij = c_ij u_j.

    One propagation serves every coefficient kind.  On each component of
    the spanning forest, each root candidate in turn is carried to every
    vertex along the tree, and the first candidate whose values pass
    every edge of the component is kept.  Phase and integer data have
    the single root candidate 0 and step u_cv = u_pv + c_(cv,pv) -
    c2_(cv,pv); an edge passes when the residual is an integer (phase)
    or zero (integer), and phase data must also have equal integral
    classes.  The phase witness is rational.

    Matrix data take their root candidates from the attached structure
    group, or, with ``modulo`` set or no group attached, from the closure
    generated by the values of both cocycles and ``modulo``, in
    enumeration order.  The step is u_cv = c_(cv,pv) u_pv c2_(pv,cv).
    With ``modulo`` set an edge passes when u_i c2_ij = c_ij u_j h for
    some h in that group.  Right-multiplying any u_v by an element of
    the group changes no edge verdict, because every value of c2
    normalizes the group, so no twist h is ever tried: the untwisted
    propagation passes whenever a twisted one does.  That precondition
    is checked up front on the values of both cocycles, raising
    NotInNormalizer, so a value of infinite order never reaches the
    closure enumeration.

    Every kind spends one unit of ``search_cap`` per root candidate and
    one per propagated vertex; SearchCapExceeded is raised when the
    units run out or the candidate closure overflows the cap.  Returns
    the witness family as a dict or None.
    """
    tol = tol or Tolerance()
    if c.complex != c2.complex:
        raise ValueError("cocycles live on different covers")
    if c.coeff != c2.coeff:
        raise ValueError("coefficient kinds differ")

    if c.coeff == COEFF_FINITE:
        d = c.degree()
        if modulo is not None:
            if modulo.kind != KIND_FINITE:
                raise WrongKind("matrix witness search modulo a group needs a finite group")
            for v in (*c.values, *c2.values):
                verify_normalizer(v, modulo, tol=tol)
        if c.group is not None and modulo is None:
            candidates = c.group.elements()
        else:
            gens = [*c.values, *c2.values]
            if modulo is not None:
                gens += modulo.generators
            closure_spec = GroupSpec(KIND_FINITE, d, gens, enumeration_cap=search_cap)
            try:
                candidates = closure_spec.elements()
            except CapExceeded as exc:
                raise SearchCapExceeded("candidate closure did not stay finite: %s" % exc)

        def step(u_pv, pv, cv):
            return c.value(cv, pv) @ u_pv @ c2.value(pv, cv)

        def edge_ok(u_i, u_j, i, j):
            lhs = u_i @ c2.value(i, j)
            rhs = c.value(i, j) @ u_j
            if modulo is None:
                return np.linalg.norm(lhs - rhs) <= tol.tau * max(1.0, math.sqrt(d))
            return modulo.contains(rhs.conj().T @ lhs, tol=tol)
    else:
        phase = c.coeff == COEFF_PHASE
        candidates = [Fraction(0) if phase else 0]

        def step(u_pv, pv, cv):
            return u_pv + c.value(cv, pv) - c2.value(cv, pv)

        def edge_ok(u_i, u_j, i, j):
            resid = u_i - u_j - (c.value(i, j) - c2.value(i, j))
            return resid.denominator == 1 if phase else resid == 0

    edges = c.complex.edges()
    budget = search_cap
    witness = {}
    for root, tree in _spanning_forest(c.complex):
        comp = {root} | {cv for _, cv in tree}
        comp_edges = [(i, j) for (i, j) in edges if i in comp]
        for w in candidates:
            budget -= 1 + len(tree)
            if budget < 0:
                raise SearchCapExceeded("witness search passed %d assignments" % search_cap)
            u = {root: w}
            for (pv, cv) in tree:
                u[cv] = step(u[pv], pv, cv)
            if all(edge_ok(u[i], u[j], i, j) for (i, j) in comp_edges):
                witness.update(u)
                break
        else:
            return None

    if c.coeff == COEFF_PHASE:
        if circle_class(c, tol) != circle_class(c2, tol):
            return None
        return {v: normalized_lift(q) for v, q in witness.items()}
    if c.coeff == COEFF_INT:
        return witness
    return {v: as_matrix(m) for v, m in witness.items()}


# ---------------------------------------------------------------------------
# determinant pushforward


def snap_phase(z, tol=None, max_denominator=PHASE_DENOMINATOR_BOUND):
    """Nearest bounded-denominator rational q with exp(2*pi*i*q) = z.

    Raises IrrationalPhase when no such rational is within tolerance.
    """
    tol = tol or Tolerance()
    if abs(abs(z) - 1.0) > tol.tau:
        raise IrrationalPhase("value %r is not on the unit circle" % (z,))
    ang = cmath.phase(z) / (2.0 * math.pi)
    q = Fraction(ang).limit_denominator(max_denominator)
    q = normalized_lift(q)
    if abs(cmath.exp(2j * math.pi * float(q)) - z) > max(tol.tau, 1e-12):
        raise IrrationalPhase(
            "phase of %r is not rational with denominator <= %d" % (z, max_denominator)
        )
    return q


def det_pushforward(c, tol=None, max_denominator=PHASE_DENOMINATOR_BOUND):
    """Phase cocycle of determinants of a matrix-valued cocycle.

    Windings are carried over unchanged: they record the winding of the
    underlying transitions in the determinant direction.
    """
    tol = tol or Tolerance()
    if c.coeff != COEFF_FINITE:
        raise WrongKind("determinant pushforward needs matrix values")
    dets = np.linalg.det(c.values)
    vals = {e: snap_phase(complex(z), tol, max_denominator) for e, z in zip(c.complex.edges(), dets)}
    return CechCocycle(c.complex, COEFF_PHASE, vals, windings=dict(c.windings))

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
from .groups import GroupSpec, KIND_FINITE, _require_normalizing
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
        self._forest = None

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

    def spanning_forest(self):
        """The breadth-first spanning forest of the 1-skeleton, formed once.

        One (root, tree edges) pair per component, the components in the
        order of their least vertex and each rooted there; the tree edges
        are (parent, child) pairs in visiting order, neighbours visited in
        increasing order.  Tuples throughout, so the shared value cannot
        be changed by a caller.
        """
        if self._forest is None:
            adj = [[] for _ in range(self.vertices)]
            # edges() is sorted, so every neighbour list comes out sorted
            for i, j in self.edges():
                adj[i].append(j)
                adj[j].append(i)
            seen, forest = [False] * self.vertices, []
            for root in range(self.vertices):
                if not seen[root]:
                    seen[root], order, reached = True, [], [root]
                    # reached grows while it is walked: breadth-first order
                    for v in reached:
                        for w in adj[v]:
                            if not seen[w]:
                                seen[w] = True
                                order.append((v, w))
                                reached.append(w)
                    forest.append((root, tuple(order)))
            self._forest = tuple(forest)
        return self._forest

    def components(self):
        """Vertex lists of the connected components of the 1-skeleton, in
        the order of ``spanning_forest``."""
        return [sorted([root] + [cv for _, cv in tree]) for root, tree in self.spanning_forest()]

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


def _lift(n, den):
    """``normalized_lift`` on numerators: the numerators over den of the
    representatives of n / den mod 1 in (-1/2, 1/2], elementwise."""
    return n + den * ((den - 2 * n) // (2 * den))


# int64 arithmetic wraps silently, so integer numerators are int64 only
# while every value formed from them is known to stay below this bound
_INT64_SAFE = 2 ** 62


def _ints(a, bound):
    """The integers a as int64 while ``bound``, a bound on every value the
    caller forms from them, stays below 2^62; else as Python ints in an
    object array, on which the same array expressions run exactly."""
    return np.array(a, dtype=np.int64 if bound < _INT64_SAFE else object)


def _absmax(a):
    return int(np.abs(a).max(initial=0))


class CechCocycle:
    """Transition data on the closed-star cover of a complex.

    ``values`` is one read-only array in ``complex.edges()`` order, the
    value on (i, j) with i < j: an (E, d, d) stack for the finite kind,
    and a 1-d object array of exact ``Fraction``s (phase) or Python ints
    (integer) otherwise.  The construction takes a value on every edge,
    keyed by either orientation (ValueError if one is missing); the
    values on (j, i), the inverses, are kept as a second read-only array,
    so ``value`` only ever reads a stored entry.

    Phase and integer data are stored as one read-only array
    ``numerators`` over one ``denominator`` L, the lcm of the values'
    denominators (1 for integers), and every computation here runs on
    them; ``values`` and the reversed values are formed on first access.
    The numerators are int64 while 3 (L + V max|n|) < 2^62 (V vertices),
    which bounds every triangle sum, lift and holonomy frame formed from
    them, and Python ints in an object array, under the same expressions,
    past that.  A sum of two cocycles checks its own bound.

    Phase and finite kinds may carry integer windings on triangles.
    An optional structure group may be attached to a finite-kind cocycle;
    ``equivalent`` then searches witnesses in that group.  ``degree``
    (else the group's) sizes the (0, d, d) stack of a base without edges.
    """

    def __init__(self, complex_, coeff, values, windings=None, group=None, degree=None):
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
            d = degree if degree is not None else getattr(group, "degree", 0)
            vals = np.array([v for _, v in slots] or np.zeros((0, d, d)), dtype=complex)
            if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
                raise ValueError("matrix values must be square and of one size")
            vals[flip] = vals[flip].conj().transpose(0, 2, 1)
            self._values, self._reversed = _as_stack(vals), _as_stack(vals.conj().transpose(0, 2, 1))
            self.numerators = self.denominator = None
        else:
            exact = [(_as_fraction if coeff == COEFF_PHASE else int)(v) for _, v in slots]
            den = math.lcm(*(q.denominator for q in exact))
            num = np.array([q.numerator * (den // q.denominator) for q in exact], dtype=object)
            num[flip] = -num[flip]
            self._store(num, den)
        self.windings = self._checked_windings(windings)
        self._holonomies = None

    @classmethod
    def from_numerators(cls, complex_, coeff, numerators, denominator=1, windings=None):
        """The phase (or integer, over 1) cocycle of the integers
        ``numerators`` over ``denominator``, in ``complex_.edges()`` order."""
        num = np.asarray(numerators)
        if coeff not in (COEFF_PHASE, COEFF_INT) or (coeff == COEFF_INT and denominator != 1):
            raise ValueError("numerators make phase cocycles, or integer ones over 1")
        if num.shape != (len(complex_.edges()),) or not (num.dtype == object or num.dtype.kind in "iu"):
            raise ValueError("expected one integer numerator per edge")
        c = cls.__new__(cls)
        c.complex, c.coeff, c.group = complex_, coeff, None
        c._store(num, denominator)
        c.windings = c._checked_windings(windings)
        c._holonomies = None
        return c

    def _store(self, num, den):
        """Keep the integers num over den in lowest common terms, as int64
        while the class bound allows."""
        den = int(den)
        if den < 1:
            raise ValueError("a denominator must be positive, got %r" % (den,))
        n = num.tolist()
        g = math.gcd(den, *n)
        n = [x // g for x in n]
        self.denominator = den // g
        bound = 3 * (self.denominator + self.complex.vertices * max(map(abs, n), default=0))
        self.numerators = _ints(n, bound)
        self.numerators.setflags(write=False)
        self._values = self._reversed = None

    def _checked_windings(self, windings):
        wind = {}
        if windings:
            if self.coeff == COEFF_INT:
                raise ValueError("integer cocycles carry no windings")
            tris = self.complex.positions(2)
            for t, n in dict(windings).items():
                key = tuple(sorted(int(v) for v in t))
                if key not in tris:
                    raise ValueError("winding on %r which is not a triangle" % (key,))
                if int(n):
                    wind[key] = int(n)
        return wind

    @property
    def values(self):
        """The values in ``complex.edges()`` order (see the class docstring)."""
        if self._values is None:
            n, den = self.numerators.tolist(), self.denominator
            vals = np.array([Fraction(x, den) for x in n] if self.coeff == COEFF_PHASE else n, dtype=object)
            self._values, self._reversed = vals, -vals
            for a in (self._values, self._reversed):
                a.setflags(write=False)
        return self._values

    def degree(self):
        if self.coeff != COEFF_FINITE:
            raise WrongKind("degree only makes sense for matrix values")
        if self.values.shape[1]:
            return self.values.shape[1]
        raise MissingValue("cocycle has no values or degree to take a degree from")

    def holonomies(self):
        """The read-only (frames, holonomies) along ``complex.spanning_forest()``,
        formed once: f_root = 1, f_cv = c_(cv,pv) f_pv by vertex and f_i* c_ij f_j
        in ``edges()`` order (1 on tree edges).  Phase and integer data add,
        on the numerators over ``denominator``: f_root = 0, f_cv = c_(cv,pv) +
        f_pv and c_ij - f_i + f_j (0 on tree edges)."""
        if self._holonomies is None:
            i, j = np.array(self.complex.edges(), dtype=int).reshape(-1, 2).T
            if self.coeff == COEFF_FINITE:
                frames = np.empty((self.complex.vertices,) + self.values.shape[1:], dtype=complex)
                one = np.eye(self.degree())
                for root, tree in self.complex.spanning_forest():
                    frames[root] = one
                    for pv, cv in tree:
                        frames[cv] = self.value(cv, pv) @ frames[pv]
                hol = frames[i].conj().transpose(0, 2, 1) @ self.values @ frames[j]
            else:
                # every frame is a path sum, |f| <= V max|n|, within the bound
                n, pos = self.numerators.tolist(), self.complex.positions(1)
                f = [0] * self.complex.vertices
                for _, tree in self.complex.spanning_forest():
                    for pv, cv in tree:
                        f[cv] = f[pv] + (n[pos[(cv, pv)]] if cv < pv else -n[pos[(pv, cv)]])
                frames = np.array(f, dtype=self.numerators.dtype)
                hol = self.numerators - frames[i] + frames[j]
            self._holonomies = (frames, hol)
            for a in self._holonomies:
                a.setflags(write=False)
        return self._holonomies

    def value(self, i, j):
        """The stored value on the overlap (i, j), in either orientation."""
        pos = self.complex.positions(1)
        vals = self.values  # the reversed values are formed beside them
        a = pos.get((i, j))
        if a is not None:
            return vals[a]
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
        return self._plus(other, 1, wind)

    def _plus(self, other, sign, windings):
        """The abelian cocycle self + sign * other, over the lcm of both
        denominators."""
        den = math.lcm(self.denominator, other.denominator)
        a, b = den // self.denominator, den // other.denominator
        bound = a * _absmax(self.numerators) + b * _absmax(other.numerators)
        num = _ints(self.numerators, bound) * a + sign * (_ints(other.numerators, bound) * b)
        return CechCocycle.from_numerators(self.complex, self.coeff, num, den, windings)

    def to_json(self):
        if self.coeff == COEFF_PHASE:
            g = np.gcd(self.numerators, self.denominator)
            p, q = (self.numerators // g).tolist(), (self.denominator // g).tolist()
            vals = ["%d/%d" % pq for pq in zip(p, q)]
        elif self.coeff == COEFF_INT:
            vals = self.numerators.tolist()
        else:
            vals = [matrix_to_json(v) for v in self.values]
        doc = {
            "coeff": self.coeff,
            "values": [{"edge": [i, j], "value": v} for (i, j), v in zip(self.complex.edges(), vals)],
        }
        if self.windings:
            doc["windings"] = [
                {"triangle": list(t), "value": n} for t, n in sorted(self.windings.items())
            ]
        return doc

    @classmethod
    def from_json(cls, doc, complex_, group=None, degree=None):
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
        return cls(complex_, coeff, values, windings=windings, group=group, degree=degree)


def trivial_cocycle(complex_, coeff, degree=None, group=None):
    if coeff == COEFF_FINITE:
        one = np.eye(degree if degree is not None else group.degree)
    else:
        one = Fraction(0) if coeff == COEFF_PHASE else 0
    return CechCocycle(complex_, coeff, dict.fromkeys(complex_.edges(), one), group=group, degree=degree)


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
    if c.coeff == COEFF_FINITE:
        g = c.values
        res = np.linalg.norm(g[ij] @ g[jk] - g[ik], axis=(1, 2))
        bad = np.flatnonzero(~(res <= tol.tau * max(1.0, math.sqrt(g.shape[1]))))
    else:
        n, den = c.numerators, c.denominator
        res = n[ij] + n[jk] - n[ik]
        bad = np.flatnonzero((res % den if c.coeff == COEFF_PHASE else res) != 0)
    if not bad.size:
        return CocycleCheck(True)
    x = res[bad[0]]
    if c.coeff != COEFF_FINITE:
        # the distance of the sum to the nearest integer (phase)
        x = min(int(x) % den, -int(x) % den) / den if c.coeff == COEFF_PHASE else abs(int(x))
    return CocycleCheck(False, c.complex.triangles()[bad[0]], float(x))


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
    den = c.denominator
    lift = _lift(c.numerators, den)
    # an integer on every triangle, since c passed the cocycle check
    z = ((lift[ij] + lift[jk] - lift[ik]) // den).tolist()
    pos = c.complex.positions(2)
    for t, n in c.windings.items():
        z[pos[t]] += n
    return h2_integral(c.complex)._reduce(z)


# ---------------------------------------------------------------------------
# equivalence witnesses


def equivalent(c, c2, modulo=None, search_cap=SEARCH_CAP, tol=None):
    """Search for a coboundary witness u with u_i c2_ij = c_ij u_j.

    One search serves every kind, on the frames f1, f2 and holonomies h1,
    h2 of both cocycles (``CechCocycle.holonomies``): a root candidate w
    carried along the spanning forest gives u_v = f1_v w f2_v*, so an edge
    passes by a test on w and its two holonomies.  On each component the
    root candidates are tested in turn, each on all its edges at once, and
    the first to pass is carried to every vertex by u_cv = u_pv + c_(cv,pv)
    - c2_(cv,pv) (phase, integer) or c_(cv,pv) u_pv c2_(pv,cv) (matrix).
    Phase and integer data have the one candidate 0 and pass when h2_e -
    h1_e is an integer (phase) or zero (integer) and, for phases, the
    integral classes agree.  Both are read on the integer numerators of
    the one cocycle c2 - c, whose negated frames are the witness f1 - f2;
    the phase witness is rational.

    Matrix data take their root candidates from the attached structure
    group, or, with ``modulo`` set or no group attached, from the closure
    generated by the values of both cocycles and ``modulo``, in
    enumeration order.  An edge passes when |w h2_e - h1_e w| is within
    tolerance or, with ``modulo`` set, when u_i c2_ij = c_ij u_j h for some
    h in that group, i.e. w* h1_e* w h2_e (that conjugated by f2_j) is in
    it.  No twist h is tried: right-multiplying any u_v by an element of
    the group changes no verdict when every value of c2 normalizes it.
    That is checked up front on both cocycles' values (NotInNormalizer),
    so a value of infinite order never reaches the closure enumeration.

    Every kind spends one unit of ``search_cap`` per root candidate tried
    and one per other vertex of its component; SearchCapExceeded is
    raised when the units run out or the candidate closure overflows the
    cap.  Returns the witness family as a dict or None.
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
            for values in (c.values, c2.values):
                _require_normalizing(values, modulo, tol=tol)
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
        (_, h1), (_, h2) = c.holonomies(), c2.holonomies()

        def step(u_pv, pv, cv):
            return c.value(cv, pv) @ u_pv @ c2.value(pv, cv)

        def passes(w, on):
            h1w, wh2 = h1[on] @ w, w @ h2[on]
            if modulo is None:
                return (np.linalg.norm(wh2 - h1w, axis=(1, 2)) <= tol.tau * max(1.0, math.sqrt(d))).all()
            return modulo.contains(h1w.conj().transpose(0, 2, 1) @ wh2, tol=tol).all()
    else:
        # carried along the forest, u = f1 - f2: the frames of c2 - c, negated
        diff = c2._plus(c, -1, None)
        frames, gap = diff.holonomies()
        bad = (gap % diff.denominator if c.coeff == COEFF_PHASE else gap) != 0
        candidates = [0]

        def passes(w, on):
            return not bad[on].any()

    tails = np.array(c.complex.edges(), dtype=int).reshape(-1, 2)[:, 0]
    budget = search_cap
    witness = {}
    for root, tree in c.complex.spanning_forest():
        on = np.isin(tails, [root, *(cv for _, cv in tree)])
        for w in candidates:
            budget -= 1 + len(tree)
            if budget < 0:
                raise SearchCapExceeded("witness search passed %d assignments" % search_cap)
            if passes(w, on):
                break
        else:
            return None
        if c.coeff == COEFF_FINITE:
            witness[root] = w
            for (pv, cv) in tree:
                witness[cv] = step(witness[pv], pv, cv)

    if c.coeff == COEFF_PHASE:
        if circle_class(c, tol) != circle_class(c2, tol):
            return None
        den = diff.denominator
        return {v: Fraction(n, den) for v, n in enumerate(_lift(-frames, den).tolist())}
    if c.coeff == COEFF_INT:
        return dict(enumerate((-frames).tolist()))
    return {v: as_matrix(m) for v, m in witness.items()}


# ---------------------------------------------------------------------------
# determinant pushforward


# the stacked phase checks leave an entry within this distance of a bound
# to ``snap_phase``, whose complex arithmetic may round differently
_ROUNDING = 1e-14
# rows of the (E x 360) window taken at once: two 0.7 MB temporaries
_SNAP_ROWS = 256


def snap_phase(z, tol=None):
    """Nearest rational q of denominator <= PHASE_DENOMINATOR_BOUND with exp(2*pi*i*q) = z.

    The angle of z in turns goes to its closest rational of denominator at
    most PHASE_DENOMINATOR_BOUND (``Fraction.limit_denominator``), lifted
    into (-1/2, 1/2].  Raises IrrationalPhase when |z| is more than tau
    from 1 or exp(2*pi*i*q) lies more than max(tau, 1e-12) from z.

    ``snap_phases`` is the stacked form, by this window rule.  With
    t = max(tau, 1e-12) and x the angle of z in turns, an accepted q has
    |exp(2 pi i q) - z| <= t, a chord of at least 4 |q - x|, so |q - x| <=
    t / 4.  One (E x 360) expression finds b1, the least b <= 360 with
    |b x - round(b x)| <= 2 t b, and takes q = round(b1 x) / b1.  Distinct
    p / b and p' / b' differ by |p b' - p' b| / (b b') >= 1 / (b b'): any
    two of denominator <= 360 lie at least 1 / (360 * 359) ~ 7.7e-6 apart,
    and every other one at least 1 / (360 b1) from q.  So when
    4 t 360 b1 < 1 (always at the default tau) and q passes the checks, q
    is the one rational within 4 t - t / 4 of x, the closest, which is what
    ``limit_denominator`` returns.  An entry with no such b1, where the
    tolerance may admit a second rational or a tie, or that fails a check
    or lies within 1e-14 of a check's bound, goes through ``snap_phase``
    itself, in edge order: the phases and the error are this function's
    at every tolerance.
    """
    tol = tol or Tolerance()
    if abs(abs(z) - 1.0) > tol.tau:
        raise IrrationalPhase("value %r is not on the unit circle" % (z,))
    ang = cmath.phase(z) / (2.0 * math.pi)
    q = Fraction(ang).limit_denominator(PHASE_DENOMINATOR_BOUND)
    q = normalized_lift(q)
    if abs(cmath.exp(2j * math.pi * float(q)) - z) > max(tol.tau, 1e-12):
        raise IrrationalPhase(
            "phase of %r is not rational with denominator <= %d" % (z, PHASE_DENOMINATOR_BOUND)
        )
    return q


def snap_phases(z, tol=None):
    """``snap_phase`` on every entry of the 1-d stack z at once, by its
    window rule: the phases as integer numerators over one common
    denominator, as ``CechCocycle.from_numerators`` takes them.
    IrrationalPhase names the first failing entry, with ``snap_phase``'s
    message."""
    tol = tol or Tolerance()
    z = np.asarray(z, dtype=complex).reshape(-1)
    t = max(tol.tau, 1e-12)
    b = np.arange(1, PHASE_DENOMINATOR_BOUND + 1)
    window = 2 * t * b
    x = np.angle(z) / (2.0 * math.pi)
    den = np.zeros(len(z), dtype=np.int64)  # the smallest hit, 0 for none
    for lo in range(0, len(z), _SNAP_ROWS):
        bx = np.multiply.outer(x[lo : lo + _SNAP_ROWS], b)
        bx -= np.rint(bx)
        hits = np.abs(bx, out=bx) <= window
        den[lo : lo + _SNAP_ROWS] = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, 0)
    settled = (den > 0) & (4 * t * PHASE_DENOMINATOR_BOUND * den < 1)
    den = np.maximum(den, 1)
    num = _lift(np.rint(np.where(settled, x, 0.0) * den).astype(np.int64), den)
    near = np.abs(np.exp(2j * math.pi * (num / den)) - z)
    clear = settled & (np.abs(np.abs(z) - 1.0) <= tol.tau - _ROUNDING) & (near <= t - _ROUNDING)
    for k in np.flatnonzero(~clear):
        q = snap_phase(complex(z[k]), tol)
        num[k], den[k] = q.numerator, q.denominator
    lcm = math.lcm(*set(den.tolist()))
    return _ints(num, lcm) * (lcm // _ints(den, lcm)), lcm


def det_pushforward(c, tol=None):
    """Phase cocycle of determinants of a matrix-valued cocycle.

    Windings are carried over unchanged: they record the winding of the
    underlying transitions in the determinant direction.
    """
    tol = tol or Tolerance()
    if c.coeff != COEFF_FINITE:
        raise WrongKind("determinant pushforward needs matrix values")
    num, den = snap_phases(np.linalg.det(c.values), tol)
    return CechCocycle.from_numerators(c.complex, COEFF_PHASE, num, den, windings=c.windings)

"""Seeded inputs for the benchmark workloads, with their expected results.

Everything here is plain Python and independent of the catbundle
package: the bases, the gluing data and the expectations are derived
from how the data are built, never from the program's own output.

Bases are barycentric subdivisions of the octahedron boundary (the
eight faces of ``catbundle.basecech.octahedron()``): 6 -> 26 -> 146
vertices.  Every generated datum is a coboundary modulo its fibre group
apart from integer windings on triangles, so

* glued arrow spaces have the fibre dimensions (su(2): Catalan numbers,
  Q8: character average);
* the determinant class is the class of the windings, which on the
  2-sphere is the planted winding n, up to the sign the orientation of
  the planted triangle gives it;
* the phases extracted by ``chern`` are the determinant phases
  2 * (theta_i - theta_j) of the scalar transitions, reduced to
  (-1/2, 1/2].
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

OCTAHEDRON_FACES = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
    (5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 4, 1),
)

# (vertices, edges, triangles) after 1 and 2 barycentric subdivisions
SUBDIVISION_COUNTS = {1: (26, 72, 48), 2: (146, 432, 288)}

RMAX = 3  # the CLI default, which every invocation uses


# ---------------------------------------------------------------------------
# bases


@dataclass(frozen=True)
class Base:
    vertices: int
    triangles: tuple

    @property
    def edges(self):
        out = set()
        for t in self.triangles:
            for a, b in itertools.combinations(t, 2):
                out.add((a, b))
        return tuple(sorted(out))


def _faces(simplex):
    return [
        tuple(c) for k in range(1, len(simplex) + 1) for c in itertools.combinations(simplex, k)
    ]


def barycentric(base):
    """Barycentric subdivision: vertices are the simplices of ``base``,
    triangles are its full flags (vertex < edge < triangle)."""
    simplices = sorted({f for t in base.triangles for f in _faces(t)}, key=lambda s: (len(s), s))
    index = {s: k for k, s in enumerate(simplices)}
    flags = []
    for t in base.triangles:
        for p in itertools.permutations(t):
            flags.append(tuple(sorted(index[tuple(sorted(p[: k + 1]))] for k in range(3))))
    return Base(len(simplices), tuple(sorted(flags)))


def subdivided_octahedron(times):
    base = Base(6, tuple(sorted(tuple(sorted(t)) for t in OCTAHEDRON_FACES)))
    for _ in range(times):
        base = barycentric(base)
    v, e, f = base.vertices, len(base.edges), len(base.triangles)
    want = SUBDIVISION_COUNTS.get(times)
    if want is not None and (v, e, f) != want:
        raise RuntimeError("subdivision %d has %r simplices, expected %r" % (times, (v, e, f), want))
    if v - e + f != 2:
        raise RuntimeError("subdivision %d has Euler characteristic %d, expected 2" % (times, v - e + f))
    return base


# ---------------------------------------------------------------------------
# expectations


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def su2_dim(r, s):
    """dim of su(2) intertwiners (H^r, H^s): Catalan C_((r+s)/2), 0 for odd r+s."""
    return catalan((r + s) // 2) if (r + s) % 2 == 0 else 0


def q8_dim(r, s):
    """dim of Q8 intertwiners (H^r, H^s), averaging the defining character."""
    n = r + s
    return (2 ** n + (-2) ** n + 6 * (1 if n == 0 else 0)) // 8


def dims_table(dim):
    return {"%d,%d" % (r, s): dim(r, s) for r in range(RMAX + 1) for s in range(RMAX + 1)}


def normalized_lift(q):
    """Representative of q mod 1 in (-1/2, 1/2]."""
    return q - math.ceil(q - Fraction(1, 2))


def fraction_str(q):
    return "%d/%d" % (q.numerator, q.denominator)


# ---------------------------------------------------------------------------
# matrices and gluing data documents

_S2 = 1.0 / math.sqrt(2.0)
HADAMARD = ((_S2, _S2), (_S2, -_S2))
PHASE_GATE = ((1, 0), (0, 1j))
Q8_GENERATORS = (((1j, 0), (0, -1j)), ((0, 1), (-1, 0)))


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def adjoint(a):
    return tuple(tuple(complex(a[j][i]).conjugate() for j in range(len(a))) for i in range(len(a[0])))


def eye(d):
    return tuple(tuple(1.0 if i == j else 0.0 for j in range(d)) for i in range(d))


def matrix_doc(a):
    flat = [complex(x) for row in a for x in row]
    return {
        "rows": len(a),
        "cols": len(a[0]),
        "re": [x.real + 0.0 for x in flat],
        "im": [x.imag + 0.0 for x in flat],
    }


def _q8_elements():
    """The eight elements of Q8, by closure of its generators."""

    def key(a):
        return tuple((round(complex(x).real, 6) + 0.0, round(complex(x).imag, 6) + 0.0) for row in a for x in row)

    elems = {key(eye(2)): eye(2)}
    frontier = [eye(2)]
    while frontier:
        h = frontier.pop()
        for g in Q8_GENERATORS:
            p = matmul(h, g)
            if key(p) not in elems:
                elems[key(p)] = p
                frontier.append(p)
    if len(elems) != 8:
        raise RuntimeError("Q8 closure has %d elements" % len(elems))
    return tuple(elems.values())


Q8_ELEMENTS = _q8_elements()


def datum_doc(base, group, transitions, windings):
    return {
        "complex": {"vertices": base.vertices, "simplices": [list(t) for t in base.triangles]},
        "group": group,
        "cocycle": {
            "coeff": "finite",
            "values": [{"edge": list(e), "value": matrix_doc(transitions[e])} for e in base.edges],
            "windings": [{"triangle": list(t), "value": n} for t, n in sorted(windings.items()) if n],
        },
    }


SU2_GROUP = {"kind": "su", "degree": 2, "generators": []}
Q8_GROUP = {"kind": "finite", "degree": 2, "generators": [matrix_doc(g) for g in Q8_GENERATORS]}


def random_phase(rng):
    """A rational phase with a small denominator, so determinant phases snap exactly."""
    return Fraction(rng.randint(-6, 6), rng.randint(1, 12))


def planted_windings(rng, base, n, triangle):
    """Winding n on one triangle plus the coboundary of a random integer 1-cochain."""
    w = {t: 0 for t in base.triangles}
    w[triangle] += n
    noise = {e: rng.randint(-2, 2) for e in rng.sample(base.edges, 6)}
    for (i, j, k) in base.triangles:
        w[(i, j, k)] += noise.get((j, k), 0) - noise.get((i, k), 0) + noise.get((i, j), 0)
    return w


def su2_datum(rng, base, n, triangle):
    """Scalar su(2) datum: transitions exp(2 pi i (theta_i - theta_j)) * 1.

    Returns the document, the expected extracted determinant phases and
    the windings.
    """
    theta = [random_phase(rng) for _ in range(base.vertices)]
    transitions = {}
    phases = {}
    for (i, j) in base.edges:
        q = theta[i] - theta[j]
        z = cmath.exp(2j * math.pi * float(q))
        transitions[(i, j)] = ((z, 0), (0, z))
        phases["%d,%d" % (i, j)] = fraction_str(normalized_lift(2 * q))
    windings = planted_windings(rng, base, n, triangle)
    return datum_doc(base, SU2_GROUP, transitions, windings), phases, windings


def clifford_word(rng):
    """A random product of diag(1, i) and the Hadamard matrix; both normalize Q8."""
    u = eye(2)
    for _ in range(rng.randint(0, 6)):
        u = matmul(u, rng.choice((PHASE_GATE, HADAMARD)))
    return u


def q8_transitions(rng, base, gauge):
    """Non-scalar transitions u_i h_ij u_j^* with h_ij drawn from Q8."""
    return {
        (i, j): matmul(matmul(gauge[i], rng.choice(Q8_ELEMENTS)), adjoint(gauge[j]))
        for (i, j) in base.edges
    }


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments (input names relative to the input
    directory) and what the generator says the report must contain."""

    label: str
    command: str
    inputs: tuple
    expect: dict


def fibre_suite(seed):
    """Fixed inputs; the seed is recorded but not used."""
    return {}, [
        Invocation("verify", "verify", (), {}),
        Invocation("dr-check", "dr-check", (), {}),
    ]


BASE_CHERN_LARGE = 3  # chern invocations on the 146-vertex base per pass


def base_chern(seed):
    rng = random.Random("base-chern/%d" % seed)
    files, calls = {}, []
    for k, times in enumerate([2] * BASE_CHERN_LARGE + [1]):
        base = subdivided_octahedron(times)
        n = rng.choice((-3, -2, -1, 1, 2, 3))
        doc, phases, windings = su2_datum(rng, base, n, rng.choice(base.triangles))
        name = "chern-%d-v%d.json" % (k, base.vertices)
        files[name] = doc
        calls.append(Invocation(name, "chern", (name,), {
            "winding": n,
            "phases": phases,
            "windings": {"%d,%d,%d" % t: w for t, w in windings.items() if w},
        }))
    return files, calls


def glue_classify(seed):
    rng = random.Random("glue-classify/%d" % seed)
    small = subdivided_octahedron(1)
    large = subdivided_octahedron(2)
    triangle = rng.choice(small.triangles)
    n_equal = rng.randint(-2, 2)
    n_a, n_b = rng.sample((-2, -1, 0, 1, 2), 2)

    def q8(n, gauge):
        return datum_doc(small, Q8_GROUP, q8_transitions(rng, small, gauge),
                         planted_windings(rng, small, n, triangle))

    gauge = [clifford_word(rng) for _ in range(small.vertices)]
    change = [clifford_word(rng) for _ in range(small.vertices)]
    moved = [matmul(g, u) for g, u in zip(change, gauge)]
    files = {
        "q8-equal-0.json": q8(n_equal, gauge),
        "q8-equal-1.json": q8(n_equal, moved),
        "q8-class-a.json": q8(n_a, [clifford_word(rng) for _ in range(small.vertices)]),
        "q8-class-b.json": q8(n_b, [clifford_word(rng) for _ in range(small.vertices)]),
    }
    su2_doc, _, _ = su2_datum(rng, large, rng.choice((-1, 1)), rng.choice(large.triangles))
    files["su2-v146.json"] = su2_doc
    q8_dims, su2_dims = dims_table(q8_dim), dims_table(su2_dim)
    calls = [
        Invocation("classify-equal", "classify", ("q8-equal-0.json", "q8-equal-1.json"),
                   {"equivalent": True, "dims": q8_dims}),
        Invocation("classify-distinct", "classify", ("q8-class-a.json", "q8-class-b.json"),
                   {"equivalent": False, "dims": q8_dims, "classes": (n_a, n_b)}),
        Invocation("glue-dims-q8", "glue-dims", ("q8-equal-0.json",), {"dims": q8_dims}),
        Invocation("glue-dims-su2-v146", "glue-dims", ("su2-v146.json",), {"dims": su2_dims}),
    ]
    return files, calls


WORKLOADS = {
    "fibre-suite": fibre_suite,
    "base-chern": base_chern,
    "glue-classify": glue_classify,
}


def generate(workload, seed):
    """Input file bytes by name, and the invocations that read them."""
    docs, calls = WORKLOADS[workload](seed)
    files = {
        name: (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
        for name, doc in docs.items()
    }
    return files, calls

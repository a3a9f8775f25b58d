"""Test bases: the subdivided octahedra, the family of 2-sphere bases
6 -> 26 -> 146 -> 866 vertices, and the triangulated annuli."""

import itertools

from catbundle import SimplicialComplex, octahedron


def barycentric(c):
    """Barycentric subdivision of a pure complex: vertices are the
    simplices of ``c``, maximal simplices its full flags."""
    simps = sorted(c.simplices, key=lambda s: (len(s), sorted(s)))
    index = {s: k for k, s in enumerate(simps)}
    flags = [
        [index[frozenset(p[: k + 1])] for k in range(len(p))]
        for s in simps
        if len(s) == c.dim + 1
        for p in itertools.permutations(sorted(s))
    ]
    return SimplicialComplex.from_maximal(len(simps), flags)


def subdivided_octahedron(times):
    c = octahedron()
    for _ in range(times):
        c = barycentric(c)
    return c


def annulus(k):
    """Triangulated annulus of k sectors: inner ring 0..k-1, outer ring k..2k-1."""
    tris = []
    for i in range(k):
        a, b = i, (i + 1) % k
        tris += [(a, b, k + a), (b, k + a, k + b)]
    return SimplicialComplex.from_maximal(2 * k, tris)

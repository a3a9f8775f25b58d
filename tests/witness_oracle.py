"""Oracles for the witness search and the forest it walks.

``equivalent`` tests each root candidate on the two cocycles' edge
holonomies and carries only the accepted one along the spanning forest,
with no twist, because a twist h in the fibre group can change no edge
verdict.  Two searches make no use of the holonomies:

* ``propagation_equivalent`` carries every root candidate tried to every
  vertex of its component and then checks each edge of the component on
  the carried values, one edge at a time, for every coefficient kind; it
  spends the same budget, so both raise SearchCapExceeded at the same
  caps and return bit-identical witnesses.  Phase classes are compared
  with ``cochain_oracle.loop_circle_class``, so on phase data it reads
  nothing but ``value`` and ``winding``.
* ``backtracking_equivalent`` (matrix cocycles) also tries each twist h
  in turn at every tree edge (u_cv = c_(cv,pv) u_pv h c2_(cv,pv)*),
  checks the edges back to vertices already placed, and backtracks on
  failure, so a failing root candidate can cost up to |G|^depth.  On
  inputs where it finishes, it must return the same None-or-witness.

``SimplicialComplex.spanning_forest`` and ``components`` are checked
against the routes they replaced: a union-find over the edges for the
components, and a breadth-first walk of each of those components.
"""

import math
from collections import deque
from fractions import Fraction

import numpy as np

from catbundle import GroupSpec, SearchCapExceeded, Tolerance, as_matrix, normalized_lift
from catbundle.basecech import SEARCH_CAP
from catbundle.errors import CapExceeded, WrongKind
from catbundle.groups import _require_normalizing
from cochain_oracle import loop_circle_class


def union_find_components(complex_):
    """Vertex sets of the components of the 1-skeleton, by union-find."""
    parent = list(range(complex_.vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in complex_.edges():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for v in range(complex_.vertices):
        groups.setdefault(find(v), []).append(v)
    return [sorted(g) for g in sorted(groups.values())]


def bfs_forest(complex_):
    """BFS tree edges per union-find component, rooted at its least vertex."""
    adj = {}
    for i, j in complex_.edges():
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    seen = set()
    forest = []
    for comp in union_find_components(complex_):
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


def backtracking_equivalent(c, c2, modulo=None, search_cap=SEARCH_CAP, tol=None):
    """Witness u with u_i c2_ij = c_ij u_j h (h in ``modulo``), or None.

    Matrix cocycles only.  Root candidates and their order are those of
    ``equivalent``; every root candidate and every twist tried at a
    vertex costs one unit of ``search_cap``.
    """
    tol = tol or Tolerance()
    d = c.degree()
    if c.group is not None and modulo is None:
        candidates = c.group.elements()
    else:
        gens = [*c.values, *c2.values]
        if modulo is not None:
            gens += modulo.generators
        closure_spec = GroupSpec("finite", d, gens, enumeration_cap=search_cap)
        try:
            candidates = closure_spec.elements()
        except CapExceeded as exc:
            raise SearchCapExceeded("candidate closure did not stay finite: %s" % exc)
    twists = [np.eye(d)] if modulo is None else modulo.elements()

    def edge_ok(u_i, u_j, i, j):
        lhs = u_i @ c2.value(i, j)
        rhs = c.value(i, j) @ u_j
        if modulo is None:
            return np.linalg.norm(lhs - rhs) <= tol.tau * max(1.0, math.sqrt(d))
        return modulo.contains(rhs.conj().T @ lhs, tol=tol)

    budget = [search_cap]

    def spend():
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchCapExceeded("witness search passed %d assignments" % search_cap)

    def assign(order, back_edges, u, pos):
        if pos == len(order):
            return True
        pv, cv = order[pos]
        base = c.value(cv, pv)
        tail = c2.value(cv, pv).conj().T
        for h in twists:
            spend()
            u[cv] = base @ u[pv] @ h @ tail
            if all(edge_ok(u[i], u[j], i, j) for (i, j) in back_edges.get(cv, ())):
                if assign(order, back_edges, u, pos + 1):
                    return True
        del u[cv]
        return False

    witness = {}
    for root, tree in bfs_forest(c.complex):
        comp_vertices = {root} | {cv for _, cv in tree}
        seen_at = {root: 0}
        for pos, (pv, cv) in enumerate(tree):
            seen_at[cv] = pos + 1
        back_edges = {}
        for (i, j) in c.complex.edges():
            if i not in comp_vertices:
                continue
            later = i if seen_at[i] >= seen_at[j] else j
            back_edges.setdefault(later, []).append((i, j))
        found = None
        for w in candidates:
            spend()
            u = {root: w}
            if assign(tree, back_edges, u, 0):
                found = u
                break
        if found is None:
            return None
        witness.update(found)
    return {v: as_matrix(m) for v, m in witness.items()}


def propagation_equivalent(c, c2, modulo=None, search_cap=SEARCH_CAP, tol=None):
    """Witness u with u_i c2_ij = c_ij u_j (h in ``modulo`` on the right),
    or None, for every coefficient kind: each root candidate in turn is
    carried over its whole component and then checked edge by edge.
    Root candidates, their order, the budget and the errors are those of
    ``equivalent``."""
    tol = tol or Tolerance()
    if c.complex != c2.complex:
        raise ValueError("cocycles live on different covers")
    if c.coeff != c2.coeff:
        raise ValueError("coefficient kinds differ")

    if c.coeff == "finite":
        d = c.degree()
        if modulo is not None:
            if modulo.kind != "finite":
                raise WrongKind("matrix witness search modulo a group needs a finite group")
            for values in (c.values, c2.values):
                _require_normalizing(values, modulo, tol=tol)
        if c.group is not None and modulo is None:
            candidates = c.group.elements()
        else:
            gens = [*c.values, *c2.values]
            if modulo is not None:
                gens += modulo.generators
            closure_spec = GroupSpec("finite", d, gens, enumeration_cap=search_cap)
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
        phase = c.coeff == "phase"
        candidates = [Fraction(0) if phase else 0]

        def step(u_pv, pv, cv):
            return u_pv + c.value(cv, pv) - c2.value(cv, pv)

        def edge_ok(u_i, u_j, i, j):
            resid = u_i - u_j - (c.value(i, j) - c2.value(i, j))
            return resid.denominator == 1 if phase else resid == 0

    budget = search_cap
    witness = {}
    for root, tree in bfs_forest(c.complex):
        comp = {root} | {cv for _, cv in tree}
        comp_edges = [(i, j) for (i, j) in c.complex.edges() if i in comp]
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

    if c.coeff == "phase":
        if loop_circle_class(c) != loop_circle_class(c2):
            return None
        return {v: normalized_lift(q) for v, q in witness.items()}
    if c.coeff == "int":
        return witness
    return {v: as_matrix(m) for v, m in witness.items()}

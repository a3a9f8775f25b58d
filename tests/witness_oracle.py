"""Oracle for the matrix witness search: the backtracking route.

``equivalent`` propagates each root candidate along the spanning forest
with no twist, because a twist h in the fibre group can change no edge
verdict.  This search makes no use of that: at every tree edge it tries
each twist h in turn (u_cv = c_(cv,pv) u_pv h c2_(cv,pv)*), checks the
edges back to vertices already placed, and backtracks on failure, so a
failing root candidate can cost up to |G|^depth.  On inputs where it
finishes, both searches must return the same None-or-witness.
"""

import math

import numpy as np

from catbundle import GroupSpec, SearchCapExceeded, Tolerance, as_matrix
from catbundle.basecech import SEARCH_CAP, _spanning_forest
from catbundle.errors import CapExceeded


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
    for root, tree in _spanning_forest(c.complex):
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

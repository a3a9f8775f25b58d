"""Truncated arrow algebras of a fibre group: reduction, products,
actions, stabilizers."""

import numpy as np
import pytest

from catbundle import (
    DRTruncation,
    NotUnitary,
    TruncationOverflow,
    WrongKind,
    antisym_projector,
    circle_action,
    dr_add,
    dr_adjoint,
    dr_element,
    dr_mul,
    dr_norm,
    dr_one,
    eq_rhoeps,
    fixed_points,
    gauge_action,
    inner_endo_nu,
    intertwiners,
    quaternion_group,
    special_element,
    special_isometry,
    special_unitary,
    stabilizer_test,
    verify_normalizer,
)
from catbundle import dralg
from catbundle.dralg import _first_disagreement
from catbundle.linalg import Tolerance, power_action

Q8 = quaternion_group()


def _trunc(level=3):
    return DRTruncation(level=level, group=Q8)


def dr_close(a, b):
    """a and b agree within tolerance, relative to the norm of a."""
    return Tolerance().close(dr_norm(dr_add(a, b, scalar=-1.0)), scale=max(1.0, dr_norm(a)))


def _rand(rng, s, r, d=2):
    re = rng.standard_normal((d ** s, d ** r))
    im = rng.standard_normal((d ** s, d ** r))
    return re + 1j * im


# ---------------------------------------------------------------------------
# reduced representatives


def test_identity_legs_are_stripped():
    t = np.array([[1.0, 2.0], [3.0, 4.0 + 1j]])
    el = dr_element(_trunc(), 2, 2, np.kron(t, np.eye(2)))
    assert (el.r, el.s) == (1, 1)
    assert np.allclose(el.value, t)


def test_generic_element_is_not_stripped():
    rng = np.random.default_rng(0)
    t = _rand(rng, 2, 2)
    el = dr_element(_trunc(), 2, 2, t)
    assert (el.r, el.s) == (2, 2)


def test_unit_element():
    one = dr_one(_trunc())
    assert (one.r, one.s) == (0, 0)
    assert one.grade == 0
    rng = np.random.default_rng(1)
    el = dr_element(_trunc(), 1, 2, _rand(rng, 2, 1))
    assert dr_close(dr_mul(one, el), el)
    assert dr_close(dr_mul(el, one), el)


def test_product_of_vectors_is_kron():
    rng = np.random.default_rng(2)
    x = _rand(rng, 1, 0)
    y = _rand(rng, 1, 0)
    a = dr_element(_trunc(), 0, 1, x)
    b = dr_element(_trunc(), 0, 1, y)
    ab = dr_mul(a, b)
    assert (ab.r, ab.s) == (0, 2)
    assert np.allclose(ab.value, np.kron(x, y))


def test_grades_add_and_products_associate():
    rng = np.random.default_rng(3)
    tr = _trunc()
    a = dr_element(tr, 1, 2, _rand(rng, 2, 1))
    b = dr_element(tr, 1, 1, _rand(rng, 1, 1))
    c = dr_element(tr, 0, 1, _rand(rng, 1, 0))
    assert dr_mul(a, b).grade == a.grade + b.grade
    assert dr_close(dr_mul(dr_mul(a, b), c), dr_mul(a, dr_mul(b, c)))


def test_adjoint_is_antimultiplicative():
    rng = np.random.default_rng(4)
    tr = _trunc()
    a = dr_element(tr, 1, 2, _rand(rng, 2, 1))
    b = dr_element(tr, 2, 1, _rand(rng, 1, 2))
    assert dr_close(dr_adjoint(dr_mul(a, b)), dr_mul(dr_adjoint(b), dr_adjoint(a)))
    assert dr_adjoint(a).grade == -a.grade


def test_addition_pads_and_rejects_mixed_grades():
    rng = np.random.default_rng(5)
    tr = _trunc()
    t = _rand(rng, 1, 1)
    a = dr_element(tr, 1, 1, t)
    b = dr_element(tr, 2, 2, _rand(rng, 2, 2))
    out = dr_add(a, b, scalar=2.0)
    assert out.grade == 0
    assert dr_norm(dr_add(out, dr_add(b, b), scalar=-1.0)) == pytest.approx(
        dr_norm(a), abs=1e-12
    )
    with pytest.raises(WrongKind):
        dr_add(a, dr_element(tr, 0, 1, _rand(rng, 1, 0)))


# ---------------------------------------------------------------------------
# truncation window


def test_window_rejects_large_powers():
    with pytest.raises(TruncationOverflow):
        dr_element(_trunc(3), 4, 4, np.eye(16))


def test_window_rejects_padded_products():
    rng = np.random.default_rng(6)
    tr = _trunc(1)
    a = dr_element(tr, 1, 0, _rand(rng, 0, 1))
    b = dr_element(tr, 1, 0, _rand(rng, 0, 1))
    # matching a.r = 1 against b.s = 0 pads b past the level
    with pytest.raises(TruncationOverflow):
        dr_mul(a, b)


def test_truncation_needs_a_group_and_a_level_of_at_least_one():
    with pytest.raises(TypeError):
        DRTruncation(level=2)
    with pytest.raises(ValueError):
        DRTruncation(level=0, group=Q8)
    assert DRTruncation(level=1, group=Q8).degree == 2


def test_element_value_must_be_one_matrix_of_the_powers():
    rng = np.random.default_rng(17)
    tr = _trunc(2)
    t = _rand(rng, 1, 1)
    for bad in (t.T[:1], _rand(rng, 2, 1), np.array([t] * 6), dict(enumerate([t] * 6))):
        with pytest.raises(ValueError):
            dr_element(tr, 1, 1, bad)


def test_elements_of_different_truncations_do_not_mix():
    rng = np.random.default_rng(16)
    t = _rand(rng, 1, 1)
    a = dr_element(_trunc(2), 1, 1, t)
    for other in (_trunc(3), DRTruncation(level=2, group=special_unitary(2))):
        with pytest.raises(WrongKind):
            dr_mul(a, dr_element(other, 1, 1, t))
        with pytest.raises(WrongKind):
            dr_add(a, dr_element(other, 1, 1, t))


# ---------------------------------------------------------------------------
# exchange identity


def test_exchange_identity_holds_for_generic_elements():
    rng = np.random.default_rng(9)
    tr = _trunc()
    for (r, s) in [(0, 1), (1, 1), (1, 2), (2, 2)]:
        el = dr_element(tr, r, s, _rand(rng, s, r))
        assert eq_rhoeps(el) <= 1e-9 * max(1.0, dr_norm(el))


# ---------------------------------------------------------------------------
# circle and gauge actions


def test_circle_action_is_graded():
    rng = np.random.default_rng(10)
    tr = _trunc()
    el = dr_element(tr, 1, 2, _rand(rng, 2, 1))
    z = np.exp(0.37j)
    out = circle_action(z, el)
    assert np.allclose(out.value, (z ** el.grade) * el.value)
    with pytest.raises(ValueError):
        circle_action(2.0, el)


def test_circle_action_is_multiplicative_over_products():
    rng = np.random.default_rng(11)
    tr = _trunc()
    a = dr_element(tr, 0, 1, _rand(rng, 1, 0))
    b = dr_element(tr, 1, 1, _rand(rng, 1, 1))
    z = np.exp(1.1j)
    assert dr_close(circle_action(z, dr_mul(a, b)), dr_mul(circle_action(z, a), circle_action(z, b)))


def test_gauge_action_rejects_bad_parameters():
    rng = np.random.default_rng(12)
    el = dr_element(_trunc(), 1, 1, _rand(rng, 1, 1))
    with pytest.raises(NotUnitary):
        gauge_action(np.array([[1.0, 1.0], [0.0, 1.0]]), el)
    with pytest.raises(WrongKind):
        gauge_action(np.eye(3), el)


def test_gauge_action_uses_the_group_unitarity_bound():
    tol = Tolerance()
    su3 = special_unitary(3)
    el = dr_element(DRTruncation(level=1, group=su3), 1, 1, np.eye(3))
    # unitarity residual 2 tau + tau^2: past tau * sqrt(3), the bound group
    # membership and normalizer checks use, though within tau * 3
    g = np.diag([1.0 + tol.tau, 1.0, 1.0])
    with pytest.raises(NotUnitary):
        gauge_action(g, el)
    with pytest.raises(NotUnitary):
        verify_normalizer(g, su3)
    near = np.diag([1.0 + tol.tau / 4, 1.0, 1.0])
    assert dr_close(gauge_action(near, el), el)
    assert verify_normalizer(near, su3).group is su3


def test_gauge_action_fixes_intertwiner_elements():
    tr = _trunc()
    for (r, s) in [(1, 1), (2, 2)]:
        for t in intertwiners(Q8, r, s):
            el = dr_element(tr, r, s, t)
            for g in Q8.elements():
                assert dr_close(gauge_action(g, el), el)


def test_fixed_points_match_intertwiner_dimensions(monkeypatch):
    assert len(fixed_points(Q8, 2, 2)) == len(intertwiners(Q8, 2, 2))
    su2 = special_unitary(2)
    assert len(fixed_points(su2, 2, 2)) == len(intertwiners(su2, 2, 2))
    monkeypatch.setattr(dralg, "DEFAULT_LEVEL", 3)
    with pytest.raises(TruncationOverflow):
        fixed_points(Q8, 4, 1)


# ---------------------------------------------------------------------------
# the antisymmetric element and its inner endomorphism


def test_special_element_is_the_antisymmetric_isometry():
    tr = _trunc()
    psi = special_element(tr)
    assert (psi.r, psi.s) == (0, 2)
    assert psi.grade == 2
    assert np.allclose(psi.value, special_isometry(2).isometry)
    assert dr_close(dr_mul(dr_adjoint(psi), psi), dr_one(tr))


def test_inner_endo_unit_is_the_antisymmetric_projector():
    tr = _trunc()
    psi = special_element(tr)
    p = inner_endo_nu([psi], dr_one(tr))
    assert (p.r, p.s) == (2, 2)
    assert np.allclose(p.value, antisym_projector(2, 2))


def test_inner_endo_is_multiplicative():
    rng = np.random.default_rng(13)
    tr = _trunc()
    psi = special_element(tr)
    a = dr_element(tr, 1, 1, _rand(rng, 1, 1))
    b = dr_element(tr, 1, 1, _rand(rng, 1, 1))
    nu = lambda x: inner_endo_nu([psi], x)
    assert dr_close(nu(dr_mul(a, b)), dr_mul(nu(a), nu(b)))


def test_inner_endo_commutes_with_circle():
    rng = np.random.default_rng(14)
    tr = _trunc()
    psi = special_element(tr)
    el = dr_element(tr, 1, 2, _rand(rng, 2, 1))
    z = np.exp(0.81j)
    lhs = circle_action(z, inner_endo_nu([psi], el))
    rhs = inner_endo_nu([psi], circle_action(z, el))
    assert dr_close(lhs, rhs)


# ---------------------------------------------------------------------------
# stabilizers


def test_stabilizer_detects_outside_normalizer():
    verdict = stabilizer_test(np.diag([1.0, 1.0j]), np.eye(2), Q8, level=2)
    assert not verdict.agree
    assert not verdict.in_group
    assert verdict.witness is not None
    r, s, idx = verdict.witness
    assert len(intertwiners(Q8, r, s)) > idx


def test_stabilizer_confirms_group_elements():
    els = Q8.elements()
    verdict = stabilizer_test(els[3], els[5], Q8, level=2)
    assert verdict.agree and verdict.in_group and verdict.witness is None


def test_stabilizer_needs_finite_fibre():
    with pytest.raises(WrongKind):
        stabilizer_test(np.eye(2), np.eye(2), special_unitary(2), level=1)


def test_stabilizer_agreement_matches_membership():
    # agreement and membership are computed along independent routes
    els = Q8.elements()
    for u in els[:4]:
        v = stabilizer_test(u, els[0], Q8, level=1)
        assert v.agree == v.in_group


def _loop_witness(u, v, group, level, tol):
    """The first disagreeing intertwiner, one basis element at a time."""
    d = group.degree
    for r in range(level + 1):
        for s in range(level + 1):
            basis = intertwiners(group, r, s, tol=tol).basis
            for idx, t in enumerate(basis):
                t = np.asarray(t).reshape(d ** s, d ** r)
                resid = float(np.linalg.norm(power_action(u, t, r, s) - power_action(v, t, r, s)))
                if not tol.close(resid, scale=max(1.0, float(np.linalg.norm(t)))):
                    return (r, s, idx)
    return None


def test_stabilizer_witness_matches_the_loop():
    tol = Tolerance()
    els = Q8.elements()
    extra = [
        np.diag([1.0, 1j]),
        np.array([[1, 1], [1, -1]]) / np.sqrt(2.0),
        np.exp(1j * np.pi / 4) * np.eye(2),
    ]
    seen = set()
    for u in els[:3] + [els[1] @ x for x in extra]:
        for v in els[:2]:
            verdict = stabilizer_test(u, v, Q8, level=3)
            assert verdict.witness == _loop_witness(u, v, Q8, 3, tol)
            seen.add(verdict.agree)
    assert seen == {True, False}


def test_nan_residual_counts_as_a_difference():
    nan = np.full((2, 2), np.nan)
    tol = Tolerance()
    assert _first_disagreement(nan, np.eye(2), Q8, 2, tol) == _loop_witness(nan, np.eye(2), Q8, 2, tol)
    assert _first_disagreement(nan, np.eye(2), Q8, 2, tol) is not None

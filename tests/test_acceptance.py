"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion.  Every test reuses the built-in check suites that the
``verify`` command runs, so the command line and this gate cannot drift
apart.
"""

import numpy as np
import pytest

from catbundle import verify
from catbundle.groups import quaternion_group, special_unitary
from catbundle.repcat import IntertwinerSpace


def _assert_all(checks, tol=None):
    for c in checks:
        assert c.passed, "%s: residual %g" % (c.name, c.residual)
        if tol is not None:
            assert c.residual <= tol, "%s: residual %g > %g" % (c.name, c.residual, tol)


def test_criterion_1_special_object_identities():
    checks = verify.special_object_checks(tol=1e-9)
    _assert_all(checks, tol=1e-9)
    names = {c.name for c in checks}
    for d in (2, 3):
        assert "special d=%d isometry" % d in names
        assert "special d=%d pairing" % d in names
    assert len(checks) == 6


def test_criterion_2_permutation_span_dimensions():
    checks = verify.schur_weyl_checks()
    _assert_all(checks)
    names = {c.name for c in checks}
    for d in (2, 3):
        assert "schur-weyl d=%d off-diagonal zero" % d in names
    # exact integer dimension match for r = 0..3 in both degrees
    assert sum(1 for n in names if " dim " in n) == 8


def test_criterion_3_conjugate_equations():
    checks = verify.conjugate_checks(tol=1e-9)
    _assert_all(checks, tol=1e-9)
    names = {c.name for c in checks}
    for d in (2, 3):
        assert "conjugate d=%d equation 1" % d in names
        assert "conjugate d=%d equation 2" % d in names
        assert "conjugate d=%d dimension" % d in names


def test_criterion_4_cech_engine():
    checks = verify.cech_engine_checks()
    _assert_all(checks)
    names = {c.name for c in checks}
    assert "octahedron free rank 1" in names
    assert "octahedron no torsion" in names
    assert "circle class invariant on 10 perturbed pairs" in names
    assert "coboundary witnesses found" in names


def test_criterion_5_classification_with_witness():
    checks = verify.classification_checks(tol=1e-8, rmax=3)
    _assert_all(checks)
    by_name = {c.name: c for c in checks}
    functor = by_name["witness functor residual (r,s <= 3)"]
    assert functor.residual <= 1e-8
    assert by_name["equal classes give a witness"].passed
    assert by_name["classes 0 and 1 inequivalent"].passed


def test_criterion_6_chern_consistency():
    checks = verify.chern_consistency_checks()
    _assert_all(checks)
    names = {c.name for c in checks}
    for n in (0, 1, 2):
        assert "chern extraction = pushforward, class %d" % n in names


def test_criterion_7_norm_sup_formula():
    checks = verify.norm_sup_checks(tol=1e-9)
    _assert_all(checks, tol=1e-9)
    assert checks[0].name == "norm sup formula on 100 random glued arrows"


def test_norm_sup_check_forms_each_space_once(monkeypatch):
    from catbundle.glue import GluedSpace

    formed = []
    form = GluedSpace._form

    def spy(self, *args):
        formed.append(id(self))
        return form(self, *args)

    monkeypatch.setattr(GluedSpace, "_form", spy)
    monkeypatch.setattr(GluedSpace, "sections", property(spy))
    verify.norm_sup_checks(tol=1e-9)
    assert formed and max(formed.count(k) for k in formed) == 1


def test_criterion_8_dr_identities():
    checks = verify.dr_identity_checks(tol=1e-9, level=3)
    _assert_all(checks)
    by_name = {c.name: c for c in checks}
    assert by_name["circle grading exact"].passed
    assert by_name["inner endomorphism commutes with the circle"].residual <= 1e-9
    for label in ("quaternion", "cyclic-4", "su(2)"):
        assert by_name["intertwiner dims equal the exact count (%s)" % label].passed
        assert by_name["intertwiner bases are invariant (%s)" % label].residual <= 1e-9


PLANTED = {"quaternion": quaternion_group, "su(2)": lambda: special_unitary(2)}


def _planted_rows(monkeypatch, label, plant):
    """The two space rows of ``label`` with its (2, 2) basis stack replaced
    by ``plant`` of a copy: (count row, invariance row)."""
    solve, fibre = verify.intertwiners, PLANTED[label]().to_json()

    def planted(group, r, s, tol=None):
        sp = solve(group, r, s, tol)
        if (r, s) != (2, 2) or group.to_json() != fibre:
            return sp
        stack = plant(sp.stack.copy())
        return IntertwinerSpace(group=group, r=r, s=s, basis=tuple(stack), stack=stack)

    monkeypatch.setattr(verify, "intertwiners", planted)
    rows = {c.name: c for c in verify.dr_identity_checks(tol=1e-9, level=3)}
    return (rows["intertwiner dims equal the exact count (%s)" % label],
            rows["intertwiner bases are invariant (%s)" % label])


@pytest.mark.parametrize("label", sorted(PLANTED))
def test_a_dropped_basis_vector_fails_the_count_row(monkeypatch, label):
    count, invariant = _planted_rows(monkeypatch, label, lambda stack: stack[:-1])
    # the vectors left are still invariant: only the count sees the gap
    assert not count.passed and invariant.passed


@pytest.mark.parametrize("label", sorted(PLANTED))
def test_a_random_basis_vector_fails_the_invariance_row(monkeypatch, label):
    rng = np.random.default_rng(14)

    def replace_last(stack):
        v = rng.standard_normal(stack.shape[1:]) + 1j * rng.standard_normal(stack.shape[1:])
        stack[-1] = v / np.linalg.norm(v)
        return stack

    count, invariant = _planted_rows(monkeypatch, label, replace_last)
    # the size is right: only the invariance row sees the stray vector
    assert count.passed and invariant.residual > 1e-9 and not invariant.passed


def test_criterion_9_stabilizer_faithfulness():
    checks = verify.stabilizer_checks()
    _assert_all(checks)
    by_name = {c.name: c for c in checks}
    assert by_name["stabilizer verdicts match membership on 20 pairs"].passed
    assert by_name["both membership outcomes exercised"].passed


def test_stabilizer_check_verifies_its_candidates_in_one_call(monkeypatch):
    from catbundle import dralg, groups

    calls = []
    require = groups._require_normalizing

    def spy(us, group, tol=None):
        calls.append(us.shape)
        return require(us, group, tol)

    def refuse(*args, **kwargs):
        raise AssertionError("a candidate was verified on its own")

    monkeypatch.setattr(groups, "_require_normalizing", spy)
    monkeypatch.setattr(dralg, "verify_normalizer", refuse)
    _assert_all(verify.stabilizer_checks())
    assert calls == [(40, 2, 2)]

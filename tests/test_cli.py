"""Command line front end: schemas, determinism, exit codes, error docs."""

import json
import os
from fractions import Fraction

import numpy as np
import pytest

from catbundle import (
    GluingDatum,
    GroupSpec,
    SimplicialComplex,
    cyclic_diagonal_group,
    full_unitary,
    matrix_to_json,
    octahedron,
    quaternion_group,
    scalar_datum,
    special_unitary,
    trivial_group,
)
from catbundle.cli import main
from catbundle.verify import su2_octa_datum
from witness_oracle import propagation_equivalent


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _datum_file(tmp_path, name, n, **kw):
    return _write(tmp_path, name, su2_octa_datum(n, **kw).to_json())


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _report(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# report schema and determinism


def test_verify_report_schema(capsys):
    code, report = _report(capsys, ["verify"])
    assert code == 0
    assert set(report) == {"command", "checks", "data"}
    assert report["command"] == "verify"
    assert len(report["checks"]) > 30
    for check in report["checks"]:
        assert set(check) == {"name", "residual", "pass"}
        assert check["pass"] is True
        assert check["residual"] >= 0.0
    assert report["data"]["tolerance"] == 1e-9


def test_verify_is_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--out", str(a)]) == 0
    assert main(["verify", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_out_file_matches_stdout(tmp_path, capsys):
    datum = _datum_file(tmp_path, "d1.json", 1)
    out = tmp_path / "report.json"
    code = main(["glue-dims", "--input", datum, "--rmax", "2", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    code2, text, _ = _run(capsys, ["glue-dims", "--input", datum, "--rmax", "2"])
    assert code2 == 0
    assert out.read_text(encoding="utf-8") == text


# ---------------------------------------------------------------------------
# classify


def test_classify_equivalent_pair(tmp_path, capsys):
    d0 = _datum_file(tmp_path, "d0.json", 0)
    d0p = _datum_file(
        tmp_path, "d0p.json", 0, phases={v: Fraction(v, 8) for v in range(6)}
    )
    code, report = _report(capsys, ["classify", "--input", d0, "--input", d0p, "--rmax", "2"])
    assert code == 0
    assert report["data"]["verdict"] == "equivalent"
    assert report["data"]["distinguishing"] is None
    witness = report["data"]["witness"]
    assert set(witness) == {str(v) for v in range(6)}
    assert all(c["pass"] for c in report["checks"])


def test_classify_distinguishes_classes(tmp_path, capsys):
    d0 = _datum_file(tmp_path, "d0.json", 0)
    d1 = _datum_file(tmp_path, "d1.json", 1)
    code, report = _report(capsys, ["classify", "--input", d0, "--input", d1, "--rmax", "1"])
    assert code == 0
    assert report["data"]["verdict"] == "inequivalent"
    assert report["data"]["witness"] is None
    dist = report["data"]["distinguishing"]
    assert dist["invariant"] == "determinant class"
    assert dist["first"]["free"] != dist["second"]["free"]
    # the glued dimension table cannot see the twist
    dims = report["data"]["glued_dims"]
    assert all(a == b for a, b in dims.values())


# two finite-fibre probes on a 3-vertex circle (three edges, no
# triangle), each pair related by a constant gauge

PROBES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probes")


def test_q8_probe_classifies_as_equivalent(capsys):
    # the holonomy A = (1 + i + j + k)/2 against w* A w, w = (1 + i)/sqrt(2):
    # A lies in the binary tetrahedral group 2T, the closure of the values,
    # whose conjugation acts trivially on 2T/Q8; w lies in 2O but not in 2T
    qi, qj = quaternion_group().generators
    a = (np.eye(2) + qi + qj + qi @ qj) / 2
    w = (np.eye(2) + qi) / np.sqrt(2)
    paths = [os.path.join(PROBES, "q8-circle-%d.json" % k) for k in (0, 1)]
    d1, d2 = (GluingDatum.from_json(json.loads(open(p, encoding="utf-8").read())) for p in paths)
    assert np.array_equal(d1.transition(0, 2), a)
    assert np.abs(d2.transition(0, 2) - w.conj().T @ a @ w).max() <= 1e-15
    assert propagation_equivalent(d1.cocycle, d2.cocycle, modulo=d1.group, closure=True) is None
    code, report = _report(capsys, ["classify", "--input", paths[0], "--input", paths[1], "--rmax", "2"])
    assert code == 0
    assert report["data"]["verdict"] == "equivalent"
    assert report["data"]["distinguishing"] is None
    assert all(c["pass"] for c in report["checks"])


def test_su2_octahedron_probe_is_the_class_one_datum(capsys):
    # the console-script step of CI reads this file: it stays the datum
    # su2_octa_datum(1) writes, whose extracted class is the generator
    path = os.path.join(PROBES, "su2-octahedron-class1.json")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == json.loads(json.dumps(su2_octa_datum(1).to_json()))
    code, report = _report(capsys, ["chern", "--input", path])
    assert code == 0 and report["data"]["agree"] is True
    assert report["data"]["extracted"]["free"] == [1]


def test_trivial_group_probe_is_refused(tmp_path, capsys):
    # the holonomies Z and X, which the Hadamard relates; their closure,
    # dihedral of order 8, conjugates X only to +-X, and no invariant
    # tells the data apart
    circle = SimplicialComplex.from_maximal(3, [(0, 1), (1, 2), (0, 2)])
    paths = []
    for k, h in enumerate((np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))):
        d = GluingDatum(circle, trivial_group(2), {(0, 1): np.eye(2), (1, 2): np.eye(2), (0, 2): h})
        paths += ["--input", _write(tmp_path, "t%d.json" % k, d.to_json())]
    code, out, err = _run(capsys, ["classify", *paths])
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "IncompleteSearch"
    assert "rmax = 3 agree" in error["message"]


@pytest.mark.parametrize("group", [special_unitary(2), quaternion_group()], ids=["su2", "q8"])
def test_classify_over_a_base_without_vertices(tmp_path, capsys, group):
    empty = {"vertices": 0, "simplices": []}
    doc = {"complex": empty, "group": group.to_json(), "cocycle": {"coeff": "finite", "values": []}}
    d = _write(tmp_path, "empty.json", doc)
    code, report = _report(capsys, ["classify", "--input", d, "--input", d, "--rmax", "1"])
    assert code == 0
    assert report["data"]["verdict"] == "equivalent"
    assert report["data"]["witness"] == {}
    assert all(c["pass"] for c in report["checks"])


@pytest.mark.parametrize("group", [special_unitary(2), quaternion_group()], ids=["su2", "q8"])
def test_chern_over_a_base_without_vertices_is_refused(tmp_path, capsys, group):
    # no patch carries a section to extract a class from: a typed refusal
    empty = {"vertices": 0, "simplices": []}
    doc = {"complex": empty, "group": group.to_json(), "cocycle": {"coeff": "finite", "values": []}}
    d = _write(tmp_path, "empty.json", doc)
    code, out, err = _run(capsys, ["chern", "--input", d])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "RankDeficientVModule"


def test_classify_permutation_fibre(tmp_path, capsys):
    octa = octahedron()
    third = {e: Fraction(1, 3) for e in octa.edges()}
    flat = {e: Fraction(0) for e in octa.edges()}
    u2 = full_unitary(2)
    da = _write(tmp_path, "perm.json", scalar_datum(octa, u2, third).to_json())
    db = _write(tmp_path, "triv.json", scalar_datum(octa, u2, flat).to_json())
    code, report = _report(capsys, ["classify", "--input", da, "--input", db, "--rmax", "1"])
    assert code == 0
    assert report["data"]["verdict"] == "equivalent to trivial"


def _flat_file(tmp_path, name, group):
    octa = octahedron()
    return _write(tmp_path, name, scalar_datum(octa, group, {e: Fraction(0) for e in octa.edges()}).to_json())


@pytest.mark.parametrize("kind", ["su2", "u2", "q8"])
def test_classify_witness_is_one_matrix_per_patch(tmp_path, capsys, kind):
    octa = octahedron()
    if kind == "su2":
        # scalar witnesses exp(2 pi i q / 2), one per patch
        da = _datum_file(tmp_path, "a.json", 0)
        db = _datum_file(tmp_path, "b.json", 0, phases={v: Fraction(v, 8) for v in range(6)})
    elif kind == "u2":
        # every transition acts trivially on a permutation fibre
        third = {e: Fraction(1, 3) for e in octa.edges()}
        da = _write(tmp_path, "a.json", scalar_datum(octa, full_unitary(2), third).to_json())
        db = _flat_file(tmp_path, "b.json", full_unitary(2))
    else:
        # a coboundary of Q8 elements against the flat datum
        els = quaternion_group().elements()
        trans = {(i, j): els[i] @ els[j].conj().T for (i, j) in octa.edges()}
        da = _write(tmp_path, "a.json", GluingDatum(octa, quaternion_group(), trans).to_json())
        db = _flat_file(tmp_path, "b.json", quaternion_group())
    code, report = _report(capsys, ["classify", "--input", da, "--input", db, "--rmax", "1"])
    assert code == 0
    witness = report["data"]["witness"]
    assert set(witness) == {str(v) for v in range(6)}
    for doc in witness.values():
        assert set(doc) == {"rows", "cols", "re", "im"} and (doc["rows"], doc["cols"]) == (2, 2)
    if kind == "u2":
        assert report["data"]["verdict"] == "equivalent to trivial"
        assert all(doc == matrix_to_json(np.eye(2)) for doc in witness.values())


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["q8-c4", "c4-q8"])
def test_classify_different_finite_fibres_exits_two(tmp_path, capsys, order):
    # one kind and one degree, but C4 is a proper subgroup of Q8
    files = [
        _flat_file(tmp_path, "q8.json", quaternion_group()),
        _flat_file(tmp_path, "c4.json", cyclic_diagonal_group()),
    ]
    code, out, err = _run(capsys, ["classify", "--input", files[order[0]], "--input", files[order[1]]])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"type": "WrongKind", "message": "fibre groups do not match"}


def test_classify_accepts_q8_under_another_presentation(tmp_path, capsys):
    # j and k generate Q8 too: each presentation's generators lie in the other
    gj = np.array([[0, 1], [-1, 0]], dtype=complex)
    gk = np.array([[0, 1j], [1j, 0]])
    q8 = _flat_file(tmp_path, "q8.json", quaternion_group())
    jk = _flat_file(tmp_path, "jk.json", GroupSpec("finite", 2, [gj, gk]))
    for first, second in ((q8, jk), (jk, q8)):
        code, report = _report(capsys, ["classify", "--input", first, "--input", second, "--rmax", "2"])
        assert code == 0
        assert report["data"]["verdict"] == "equivalent"
        assert all(c["pass"] for c in report["checks"])
        assert all(doc == matrix_to_json(np.eye(2)) for doc in report["data"]["witness"].values())


# ---------------------------------------------------------------------------
# chern and glue-dims


@pytest.mark.parametrize("n", [0, 1])
def test_chern_classes(tmp_path, capsys, n):
    datum = _datum_file(tmp_path, "d.json", n)
    code, report = _report(capsys, ["chern", "--input", datum])
    assert code == 0
    assert report["data"]["agree"] is True
    assert [abs(x) for x in report["data"]["extracted"]["free"]] == [n]
    assert report["data"]["extracted"] == report["data"]["pushforward"]
    assert report["data"]["phases"]["coeff"] == "phase"


def test_glue_dims_table(tmp_path, capsys):
    datum = _datum_file(tmp_path, "d1.json", 1)
    code, report = _report(capsys, ["glue-dims", "--input", datum, "--rmax", "2"])
    assert code == 0
    assert report["data"]["glued_dims"] == {
        "0,0": 1, "0,1": 0, "0,2": 1,
        "1,0": 0, "1,1": 1, "1,2": 0,
        "2,0": 1, "2,1": 0, "2,2": 2,
    }


def test_dr_check(capsys):
    code, report = _report(capsys, ["dr-check", "--level", "3"])
    assert code == 0
    assert report["command"] == "dr-check"
    assert all(c["pass"] for c in report["checks"])


@pytest.mark.parametrize("command", ["verify", "dr-check"])
def test_suites_pass_at_level_one(capsys, command):
    code, report = _report(capsys, [command, "--level", "1"])
    assert code == 0
    assert report["data"]["level"] == 1
    assert all(c["pass"] for c in report["checks"])


# ---------------------------------------------------------------------------
# failure reporting


def test_overtight_tolerance_fails_checks(capsys):
    code, out, err = _run(capsys, ["verify", "--tolerance", "1e-15"])
    assert code == 1
    report = json.loads(out)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed
    for c in report["checks"]:
        if not c["pass"]:
            assert c["residual"] > 1e-15


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = _run(capsys, ["chern", "--input", str(bad)])
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "InputParse"
    assert doc["error"]["line"] == 1
    assert doc["error"]["column"] >= 1


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = _run(capsys, ["chern", "--input", "/no/such/file.json"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "InputParse"


@pytest.mark.parametrize("problem", ["not-utf8", "nested-too-deeply"])
def test_unreadable_json_is_a_parse_error(tmp_path, capsys, problem):
    path = tmp_path / "bad.json"
    if problem == "not-utf8":
        path.write_bytes(b"\xff\xfe{}")
        want = "cannot read %s: 'utf-8' codec can't decode" % path
    else:
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        want = "JSON in %s is nested too deeply" % path
    code, out, err = _run(capsys, ["chern", "--input", str(path)])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InputParse"
    assert error["message"].startswith(want)


@pytest.mark.parametrize(
    "argv",
    [
        ["chern"],                                   # missing input
        ["verify", "--input", "x.json"],             # unexpected input
        ["verify", "--tolerance", "0.5"],            # out of range
        ["verify", "--tolerance", "0"],              # out of range
        ["verify", "--rmax", "9"],                   # out of range
        ["verify", "--level", "0"],                  # out of range
        ["verify", "--command", "chern"],            # conflicting commands
        [],                                          # no command at all
    ],
)
def test_config_errors_exit_two(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "InputParse"


def _q8_identity_file(tmp_path, name, base):
    datum = GluingDatum(base, quaternion_group(), {e: np.eye(2) for e in base.edges()})
    return _write(tmp_path, name, datum.to_json())


@pytest.mark.parametrize("mismatch", ["bases", "groups"])
def test_classify_mismatched_data_exits_two(tmp_path, capsys, mismatch):
    su2 = _datum_file(tmp_path, "su2.json", 1)
    base = octahedron() if mismatch == "groups" else SimplicialComplex.from_maximal(3, [(0, 1, 2)])
    q8 = _q8_identity_file(tmp_path, "q8.json", base)
    code, out, err = _run(capsys, ["classify", "--input", su2, "--input", q8])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "WrongKind"


def test_unwritable_out_is_a_parse_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = _run(capsys, ["dr-check", "--level", "2", "--out", str(target)])
    assert code == 2
    assert out == ""
    doc = json.loads(err)["error"]
    assert doc["type"] == "InputParse"
    assert doc["message"].startswith("cannot write %s" % target)
    assert not target.parent.exists()


def test_command_flag_alone_works(capsys):
    code, report = _report(capsys, ["--command", "dr-check", "--level", "2"])
    assert code == 0
    assert report["command"] == "dr-check"


@pytest.mark.parametrize("part", ["re", "im"])
def test_chern_rejects_bad_matrix_documents(tmp_path, capsys, part):
    doc = su2_octa_datum(1).to_json()
    value = doc["cocycle"]["values"][0]["value"]
    if part == "re":
        value["re"][0] = float("nan")  # json writes and reads the literal NaN
    else:
        value["im"] = value["im"][:-1]
    path = _write(tmp_path, "bad-%s.json" % part, doc)
    code, out, err = _run(capsys, ["chern", "--input", path])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "InputParse"


def test_transitions_of_another_degree_are_a_parse_error(tmp_path, capsys):
    # 3 x 3 transitions over Q8, of degree 2
    base = octahedron()
    doc = GluingDatum(base, quaternion_group(), {e: np.eye(2) for e in base.edges()}).to_json()
    for item in doc["cocycle"]["values"]:
        item["value"] = matrix_to_json(np.eye(3))
    path = _write(tmp_path, "degree3.json", doc)
    code, out, err = _run(capsys, ["glue-dims", "--input", path, "--rmax", "1"])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InputParse"
    assert error["message"] == "gluing datum %s is malformed: matrix values are 3 x 3, not of degree 2" % path


@pytest.mark.parametrize(
    "repeat",
    [("edge", None), ("triangle", [0, 1, 4]), ("triangle", [4, 0, 1])],
    ids=["edge", "triangle", "triangle-reordered"],
)
@pytest.mark.parametrize("value", [0, 2])
def test_chern_refuses_repeated_entries(tmp_path, capsys, repeat, value):
    doc = su2_octa_datum(1).to_json()
    cocycle = doc["cocycle"]
    assert cocycle["windings"] == [{"triangle": [0, 1, 4], "value": 1}]
    kind, triangle = repeat
    if kind == "edge":
        # 13 entries for the 12 edges of the octahedron: edge (0, 1) once
        # more, with its own value (0) or with another edge's (2)
        cocycle["values"].append(dict(cocycle["values"][value], edge=cocycle["values"][0]["edge"]))
    else:
        cocycle["windings"].append({"triangle": triangle, "value": value})
    path = _write(tmp_path, "repeated.json", doc)
    code, out, err = _run(capsys, ["chern", "--input", path])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InputParse"
    want = "value for edge (0, 1)" if kind == "edge" else "winding on triangle (0, 1, 4)"
    assert "duplicate " + want in error["message"]


@pytest.mark.parametrize("field", ["vertices", "rows"])
def test_glue_dims_refuses_an_integer_too_large_for_a_float(tmp_path, capsys, field):
    doc = su2_octa_datum(1).to_json()
    if field == "vertices":
        doc["complex"]["vertices"] = "HUGE"
    else:
        doc["cocycle"]["values"][0]["value"]["rows"] = "HUGE"
    # json reads 1e400 as inf, which has no integer
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', "1e400"), encoding="utf-8")
    code, out, err = _run(capsys, ["glue-dims", "--input", str(path), "--rmax", "1"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "InputParse"

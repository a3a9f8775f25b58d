"""The benchmark tracer still binds the library's public names.

``perfbench/tracechild.py`` wraps every public function of the layer
modules and a few methods by name; a rename there would otherwise only
surface in the traced benchmark pass.
"""

import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys

import numpy as np

from catbundle import GluingDatum, octahedron, quaternion_group
from catbundle.verify import su2_octa_datum

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _stdout(*argv):
    """Run a child Python with the package on its path; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable] + list(argv),
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _traced_text(tmp_path, *cli_args):
    """Run one CLI call under the tracer; its report text and spans."""
    spans_path = tmp_path / "spans.json"
    tracer = os.path.join(ROOT, "perfbench", "tracechild.py")
    out = _stdout(tracer, str(spans_path), *cli_args)
    return out, json.loads(spans_path.read_text(encoding="utf-8"))["spans"]


def _traced(tmp_path, *cli_args):
    """Run one CLI call under the tracer; its report and spans."""
    out, spans = _traced_text(tmp_path, *cli_args)
    return json.loads(out), spans


def test_tracer_runs_dr_check(tmp_path):
    report, spans = _traced(tmp_path, "dr-check")
    assert report["command"] == "dr-check"
    shapes = [info for name, _, _, _, info in spans if name == "linalg.nullspace"]
    assert shapes and all(len(info) == 2 for info in shapes)


def test_tracer_runs_glue_dims(tmp_path):
    path = tmp_path / "octahedron.json"
    path.write_text(json.dumps(su2_octa_datum(1).to_json()), encoding="utf-8")
    report, spans = _traced(tmp_path, "glue-dims", "--input", str(path))
    assert report["command"] == "glue-dims"
    names = {name for name, _, _, _, _ in spans}
    assert {"glue.glued_space", "linalg.power_action"} <= names


def _perfbench(name):
    """A module of ``perfbench/``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name, os.path.join(ROOT, "perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_methods_resolve_on_the_package():
    # install() reads each listed method from its class __dict__, so a
    # deleted method would only surface in a traced benchmark pass
    tracechild = _perfbench("tracechild")
    assert tracechild.METHODS
    for layer, cls_name, attr in tracechild.METHODS:
        cls = getattr(importlib.import_module("catbundle." + layer), cls_name)
        assert attr in cls.__dict__, (layer, cls_name, attr)


def test_tracer_runs_chern_without_touching_the_report(tmp_path):
    path = tmp_path / "octahedron.json"
    path.write_text(json.dumps(su2_octa_datum(1).to_json()), encoding="utf-8")
    traced, spans = _traced_text(tmp_path, "chern", "--input", str(path))
    assert traced == _stdout("-m", "catbundle.cli", "chern", "--input", str(path))
    assert json.loads(traced)["command"] == "chern"
    names = {name for name, _, _, _, _ in spans}
    assert {"basecech.smith_normal_form", "glue.extract_twisted_special"} <= names


def test_traced_chern_snaps_phases_once_per_stage(tmp_path):
    # the 146-vertex su(2) datum of the benchmark's generator: 432 edges
    inputs = _perfbench("inputs")
    base = inputs.subdivided_octahedron(2)
    doc, _, _ = inputs.su2_datum(random.Random(3), base, 2, base.triangles[0])
    path = tmp_path / "v146.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report, spans = _traced(tmp_path, "chern", "--input", str(path))
    assert report["data"]["agree"]
    names = [name for name, _, _, _, _ in spans]
    snaps = [span for span in spans if span[0] in ("basecech.snap_phase", "basecech.snap_phases")]
    # one stacked snap for the extracted phases, one for the determinants
    assert sorted(names[parent] for _, parent, _, _, _ in snaps) == [
        "basecech.det_pushforward",
        "glue.extract_twisted_special",
    ]
    assert {"basecech.circle_class", "basecech.det_pushforward"} <= set(names)


def _gauged_q8(gauge):
    """Q8 transitions u_i h_ij u_j* on the octahedron, with h_ij in Q8 and
    u_i = (H P)^gauge[i] for the Hadamard H and the phase gate P, both of
    which normalize Q8."""
    hp = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0) @ np.diag([1.0, 1j])
    u = [np.linalg.matrix_power(hp, n) for n in gauge]
    els = quaternion_group().elements()
    octa = octahedron()
    trans = {(i, j): u[i] @ els[(i + 2 * j) % 8] @ u[j].conj().T for (i, j) in octa.edges()}
    return GluingDatum(octa, quaternion_group(), trans)


def test_tracer_runs_classify(tmp_path):
    # the search modulo Q8 takes its root candidates from Q8's normalizer
    # classes; it is glue's, and the base layer's phase rule never runs
    args = []
    for k, gauge in enumerate(([0, 1, 2, 3, 4, 5], [3, 1, 4, 1, 5, 2])):
        d = _gauged_q8(gauge)
        path = tmp_path / ("q8-%d.json" % k)
        path.write_text(json.dumps(d.to_json()), encoding="utf-8")
        args += ["--input", str(path)]
    report, spans = _traced(tmp_path, "classify", *args, "--rmax", "1")
    assert report["data"]["verdict"] == "equivalent"
    names = {name for name, _, _, _, _ in spans}
    assert "groups.normalizer_classes" in names and "basecech.equivalent" not in names
    # Q8 itself (once per datum) is the only group enumerated: no closure
    # of the values is
    sizes = [info for name, _, _, _, info in spans if name == "groups.enumerate_finite"]
    assert sizes and set(sizes) == {8}, sizes

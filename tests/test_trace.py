"""The benchmark tracer still binds the library's public names.

``perfbench/tracechild.py`` wraps every public function of the layer
modules and a few methods by name; a rename there would otherwise only
surface in the traced benchmark pass.
"""

import json
import os
import subprocess
import sys

from catbundle.verify import su2_octa_datum

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced(tmp_path, *cli_args):
    """Run one CLI call under the tracer; its exit code, report and spans."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    tracer = os.path.join(ROOT, "perfbench", "tracechild.py")
    proc = subprocess.run(
        [sys.executable, tracer, str(spans_path)] + list(cli_args),
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    return json.loads(proc.stdout), spans


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
    assert {"glue.GluingDatum.hat_matrix", "linalg.power_action"} <= names

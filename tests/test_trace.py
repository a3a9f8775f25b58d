"""The benchmark tracer still binds the library's public names.

``perfbench/tracechild.py`` wraps every public function of the layer
modules and a few methods by name; a rename there would otherwise only
surface in the traced benchmark pass.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_runs_dr_check(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    tracer = os.path.join(ROOT, "perfbench", "tracechild.py")
    proc = subprocess.run(
        [sys.executable, tracer, str(spans_path), "dr-check"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "dr-check"
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    shapes = [info for name, _, _, _, info in spans if name == "linalg.nullspace"]
    assert shapes and all(len(info) == 2 for info in shapes)

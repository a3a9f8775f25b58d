"""The benchmark's correctness oracle, run in-process on every workload.

For each workload of ``perfbench/inputs.py`` this writes the seed-1
inputs (and seeds 2 and 3 of ``base-chern`` and ``glue-classify``, whose
inputs change with the seed), runs each invocation through
``catbundle.cli.main`` and asserts that ``perfbench/check.py`` finds no
problem with its report, so a report the benchmark would count as
incorrect fails here first.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys

import pytest

from catbundle import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


inputs = _load("inputs")
check = _load("check")


def _check_reports(workload, seed, tmp_path):
    files, calls = inputs.generate(workload, seed)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert calls
    for inv in calls:
        argv = [inv.command] + [a for name in inv.inputs for a in ("--input", str(tmp_path / name))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        report = json.loads(out.getvalue())
        assert check.problems(inv, code, report) == [], inv.label
        # the oracle is not vacuous: a wrong expectation is caught
        assert check.problems(check.wrong_expectation(inv), code, report), inv.label


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_workload_reports_pass_the_benchmark_oracle(workload, tmp_path):
    _check_reports(workload, 1, tmp_path)


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("workload", ["base-chern", "glue-classify"])
def test_seeded_workload_reports_pass_the_benchmark_oracle(workload, seed, tmp_path):
    _check_reports(workload, seed, tmp_path)

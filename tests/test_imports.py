"""What a fresh interpreter loads: the package namespace and each command.

In-process tests run with every layer already imported, so they cannot
see a missing or a surplus import; these run each case in a child
interpreter with the package on its path.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import catbundle
from catbundle import octahedron, quaternion_group, scalar_datum, special_unitary
from catbundle.cli import main
from catbundle.verify import su2_octa_datum
from octahedra import subdivided_octahedron

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the package's public names, as listed before the namespace became lazy
PUBLIC = [
    'COEFF_FINITE', 'COEFF_PHASE', 'CapExceeded', 'CechCocycle', 'Check',
    'CocycleCheck', 'CohomologySummary', 'ConjugatePair', 'ConsistencyError', 'DRElement',
    'DRTruncation', 'GluedArrow', 'GluedSpace', 'GluingDatum', 'GroupSpec',
    'IncompleteSearch', 'InputParse', 'IntegralCohomClass', 'IntertwinerSpace', 'IrrationalPhase',
    'IsomorphismReport', 'KIND_FINITE', 'KIND_SU', 'KIND_U', 'LieBasis', 'MissingValue',
    'NormalizerElement', 'NotACocycle', 'NotACocycleModG', 'NotInNormalizer', 'NotUnitary',
    'RankDeficientVModule', 'SearchCapExceeded', 'SimplicialComplex', 'SizeCapExceeded',
    'SpecialObjectData', 'StabilizerVerdict', 'Tolerance', 'ToolkitError', 'TruncationOverflow',
    'TwistedSpecialExtraction', 'WrongKind', 'antisym_projector', 'as_matrix',
    'basecech', 'builtin_checks', 'canonical_basis',
    'circle_action', 'circle_class', 'conjugate_pair', 'cyclic_diagonal_group',
    'det_pushforward', 'dr_add', 'dr_adjoint', 'dr_element', 'dr_mul', 'dr_norm',
    'dr_one', 'dralg', 'enumerate_finite', 'equivalent', 'errors',
    'extract_twisted_special', 'full_unitary', 'gauge_action',
    'glue', 'glued_space', 'glued_symmetry', 'groups',
    'h2_integral', 'hs_inner', 'hs_norm', 'inner_endo_nu', 'intertwiner_dim', 'intertwiners',
    'is_cocycle', 'isomorphic', 'lie_basis', 'linalg', 'matrix_from_json', 'matrix_to_json', 'norm_function',
    'normalized_lift', 'normalizer_classes', 'nullspace', 'octahedron', 'opnorm', 'permutation_unitary',
    'power_action', 'quaternion_group', 'repcat', 'replay',
    'scalar_datum', 'smith_normal_form', 'snap_phase', 'snap_phases', 'special_element',
    'special_isometry', 'special_unitary', 'stabilizer_test', 'symmetry_unitary',
    'trivial_group', 'verify', 'verify_normalizer',
]

LAYERS = ("basecech", "dralg", "errors", "glue", "groups", "linalg", "repcat", "verify")
NUMERICAL = ("basecech", "dralg", "glue", "groups", "linalg", "repcat")


def _child_env(buffered=True):
    """The environment of a child Python: the package on its path, and
    stdout block-buffered, as it is by default on a pipe or a file, or
    unbuffered."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _child(*argv):
    """Run a child Python with the package on its path."""
    return subprocess.run(
        [sys.executable] + list(argv),
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        timeout=120,
    )


def _loaded(proc):
    """The modules a child run with ``-X importtime`` imported."""
    names = set()
    for line in proc.stderr.decode("utf-8").splitlines():
        if line.startswith("import time:") and "|" in line:
            names.add(line.rsplit("|", 1)[1].strip())
    return names


# ---------------------------------------------------------------------------
# the package namespace


def test_import_loads_only_the_error_types():
    probe = "import catbundle, json, sys; print(json.dumps(sorted(sys.modules)))"
    proc = _child("-c", probe)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert "numpy" not in modules
    assert [m for m in modules if m.startswith("catbundle")] == ["catbundle", "catbundle.errors"]


def test_all_is_the_public_list():
    assert catbundle.__all__ == PUBLIC
    assert dir(catbundle) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves_to_its_submodule_object(name):
    value = getattr(catbundle, name)
    if name in LAYERS:
        assert value is importlib.import_module("catbundle." + name)
    else:
        source = importlib.import_module("catbundle." + catbundle._SOURCE.get(name, "errors"))
        assert getattr(source, name) is value
    if name in catbundle._SOURCE or name in catbundle._LAYERS:
        # the hook itself, since an earlier access may have cached the name
        assert catbundle.__getattr__(name) is value


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        catbundle.no_such_name
    with pytest.raises(ImportError):
        from catbundle import no_such_name  # noqa: F401


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from catbundle import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC


# ---------------------------------------------------------------------------
# the layering of the source files


def _package_imports(path):
    """The catbundle modules a source file imports, at any depth of it."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["catbundle" if node.level else "", node.module]))
            names.add(module)
            names.update(module + "." + a.name for a in node.names)
    return {n.split(".")[1] for n in names if n.startswith("catbundle.")}


def test_layers_import_only_downwards():
    src = os.path.join(ROOT, "src", "catbundle")
    imports = {
        name[:-3]: _package_imports(os.path.join(src, name))
        for name in os.listdir(src)
        if name.endswith(".py")
    }
    # function-level imports count: cli makes all of these inside functions
    assert {"glue", "linalg", "verify"} <= imports["cli"]
    assert not imports["dralg"] & {"glue", "basecech", "verify", "cli"}
    assert not imports["basecech"] & {"groups", "repcat", "glue", "dralg"}
    for layer in NUMERICAL:
        assert not imports[layer] & {"verify", "cli"}, layer


# ---------------------------------------------------------------------------
# each command in a fresh interpreter


def _write(tmp_path, name, datum):
    path = tmp_path / name
    path.write_text(json.dumps(datum.to_json()), encoding="utf-8")
    return str(path)


@pytest.fixture
def commands(tmp_path):
    """Each command once, on the octahedron fixtures of the CLI tests."""
    d0 = _write(tmp_path, "d0.json", su2_octa_datum(0))
    d1 = _write(tmp_path, "d1.json", su2_octa_datum(1))
    q8 = scalar_datum(octahedron(), quaternion_group(), {e: Fraction(0) for e in octahedron().edges()})
    dq = _write(tmp_path, "q8.json", q8)
    return {
        "verify": ["verify"],
        "classify": ["classify", "--input", d0, "--input", d1, "--rmax", "2"],
        "chern": ["chern", "--input", d1],
        "glue-dims": ["glue-dims", "--input", dq, "--rmax", "2"],
        "dr-check": ["dr-check"],
    }


@pytest.mark.parametrize("command", ["classify", "chern", "glue-dims"])
def test_glue_commands_load_no_algebra_or_suites(commands, command):
    proc = _child("-X", "importtime", "-m", "catbundle.cli", *commands[command])
    assert proc.returncode == 0, proc.stderr
    loaded = _loaded(proc)
    assert "catbundle.glue" in loaded
    assert not loaded & {"catbundle.dralg", "catbundle.verify"}


def test_dr_check_loads_only_the_fibre_layers(commands):
    proc = _child("-X", "importtime", "-m", "catbundle.cli", *commands["dr-check"])
    assert proc.returncode == 0, proc.stderr
    loaded = _loaded(proc)
    assert {"catbundle.dralg", "catbundle.repcat", "catbundle.verify"} <= loaded
    assert not loaded & {"catbundle.basecech", "catbundle.glue", "numpy.random"}


def test_verify_draws_its_data_without_numpy_random(commands):
    proc = _child("-X", "importtime", "-m", "catbundle.cli", *commands["verify"])
    assert proc.returncode == 0, proc.stderr
    loaded = _loaded(proc)
    assert {"catbundle.basecech", "catbundle.glue", "random"} <= loaded
    assert "numpy.random" not in loaded


@pytest.mark.parametrize("command", ["verify", "classify", "chern", "glue-dims", "dr-check"])
def test_fresh_process_matches_in_process(commands, command, capsys):
    proc = _child("-m", "catbundle.cli", *commands[command])
    code = main(commands[command])
    out = capsys.readouterr().out
    assert proc.returncode == code
    assert proc.stdout == out.encode("utf-8")
    assert json.loads(out)["command"] == command


# ---------------------------------------------------------------------------
# the console entry, which ends the process once its output is flushed

# the entry as it was before ``run``: main's code through sys.exit, after
# interpreter teardown
EXIT_AFTER_TEARDOWN = "import sys; from catbundle.cli import main; sys.exit(main())"


def _octahedron_146(tmp_path):
    """A class-0 su(2) datum over the 146-vertex octahedron: its chern
    report is larger than a pipe buffer."""
    base = subdivided_octahedron(2)
    return _write(tmp_path, "d146.json", scalar_datum(base, special_unitary(2), {e: Fraction(0) for e in base.edges()}))


@pytest.mark.parametrize("case, want", [("fails", 1), ("unusable", 2), ("large", 0)])
def test_fresh_process_run_matches_in_process(tmp_path, case, want, capsys):
    if case == "large":
        argv = ["chern", "--input", _octahedron_146(tmp_path)]
    else:
        argv = {"fails": ["verify", "--tolerance", "1e-15"], "unusable": ["chern", "--input", "/no/such/file.json"]}[case]
    proc = _child("-m", "catbundle.cli", *argv)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == want
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode("utf-8"), err.encode("utf-8"))
    # an unusable input writes its error to stderr and no report
    assert (out == "") == (case == "unusable")
    if case == "large":
        assert len(proc.stdout) > 2 ** 16


def test_fresh_process_run_writes_out_and_nothing_to_stdout(commands, tmp_path, capsys):
    path = tmp_path / "report.json"
    proc = _child("-m", "catbundle.cli", *commands["chern"], "--out", str(path))
    code = main(commands["chern"])
    out = capsys.readouterr().out
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, b"", b"")
    assert path.read_bytes() == out.encode("utf-8")


def _exit_status(entry, argv, stdout, buffered):
    """Exit status and stderr of a child writing its report to ``stdout``
    (closed by this process right after the start, when it is a pipe)."""
    proc = subprocess.Popen(
        [sys.executable, *entry, *argv], cwd=ROOT, env=_child_env(buffered),
        stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.PIPE,
    )
    if stdout == subprocess.PIPE:
        proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    return proc.returncode, err.decode("utf-8")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_reader_ends_with_the_teardown_exit_status(tmp_path, buffered):
    # the report fills the pipe, so the write fails inside main
    argv = ["chern", "--input", _octahedron_146(tmp_path)]
    code, err = _exit_status(["-m", "catbundle.cli"], argv, subprocess.PIPE, buffered)
    want, _ = _exit_status(["-c", EXIT_AFTER_TEARDOWN], argv, subprocess.PIPE, buffered)
    assert code == want != 0
    assert "BrokenPipeError" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_failed_flush_ends_with_the_teardown_exit_status(commands):
    # a buffered report this small is written only by the flush, which
    # fails on a full device: the error propagates and the interpreter
    # tears down, instead of the process ending as if it had succeeded
    argv = commands["glue-dims"][:-1] + ["0"]
    with open("/dev/full", "wb") as full:
        code, err = _exit_status(["-m", "catbundle.cli"], argv, full, True)
        want, _ = _exit_status(["-c", EXIT_AFTER_TEARDOWN], argv, full, True)
    assert code == want != 0
    assert "in run\n    sys.stdout.flush()" in err


def test_console_script_is_the_run_entry():
    # a text check: the oldest supported Python has no tomllib
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        assert 'catbundle = "catbundle.cli:run"' in fh.read()

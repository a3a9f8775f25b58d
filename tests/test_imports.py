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
from catbundle import octahedron, quaternion_group, scalar_datum
from catbundle.cli import main
from catbundle.verify import su2_octa_datum

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
    'averaged_fixed_space', 'basecech', 'builtin_checks', 'canonical_basis',
    'circle_action', 'circle_class', 'conjugate_pair', 'cyclic_diagonal_group',
    'det_pushforward', 'dr_add', 'dr_adjoint', 'dr_element', 'dr_mul', 'dr_norm',
    'dr_one', 'dralg', 'enumerate_finite', 'eq_rhoeps', 'equivalent', 'errors',
    'extract_twisted_special', 'fixed_points', 'full_unitary', 'gauge_action',
    'glue', 'glued_space', 'glued_symmetry', 'groups',
    'h2_integral', 'hs_inner', 'hs_norm', 'inner_endo_nu', 'intertwiners', 'is_cocycle',
    'isomorphic', 'lie_basis', 'linalg', 'matrix_from_json', 'matrix_to_json', 'norm_function',
    'normalized_lift', 'normalizer_classes', 'nullspace', 'octahedron', 'opnorm', 'permutation_unitary',
    'power_action', 'projection_residual', 'quaternion_group', 'repcat', 'replay',
    'scalar_datum', 'smith_normal_form', 'snap_phase', 'snap_phases', 'special_element',
    'special_isometry', 'special_unitary', 'stabilizer_test', 'symmetry_unitary',
    'trivial_group', 'verify', 'verify_normalizer',
]

LAYERS = ("basecech", "dralg", "errors", "glue", "groups", "linalg", "repcat", "verify")
NUMERICAL = ("basecech", "dralg", "glue", "groups", "linalg", "repcat")


def _child(*argv):
    """Run a child Python with the package on its path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable] + list(argv),
        cwd=ROOT,
        env=env,
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

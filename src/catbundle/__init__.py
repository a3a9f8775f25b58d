"""Desk-scale computations for symmetric tensor categories of group
intertwiners, their twisted gluings over finite simplicial bases, and
the truncated graded algebras they generate.

Importing the package loads only its error types.  Every other public
name is imported from its submodule on first access (PEP 562) and then
kept in the package namespace, so ``import catbundle`` loads no numpy
and a caller pays only for the layers it reaches.
"""

from importlib import import_module as _import_module

from .errors import (
    CapExceeded,
    ConsistencyError,
    IncompleteSearch,
    InputParse,
    IrrationalPhase,
    MissingValue,
    NotACocycle,
    NotACocycleModG,
    NotInNormalizer,
    NotUnitary,
    RankDeficientVModule,
    SearchCapExceeded,
    SizeCapExceeded,
    ToolkitError,
    TruncationOverflow,
    WrongKind,
)

__version__ = "0.1.0"

_EXPORTS = {
    "linalg": (
        "Tolerance",
        "as_matrix",
        "canonical_basis",
        "hs_inner",
        "hs_norm",
        "matrix_from_json",
        "matrix_to_json",
        "nullspace",
        "opnorm",
        "power_action",
        "projection_residual",
    ),
    "groups": (
        "KIND_FINITE",
        "KIND_SU",
        "KIND_U",
        "GroupSpec",
        "LieBasis",
        "NormalizerElement",
        "cyclic_diagonal_group",
        "enumerate_finite",
        "full_unitary",
        "lie_basis",
        "normalizer_classes",
        "quaternion_group",
        "special_unitary",
        "trivial_group",
        "verify_normalizer",
    ),
    "repcat": (
        "ConjugatePair",
        "IntertwinerSpace",
        "SpecialObjectData",
        "antisym_projector",
        "averaged_fixed_space",
        "conjugate_pair",
        "intertwiners",
        "permutation_unitary",
        "special_isometry",
        "symmetry_unitary",
    ),
    "basecech": (
        "COEFF_FINITE",
        "COEFF_PHASE",
        "CechCocycle",
        "CocycleCheck",
        "CohomologySummary",
        "IntegralCohomClass",
        "SimplicialComplex",
        "circle_class",
        "det_pushforward",
        "equivalent",
        "h2_integral",
        "is_cocycle",
        "normalized_lift",
        "octahedron",
        "replay",
        "smith_normal_form",
        "snap_phase",
        "snap_phases",
    ),
    "glue": (
        "GluedArrow",
        "GluedSpace",
        "GluingDatum",
        "IsomorphismReport",
        "TwistedSpecialExtraction",
        "extract_twisted_special",
        "glued_space",
        "glued_symmetry",
        "isomorphic",
        "norm_function",
        "scalar_datum",
    ),
    "dralg": (
        "DRElement",
        "DRTruncation",
        "StabilizerVerdict",
        "circle_action",
        "dr_add",
        "dr_adjoint",
        "dr_element",
        "dr_mul",
        "dr_norm",
        "dr_one",
        "eq_rhoeps",
        "fixed_points",
        "gauge_action",
        "inner_endo_nu",
        "special_element",
        "stabilizer_test",
    ),
    "checks": ("Check",),
    "verify": ("builtin_checks",),
}

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# the layers themselves, reachable as attributes (``checks`` is internal)
_LAYERS = ("basecech", "dralg", "glue", "groups", "linalg", "repcat", "verify")

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")]
    + list(_SOURCE)
    + list(_LAYERS)
)


def __getattr__(name):
    if name in _LAYERS:
        return _import_module("." + name, __name__)
    if name not in _SOURCE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(_import_module("." + _SOURCE[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__

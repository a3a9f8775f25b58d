"""Every limit is a module constant, read when a call runs.

Each case makes the objects a call reads under the module's value,
checks that the call passes, lowers the constant and checks that the
same call is refused.  A default argument bound when its function was
defined would not see the lowered value.
"""

from functools import partial

import pytest

from catbundle import (
    SearchCapExceeded,
    SizeCapExceeded,
    glued_space,
    intertwiners,
    quaternion_group,
    special_unitary,
    trivial_group,
)
from catbundle import glue, repcat
from catbundle.verify import su2_octa_datum
from test_basecech import _q8_coboundary


def _glued(call):
    d = su2_octa_datum(1)
    sp = glued_space(d, 2, 2)
    return {
        "solve": lambda: glued_space(d, 2, 2),
        "sections": lambda: sp.sections,
        "residual": sp.arrows[0].compatibility_residual,
        "hat-matrix": lambda: d.hat_matrix(2, 2),
    }[call]


def _case(case):
    """(module, constant, lowered value, call, error, message) for a case."""
    if case.startswith("GLUED_COEFF_CAP-"):
        call = _glued(case.split("-", 1)[1])
        return glue, "GLUED_COEFF_CAP", 1, call, SizeCapExceeded, "cap is 1$"
    if case == "INTERTWINER_UNKNOWN_CAP":
        # su(2) at (2, 2) has 16 unknowns
        call = partial(intertwiners, special_unitary(2), 2, 2)
        return repcat, case, 15, call, SizeCapExceeded, "16 unknowns, cap is 15"
    if case == "SEARCH_CAP-classes":
        # modulo Q8 the candidates are its normalizer classes, solved over
        # 36 generator image tuples
        c, c2 = _q8_coboundary()
        call = partial(glue._witness_search, c, c2, quaternion_group(), None)
        return glue, "SEARCH_CAP", 35, call, SearchCapExceeded, "36 generator image tuples exceed cap 35"
    assert case == "SEARCH_CAP-closure"
    # modulo the trivial group the candidates are the closure of the
    # values, Q8 of order 8
    call = partial(glue._witness_search, *_q8_coboundary(), trivial_group(2), None)
    return glue, "SEARCH_CAP", 7, call, SearchCapExceeded, "closure did not stay finite"


CASES = [
    "GLUED_COEFF_CAP-solve",
    "GLUED_COEFF_CAP-sections",
    "GLUED_COEFF_CAP-residual",
    "GLUED_COEFF_CAP-hat-matrix",
    "INTERTWINER_UNKNOWN_CAP",
    "SEARCH_CAP-classes",
    "SEARCH_CAP-closure",
]


@pytest.mark.parametrize("case", CASES)
def test_a_lowered_limit_applies_to_the_next_call(monkeypatch, case):
    module, name, lowered, call, error, message = _case(case)
    assert lowered < getattr(module, name)
    call()
    monkeypatch.setattr(module, name, lowered)
    with pytest.raises(error, match=message):
        call()

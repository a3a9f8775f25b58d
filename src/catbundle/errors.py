"""Exception types shared across the toolkit.

Every error raised on a contract violation derives from ToolkitError so
callers (and the command line driver) can distinguish domain failures
from programming mistakes.
"""


class ToolkitError(Exception):
    """Base class for all contract violations raised by this package."""


class NotUnitary(ToolkitError):
    """A matrix required to be unitary is not, within tolerance."""


class CapExceeded(ToolkitError):
    """Finite group enumeration left the configured cap."""


class WrongKind(ToolkitError):
    """An operation was asked of a group kind it is not defined for."""


class NotInNormalizer(ToolkitError):
    """Conjugation by the candidate does not preserve the group."""


class SizeCapExceeded(ToolkitError):
    """An intertwiner problem exceeds the configured unknown count."""


class MissingValue(ToolkitError):
    """A cocycle lacks a value on an edge of its cover."""


class NotACocycle(ToolkitError):
    """The cocycle identity fails on some 2-simplex."""


class NotACocycleModG(ToolkitError):
    """The transition data fails the cocycle identity modulo the fibre group."""


class SearchCapExceeded(ToolkitError):
    """A finite witness search passed the configured assignment cap."""


class IncompleteSearch(ToolkitError):
    """A witness search over candidates not known to be complete found
    none, and no invariant tells the data apart."""


class IrrationalPhase(ToolkitError):
    """A determinant phase is not close to a bounded-denominator rational."""


class RankDeficientVModule(ToolkitError):
    """The antisymmetric line module of a glued category has wrong local rank."""


class TruncationOverflow(ToolkitError):
    """A graded product would leave the truncation level."""


class ConsistencyError(ToolkitError):
    """Two routes that must agree by theory disagreed numerically."""


class InputParse(ToolkitError):
    """An input document failed to parse; carries position information."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

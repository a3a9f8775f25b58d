"""Report rows: a named check with its residual and verdict.

The command line and the built-in suites both build their reports from
these rows, so the pass rule lives here once.  Standard library only,
so loading it loads no numerical layer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    passed: bool

    def to_json(self):
        return {"name": self.name, "residual": self.residual, "pass": self.passed}


def _c(name, residual, tol):
    """A measured check: it passes when the residual is within tol."""
    r = float(residual)
    return Check(name, r, r <= tol)


def _exact(name, ok):
    """An exact check: residual 0 when it holds, 1 when it fails."""
    return Check(name, 0.0 if ok else 1.0, bool(ok))

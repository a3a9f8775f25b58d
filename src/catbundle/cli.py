"""Batch front end: JSON in, deterministic JSON report out.

Commands:

* ``verify``     run the built-in check suites (no inputs);
* ``classify``   decide equivalence of two gluing data (two inputs);
* ``chern``      both class computations for one datum (one input);
* ``glue-dims``  table of glued arrow space dimensions (one input);
* ``dr-check``   truncated algebra identities on built-in fibres.

Reports follow {"command": ..., "checks": [{"name", "residual", "pass"}],
"data": {...}} with sorted keys, so identical inputs and configuration
produce byte-identical output.  Exit codes: 0 all checks pass, 1 at
least one check failed, 2 the input or configuration was unusable.

Each command imports the layers it runs when it runs: ``verify`` the
built-in suites (and through them every layer), ``dr-check`` the suites
module with only the fibre layers (``dralg``, ``repcat``, ``groups``,
``linalg``), ``classify``, ``chern`` and ``glue-dims`` only ``glue`` and
the layers it imports.  Parsing the arguments loads no numerical layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .checks import _c, _exact
from .errors import InputParse, ToolkitError

COMMANDS = ("verify", "classify", "chern", "glue-dims", "dr-check")

TOLERANCE_FLOOR = 0.0
TOLERANCE_CEIL = 1e-3
RMAX_CAP = 4
LEVEL_CAP = 4


@dataclass
class ExperimentConfig:
    command: str
    inputs: list = field(default_factory=list)
    tolerance: float = 1e-9
    rmax: int = 3
    level: int = 3
    out: str | None = None

    def validate(self):
        if self.command not in COMMANDS:
            raise InputParse("unknown command %r; choose from %s" % (self.command, ", ".join(COMMANDS)))
        if not (TOLERANCE_FLOOR < self.tolerance <= TOLERANCE_CEIL):
            raise InputParse("tolerance must lie in (0, %g], got %g" % (TOLERANCE_CEIL, self.tolerance))
        if not (0 <= self.rmax <= RMAX_CAP):
            raise InputParse("rmax must lie in 0..%d, got %d" % (RMAX_CAP, self.rmax))
        if not (1 <= self.level <= LEVEL_CAP):
            raise InputParse("level must lie in 1..%d, got %d" % (LEVEL_CAP, self.level))
        want = {"verify": 0, "classify": 2, "chern": 1, "glue-dims": 1, "dr-check": 0}[self.command]
        if len(self.inputs) != want:
            raise InputParse(
                "%s takes exactly %d input file(s), got %d" % (self.command, want, len(self.inputs))
            )


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParse("cannot read %s: %s" % (path, exc))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputParse(
            "malformed JSON in %s: %s" % (path, exc.msg), line=exc.lineno, column=exc.colno
        )
    except RecursionError:
        raise InputParse("JSON in %s is nested too deeply" % path)


def load_datum(path, tol):
    from .glue import GluingDatum

    doc = load_json(path)
    try:
        return GluingDatum.from_json(doc, tol=tol)
    except ToolkitError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputParse("gluing datum %s is malformed: %s" % (path, exc))


def _witness_json(witness):
    from .linalg import matrix_to_json

    if witness is None:
        return None
    return {str(v): matrix_to_json(u) for v, u in sorted(witness.items())}


def run_verify(config):
    from .verify import builtin_checks

    checks = builtin_checks(
        tol=config.tolerance, rmax=config.rmax, level=config.level
    )
    data = {"tolerance": config.tolerance, "rmax": config.rmax, "level": config.level}
    return {"command": "verify", "checks": [c.to_json() for c in checks], "data": data}


def run_classify(config):
    from .glue import glued_space, isomorphic
    from .linalg import Tolerance

    tol = Tolerance(config.tolerance)
    d1 = load_datum(config.inputs[0], tol)
    d2 = load_datum(config.inputs[1], tol)
    checks = [
        _c("input %d cocycle identity (mod G)" % k, d.mod_group_residual(), config.tolerance)
        for k, d in enumerate((d1, d2))
    ]
    report = isomorphic(d1, d2, rmax=config.rmax, tol=tol)
    for name, resid in report.checks:
        checks.append(_c("witness " + name, resid, config.tolerance))
    if report.isomorphic:
        verdict = "equivalent to trivial" if d1.group.kind == "u" else "equivalent"
    else:
        verdict = "inequivalent"
    dims = {}
    for r in range(config.rmax + 1):
        for s in range(config.rmax + 1):
            dims["%d,%d" % (r, s)] = [glued_space(d1, r, s).dim, glued_space(d2, r, s).dim]
    data = {
        "verdict": verdict,
        "witness": _witness_json(report.witness),
        "distinguishing": report.distinguishing,
        "glued_dims": dims,
    }
    return {"command": "classify", "checks": [c.to_json() for c in checks], "data": data}


def run_chern(config):
    from .glue import extract_twisted_special
    from .linalg import Tolerance

    tol = Tolerance(config.tolerance)
    datum = load_datum(config.inputs[0], tol)
    ext = extract_twisted_special(datum, tol=tol)
    checks = [_c("extraction " + name, resid, config.tolerance) for name, resid in ext.checks]
    checks.append(_exact("extraction class equals pushforward class", ext.classes_agree))
    data = {
        "extracted": ext.extracted_class.to_json(),
        "pushforward": ext.pushforward_class.to_json(),
        "agree": ext.classes_agree,
        "phases": ext.phase_cocycle.to_json(),
    }
    return {"command": "chern", "checks": [c.to_json() for c in checks], "data": data}


def run_glue_dims(config):
    from .glue import glued_space
    from .linalg import Tolerance

    tol = Tolerance(config.tolerance)
    datum = load_datum(config.inputs[0], tol)
    dims = {}
    worst = 0.0
    for r in range(config.rmax + 1):
        for s in range(config.rmax + 1):
            sp = glued_space(datum, r, s)
            dims["%d,%d" % (r, s)] = sp.dim
            worst = max(worst, float(sp._residuals().max(initial=0.0)))
    checks = [_c("overlap matching of all basis arrows", worst, config.tolerance)]
    data = {"glued_dims": dims, "rmax": config.rmax}
    return {"command": "glue-dims", "checks": [c.to_json() for c in checks], "data": data}


def run_dr_check(config):
    from .verify import dr_identity_checks, stabilizer_checks

    checks = dr_identity_checks(tol=config.tolerance, level=config.level)
    checks += stabilizer_checks()
    data = {"level": config.level, "tolerance": config.tolerance}
    return {"command": "dr-check", "checks": [c.to_json() for c in checks], "data": data}


_RUNNERS = {
    "verify": run_verify,
    "classify": run_classify,
    "chern": run_chern,
    "glue-dims": run_glue_dims,
    "dr-check": run_dr_check,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="catbundle",
        description="verification and classification reports for glued intertwiner categories",
    )
    p.add_argument("command_pos", nargs="?", metavar="command", choices=COMMANDS, help="one of %s" % (", ".join(COMMANDS)))
    p.add_argument("--command", dest="command_flag", choices=COMMANDS, help="command, as a flag")
    p.add_argument("--input", action="append", default=[], help="input JSON path (repeatable)")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--tolerance", type=float, default=1e-9, help="numeric tolerance, in (0, 1e-3]")
    p.add_argument("--rmax", type=int, default=3, help="largest tensor power in tables, at most %d" % RMAX_CAP)
    p.add_argument("--level", type=int, default=3, help="truncation level, at most %d" % LEVEL_CAP)
    return p


def parse_config(argv):
    ns = build_parser().parse_args(argv)
    if ns.command_pos and ns.command_flag and ns.command_pos != ns.command_flag:
        raise InputParse(
            "conflicting commands %r and %r" % (ns.command_pos, ns.command_flag)
        )
    command = ns.command_pos or ns.command_flag
    if not command:
        raise InputParse("no command given; choose from %s" % (", ".join(COMMANDS)))
    config = ExperimentConfig(
        command=command,
        inputs=list(ns.input),
        tolerance=ns.tolerance,
        rmax=ns.rmax,
        level=ns.level,
        out=ns.out,
    )
    config.validate()
    return config


def _emit(report, out):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputParse("cannot write %s: %s" % (out, exc))
    else:
        sys.stdout.write(text)


def _error_doc(exc):
    doc = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, InputParse):
        if exc.line is not None:
            doc["line"] = exc.line
        if exc.column is not None:
            doc["column"] = exc.column
    return doc


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = parse_config(argv)
        report = _RUNNERS[config.command](config)
        _emit(report, config.out)
    except ToolkitError as exc:
        sys.stderr.write(json.dumps({"error": _error_doc(exc)}, indent=2, sort_keys=True) + "\n")
        return 2
    return 0 if all(c["pass"] for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Correctness oracle: compare each report with what the generator planted.

An invocation fails when it exits non-zero, when any check in its
report has ``"pass": false``, or when its verdict, classes, phases or
glued dimensions differ from the generator's expectations.  Nothing
here reads a value the program computed in order to decide what the
program should have computed.
"""

from __future__ import annotations

import copy

# the configuration every invocation runs with: the CLI defaults
DEFAULT_DATA = {
    "verify": {"tolerance": 1e-9, "rmax": 3, "level": 3},
    "dr-check": {"tolerance": 1e-9, "level": 3},
}


def problems(inv, code, report):
    """Reasons the invocation counts as failed; empty when it passed."""
    if code != 0:
        return ["exit code %d" % code]
    if not isinstance(report, dict):
        return ["no JSON report on stdout"]
    out = []
    if report.get("command") != inv.command:
        out.append("report is for command %r" % (report.get("command"),))
    checks = report.get("checks") or []
    if not checks:
        out.append("report has no checks")
    failed = [c.get("name") for c in checks if c.get("pass") is not True]
    if failed:
        out.append("checks failed: %s" % ", ".join(map(str, failed[:5])))
    data = report.get("data") or {}
    want = inv.expect
    if inv.command in DEFAULT_DATA:
        if data != want.get("data", DEFAULT_DATA[inv.command]):
            out.append("configuration echo %r" % (data,))
    elif inv.command == "chern":
        out += _chern(data, want)
    elif inv.command == "glue-dims":
        if data.get("glued_dims") != want["dims"]:
            out.append("glued dimensions differ from the fibre dimensions")
    elif inv.command == "classify":
        out += _classify(data, want)
    return out


def _class_free(doc):
    """The single free coordinate of an H^2 class on the 2-sphere, or None."""
    if not isinstance(doc, dict):
        return None
    free = doc.get("free")
    if doc.get("torsion") != [] or doc.get("torsion_orders") != [] or not isinstance(free, list) or len(free) != 1:
        return None
    return free[0]


def _chern(data, want):
    out = []
    n = want["winding"]
    extracted = _class_free(data.get("extracted"))
    if data.get("agree") is not True or data.get("extracted") != data.get("pushforward"):
        out.append("extracted class differs from the pushforward class")
    # the sign of the free coordinate depends on the orientation of the
    # planted triangle, so only its size is fixed by the planted winding
    if extracted is None or abs(extracted) != abs(n):
        out.append("extracted class %r, planted winding %d" % (data.get("extracted"), n))
    phases = data.get("phases") or {}
    got = {"%d,%d" % tuple(v["edge"]): v["value"] for v in phases.get("values", [])}
    if got != want["phases"]:
        out.append("extracted phases differ from the determinant phases")
    windings = {"%d,%d,%d" % tuple(w["triangle"]): w["value"] for w in phases.get("windings", [])}
    if windings != want["windings"]:
        out.append("extracted windings differ from the planted windings")
    return out


def _classify(data, want):
    out = []
    verdict = "equivalent" if want["equivalent"] else "inequivalent"
    if data.get("verdict") != verdict:
        out.append("verdict %r, expected %r" % (data.get("verdict"), verdict))
    dims = {k: [v, v] for k, v in want["dims"].items()}
    if data.get("glued_dims") != dims:
        out.append("glued dimensions differ from the fibre dimensions")
    if want["equivalent"]:
        if not data.get("witness") or data.get("distinguishing") is not None:
            out.append("equivalent data reported without a witness")
        return out
    dist = data.get("distinguishing") or {}
    a, b = want["classes"]
    fa, fb = _class_free(dist.get("first")), _class_free(dist.get("second"))
    # both classes are planted on the same triangle, so they share the sign
    if (
        dist.get("invariant") != "determinant class"
        or fa is None
        or fb is None
        or abs(fa) != abs(a)
        or abs(fb) != abs(b)
        or fa * b != fb * a
    ):
        out.append("distinguishing invariant %r, planted classes %r" % (dist, (a, b)))
    return out


def wrong_expectation(inv):
    """A copy of ``inv`` whose expectation is wrong, for checking the oracle."""
    bad = copy.deepcopy(inv.expect)
    if "dims" in bad:
        bad["dims"]["3,3"] += 1
    elif "winding" in bad:
        bad["winding"] = abs(bad["winding"]) + 1
    else:
        bad["data"] = dict(DEFAULT_DATA[inv.command], level=4)
    return type(inv)(inv.label, inv.command, inv.inputs, bad)

"""Per-layer metrics from the spans of one traced pass.

Spans nest strictly (one thread, wrappers push and pop a stack), so a
span's self time is its duration minus the durations of its direct
children, and the time a set of names covers is the summed duration of
the spans in the set that have no ancestor in the set.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("cli", "verify", "glue", "dralg", "basecech", "repcat", "groups", "linalg")

VERIFY_SUITES = (
    "special_object_checks",
    "schur_weyl_checks",
    "conjugate_checks",
    "cech_engine_checks",
    "classification_checks",
    "chern_consistency_checks",
    "norm_sup_checks",
    "dr_identity_checks",
    "stabilizer_checks",
)

# unit of each per-layer field; every other field is a count
_UNITS = {"s": "s", "self_s": "s", "svd_bytes": "B", "hit_ratio": "ratio", "repeat_ratio": "ratio"}

_FIELDS = (
    ("linalg.nullspace", ("calls", "self_s", "max_rows", "max_cols", "svd_bytes")),
    ("repcat.intertwiners", ("calls", "solves", "self_s", "max_unknowns", "hit_ratio")),
    ("repcat.hat_action", ("calls", "self_s")),
    ("repcat.averaged_fixed_space", ("self_s",)),
    ("basecech.smith_normal_form", ("calls", "self_s", "entries")),
    ("basecech.h2_integral", ("calls", "builds")),
    ("basecech.circle_class", ("self_s",)),
    ("basecech.det_pushforward", ("self_s",)),
    ("basecech.equivalent", ("calls", "self_s")),
    ("groups.enumerate_finite", ("calls", "self_s", "elements")),
    ("groups.verify_normalizer", ("calls", "self_s")),
    ("groups.GroupSpec.contains", ("calls", "self_s")),
    ("glue.glued_space", ("calls", "distinct", "self_s", "max_rows", "max_cols", "repeat_ratio")),
    ("glue.GluingDatum.hat_matrix", ("calls", "self_s")),
    ("glue.GluedArrow.compatibility_residual", ("calls", "self_s")),
    ("glue.isomorphic", ("s",)),
    ("glue.extract_twisted_special", ("s",)),
    ("glue.GluingDatum.from_json", ("s",)),
    ("cli.load_datum", ("s",)),
    ("dralg.fixed_points", ("calls", "self_s")),
    ("dralg.stabilizer_test", ("calls", "self_s")),
    ("dralg.dr_mul", ("calls", "self_s")),
) + tuple(("verify." + suite, ("s",)) for suite in VERIFY_SUITES) + (("cli.main", ("s",)),)

# shares of the in-process time (the summed cli.main spans); a name
# ending in "." stands for every span under that prefix
SHARES = {
    "share.intertwiners_nullspace": ("repcat.intertwiners", "linalg.nullspace"),
    "share.intertwiners": ("repcat.intertwiners",),
    "share.smith_normal_form": ("basecech.smith_normal_form",),
    "share.glue": ("glue.",),
}

# name -> unit, in report order
PER_LAYER = {
    "%s.%s" % (name, field): _UNITS.get(field, "count") for name, fields in _FIELDS for field in fields
}
PER_LAYER.update(("module.%s.self_s" % layer, "s") for layer in LAYERS)
PER_LAYER.update((share, "ratio") for share in SHARES)
PER_LAYER.update({
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.startup_per_call_s": "s",
})


def _matches(name, prefixes):
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in prefixes)


class _Tree:
    """One invocation's spans with parents, durations and self times."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[3] - s[2] for s in spans]
        self.self_s = list(self.dur)
        for k, s in enumerate(spans):
            if s[1] >= 0:
                self.self_s[s[1]] -= self.dur[k]

    def ancestors(self, k):
        p = self.spans[k][1]
        while p >= 0:
            yield p
            p = self.spans[p][1]

    def covered(self, prefixes):
        total = 0.0
        for k, s in enumerate(self.spans):
            if _matches(s[0], prefixes) and not any(
                _matches(self.spans[a][0], prefixes) for a in self.ancestors(k)
            ):
                total += self.dur[k]
        return total


def pass_metrics(invocations):
    """Per-layer metrics of one traced pass; ``invocations`` is a list of span lists."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    mx = defaultdict(int)
    total = defaultdict(int)
    glued_keys = set()
    covered = defaultdict(float)
    in_process = 0.0
    spans_seen = 0
    for inv, spans in enumerate(invocations):
        tree = _Tree(spans)
        spans_seen += len(spans)
        builds = set()
        for k, (name, parent, _, _, info) in enumerate(spans):
            calls[name] += 1
            self_s[name] += tree.self_s[k]
            if not any(spans[a][0] == name for a in tree.ancestors(k)):
                incl[name] += tree.dur[k]
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "linalg.nullspace":
                m, n = info
                mx["nullspace.rows"] = max(mx["nullspace.rows"], m)
                mx["nullspace.cols"] = max(mx["nullspace.cols"], n)
                mx["nullspace.bytes"] = max(mx["nullspace.bytes"], 16 * (m * m + n * n))
                if parent_name == "repcat.intertwiners":
                    total["intertwiners.solves"] += 1
                elif parent_name == "glue.glued_space":
                    mx["glued.rows"] = max(mx["glued.rows"], m)
                    mx["glued.cols"] = max(mx["glued.cols"], n)
            elif name == "repcat.intertwiners":
                mx["intertwiners.unknowns"] = max(mx["intertwiners.unknowns"], info)
            elif name == "basecech.smith_normal_form":
                total["snf.entries"] += info
                for a in tree.ancestors(k):
                    if spans[a][0] == "basecech.h2_integral":
                        builds.add(a)
                        break
            elif name == "groups.enumerate_finite":
                total["elements"] += info
            elif name == "glue.glued_space":
                glued_keys.add((inv, tuple(info)))
        total["h2.builds"] += len(builds)
        main = tree.covered(("cli.main",))
        in_process += main
        for share, prefixes in SHARES.items():
            covered[share] += tree.covered(prefixes)

    out = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls[base]
        elif field == "self_s":
            out[name] = self_s[base]
        elif field == "s":
            out[name] = incl[base]
    for layer in LAYERS:
        out["module.%s.self_s" % layer] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    out["linalg.nullspace.max_rows"] = mx["nullspace.rows"]
    out["linalg.nullspace.max_cols"] = mx["nullspace.cols"]
    out["linalg.nullspace.svd_bytes"] = mx["nullspace.bytes"]
    solves = total["intertwiners.solves"]
    n_int = calls["repcat.intertwiners"]
    out["repcat.intertwiners.solves"] = solves
    out["repcat.intertwiners.max_unknowns"] = mx["intertwiners.unknowns"]
    out["repcat.intertwiners.hit_ratio"] = 1.0 - solves / n_int if n_int else 0.0
    out["basecech.smith_normal_form.entries"] = total["snf.entries"]
    out["basecech.h2_integral.builds"] = total["h2.builds"]
    out["groups.enumerate_finite.elements"] = total["elements"]
    n_glued = calls["glue.glued_space"]
    out["glue.glued_space.distinct"] = len(glued_keys)
    out["glue.glued_space.max_rows"] = mx["glued.rows"]
    out["glue.glued_space.max_cols"] = mx["glued.cols"]
    out["glue.glued_space.repeat_ratio"] = 1.0 - len(glued_keys) / n_glued if n_glued else 0.0
    for share in SHARES:
        out[share] = covered[share] / in_process if in_process else 0.0
    out["trace.spans"] = spans_seen
    return out

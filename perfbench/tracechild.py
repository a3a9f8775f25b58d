"""Child of the traced pass: one CLI call with catbundle's functions wrapped.

Usage: python perfbench/tracechild.py SPANS.json CLI-ARGS...

Imports the package, replaces the public functions of each layer module
(and a few methods) with wrappers that record spans, runs
``catbundle.cli.main`` on the remaining arguments, writes the spans to
SPANS.json and exits with the CLI's exit code.  The report goes to
stdout exactly as in an untraced call.

A span is [name, parent span index or -1, start, end, info]; ``info``
carries the operand shape or cache key where a metric needs one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref

LAYERS = ("cli", "verify", "glue", "dralg", "basecech", "repcat", "groups", "linalg")

# (module, class, attribute) of the methods that are wrapped too
METHODS = (
    ("glue", "GluingDatum", "hat_matrix"),
    ("glue", "GluingDatum", "from_json"),
    ("glue", "GluedArrow", "compatibility_residual"),
    ("groups", "GroupSpec", "contains"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _shape(args, kwargs, result):
    m, n = _arg(args, kwargs, 0, "op").shape
    return [int(m), int(n)]


def _unknowns(args, kwargs, result):
    group = _arg(args, kwargs, 0, "group")
    r, s = _arg(args, kwargs, 1, "r"), _arg(args, kwargs, 2, "s")
    return int(group.degree) ** (int(r) + int(s))


def _entries(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    return len(a) * (len(a[0]) if len(a) else 0)


def _elements(args, kwargs, result):
    return len(result)


class _Serial:
    """Small integers naming live objects, which ids would not do once
    an object is freed and its id reused."""

    def __init__(self):
        self._ids = weakref.WeakKeyDictionary()

    def __call__(self, obj):
        return self._ids.setdefault(obj, len(self._ids))


def _glued_key(serial):
    def describe(args, kwargs, result):
        datum = _arg(args, kwargs, 0, "datum")
        return [serial(datum), int(_arg(args, kwargs, 1, "r")), int(_arg(args, kwargs, 2, "s"))]

    return describe


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, describe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if describe is not None:
                span[4] = describe(args, kwargs, result)
            return result

        return wrapper


def install(recorder):
    """Wrap every public function of the layer modules and the listed methods.

    A function is reachable under every name a module binds it to (for
    example ``intertwiners`` is imported by name into glue, verify and
    dralg), and through module-level dispatch tables, so each binding
    and each table entry is replaced, not only the defining one.
    """
    describe = {
        "linalg.nullspace": _shape,
        "repcat.intertwiners": _unknowns,
        "basecech.smith_normal_form": _entries,
        "groups.enumerate_finite": _elements,
        "glue.glued_space": _glued_key(_Serial()),
    }
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module("catbundle." + layer)
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                name = "%s.%s" % (layer, attr)
                wrappers[obj] = recorder.wrap(name, obj, describe.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "catbundle" or mod_name.startswith("catbundle.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        obj[key] = wrappers[value]
    for layer, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module("catbundle." + layer), cls_name)
        raw = cls.__dict__[attr]
        name = "%s.%s.%s" % (layer, cls_name, attr)
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(recorder.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, recorder.wrap(name, raw))


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    cli = sys.modules["catbundle.cli"]
    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

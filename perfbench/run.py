"""Fresh-process benchmark of the catbundle command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src``
and ``BENCHMARK.json``).  Each workload is a fixed sequence of CLI
calls; a pass runs them once, each in a fresh ``python -m
catbundle.cli`` child, one child at a time (a closed loop with one
client).  Passes repeat while another one still fits in S seconds;
with ``--trace 0`` the rest of the S seconds is filled with further
calls, cycling through the workload, while the next one still fits.

With ``--trace 0`` the end-to-end metrics are reported.  Each is built
from per-call medians, so every sample counts, including those of the
calls that fill the run.  The speed of a shared machine drifts by a
third or more over minutes, so each call is also timed against a fixed
reference task (reference.py) of the workload's kind of work, run in
fresh children just before and after it:

- ``wall_norm``: the pass wall time (interpreter start-up included) in
  units of the reference task's wall time, i.e. the sum over the
  workload's calls of the median of call wall / reference wall;
- ``cpu_norm``: the same for CPU time (user + system, read with
  ``os.wait4``) against the reference task's CPU time;
- ``peak_rss_mb``: the largest per-call median max-RSS;
- ``setup_s``: the median time of a fresh ``import catbundle``.

The raw pass times ``wall_s`` and ``cpu_s`` (sums of per-call medians,
and whole-pass quartiles) are printed and recorded beside them.  With
``--trace 1`` no reference task runs; every untraced pass is followed
by a traced one whose children record spans around catbundle's public
functions (see tracechild.py); per-layer metrics come from those spans,
and the tracing overhead is traced over untraced wall time.

Every report is checked against the expectations of the input
generator; failed calls are counted in ``failed`` out of ``attempted``
(their ratio is fail_frac).  The last line of stdout is the result
object; the line before it is a JSON record with the environment, the
seed, per-pass samples and quartiles, and per-call results.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import check
import inputs
import layers
import runner

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# every run must end within 180 s; stop children that would run past this
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 9
END_TO_END = ("wall_norm", "cpu_norm", "peak_rss_mb", "setup_s")
REFERENCE = os.path.join(HERE, "reference.py")
# the reference task of each workload does the kind of work that takes
# most of its time: fibre-suite's is one large SVD with the full left
# factor, which reacts far less to a busy host than short interpreted
# steps do; the others run many short Python and small numpy steps
REFERENCE_KIND = {"fibre-suite": "dense", "base-chern": "mixed", "glue-classify": "mixed"}
# reference runs take about this share of the wall time of the calls
REF_SHARE = 0.15


class BenchError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    calls: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def failed(self):
        return sum(1 for c in self.calls if c["problems"])


class References:
    """Runs of a reference task (reference.py) between untraced calls.

    Before each call comes a block of runs: at least one, and more until
    they have taken REF_SHARE of the previous call's wall time.  A last
    block follows the last call.  Each call is normalized by the blocks
    on either side of it, so that a change in the machine's speed during
    a run cancels out and a change in catbundle's does not.
    """

    def __init__(self, kind, env, work, deadline):
        self.argv = [sys.executable, REFERENCE, kind]
        self.env, self.work, self.deadline = env, work, deadline
        self.last_call_s = 0.0

    def block(self):
        """[wall_s, cpu_s] of each run in a new block."""
        runs = []
        while not runs or sum(r[0] for r in runs) < REF_SHARE * self.last_call_s:
            child = runner.run_child(self.argv, self.env, ROOT, self.work, self.deadline)
            if child.code != 0:
                raise BenchError("the reference task failed: %s" % child.stderr.decode("utf-8", "replace")[-500:])
            runs.append([child.wall_s, child.cpu_s])
        return runs


def run_pass(calls, env, work, deadline, traced, refs=None):
    """Run the calls in order (any iterable of invocations), each after
    a block of ``refs`` when given."""
    p = Pass()
    spans_path = os.path.join(work, "spans.json")
    for inv in calls:
        cli_args = [inv.command] + [a for name in inv.inputs for a in ("--input", os.path.join(work, name))]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracechild.py"), spans_path] + cli_args
        else:
            argv = [sys.executable, "-m", "catbundle.cli"] + cli_args
        if os.path.exists(spans_path):
            os.remove(spans_path)
        before = refs.block() if refs else None
        child = runner.run_child(argv, env, ROOT, work, deadline)
        report = runner.parse_report(child.stdout)
        problems = check.problems(inv, child.code, report)
        if child.code != 0 and child.stderr:
            problems.append(child.stderr.decode("utf-8", "replace").strip()[-300:])
        p.wall_s += child.wall_s
        p.cpu_s += child.cpu_s
        p.peak_rss_mb = max(p.peak_rss_mb, child.max_rss_mb)
        p.reports.append((inv, child.code, report))
        p.calls.append({
            "call": inv.label,
            "wall_s": child.wall_s,
            "cpu_s": child.cpu_s,
            "max_rss_mb": child.max_rss_mb,
            "problems": problems,
        })
        if refs:
            refs.last_call_s = child.wall_s
            p.calls[-1]["refs_before"] = before
        if traced:
            spans = []
            if os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    spans = json.load(fh)["spans"]
            p.spans.append(spans)
            p.calls[-1]["main_s"] = sum(s[3] - s[2] for s in spans if s[0] == "cli.main" and s[1] < 0)
    return p


def fill_order(calls, passes, until):
    """Yield the calls cyclically while the next one, at its median wall
    time in ``passes`` with the reference runs before it, is expected to
    end before ``until``."""
    for k, inv in itertools.cycle(enumerate(calls)):
        expected = statistics.median(
            c["wall_s"] + sum(r[0] for r in c["refs_before"]) for c in (p.calls[k] for p in passes))
        if time.monotonic() + expected > until:
            return
        yield inv


def measure_setup(env, work, deadline):
    """Seconds for a fresh interpreter to ``import catbundle``: median of several.

    An untimed first import writes bytecode caches and confirms that the
    package comes from this checkout's ``src``.
    """
    where = os.path.join(work, "where.txt")
    probe = "import catbundle, sys; open(sys.argv[1], 'w').write(catbundle.__file__)"
    child = runner.run_child([sys.executable, "-c", probe, where], env, ROOT, work, deadline)
    src = os.path.join(ROOT, "src", "catbundle")
    if child.code != 0 or not os.path.exists(where):
        raise BenchError("cannot import catbundle from %s: %s" % (src, child.stderr.decode("utf-8", "replace")[-500:]))
    with open(where, encoding="utf-8") as fh:
        found = os.path.dirname(os.path.abspath(fh.read()))
    if found != src:
        raise BenchError("catbundle was imported from %s, not %s" % (found, src))
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = runner.run_child([sys.executable, "-c", "import catbundle"], env, ROOT, work, deadline)
        if child.code != 0:
            raise BenchError("import catbundle failed")
        samples.append(child.wall_s)
    return samples


def check_oracle(reports):
    """The oracle must count a call as failed when its expectation is wrong.

    Every recorded report is checked again against a corrupted copy of
    its call's expectation.
    """
    for inv, code, report in reports:
        if not check.problems(check.wrong_expectation(inv), code, report):
            raise BenchError("the oracle accepts a wrong expectation for %s" % inv.label)


def normalize(entries, trailing):
    """Give each call, in the order run, the median wall and CPU time of
    the reference runs in the blocks just before and just after it."""
    for c, after in zip(entries, [e["refs_before"] for e in entries[1:]] + [trailing]):
        runs = c["refs_before"] + after
        c["ref_wall_s"] = statistics.median(r[0] for r in runs)
        c["ref_cpu_s"] = statistics.median(r[1] for r in runs)


def per_call_medians(entries):
    """Each end-to-end figure of one pass, from the median of each call:
    times are summed over the calls, peak RSS is the largest."""
    by_call = {}
    for c in entries:
        by_call.setdefault(c["call"], []).append(c)

    def total(f):
        return sum(statistics.median(f(c) for c in cs) for cs in by_call.values())

    out = {
        "wall_s": total(lambda c: c["wall_s"]),
        "cpu_s": total(lambda c: c["cpu_s"]),
        "peak_rss_mb": max(statistics.median(c["max_rss_mb"] for c in cs) for cs in by_call.values()),
        "samples": {label: len(cs) for label, cs in by_call.items()},
    }
    if all("ref_wall_s" in c for c in entries):
        out["wall_norm"] = total(lambda c: c["wall_s"] / c["ref_wall_s"])
        out["cpu_norm"] = total(lambda c: c["cpu_s"] / c["ref_cpu_s"])
    return out


def summary(values):
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": n}


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def environment(threads, args):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": threads,
        "blas_threads": {"OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if {m["name"] for m in spec["end_to_end"]} != set(END_TO_END):
        raise BenchError("end_to_end metrics in BENCHMARK.json differ from %s" % ", ".join(END_TO_END))
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != layers.PER_LAYER:
        raise BenchError("per_layer metrics in BENCHMARK.json differ from the ones layers.py reports")
    return spec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # turn SIGTERM into SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        spec = load_spec()
        if not os.path.isfile(os.path.join(ROOT, "src", "catbundle", "__init__.py")):
            raise BenchError("no catbundle sources under %s" % os.path.join(ROOT, "src"))
        files, calls = inputs.generate(args.workload, args.seed)
        if inputs.generate(args.workload, args.seed)[0] != files:
            raise BenchError("the input generator is not deterministic")
        threads = runner.blas_threads()
        env = runner.child_env(ROOT, threads)
        record = {"environment": environment(threads, args)}
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
            for name, data in files.items():
                with open(os.path.join(work, name), "wb") as fh:
                    fh.write(data)
            setup = measure_setup(env, work, deadline)
            refs = None if args.trace else References(REFERENCE_KIND[args.workload], env, work, deadline)
            untraced, traced = [], []
            t0 = time.monotonic()
            end = t0 + args.seconds
            while True:
                untraced.append(run_pass(calls, env, work, deadline, traced=False, refs=refs))
                if args.trace:
                    traced.append(run_pass(calls, env, work, deadline, traced=True))
                elapsed = time.monotonic() - t0
                if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
                    break
            check_oracle(untraced[0].reports)
            fill = Pass()
            if refs:
                fill = run_pass(fill_order(calls, untraced, end), env, work, deadline, traced=False, refs=refs)
                normalize([c for p in untraced + [fill] for c in p.calls], refs.block())
    except (BenchError, runner.Deadline, OSError) as exc:
        sys.stderr.write("perfbench: %s\n" % (exc if str(exc) else type(exc).__name__))
        return 2

    estimate = per_call_medians([c for p in untraced + [fill] for c in p.calls])
    figures = {name: estimate[name] for name in ("wall_norm", "cpu_norm", "wall_s", "cpu_s", "peak_rss_mb")
               if name in estimate}
    figures["setup_s"] = statistics.median(setup)
    everything = untraced + traced + [fill]
    attempted = sum(len(p.calls) for p in everything)
    failed = sum(p.failed for p in everything)
    record["end_to_end"] = figures
    record["whole_passes"] = {
        "wall_s": summary([p.wall_s for p in untraced]),
        "cpu_s": summary([p.cpu_s for p in untraced]),
        "peak_rss_mb": summary([p.peak_rss_mb for p in untraced]),
    }
    record["setup_s"] = summary(setup)
    record["fail_frac"] = failed / attempted
    record["samples_per_call"] = estimate["samples"]
    record["passes"] = [{"traced": False, "wall_s": p.wall_s, "calls": p.calls} for p in untraced]
    record["fill"] = fill.calls
    if args.trace:
        per_pass = []
        for p_untraced, p in zip(untraced, traced):
            m = layers.pass_metrics(p.spans)
            m["trace.wall_s"] = p.wall_s
            m["trace.untraced_wall_s"] = p_untraced.wall_s
            m["trace.overhead_ratio"] = p.wall_s / p_untraced.wall_s
            # wall time outside cli.main, per call: interpreter start-up and
            # imports, plus installing the wrappers and writing the spans
            m["trace.startup_per_call_s"] = (p.wall_s - m["cli.main.s"]) / len(p.calls)
            per_pass.append(m)
        per_layer = {name: statistics.median(m[name] for m in per_pass) for name in layers.PER_LAYER}
        record["passes"] += [{"traced": True, "wall_s": p.wall_s, "calls": p.calls} for p in traced]
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in layers.PER_LAYER.items()}
    else:
        metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(wall_s="s", cpu_s="s")
    for name, value in figures.items():
        print("%-48s %14.6g %s" % (name, value, units[name]))
    for name, s in record["whole_passes"].items():
        print("%-48s %14.6g %-5s [q1 %.6g, q3 %.6g, n %d]"
              % ("whole passes: " + name, s["median"], units[name], s["q1"], s["q3"], s["n"]))
    print("%-48s %14.6g %s" % ("fail_frac", failed / attempted, "ratio"))
    if args.trace:
        for name, m in metrics.items():
            print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

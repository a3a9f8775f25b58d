"""Fresh-process runner: one child at a time, timed and measured by the parent.

Wall time is taken with ``perf_counter`` around spawn and reap, so it
includes interpreter start-up, which is what a command-line user pays.
CPU time (user + system) and peak resident memory come from the child's
own resource usage, read with ``os.wait4`` when the child is reaped.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import time
from dataclasses import dataclass


def blas_threads():
    """One BLAS thread per CPU this process may run on (``nproc``)."""
    return len(os.sched_getaffinity(0))


def child_env(root, threads):
    """The environment of every child: the checkout's sources, pinned BLAS threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["OMP_NUM_THREADS"] = str(threads)
    return env


class Deadline(Exception):
    """The run's time limit passed while a child was still running."""


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    stdout: bytes
    stderr: bytes


def _alarm(signum, frame):
    raise Deadline()


def run_child(argv, env, cwd, scratch, deadline):
    """Run ``argv`` to completion and measure it.

    Output goes to files in ``scratch`` rather than pipes, so a large
    report can never block the child.  ``deadline`` is a ``monotonic``
    time; the child is killed and reaped if it is still running then.
    """
    out_path = os.path.join(scratch, "child.out")
    err_path = os.path.join(scratch, "child.err")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline()
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        # ru_maxrss is in KiB on Linux
        max_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )


def parse_report(stdout):
    try:
        return json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None

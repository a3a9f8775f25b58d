"""Reference tasks: fixed work that does not touch catbundle.

The benchmark runs one in a fresh child between the CLI calls, as a
measure of how fast the machine is at that moment for the kind of work
the workload does.  Inputs are fixed, so any change in a reference
task's time is a change in the machine.

- ``mixed``: like a short CLI call, it starts an interpreter, imports
  numpy, runs small dense SVDs on the pinned BLAS threads and then
  pure-Python integer arithmetic.
- ``dense``: like the u(d) intertwiner solves, one SVD of a tall matrix
  with the full left factor, which streams a large array through memory.

Run: python3 perfbench/reference.py mixed|dense
"""

import sys

import numpy as np


def mixed():
    a = np.random.default_rng(0).standard_normal((400, 400))
    for _ in range(3):
        np.linalg.svd(a)
    s = 0
    for i in range(1500000):
        s += i


def dense():
    a = np.random.default_rng(0).standard_normal((3000, 300))
    np.linalg.svd(a, full_matrices=True)


KINDS = {"mixed": mixed, "dense": dense}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in KINDS:
        sys.exit("usage: reference.py %s" % "|".join(KINDS))
    KINDS[sys.argv[1]]()

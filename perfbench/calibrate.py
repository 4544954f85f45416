"""A fixed reference task that measures how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts by a quarter or more
over minutes, as neighbours come and go; the drift slows the program's own
CPU time as much as its wall time, so it is contention for the hardware, not
lost scheduling.  Each sample therefore times this task just before and just
after its timed region, and ``run.py`` scales the sample's times by
``REFERENCE_S`` over the task's time, so that a sample taken while the host
runs slowly reads about the same as one taken while it runs fast.

The task never changes and never touches the program, so a change to the
program moves the scaled times exactly as it moves the raw ones.  It mixes
the two kinds of work the experiments do, in about equal time: interpreted
loops over reduced words held as tuples (the ``free_group`` and
``subgraphs`` style), and numpy draws and reductions over arrays the size of
a ball of radius 8 (the ``fields`` style).
"""

from __future__ import annotations

import time

import numpy as np

# Seconds the task takes on the host the benchmark was written on (Intel Xeon,
# 2 vCPUs, Python 3.11, numpy 2.4), at a quiet moment.  Scaled times are in
# seconds of that host.
REFERENCE_S = 0.2

_LETTERS = (1, -1, 2, -2)
_SITES = 13_121  # |E_8| for d = 2


def _reduce(a: tuple, b: tuple) -> tuple:
    """Free reduction of the concatenation a.b."""
    i, j = len(a), 0
    while i > 0 and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _interpreted() -> int:
    words = [()]
    for _ in range(6):
        words = [w + (g,) for w in words for g in _LETTERS if not (w and w[-1] == -g)]
    buckets = [0] * 1024
    for u in words[:600]:
        for v in words[:200]:
            buckets[hash(_reduce(u, v)) & 1023] += 1
    return max(buckets)


def _vectorised() -> float:
    rng = np.random.default_rng(20160811)
    acc = 0.0
    for _ in range(25):
        x = rng.standard_cauchy((8, _SITES))
        acc += float(np.abs(x).max(axis=1).sum() > 0)
        acc += float(np.sort(x[:2], axis=1)[:, -1].sum() > 0)
    return acc


def task_s() -> float:
    """Wall time of one run of the reference task."""
    t0 = time.perf_counter()
    _interpreted()
    _vectorised()
    return time.perf_counter() - t0

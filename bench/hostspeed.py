"""Host speed reference: a fixed computation that runs no ``mapnav`` code.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass over the same rollouts can take 1.5 to 1.9 times as long for
minutes at a time, while other tenants load the host. Timing this reference
next to each unit gives the host's speed at that time, and the benchmark
reports the program's times scaled by ``NOMINAL_MS / reference time``: the
times the program would take on a host where the reference takes
``NOMINAL_MS``. The reference is element-wise passes over a 0.5 MB array and
gathers from a 2 MB one. Of the references tried (a pure-Python Dijkstra,
small numpy calls, and their geometric means with this one), it followed
the workloads' slow-downs best. A change to ``mapnav`` does not
change the reference, so it shows in full. The reference allocates no
object that the garbage collector tracks, so it does not move the program's
collections (train's peak RSS depends on when they run).
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_MS = 4.0       # the reference's time on a quiet 2-vCPU Xeon host
REPEATS = 3

_rng = np.random.default_rng(0)
_FIELD = _rng.random((256, 256))
_BIG = _rng.random(1 << 18)
_IDX = _rng.integers(0, 1 << 18, 1 << 15)


def _once() -> float:
    t0 = perf_counter()
    x = _FIELD
    for _ in range(20):
        x = np.minimum(x * 1.0001, 1.0) + _FIELD[::-1]
    for _ in range(4):
        _BIG[_IDX].sum()
    return perf_counter() - t0


def reference_ms() -> float:
    """The reference's median time over a few runs, in ms."""
    return 1000.0 * statistics.median(_once() for _ in range(REPEATS))

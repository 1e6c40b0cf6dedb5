"""The usable-CPU count, which sizes the eval pool and decides whether
training runs its second batch shard in a worker process."""
from __future__ import annotations

import os


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1

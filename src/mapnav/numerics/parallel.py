"""The usable-CPU count, and the blocks of images that the conv ops run
their per-image work in, one thread per usable CPU.

numpy's GEMMs and copies release the GIL, so contiguous blocks of a batch's
images run side by side. The calling thread runs the first block itself;
the others go to a pool of threads built on first use. A child made by
``fork`` holds no live copy of its parent's threads, so it forgets the pool
and builds its own.
"""
from __future__ import annotations

import os
import threading


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_LOCK = threading.Lock()
_POOL = None


def _forget_pool():
    global _LOCK, _POOL
    _LOCK, _POOL = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pool(workers: int):
    """The thread pool, built on first use. Its module is imported here, so
    that a process whose convs never split does not load it."""
    from concurrent.futures import ThreadPoolExecutor
    global _POOL
    with _LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(workers, thread_name_prefix="mapnav-images")
        return _POOL


# Multiply-adds per image below which its numpy calls are too short to pay
# for handing the GIL between threads. Timed forward and backward on the 60
# conv shapes of a default and a small-config train step (B=8, 2 CPUs, 1
# BLAS thread): two blocks were slower on 40 of the 45 shapes below 1.6M,
# by up to 2.3x, and faster on 14 of the 15 from 2.07M, even on the other.
# The smallest of those, the map encoder's first conv at 2,073,600 (8,3,48,48)
# -> 32 with pool 2, took 29.0 ms inline and 20.9 ms in two blocks (medians
# of 10 alternating pairs, two blocks faster in all 10).
MIN_IMAGE_MACS = 2_000_000


def over_images(n_images: int, block, image_macs: int) -> list:
    """``[block(lo, hi) for each block]`` over contiguous blocks of
    ``range(n_images)``, in order, one per usable CPU and at most one per
    image, the first ones one image larger when the count does not divide.
    ``image_macs`` is the multiply-adds ``block`` does per image; below
    ``MIN_IMAGE_MACS`` all images are one block. The calling thread runs the
    first block; with one block it starts no thread. All blocks have
    finished when this returns or raises."""
    cpus = usable_cpus() if n_images > 1 and image_macs >= MIN_IMAGE_MACS else 1
    parts = min(n_images, cpus)
    if parts <= 1:
        return [block(0, n_images)]
    bounds = [-(-n_images * k // parts) for k in range(parts + 1)]
    pool = _pool(cpus - 1)
    futures = [pool.submit(block, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        first = block(bounds[0], bounds[1])
    finally:
        for f in futures:
            f.exception()  # waits for it to finish, raising nothing
    return [first] + [f.result() for f in futures]

"""Processes on this machine's CPUs.

:class:`Helper` runs a message handler in one persistent forked process;
there are two, each made by its owner on first use: training's shard
worker, which runs the second batch shard (:mod:`mapnav.train_eval.shards`),
and the map helper, which runs every other item of each
:func:`ordered_map` call. That map is how ``build_dataset`` builds its
episodes' records, ``generate_splits`` its floorplans' episodes and
``evaluate_navigation`` its rollouts: two processes, whatever
:func:`usable_cpus` reads above one.

A helper's lifecycle, the same for both:
- it forks when it is made and serves its handler over a pipe: the handler
  answers each message with any number of replies;
- it ignores SIGINT and exits on EOF of its pipe;
- :meth:`Helper.close` closes the pipe and reaps the process within
  ``REAP_TIMEOUT_S``, after which it is killed;
- a helper that died raises WorkerError, with its exit status, at the next
  send or receive and is closed; its owner then makes another;
- a child forked from this process, by a helper or anyone else, closes
  every helper's pipe end and shared files and uses none of them (one
  ``register_at_fork`` hook), so that each helper sees EOF as soon as its
  owner closes it;
- every helper still open is closed at exit (one ``atexit`` hook).

With one usable CPU, inside a daemonic process, or without ``fork``, the
handler runs in this process instead: a message is handled as it is sent,
and its replies are kept for :meth:`Helper.recv`. The forked process is
forked, not spawned: a spawned one takes 0.2-0.3 s to import ``mapnav``
and imports the calling script's main module again, and the processes that
make helpers run no threads. A forked helper inherits this process's
environment, its BLAS thread count among it.
"""
from __future__ import annotations

import atexit
import collections
import os
import signal
import time

from ..errors import WorkerError

REAP_TIMEOUT_S = 10.0   # after this long a closed helper that has not exited is killed

_OPEN: list = []   # the forked helpers of this process that are not closed
_HELPER = None     # the map helper


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def forks() -> bool:
    """Whether a helper made now runs in a forked process: with two or more
    usable CPUs, outside a daemonic process, where ``fork`` exists."""
    import multiprocessing
    return (usable_cpus() >= 2 and hasattr(os, "fork")
            and not multiprocessing.current_process().daemon)


class Helper:
    """``start()`` builds a handler ``handle(message, reply)`` that answers
    a message by calling ``reply`` any number of times. With ``fork`` the
    handler is built and run in a forked process (see the module
    docstring), else in this one. ``fds`` are files shared with the forked
    process, such as a memfd it maps; the helper closes them with its pipe."""

    def __init__(self, name: str, start, fork: bool, fds=()):
        self.name = name
        self.forked = fork
        self.fds = list(fds)
        self.closed = False
        self.pid = None
        if not fork:
            self.handle, self.replies = start(), collections.deque()
            return
        from multiprocessing import Pipe
        self.conn, theirs = Pipe()
        try:
            self.pid = os.fork()
        except OSError as e:
            for end in (self.conn, theirs):
                end.close()
            for fd in self.fds:
                os.close(fd)
            raise WorkerError(f"could not fork the {name}: {e}") from e
        if self.pid == 0:
            code = 1
            try:
                self.conn.close()
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                _serve(theirs, start())
                code = 0
            finally:
                os._exit(code)
        theirs.close()
        _OPEN.append(self)

    def send(self, message):
        if not self.forked:
            self.handle(message, self.replies.append)
            return
        try:
            self.conn.send(message)
        except OSError:
            self._died()

    def recv(self):
        """The next reply, waiting for it."""
        if not self.forked:
            return self.replies.popleft()
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            self._died()

    def poll(self) -> bool:
        """Whether a reply can be received without waiting for the handler."""
        return self.conn.poll() if self.forked else bool(self.replies)

    def _died(self):
        status = self.close()
        raise WorkerError(f"the {self.name} (pid {self.pid}) died with exit status {status}"
                          + (f" (signal {-status})" if status is not None and status < 0 else ""))

    def close(self):
        """Close the pipe, so that the forked process exits, and reap it;
        its exit status, or None if it runs in this process, was closed
        before or was reaped elsewhere."""
        if self.closed:
            return None
        self.closed = True
        if not self.forked:
            self.replies.clear()
            return None
        _OPEN.remove(self)
        self._close_files()
        deadline = time.monotonic() + REAP_TIMEOUT_S
        try:
            while True:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
                if pid:
                    return os.waitstatus_to_exitcode(status)
                if time.monotonic() > deadline:
                    os.kill(self.pid, signal.SIGKILL)
                    return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
                time.sleep(0.005)
        except ChildProcessError:
            return None

    def _close_files(self):
        self.conn.close()
        for fd in self.fds:
            os.close(fd)


def _serve(conn, handle):
    """The forked process's loop: handle each message, until EOF."""
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        handle(message, conn.send)


def close_all():
    """Close every forked helper of this process, oldest first."""
    while _OPEN:
        _OPEN[0].close()


def _forget():
    """In a forked child: the parent's helpers are not the child's to use
    or reap, and their pipe ends here would keep them from seeing EOF."""
    for helper in _OPEN:
        helper.closed = True
        helper._close_files()
    _OPEN.clear()



def ordered_map(fn, shared, items) -> list:
    """``[fn(shared, x) for x in items]``, on two processes where the map
    helper forks. Of n >= 2 items, the even-indexed ones run here and the
    odd-indexed ones in the helper, so that items whose cost trends along
    the list are split evenly. The helper sends each result back as it is
    done; they are read between this process's own items, so that no
    message holds the helper's whole half and the helper does not wait long
    on a full pipe. ``fn`` is a module-level function, sent by name, and
    ``shared`` is sent once per call; ``fn`` must not call this map. An
    exception that ``fn`` raises on an item of the helper's half is raised
    here."""
    items = list(items)
    n = len(items) // 2   # the helper's items, the odd-indexed ones
    ours, theirs = [], []
    helper = _map_helper() if n else None
    try:
        if helper is not None:
            helper.send((fn, shared, items[1::2]))
        for x in items[0::2]:
            ours.append(fn(shared, x))
            while len(theirs) < n and helper.poll():
                theirs.append(_take(helper))
        while len(theirs) < n:
            theirs.append(_take(helper))
    except BaseException:
        if helper is not None:
            helper.close()   # its replies to this call may still be coming
        raise
    out = ours + theirs
    out[0::2], out[1::2] = ours, theirs
    return out


def _map_items(message, reply):
    """The map helper's handler: one reply per item, (result, None), up to
    the first item that raises, whose reply is (None, error)."""
    fn, shared, items = message
    for x in items:
        try:
            result = fn(shared, x)
        except Exception as e:  # the caller raises it
            reply((None, e))
            return
        reply((result, None))


def _take(helper):
    result, error = helper.recv()
    if error is not None:
        raise error
    return result


def _map_helper() -> Helper:
    """The map helper, made on first use and again when it was closed or
    the path changed."""
    global _HELPER
    fork = forks()
    if _HELPER is None or _HELPER.closed or _HELPER.forked != fork:
        if _HELPER is not None:
            _HELPER.close()
        _HELPER = Helper("map helper", lambda: _map_items, fork)
    return _HELPER


os.register_at_fork(after_in_child=_forget)
atexit.register(close_all)

"""One persistent pool of forked worker processes for independent powers.

Set-up, the challenge, the device response and the carrier's match tests
each hand their per-item powers to ``_in_pool``.  The pool is created on
first use with one worker per usable CPU and kept until exit.  Workers are
forked, so any secret in a job reaches only children of the process that
holds it.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import stat
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

__all__ = ["usable_cpus"]

log = logging.getLogger(__name__)


def usable_cpus() -> int:
    """The CPUs this process may run on: the size of the worker pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


# One worker pool per process, created on first use and kept until exit.
_pool: ProcessPoolExecutor | None = None
_pool_pid = 0
_pool_lock = threading.Lock()


def _close_inherited_sockets() -> None:
    """Worker initializer: drop the caller's sockets from the forked copy.

    A worker that kept a copy of a listening or connected socket would hold
    its port or connection open after the caller closed it.  The pool talks
    to its workers over pipes, which stay.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    for name in os.listdir(fd_dir):
        try:
            if stat.S_ISSOCK(os.fstat(int(name)).st_mode):
                os.close(int(name))
        except OSError:  # the listing's own descriptor, closed by now
            pass


def _get_pool() -> ProcessPoolExecutor:
    global _pool, _pool_pid
    with _pool_lock:
        # A forked child inherits the parent's executor but not its threads.
        if _pool is None or _pool_pid != os.getpid():
            # fork, not spawn or forkserver: those re-import the caller's
            # main script in every worker, and a script without a
            # ``__main__`` guard then runs again in each of them.
            _pool = ProcessPoolExecutor(
                max_workers=usable_cpus(),
                mp_context=multiprocessing.get_context("fork"),
                initializer=_close_inherited_sockets)
            _pool_pid = os.getpid()
        return _pool


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    global _pool
    with _pool_lock:
        if _pool is pool:
            _pool = None
    pool.shutdown()


def _in_pool(job, context, items: list) -> list:
    """``job(context, chunk)`` over ``items`` in contiguous chunks, in order.

    Each of up to one pool process per usable CPU gets one chunk, so
    ``context`` is pickled once per worker.  With one CPU or one item the
    job runs in-process.  If a worker died, the pool is dropped, so the next
    call builds a new one, and the job reruns in-process; jobs are pure, so
    the values are the same.  The rebuild is logged with the job's name and
    the worker count only: contexts and items may hold secrets.
    """
    chunks = min(usable_cpus(), len(items))
    if chunks <= 1:
        return job(context, items)
    pool = _get_pool()
    bounds = [len(items) * k // chunks for k in range(chunks + 1)]
    try:
        futures = [pool.submit(job, context, items[lo:hi])
                   for lo, hi in zip(bounds, bounds[1:])]
        return [out for future in futures for out in future.result()]
    except BrokenProcessPool:
        log.warning("worker pool of %d processes broke in %s; finishing "
                    "in-process, the next call forks a new pool",
                    pool._max_workers, job.__name__)
        _drop_pool(pool)
        return job(context, items)

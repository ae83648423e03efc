"""An ordered map over chunks on one small, process-wide thread pool.

The two large array passes that pay for threads, the row printer and the
reading of a file's rows in pieces, cut their work into chunks and map a
function over the chunk starts with ordered_map. (Flatten writes a stage's
tiling serially, straight from its few distinct column blocks.) numpy
releases the interpreter lock inside those passes, so threads run chunks
side by side and nothing is pickled. Results come back in the order of the
starts, so the output never depends on how many threads there are.

With one chunk or one CPU the map is a plain map in the calling thread: no
pool is made and concurrent.futures is not imported. The pool is made by
the first map that needs one and kept for the life of the process; a
forked child drops its copy, whose threads did not survive the fork.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from itertools import islice
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")

# Most threads a map runs on, however many CPUs there are: every chunk in
# flight holds its own scratch arrays.
_MAX_WIDTH = 4

_lock = threading.Lock()
_pool = None  # (width, ThreadPoolExecutor) once a map has needed one


def _width() -> int:
    """Threads a map runs on: the CPUs this process may use, at most _MAX_WIDTH."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WIDTH))


def _executor(width: int):
    """The process-wide pool of `width` threads, made on first use.

    A pool of another width is dropped, not shut down: a map still running
    on it keeps it alive, and its threads exit once it is collected.
    """
    global _pool
    with _lock:
        if _pool is None or _pool[0] != width:
            from concurrent.futures import ThreadPoolExecutor

            _pool = (width, ThreadPoolExecutor(width, thread_name_prefix="gaptiles-chunks"))
        return _pool[1]


def _forget_pool() -> None:
    """In a forked child: drop the parent's pool, whose threads are gone,
    and the lock, which a parent thread may have held at the fork."""
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def ordered_map(fn: Callable[[int], T], starts: Sequence[int]) -> Iterator[T]:
    """fn(s) for every chunk start s, in the order of starts.

    With one chunk or one CPU this is map(fn, starts), run in the calling
    thread as the results are taken. Otherwise the chunks run on the pool,
    at most its width + 1 at a time, and each result is taken in order: an
    exception from fn, MemoryError included, is raised where its chunk's
    result would have been. Chunks not started by then are cancelled and
    running ones are waited for, as they are when the caller stops taking
    results. fn must not call ordered_map itself.
    """
    width = _width()
    if width == 1 or len(starts) <= 1:
        return map(fn, starts)
    return _threaded(fn, starts, width)


def _threaded(fn: Callable[[int], T], starts: Sequence[int], width: int) -> Iterator[T]:
    """ordered_map on the pool: the next chunk is submitted as each result
    is taken, so width + 1 are submitted ahead of the caller."""
    from concurrent.futures import wait

    pool = _executor(width)
    rest = iter(starts)
    pending = deque(pool.submit(fn, s) for s in islice(rest, width + 1))
    try:
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, s) for s in islice(rest, 1))
            yield result
    finally:
        for future in pending:
            future.cancel()
        wait(pending)

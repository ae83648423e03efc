"""An ordered map over chunks, on a few threads that live for one map.

The read of a file's rows in pieces runs its chunks with ordered_map; it
is the only pass left on threads (the row printer and the gap and window
checks run in the calling thread). numpy releases the interpreter lock
inside the pieces, so threads run them side by side, and results come back
in order, so the output never depends on the thread count. A threaded map
shuts its own pool down as it ends: no thread outlives it. These threads
are the only concurrency in the package; it starts no process."""

from __future__ import annotations

import os
from collections import deque
from itertools import islice
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")

# Most threads a map runs on: every chunk in flight holds its own scratch.
_MAX_WIDTH = 4


def _width() -> int:
    """Threads a map runs on: the CPUs this process may use, at most _MAX_WIDTH."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WIDTH))


def ordered_map(fn: Callable[[int], T], starts: Sequence[int]) -> Iterator[T]:
    """fn(s) for every chunk start s, in the order of starts.

    One chunk or one CPU is map(fn, starts) in the calling thread, with no
    executor imported; otherwise at most width + 1 chunks run ahead of the
    caller. An exception from fn, MemoryError included, is raised where its
    chunk's result would have been; chunks not started by then are cancelled
    and running ones waited for, as when the caller stops taking results.
    """
    width = _width()
    if width == 1 or len(starts) <= 1:
        return map(fn, starts)
    return _threaded(fn, starts, width)


def _threaded(fn: Callable[[int], T], starts: Sequence[int], width: int) -> Iterator[T]:
    from concurrent.futures import ThreadPoolExecutor

    rest = iter(starts)
    with ThreadPoolExecutor(width, thread_name_prefix="gaptiles-chunks") as pool:
        pending = deque(pool.submit(fn, s) for s in islice(rest, width + 1))
        try:
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(fn, s) for s in islice(rest, 1))
                yield result
        finally:
            for future in pending:
                future.cancel()

"""The one thread pool that training and ranking split their table-wide work on.

A pooled step is cut into at most WORKERS parts: the CPUs this process may
use, when BLAS runs one thread (``OPENBLAS_NUM_THREADS``, or if unset
``OMP_NUM_THREADS``, is ``1``). Otherwise WORKERS is 1 and every step runs
on the calling thread, because BLAS's own threads would compete with the
parts. The calling thread runs one part itself, so the pool has WORKERS - 1
threads. It is made by the first step split in parts, and a forked child
makes its own.

No split changes a bit. A part runs whole numpy calls, and a whole matmul
gives the same bits on any thread; a part never runs a share of one
matmul, whose sums BLAS orders by the shape it is given.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

T = TypeVar("T")


def _cpu_workers() -> int:
    """The CPUs this process may use if BLAS runs one thread, else 1."""
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    if blas_threads != "1":
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


WORKERS = _cpu_workers()
_pool: ThreadPoolExecutor | None = None


def executor() -> ThreadPoolExecutor:
    """The pool of WORKERS - 1 threads, made on first use."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=WORKERS - 1, thread_name_prefix="ramkb")
    return _pool


def in_parts(part: Callable[[int], T], n_parts: int) -> list[T]:
    """``[part(0), ..., part(n_parts - 1)]``: part 0 runs on the calling
    thread while the pool runs the others."""
    if n_parts == 1:
        return [part(0)]
    pool = executor()
    futures = [pool.submit(part, i) for i in range(1, n_parts)]
    return [part(0)] + [future.result() for future in futures]


def _forget_pool() -> None:
    """A forked child has none of the pool's threads: its first split makes a new pool."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)

"""The one thread pool that training and ranking split their work on.

Work reaches the pool in one way, :func:`spread`, as jobs: each a pair of
callables that do the same work, one for a pool thread and one for the
calling thread. WORKERS counts the CPUs this process may use when BLAS runs
one thread (``OPENBLAS_NUM_THREADS``, or if unset ``OMP_NUM_THREADS``, is
``1``, as importing :mod:`ramkb` sets it when the user set neither);
otherwise it is 1, because BLAS's own threads would compete with the
pool's. At WORKERS == 1 each job runs on the calling thread as soon as
it is made. Otherwise the calling thread works too, so the pool has
WORKERS - 1 threads. It is made by the first job handed to it, and a forked
child makes its own.

Four steps are spread: the candidate pass of every training batch, one
job per fixed chunk of its stacked kernel rows; a full-negative batch's
entity-table gradient, one product run :func:`beside` the calling thread's
pull-back of the batch's groups; and, as runs of whole blocks cut by
:func:`in_parts`, the ranking walk over the entity table, each part also
rescoring in float64 the candidates its float32 screen cannot decide, and
the lazy Adam step of a slot's touched rows, contiguous or scattered. The
gradient scatter stays on the calling thread: ``np.add.at`` gains little
from a second one: on a 2-vCPU VM, two threads that each scattered a
sampled batch's entity gradient took 1.5 times as long as one thread
scattering one.

No split changes a bit. A job runs whole numpy calls, and a whole matmul
gives the same bits on any thread; a job never runs a share of one matmul,
whose sums BLAS orders by the shape it is given. Where a job's shape is cut
from a larger one, as the candidate pass's chunks are, the cut is fixed,
not set by the CPU count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from typing import Callable, Iterable, Iterator, TypeVar

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


def spread(jobs: Iterable[tuple[Callable[[], T], Callable[[], T]]]) -> Iterator[T]:
    """The result of every job of `jobs`, in job order.

    A job is a pair ``(on_pool, on_caller)`` of callables that do the same
    work, the first on a pool thread, the second on the calling thread. At
    WORKERS == 1 each job runs on the calling thread as soon as it is made
    and is released before the next is made. Otherwise each job is handed
    to the pool as it is made; then the calling thread pulls back, from the
    last job down, every job that no pool thread has started and runs it
    itself. Each result is yielded as soon as it and every result before it
    are in.

    Every job has finished before an exception leaves: no job still writes
    to what the caller goes on to use.
    """
    if WORKERS == 1:
        for job in jobs:
            result = job[1]()
            del job  # what the job holds goes before the next job is made
            yield result
        return
    pool, futures, callers = executor(), [], []
    try:
        for on_pool, on_caller in jobs:
            futures.append(pool.submit(on_pool))
            callers.append(on_caller)
        pulled = {i: callers[i]() for i in reversed(range(len(futures))) if futures[i].cancel()}
        for i, future in enumerate(futures):
            yield pulled.pop(i) if i in pulled else future.result()
    finally:
        wait(futures)


def beside(job: tuple[Callable[[], T], Callable[[], T]], work: Callable[[], None]) -> T:
    """The result of `job`, a pair as :func:`spread` takes, run on the pool
    while the calling thread runs `work()`. At WORKERS == 1 the calling
    thread runs the job first; when no pool thread has started it by the
    time `work()` returns, the calling thread runs it then. Both have
    finished when this returns or raises."""
    def jobs():
        yield job
        work()

    [result] = spread(jobs())  # unpacking runs the generator to its end
    return result


def in_parts(part: Callable[[int], T], n_parts: int) -> list[T]:
    """``[part(0), ..., part(n_parts - 1)]``, the parts spread over the pool
    as jobs (:func:`spread`): the calling thread runs, from the last part
    down, every part no pool thread has started. Every part has finished
    when this returns or raises."""
    if n_parts == 1:
        return [part(0)]
    return list(spread((partial(part, i),) * 2 for i in range(n_parts)))


def _forget_pool() -> None:
    """A forked child has none of the pool's threads: its first split makes a new pool."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)

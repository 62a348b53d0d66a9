"""The one place that decides whether work runs in forked worker processes:
processes, since most library work holds the interpreter lock; forked, since
a spawned worker would import numpy and the library afresh."""
from __future__ import annotations

import os

from .errors import WorkerLostError

_JOBS = ()      # the jobs of the pool being forked, inherited by its workers


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                           # not on every platform
        return os.cpu_count() or 1


def _run(k: int):
    return _JOBS[k]()


def fork_map(jobs, sizes, workers: int):
    """Yield ``jobs[k]()`` in item order, so a caller sees a serial run's
    results and first exception.  With two or more workers (at most one per
    job) and ``os.fork``, the jobs run in forked processes, largest
    ``sizes[k]`` first; they are never pickled, only results and exceptions
    are.  Forking is safe only while no other thread runs.  A dead worker
    raises ``WorkerLostError`` at the first job whose result is missing."""
    global _JOBS
    workers = min(workers, len(jobs))
    if workers < 2 or not hasattr(os, "fork"):
        yield from (job() for job in jobs)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    _JOBS = jobs
    executor = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        futures = {k: executor.submit(_run, k)
                   for k in sorted(range(len(jobs)), key=lambda k: -sizes[k])}
        for k in range(len(jobs)):
            try:
                result = futures[k].result()
            except BrokenProcessPool as exc:
                error = WorkerLostError("a worker process died before "
                                        "returning a result")
                error.index = k
                raise error from exc
            yield result
    finally:        # after an error or an early close, skip the queued jobs
        executor.shutdown(cancel_futures=True)
        _JOBS = ()

"""The one place that decides whether work runs in forked worker processes:
processes, since most library work holds the interpreter lock; forked, since
a spawned worker would import numpy and the library afresh, and jobs are
then inherited rather than pickled.

The calling process is the first worker.  It forks one child per extra
worker; children take jobs from the front of one shared queue, largest
first, and the caller takes them from the back, smallest first.  A child
writes on its own pipe the index of the job it took, then the pickled
``(ok, value)`` of that job.  Between its own jobs and while it waits, the
caller reads one whole message from each pipe that ``select.poll`` finds
ready.  A fork the system refuses leaves fewer workers and the same results.
No thread is started, and a loaded OpenBLAS runs one thread per worker while
the map lasts."""
from __future__ import annotations

import functools
import os
import pickle
import select
import signal
import struct
import tempfile

try:
    import fcntl
except ImportError:                     # no os.fork there either
    fcntl = None

from .errors import WorkerLostError

_WORD = struct.Struct("<q")     # a job index, or the byte count of a result
_CURSORS = struct.Struct("<qq")
# thread-count getter and setter of the OpenBLAS in numpy's wheels, then of a
# plain OpenBLAS
_BLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_",
                  "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"))


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                           # not on every platform
        return os.cpu_count() or 1


@functools.cache
def blas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS this process has
    loaded, found once: its file in ``/proc/self/maps``, its symbols through
    ``ctypes``.  None with any other BLAS, or none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[5].rstrip("\n")
                            for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:                     # no /proc here
        return None
    import ctypes
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get, put in _BLAS_SYMBOLS:
            if hasattr(library, get) and hasattr(library, put):
                return getattr(library, get), getattr(library, put)
    return None


class _Queue:
    """Job indices in ``order``, handed out from both ends.  The two cursors
    live in an unlinked file that forked children share; ``fcntl.lockf``
    guards them, and the kernel releases that lock when its holder dies."""

    def __init__(self, order):
        self.order = order
        self.file = tempfile.TemporaryFile()
        os.pwrite(self.file.fileno(), _CURSORS.pack(0, len(order)), 0)

    def take(self, back: bool):
        """The next index from the front or the back, or None when empty."""
        fd = self.file.fileno()
        fcntl.lockf(fd, fcntl.LOCK_EX)
        try:
            front, end = _CURSORS.unpack(os.pread(fd, _CURSORS.size, 0))
            if front == end:
                return None
            if back:
                end -= 1
                position = end
            else:
                position = front
                front += 1
            os.pwrite(fd, _CURSORS.pack(front, end), 0)
        finally:
            fcntl.lockf(fd, fcntl.LOCK_UN)
        return self.order[position]


def _call(job):
    try:
        return True, job()
    except Exception as exc:        # raised in the caller, in item order
        return False, exc


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(jobs, queue: _Queue, fd: int) -> None:
    """A child's loop: name each job taken, then send its outcome."""
    while (k := queue.take(back=False)) is not None:
        _write(fd, _WORD.pack(k))
        data = pickle.dumps(_call(jobs[k]), pickle.HIGHEST_PROTOCOL)
        _write(fd, _WORD.pack(len(data)) + data)


def _read(fd: int, size: int):
    """Exactly ``size`` bytes from ``fd``, or None if it ends first."""
    data = bytearray(size)
    view = memoryview(data)
    while view and (count := os.readv(fd, [view])):
        view = view[count:]
    return None if view else data


def _lost() -> WorkerLostError:
    return WorkerLostError("a worker process died before returning a result")


def _drain(pipes: dict, done: dict, poller, timeout) -> None:
    """Read one whole message from each pipe ready within ``timeout`` ms: the
    index of the job its child took, or the outcome of the job it holds.  A
    child sends each message in one write, so waiting for the rest of one
    ends with that write.  A pipe that ends, even mid-message, belongs to a
    dead child, and the job it held gets ``WorkerLostError`` as its outcome."""
    for fd, _ in poller.poll(timeout):
        held, word = pipes[fd], _read(fd, _WORD.size)
        if word is not None and held is None:
            pipes[fd] = _WORD.unpack(word)[0]
            continue
        data = None if word is None else _read(fd, *_WORD.unpack(word))
        if data is not None:
            done[held] = pickle.loads(data)
            pipes[fd] = None
            continue
        poller.unregister(fd)
        os.close(fd)
        del pipes[fd]
        if held is not None:
            done[held] = (False, _lost())


def fork_map(jobs, sizes, workers: int):
    """Yield ``jobs[k]()`` in item order, so a caller sees a serial run's
    results and first exception.  With two or more workers (at most one per
    job) and ``os.fork``, the calling process forks one child per extra
    worker and runs jobs too: children take the largest ``sizes[k]`` first,
    the caller the smallest.  Jobs are never pickled, only results and
    exceptions are.  Forking is safe only while no other thread runs.  A
    child that dies holding job h raises ``WorkerLostError`` in the place of
    job h's result, once every result before it is yielded.  A refused fork leaves fewer
    workers; with none left this is a serial run.  From the first fork on, a
    loaded OpenBLAS runs one thread, in the children and here, so workers
    do not contend with each other's BLAS threads.  However the map ends,
    every child is killed and reaped and the caller's BLAS thread count is
    restored before this generator returns."""
    workers = min(workers, len(jobs))
    if workers < 2 or not hasattr(os, "fork"):
        yield from (job() for job in jobs)
        return
    queue = _Queue(sorted(range(len(jobs)), key=lambda k: -sizes[k]))
    pipes, pids, poller = {}, [], select.poll()
    blas, threads = blas_threads(), None
    try:
        if blas:
            threads = blas[0]()
            blas[1](1)
        for _ in range(workers - 1):
            fds = ()
            try:
                fds = read, write = os.pipe()
                pid = os.fork()
            except OSError:     # refused by the system: map on fewer workers
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    _serve(jobs, queue, write)
                    status = 0
                finally:        # never return into the caller's frames
                    os._exit(status)
            os.close(write)
            pids.append(pid)
            pipes[read] = None
            poller.register(read, select.POLLIN)
        if not pids:
            yield from (job() for job in jobs)
            return
        done = {}
        for k in range(len(jobs)):
            while k not in done:
                _drain(pipes, done, poller, 0)
                if k in done:
                    continue
                j = queue.take(back=True)
                if j is not None:
                    done[j] = _call(jobs[j])
                elif pipes:
                    _drain(pipes, done, poller, None)
                else:           # taken by a child that died before naming it
                    raise _lost()
            ok, value = done.pop(k)
            if not ok:
                raise value
            yield value
    finally:        # after an error, an early close or an interrupt too
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for fd in pipes:
            os.close(fd)
        queue.file.close()
        if threads is not None:
            blas[1](threads)

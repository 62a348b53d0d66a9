"""The one place that decides whether work runs in forked worker processes:
processes, since most library work holds the interpreter lock; forked, since
a spawned worker would import numpy and the library afresh, and jobs are
then inherited rather than pickled.

The calling process is the first worker.  It forks one child per extra
worker; children take jobs from the front of one shared queue, largest
first, and the caller takes them from the back, smallest first.  A child
writes on its own pipe the index of the job it took, then the pickled
``(ok, value)`` of that job; the caller reads the pipes between its own jobs
and while it waits.  No thread is started."""
from __future__ import annotations

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
_CHUNK = 1 << 16


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                           # not on every platform
        return os.cpu_count() or 1


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


class _Child:
    """The caller's view of one child: the unread bytes of its pipe and the
    job it holds, if any."""

    def __init__(self):
        self.buffer = bytearray()
        self.held = None

    def parse(self, done: dict) -> None:
        """Move every complete message in the buffer into ``done``."""
        buffer = self.buffer
        while len(buffer) >= _WORD.size:
            (word,) = _WORD.unpack_from(buffer)
            if self.held is None:
                self.held = word
                del buffer[:_WORD.size]
                continue
            end = _WORD.size + word
            if len(buffer) < end:
                return
            done[self.held] = pickle.loads(buffer[_WORD.size:end])
            self.held = None
            del buffer[:end]


def _drain(pipes: dict, done: dict, dead: set, timeout) -> None:
    """Read what the children's pipes hold, waiting up to ``timeout``; a pipe
    at end of file belongs to a child that exited, and the job it still
    held goes into ``dead``."""
    ready, _, _ = select.select(list(pipes), [], [], timeout)
    for fd in ready:
        child = pipes[fd]
        data = os.read(fd, _CHUNK)
        if data:
            child.buffer += data
            child.parse(done)
            continue
        os.close(fd)
        del pipes[fd]
        if child.held is not None:
            dead.add(child.held)


def _lost(k: int) -> WorkerLostError:
    error = WorkerLostError("a worker process died before returning a result")
    error.index = k
    return error


def fork_map(jobs, sizes, workers: int):
    """Yield ``jobs[k]()`` in item order, so a caller sees a serial run's
    results and first exception.  With two or more workers (at most one per
    job) and ``os.fork``, the calling process forks one child per extra
    worker and runs jobs too: children take the largest ``sizes[k]`` first,
    the caller the smallest.  Jobs are never pickled, only results and
    exceptions are.  Forking is safe only while no other thread runs.  A
    child that dies holding job h raises ``WorkerLostError`` with ``index``
    h once every result before it is yielded.  However the map ends, every
    child is killed and reaped before this generator returns."""
    workers = min(workers, len(jobs))
    if workers < 2 or not hasattr(os, "fork"):
        yield from (job() for job in jobs)
        return
    queue = _Queue(sorted(range(len(jobs)), key=lambda k: -sizes[k]))
    pipes, pids = {}, []
    try:
        for _ in range(workers - 1):
            read, write = os.pipe()
            pid = os.fork()
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
            pipes[read] = _Child()
        done, dead = {}, set()
        for k in range(len(jobs)):
            while k not in done:
                if k in dead:
                    raise _lost(k)
                if pipes:
                    _drain(pipes, done, dead, 0)
                    if k in done or k in dead:
                        continue
                j = queue.take(back=True)
                if j is not None:
                    done[j] = _call(jobs[j])
                elif pipes:
                    _drain(pipes, done, dead, None)
                else:           # taken by a child that died before naming it
                    raise _lost(k)
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

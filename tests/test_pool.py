import errno
import os
import resource
import subprocess
import sys
import time
from contextlib import closing
from functools import partial

import numpy  # noqa: F401  (loads the OpenBLAS that the pool pins)
import pytest

from entroflux import pool
from entroflux.errors import NumericalDomainError, WorkerLostError

PARENT = os.getpid()


@pytest.fixture(autouse=True)
def no_child_or_descriptor_left():
    """However a map ends, no child of this process and no file descriptor
    outlives it."""
    descriptors = len(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == descriptors


def _ran(k, child_delay=0.0):
    """``(k, pid)``; a forked child first sleeps ``child_delay``."""
    if os.getpid() != PARENT:
        time.sleep(child_delay)
    return k, os.getpid()


def _paced(k):
    """``(k, pid)`` after 0.05 s."""
    time.sleep(0.05)
    return k, os.getpid()


def _sleep_then(value, delay):
    time.sleep(delay)
    if isinstance(value, BaseException):
        raise value
    return value


SIZES = [3, 0, 7, 7, 1, 5, 0, 2, 9, 4, 4]


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_results_equal_a_serial_run_in_item_order(workers, forks):
    jobs = [partial(_ran, k, 0.2) for k in range(len(SIZES))]
    results = list(pool.fork_map(jobs, SIZES, workers))
    assert [k for k, _ in results] == list(range(len(SIZES)))
    assert forks == [1] * (min(workers, len(SIZES)) - 1)
    # children take the largest jobs first and this process the smallest,
    # so the jobs run here are the tail of that order and the rest its head
    order = sorted(range(len(SIZES)), key=lambda k: -SIZES[k])
    here = [results[k][1] == PARENT for k in order]
    assert here == sorted(here)
    assert here[-1]
    assert len({pid for _, pid in results}) <= workers


def test_one_job_runs_here_whatever_the_worker_count(forks):
    assert list(pool.fork_map([partial(_ran, 0)], [1], 8)) == [(0, PARENT)]
    assert forks == []


def test_every_job_runs_exactly_once_under_contention(tmp_path):
    # more workers than CPUs, all taking from one queue: a lost update of
    # its cursors would run some job twice or never
    log = tmp_path / "ran"

    def logged(k):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, b"%d\n" % k)
        finally:
            os.close(fd)
        return k

    jobs = [partial(logged, k) for k in range(400)]
    assert list(pool.fork_map(jobs, [k % 7 for k in range(400)], 8)) == \
        list(range(400))
    assert sorted(map(int, log.read_text().split())) == list(range(400))


def test_first_exception_in_item_order_even_when_a_later_one_comes_sooner():
    jobs = [partial(_sleep_then, ValueError("first"), 0.1),
            partial(_sleep_then, 1, 0.0),
            partial(_sleep_then, ValueError("later"), 0.0)]
    for workers in (1, 2, 3):
        with pytest.raises(ValueError, match="first"):
            list(pool.fork_map(jobs, [9, 1, 1], workers))


def test_a_domain_error_keeps_its_results_across_the_pipe():
    def fails():
        error = NumericalDomainError(f"in process {os.getpid()}")
        error.results = ("row-a", "row-b")
        raise error

    # this process is slow on the small job, so a child takes the large one
    jobs = [fails, partial(_sleep_then, None, 0.2)]
    with pytest.raises(NumericalDomainError) as caught:
        list(pool.fork_map(jobs, [2, 1], 2))
    assert str(caught.value) != f"in process {PARENT}"
    assert caught.value.results == ("row-a", "row-b")


def test_a_dead_child_is_named_by_the_job_it_held():
    def dies(k):
        if os.getpid() != PARENT:
            os._exit(9)             # as an out-of-memory kill ends a worker
        return k

    # the children take job 3, the largest, and job 4 first: one dies
    # holding job 3 while the other is still busy with job 4
    jobs = [partial(_sleep_then, k, 0.05) for k in range(6)]
    jobs[3], jobs[4] = partial(dies, 3), partial(_sleep_then, 4, 60.0)
    returned, start = [], time.monotonic()
    with pytest.raises(WorkerLostError) as caught:
        for value in pool.fork_map(jobs, [1, 1, 1, 9, 8, 1], 3):
            returned.append(value)
    assert returned == [0, 1, 2]
    # raised without waiting for job 4, whose child is killed
    assert time.monotonic() - start < 30


def test_a_child_dead_before_naming_its_job_is_named_by_the_job(monkeypatch):
    write = pool._write

    def dies_naming_3(fd, data):
        if os.getpid() != PARENT and data == pool._WORD.pack(3):
            os._exit(9)             # after taking job 3, before naming it
        write(fd, data)

    monkeypatch.setattr(pool, "_write", dies_naming_3)
    jobs = [partial(_sleep_then, k, 0.05) for k in range(6)]
    returned = []
    with pytest.raises(WorkerLostError) as caught:
        for value in pool.fork_map(jobs, [1, 1, 1, 9, 1, 1], 2):
            returned.append(value)
    assert returned == [0, 1, 2]


# job 0 is quick; a child that takes any other job is busy for a minute
BUSY = [partial(_ran, 0)] + [partial(_ran, k, 60.0) for k in range(1, 8)]


def test_an_early_close_kills_the_busy_children():
    start = time.monotonic()
    values = pool.fork_map(BUSY, [1] * 8, 3)
    assert next(values)[0] == 0
    values.close()
    assert time.monotonic() - start < 30


def test_an_error_in_the_caller_kills_the_busy_children():
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="caller"):
        with closing(pool.fork_map(BUSY, [1] * 8, 3)) as values:
            for _ in values:
                raise RuntimeError("caller")
    assert time.monotonic() - start < 30


def test_a_result_larger_than_a_pipe_buffer_arrives_intact():
    payload = bytes(range(256)) * 4096          # 1 MiB
    # this process is slow on the small job, so a child takes the large one
    jobs = [lambda: (os.getpid(), payload), partial(_sleep_then, None, 0.2)]
    (pid, received), _ = pool.fork_map(jobs, [2, 1], 2)
    assert pid != PARENT and received == payload


def test_a_pooled_run_starts_no_thread_and_imports_no_process_pool():
    code = ("import os, sys, threading; from entroflux import pool; "
            "assert list(pool.fork_map([os.getpid] * 4, [1] * 4, 2)); "
            "print(sorted({'multiprocessing', 'concurrent.futures'} "
            "& set(sys.modules)), threading.active_count())")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[] 1\n"


@pytest.mark.parametrize("name", ["pipe", "fork"])
@pytest.mark.parametrize("started", [0, 1])
def test_a_refused_fork_leaves_fewer_workers_and_the_same_results(
        monkeypatch, name, started):
    exact, calls = getattr(os, name), []

    def refused_after_started():
        calls.append(name)
        if len(calls) > started:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return exact()

    monkeypatch.setattr(os, name, refused_after_started)
    jobs = [partial(_ran, k) for k in range(len(SIZES))]
    results = list(pool.fork_map(jobs, SIZES, 3))
    assert [k for k, _ in results] == list(range(len(SIZES)))
    assert len(calls) == started + 1
    assert len({pid for _, pid in results}) <= started + 1
    if not started:
        assert {pid for _, pid in results} == {PARENT}


def test_pipes_numbered_1024_and_above_are_read():
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if hard != resource.RLIM_INFINITY and hard < 1200:
        pytest.skip(f"the hard limit on open files is {hard}")
    raised = hard if hard != resource.RLIM_INFINITY else max(soft, 2048)
    resource.setrlimit(resource.RLIMIT_NOFILE, (raised, hard))
    held = []
    try:
        held.extend(os.open(os.devnull, os.O_RDONLY) for _ in range(1100))
        # this process is slow on the small job, so the child takes the large
        jobs = [partial(_paced, k) for k in range(4)]
        results = list(pool.fork_map(jobs, [1, 2, 3, 4], 2))
    finally:
        for fd in held:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    assert [k for k, _ in results] == list(range(4))
    assert len({pid for _, pid in results}) == 2


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                  "OMP_NUM_THREADS")


def test_a_forked_job_reads_one_blas_thread_when_none_is_pinned():
    code = """if True:
        import os, time
        import numpy
        from entroflux import pool
        threads, _ = pool.blas_threads()
        parent = os.getpid()

        def job():
            if os.getpid() == parent:
                time.sleep(0.2)     # so that the child takes a job
            return os.getpid() != parent, threads()

        before = threads()
        results = list(pool.fork_map([job] * 4, [1] * 4, 2))
        print(before, threads(), sorted(set(results)))
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    if pool.blas_threads() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    before, after, results = done.stdout.split(" ", 2)
    assert before == after
    # every job reads one thread, and one ran in a child at least
    assert results in ("[(False, 1), (True, 1)]\n", "[(True, 1)]\n")


@pytest.fixture
def blas_at_two():
    """The caller's OpenBLAS set to two threads for the test."""
    if pool.blas_threads() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS")
    threads, set_threads = pool.blas_threads()
    before = threads()
    set_threads(2)
    yield threads
    set_threads(before)


def _threads_in(k, threads):
    return k, threads()


def test_the_caller_keeps_its_blas_threads_after_a_map(blas_at_two):
    jobs = [partial(_threads_in, k, blas_at_two) for k in range(6)]
    assert list(pool.fork_map(jobs, [1] * 6, 2)) == [(k, 1) for k in range(6)]
    assert blas_at_two() == 2


def test_the_caller_keeps_its_blas_threads_after_a_domain_error(blas_at_two):
    jobs = [partial(_sleep_then, NumericalDomainError("breakdown"), 0.05),
            partial(_sleep_then, 1, 0.05)]
    with pytest.raises(NumericalDomainError, match="breakdown"):
        list(pool.fork_map(jobs, [2, 1], 2))
    assert blas_at_two() == 2


def test_the_caller_keeps_its_blas_threads_after_a_dead_child(blas_at_two):
    def dies():
        if os.getpid() != PARENT:
            os._exit(9)
        time.sleep(0.2)             # so that a child takes this job

    with pytest.raises(WorkerLostError):
        list(pool.fork_map([dies, partial(_sleep_then, 1, 0.2)], [2, 1], 2))
    assert blas_at_two() == 2

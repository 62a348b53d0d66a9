import os
import threading

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The thread count that each ``os.fork`` of this process saw, in order."""
    fork, seen = os.fork, []

    def counted_fork():
        seen.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return seen

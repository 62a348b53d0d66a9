import importlib.util
import os
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def forks(monkeypatch):
    """The thread count that each ``os.fork`` of this process saw, in order."""
    fork, seen = os.fork, []

    def counted_fork():
        seen.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return seen


@pytest.fixture(scope="session")
def workload_configs(tmp_path_factory):
    """Config paths of the benchmark workloads at seed 0, by name: the
    committed example, and the dense-quantum and long-chain configs written
    once from ``benchmarks/workloads.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "entroflux_workloads", ROOT / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    root = tmp_path_factory.mktemp("workloads")
    paths = {"example": ROOT / "configs" / "example.yaml"}
    for name in ("dense-quantum", "long-chain"):
        paths[name] = root / f"{name}.yaml"
        paths[name].write_text(workloads.config_text(name, 0))
    return paths

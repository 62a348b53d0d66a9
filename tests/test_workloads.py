"""The benchmark workloads and a few edge configs, end to end through the
command line: exit codes, forks beside no thread, no child left behind, the
text of every float cell, memory flat in the number of times, and the same
bytes in interpreters that differ in hash seed, BLAS threads and CPUs."""
import csv
import json
import os
import subprocess
import sys
import time

import pytest

from entroflux import cli, pool

SUBCOMMANDS = ("functionals", "fcs", "classical", "verify")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                  "OMP_NUM_THREADS")
FLOAT_COLUMNS = {"p", "t", "alpha", "value", "atom", "weight", "residual",
                 "tolerance"}


def test_dense_sweep_and_battery_fork_beside_no_thread(
        workload_configs, forks, monkeypatch, tmp_path, capsys):
    # two workers on any machine, so that both commands fork
    monkeypatch.setattr(pool, "cpu_count", lambda: 2)
    for sub in ("functionals", "verify"):
        before = len(forks)
        assert cli.main([sub, "-c", str(workload_configs["dense-quantum"]),
                         "-o", str(tmp_path / sub)]) == 0
        assert len(forks) > before
        with pytest.raises(ChildProcessError):      # every worker reaped
            os.waitpid(-1, os.WNOHANG)
    assert set(forks) == {1}


# Runs a JSON list of argument lists through cli.main, then prints their exit
# codes and what waitpid finds of a child left behind.  The one-cpu
# interpreter binds itself to one CPU before numpy loads, as taskset would.
RUN = """if True:
    import json, os, sys
    if sys.argv[1] == "one-cpu":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from entroflux import cli
    codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        left = None
    print(json.dumps([codes, left]))
"""
# each interpreter has its own hash seed, so that a table ordered by a set
# of ids differs between them; the first leaves OpenBLAS its default
# thread count
INTERPRETERS = (("unpinned", {"PYTHONHASHSEED": "1"}),
                ("blas-one-thread", {"PYTHONHASHSEED": "2",
                                     "OPENBLAS_NUM_THREADS": "1"}),
                ("one-cpu", {"PYTHONHASHSEED": "3"}))


@pytest.fixture(scope="module")
def runs(workload_configs, tmp_path_factory):
    """For each interpreter: the exit codes of the four subcommands on each
    workload and of ``verify`` on the built-in roster alone, what waitpid
    found of a child left behind, and the bytes of every CSV written, by
    path under the interpreter's output directory."""
    root = tmp_path_factory.mktemp("interpreters")
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    found = {}
    for name, env in INTERPRETERS:
        out = root / name
        argvs = [[sub, "-c", str(path), "-o", str(out / f"{workload}-{sub}")]
                 for workload, path in workload_configs.items()
                 for sub in SUBCOMMANDS]
        argvs.append(["verify", "-o", str(out / "roster-verify")])
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-W", "error::UserWarning", "-c", RUN, name, json.dumps(argvs)],
            capture_output=True, text=True, env={**base, **env})
        assert done.returncode == 0, done.stderr
        codes, left = json.loads(done.stdout.splitlines()[-1])
        found[name] = codes, left, {
            path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*.csv"))}
    return found


def test_every_run_exits_zero_and_leaves_no_child(runs):
    for codes, left, _ in runs.values():
        assert codes == [0] * len(codes) and left is None


def test_tables_are_the_same_bytes_in_every_interpreter(runs):
    first, *others = [tables for _, _, tables in runs.values()]
    for workload in ("example", "dense-quantum", "long-chain"):
        assert f"{workload}-functionals/curves.csv" in first
        assert f"{workload}-verify/checks.csv" in first
    assert "roster-verify/checks.csv" in first
    for other in others:
        assert other.keys() == first.keys()
        assert [path for path in first if other[path] != first[path]] == []


def test_every_float_cell_is_the_g17_text_of_its_double(runs):
    # tables of 256 rows or more are spelled by entroflux.floattext
    for path, data in runs["unpinned"][2].items():
        header, *rows = csv.reader(data.decode().splitlines())
        columns = [i for i, name in enumerate(header) if name in FLOAT_COLUMNS]
        cells = [row[i] for row in rows for i in columns if row[i]]
        assert rows and columns, path
        assert [cell for cell in cells if "%.17g" % float(cell) != cell] == \
            [], path
        if path.endswith("distributions.csv") and \
                not path.startswith("example"):
            assert len(rows) > 10000, (path, len(rows))


# Runs functionals in a child process, then prints the peak resident set of
# that child and of the pool workers it forked, in MiB.  Linux keeps a
# process's peak across exec, so a child of pytest itself would count the
# heap of pytest that it was forked from.
PEAK = """if True:
    import resource, subprocess, sys
    subprocess.run([sys.executable, "-m", "entroflux.cli", "functionals",
                    "-c", sys.argv[1], "-o", sys.argv[2]], check=True)
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


def test_memory_stays_flat_in_the_number_of_times(tmp_path):
    # one dim-128 system over 400 t: a matrix kept per t would hold about
    # 0.25 MiB each
    times = ", ".join(repr(0.5 + 0.01 * k) for k in range(400))
    path = tmp_path / "many-t.yaml"
    path.write_text("systems:\n  - {id: r, kind: random, dim: 128, seed: 1}\n"
                    "sweep:\n  alpha: [0.0, 0.5, 1.0]\n  p: [2, inf]\n"
                    f"  t: [{times}]\n")
    done = subprocess.run([sys.executable, "-c", PEAK, str(path),
                           str(tmp_path / "out")],
                          capture_output=True, text=True, check=True)
    assert float(done.stdout.splitlines()[-1]) < 100, done.stdout


STIFF_JUNCTION = """
systems:
  - id: stiff-junction
    kind: two_reservoir
    left_hamiltonian: [[0, 0], [0, 40]]
    right_hamiltonian: [[0, 0], [0, 25]]
    beta_left: 0.05
    beta_right: 0.1
    coupling: [[0, 0, 0, 2], [0, 0, 2, 0], [0, 2, 0, 0], [2, 0, 0, 0]]
"""
WIDE_QUBIT = """
systems:
  - id: wide-qubit
    kind: quantum
    hamiltonian: [[0, 1.0e4], [1.0e4, 0]]
    reference_state: [[0.75, 0], [0, 0.25]]
"""


@pytest.mark.parametrize("text", [STIFF_JUNCTION, WIDE_QUBIT],
                         ids=["stiff-junction", "wide-qubit"])
def test_a_large_norm_passes_the_battery_within_a_minute(tmp_path, capsys,
                                                         text):
    # the quadrature row spans a bounded phase, so ||H|| = 1e4 takes seconds
    path = tmp_path / "system.yaml"
    path.write_text(text)
    start = time.monotonic()
    assert cli.main(["verify", "-c", str(path),
                     "-o", str(tmp_path / "verify")]) == 0
    assert time.monotonic() - start < 60


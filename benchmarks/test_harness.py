"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks/test_harness.py -q

Run from the root of a checkout; about a minute, most of it in the short
runs of each workload.  They are kept out of ``tests/`` so the library's
own suite does not pay for them.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("benchmarks", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_short_run_emits_every_named_metric(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "0",
                  "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    spec = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "example", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()


@pytest.fixture(scope="module")
def example_fcs(tmp_path_factory):
    """One real ``fcs`` invocation on the example config, with its context."""
    outdir = str(tmp_path_factory.mktemp("fcs"))
    env = dict(run.pinned_env(), PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-m", "entroflux.cli", "fcs", "-c",
                           os.path.join(ROOT, wl.EXAMPLE_CONFIG), "-o", outdir],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    with open(os.path.join(ROOT, wl.EXAMPLE_CONFIG), encoding="utf-8") as handle:
        text = handle.read()
    return (outdir, wl.tri_flags(text), *run.load_reference("example", text))


def _edit(outdir, table, change, tmp_path):
    """Copy ``outdir`` and apply ``change`` to the rows of one table."""
    copy = tmp_path / "edited"
    shutil.copytree(outdir, copy)
    path = copy / f"{table}.csv"
    header, *rows = path.read_text().splitlines()
    rows = [line.split(",") for line in rows]
    change(rows)
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
    return str(copy)


def _shift_curve(rows):
    # an interior alpha of an asymmetric point, so only symmetry or the
    # reference can notice
    row = next(r for r in rows if r[2] == "2" and r[3] == "0.29999999999999999")
    row[4] = repr(float(row[4]) + 1e-6)


def _move_weight(rows):
    group = [r for r in rows if r[0] == "random-8" and r[1] == "1"
             and r[4] == "P"]
    first, last = group[0], group[-1]
    first[3], last[3] = last[3], first[3]


def _drop_curve(rows):
    # every alpha of one (system, p, t) group
    rows[:] = [r for r in rows if not (r[0] == "random-8" and r[2] == "2")]


def _drop_distribution(rows):
    rows[:] = [r for r in rows if not (r[0] == "random-8" and r[1] == "1"
                                       and r[4] == "Q")]


def _drop_from_run_json(directory, table, count):
    """Keep run.json consistent with the edited table, as the program would."""
    path = os.path.join(directory, "run.json")
    with open(path, encoding="utf-8") as handle:
        info = json.load(handle)
    info["rows"][table] = count
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(info, handle)


def test_gate_passes_the_untouched_invocation(example_fcs):
    outdir, tri, shapes, reference = example_fcs
    assert reference is not None
    problems, stats = gate.check_invocation("fcs", 0, outdir, tri, shapes,
                                            reference)
    assert problems == []
    assert stats["csv_identical"] == 3


@pytest.mark.parametrize("table,change", [("curves", _shift_curve),
                                          ("distributions", _move_weight)])
def test_gate_fails_an_edited_table(example_fcs, tmp_path, table, change):
    outdir, tri, shapes, reference = example_fcs
    edited = _edit(outdir, table, change, tmp_path)
    with_reference, _ = gate.check_invocation("fcs", 0, edited, tri, shapes,
                                              reference)
    assert any(p.startswith("reference") for p in with_reference)
    # the invariants alone catch both edits too, for any seed
    without, stats = gate.check_invocation("fcs", 0, edited, tri, None, None)
    assert without and stats["csv_identical"] == 0


@pytest.mark.parametrize("table,change", [("curves", _drop_curve),
                                          ("distributions", _drop_distribution)])
def test_gate_fails_a_missing_group(example_fcs, tmp_path, table, change):
    outdir, tri, shapes, reference = example_fcs
    edited = _edit(outdir, table, change, tmp_path)
    with open(os.path.join(edited, f"{table}.csv"), encoding="utf-8") as handle:
        _drop_from_run_json(edited, table, len(handle.read().splitlines()) - 1)
    with_reference, _ = gate.check_invocation("fcs", 0, edited, tri, shapes,
                                              reference)
    assert any(p.startswith(f"reference: 1 {table} not written")
               for p in with_reference)
    # on any other seed the shape alone catches it
    shape_only, _ = gate.check_invocation("fcs", 0, edited, tri, shapes, None)
    assert [p for p in shape_only if p.startswith("shape")] == shape_only != []


def test_gate_fails_a_failed_check_row_and_a_bad_exit(example_fcs, tmp_path):
    outdir, tri, _, _ = example_fcs

    def fail_first(rows):
        rows[0][4] = "fail"
    edited = _edit(outdir, "checks", fail_first, tmp_path)
    assert gate.check_invocation("fcs", 0, edited, tri, None, None)[0]
    assert gate.check_invocation("fcs", 3, outdir, tri, None, None)[0]


@pytest.mark.parametrize("workload", ["dense-quantum", "long-chain"])
def test_seeded_configs_are_reproducible_and_seed_dependent(workload):
    assert wl.config_text(workload, 5) == wl.config_text(workload, 5)
    first = wl.config_text(workload, 5)
    other = wl.config_text(workload, 6)
    seeds = [[s["seed"] for s in wl.yaml.safe_load(text)["systems"]]
             for text in (first, other)]
    assert seeds[0] != seeds[1]
    sizes = [[(s.get("dim"), s.get("size"), s["tri"])
              for s in wl.yaml.safe_load(text)["systems"]]
             for text in (first, other)]
    assert sizes[0] == sizes[1]

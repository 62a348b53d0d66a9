"""Subcommand runs, all through ``execute``, and their structured output.

Every run emits diff-able CSV tables with a fixed column order and a
``run.json`` manifest (config hash, tool version, wall time).  Floats are
written with 17 significant digits so they re-parse to the identical
double.  Row order is fixed: system as declared, then p ascending with
the infinite index last, then t, then alpha.  Identical configs and
seeds therefore produce byte-identical tables; only the wall time in the
manifest varies.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import classical as cl
from . import fcs as fc
from . import functionals as fn
from . import measures as ms
from . import models as md
from . import pool
from . import quantum as qm
from . import verify as vf
from .config import ExperimentConfig, SystemEntry, default_config
from .errors import NumericalDomainError, WorkerLostError
from .version import __version__

DEFAULT_OUTPUT_DIR = "out"
# smallest quantum dimension whose functionals curves are pooled, set when a
# two-worker pool took 10-14 ms to start and stop, about an n = 8 sweep
POOLED_DIM = 16
# blocks of at least VECTOR_ROWS rows render their float cells through
# floattext, set where a block of two float cells took as long per row either
# way; CHUNK_ROWS rows at a time bound its matrices to a few hundred KiB
VECTOR_ROWS = 256
CHUNK_ROWS = 2048

CURVE_COLUMNS = ("system_id", "p", "t", "alpha", "value")
DISTRIBUTION_COLUMNS = ("system_id", "t", "atom", "weight", "measure")
CHECK_COLUMNS = ("system_id", "check_name", "residual", "tolerance", "status")


def format_float(value: float) -> str:
    return "%.17g" % value          # also "inf", "-inf" and "nan"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format_float(float(value))


@dataclass
class ResultTable:
    """Rows appended in blocks.  A cell may be a 1-D float array: array cells
    vary along the block, scalar cells repeat, and scalars alone are one row."""

    columns: tuple
    blocks: list = field(default_factory=list)     # (cells, row count)

    def append(self, *values) -> None:
        shapes = {v.shape for v in values if isinstance(v, np.ndarray)}
        if (len(values) != len(self.columns) or len(shapes) > 1
                or any(len(shape) != 1 for shape in shapes)):
            raise ValueError(f"row width {len(values)} and array shapes "
                             f"{shapes} do not fit {self.columns}")
        self.blocks.append((values, shapes.pop()[0] if shapes else 1))

    def __len__(self) -> int:
        return sum(n for _, n in self.blocks)

    def _csv_blocks(self):
        """The CSV text in pieces: the header line, then each block's rows
        as one string or a few.  A short block is rendered by one ``%`` over
        all its cells, a long one by ``_vector_rows``: the same text."""
        yield ",".join(self.columns) + "\n"
        for values, count in self.blocks:
            if count >= VECTOR_ROWS:
                for start in range(0, count, CHUNK_ROWS):
                    yield _vector_rows(values, start,
                                       min(count, start + CHUNK_ROWS))
                continue
            row = ",".join("%.17g" if isinstance(v, np.ndarray)
                           else _cell(v).replace("%", "%%") for v in values)
            arrays = [v for v in values if isinstance(v, np.ndarray)]
            cells = np.column_stack(arrays).ravel().tolist() if arrays else ()
            yield (row + "\n") * count % tuple(cells)

    def to_csv(self) -> str:
        return "".join(self._csv_blocks())


def _vector_rows(values, start: int, stop: int) -> str:
    """Rows start..stop of a block: floattext's byte matrices for the array
    cells' slices between constant columns for the rest, kept bytes joined."""
    from . import floattext     # short tables never load it
    rows = stop - start
    text, keep = floattext.g17(np.concatenate(
        [v[start:stop] for v in values if isinstance(v, np.ndarray)]))
    cells = zip(text.reshape(-1, rows, floattext.WIDTH),
                keep.reshape(-1, rows, floattext.WIDTH))
    pieces = []
    for i, value in enumerate(values):
        array = isinstance(value, np.ndarray)
        pieces.append(_constant_columns(
            ("," if i else "") + ("" if array else _cell(value)), rows))
        if array:
            pieces.append(next(cells))
    texts, keeps = zip(*pieces, _constant_columns("\n", rows))
    return np.hstack(texts)[np.hstack(keeps)].tobytes().decode()


def _constant_columns(text: str, rows: int) -> tuple:
    raw = np.frombuffer(text.encode(), np.uint8)
    return (np.broadcast_to(raw, (rows, len(raw))),
            np.broadcast_to(True, (rows, len(raw))))


def _check_rows(table: ResultTable, results) -> None:
    for r in results:
        table.append(r.system_id, r.name, r.residual, r.tolerance, r.status)


def _sorted_grids(cfg: ExperimentConfig):
    return (np.array(sorted(set(cfg.alphas)), dtype=float),
            tuple(sorted(set(cfg.ps))), tuple(sorted(set(cfg.ts))))


# -- subcommand drivers ---------------------------------------------------

@contextmanager
def _on_system(subcommand: str, system_id: str):
    """Re-raise a domain error or a lost worker naming the subcommand and
    the system, as the battery names the row and the system."""
    try:
        yield
    except (NumericalDomainError, WorkerLostError) as exc:
        raise type(exc)(f"{subcommand} on system {system_id}: {exc}") from exc


def _classical_curves(curves: ResultTable, system_id: str, system, times,
                      alphas: np.ndarray) -> None:
    for t in times:
        curves.append(system_id, None, float(t), alphas,
                      cl.classical_functional(system, alphas, t))


def _es_rows(distributions: ResultTable, system_id: str, system,
             times) -> list:
    """ES rows for each t; returns the measures in time order."""
    measures = [cl.es_distribution(system, t) for t in times]
    for t, measure in zip(times, measures):
        distributions.append(system_id, float(t), measure.atoms,
                             measure.weights, "ES")
    return measures


def run_functionals(cfg: ExperimentConfig, workers=None) -> dict:
    """One curve row per (system, p, t, alpha); classical rows have empty p.

    Every (p, t) curve of a quantum system of dimension ``POOLED_DIM`` or
    more is a job of one ``pool.fork_map`` over ``workers`` processes
    (default: one per CPU): this one and a forked child per extra worker,
    the children taking the largest systems first.  Rows keep their order,
    and every value and the first domain error are a serial run's.
    """
    alphas, ps, ts = _sorted_grids(cfg)
    grid = [(p, t) for p in ps for t in ts]
    systems = cfg.build_systems()
    pooled = [system for _, tag, system in systems
              if tag != "classical" and system.dim >= POOLED_DIM]
    for system in pooled:           # fill the memo the workers inherit
        for t in ts:
            system.overlap(t)
    jobs = [partial(fn.functional, system, p, alphas, t)
            for system in pooled for p, t in grid]
    sizes = [system.dim for system in pooled for _ in grid]
    workers = pool.cpu_count() if workers is None else workers
    curves = ResultTable(CURVE_COLUMNS)
    with closing(pool.fork_map(jobs, sizes, workers)) as values:
        for system_id, tag, system in systems:
            with _on_system("functionals", system_id):
                if tag == "classical":
                    _classical_curves(curves, system_id, system,
                                      cfg.classical_times(), alphas)
                    continue
                for p, t in grid:
                    value = next(values) if system.dim >= POOLED_DIM else \
                        fn.functional(system, p, alphas, t)
                    curves.append(system_id, p, t, alphas, value)
    return {"curves": curves}


def run_fcs(cfg: ExperimentConfig) -> dict:
    """Counting and modular measures, their CGF curve, and agreement rows."""
    alphas, _, ts = _sorted_grids(cfg)
    tol = vf.merge_tolerances(cfg.tolerances)
    distributions = ResultTable(DISTRIBUTION_COLUMNS)
    curves = ResultTable(CURVE_COLUMNS)
    checks = ResultTable(CHECK_COLUMNS)
    for system_id, tag, system in cfg.build_systems():
        with _on_system("fcs", system_id):
            if tag == "classical":
                times = cfg.classical_times()
                measures = _es_rows(distributions, system_id, system, times)
                _classical_curves(curves, system_id, system, times, alphas)
                _check_rows(checks, [
                    vf.tri_check("es_symmetry", system_id,
                                 ms.fluctuation_symmetry_residual(measure, t),
                                 system.tri, tol, "tv")
                    for t, measure in zip(times, measures)])
            else:
                for t in ts:
                    counting = fc.fcs_distribution(system, t)
                    modular = fc.modular_spectral_measure(system, t)
                    distributions.append(system_id, t, counting.atoms,
                                         counting.weights, "P")
                    distributions.append(system_id, t, modular.atoms,
                                         modular.weights, "Q")
                    curves.append(system_id, None, t, alphas,
                                  fc.fcs_cgf(counting, alphas, t))
                    _check_rows(checks, [vf.tri_check(
                        "fcs_tv_distance", system_id,
                        ms.total_variation(counting, modular), system.tri,
                        tol, "tv")])
    return {"curves": curves, "distributions": distributions, "checks": checks}


def run_classical(cfg: ExperimentConfig) -> dict:
    """Classical sweep: curves, rate distributions, identity residues."""
    alphas, _, _ = _sorted_grids(cfg)
    tol = vf.merge_tolerances(cfg.tolerances)
    curves = ResultTable(CURVE_COLUMNS)
    distributions = ResultTable(DISTRIBUTION_COLUMNS)
    checks = ResultTable(CHECK_COLUMNS)
    for system_id, _, obj in cfg.build_systems(("classical",)):
        with _on_system("classical", system_id):
            times = cfg.classical_times()
            _classical_curves(curves, system_id, obj, times, alphas)
            _es_rows(distributions, system_id, obj, times)
            fourway = vf.classical_fourway_residual(obj, (-0.5, 0.3, 0.5, 1.2),
                                                    times)
            sym = vf.classical_symmetry_residual(obj, (-1.0, -0.25, 0.25, 2.0),
                                                 times[:1])
            _check_rows(checks, [
                vf.bounded_check("classical_identity_fourway", system_id,
                                 fourway, tol["classical_identity"]),
                vf.tri_check("classical_symmetry", system_id, sym, obj.tri,
                             tol, "symmetry")])
    return {"curves": curves, "distributions": distributions, "checks": checks}


def run_model(cfg: ExperimentConfig) -> str:
    """Human-readable dump of the assembled two-reservoir systems."""
    reservoirs = [(sid, obj)
                  for sid, _, obj in cfg.build_systems(("reservoir",))]
    if not reservoirs:
        reservoirs = [("canonical", md.canonical_model())]
    blocks = []
    for system_id, model in reservoirs:
        lines = [f"system {system_id}"]
        lines.append(f"  dims: {model.dims[0]} x {model.dims[1]} "
                     f"(composite {model.dim})")
        lines.append(f"  beta_left={format_float(model.beta_left)} "
                     f"beta_right={format_float(model.beta_right)}")
        lines.append(f"  tri: {model.tri}")
        lines.append("  hamiltonian:")
        lines.extend("    " + _matrix_row(row) for row in model.hamiltonian)
        lines.append("  reference state eigenvalues: "
                     + " ".join(format_float(v)
                                for v in model.reference_eig().eigenvalues))
        phi_left, phi_right = md.flux_observables(model)
        lines.append("  flux norms: left="
                     + format_float(float(np.linalg.norm(phi_left)))
                     + " right="
                     + format_float(float(np.linalg.norm(phi_right))))
        sigma = qm.entropy_production_observable(model)
        lines.append("  entropy production norm: "
                     + format_float(float(np.linalg.norm(sigma))))
        lines.append("  mean entropy production at t=1: "
                     + format_float(qm.mean_ep_expectation(model, 1.0)))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _matrix_row(row) -> str:
    cells = []
    for z in row:
        z = complex(z)
        if abs(z.imag) < 1e-15:
            cells.append("%.6g" % z.real)
        else:
            cells.append("%.6g%+.6gj" % (z.real, z.imag))
    return "[" + ", ".join(cells) + "]"


# -- verification ---------------------------------------------------------

def _determinism_check() -> list:
    """Byte-identical tables and masked-manifest equality between a one-worker
    run and a run with one worker per CPU, where this process shares the
    pooled curves with a forked child per extra CPU."""
    cfg = default_config()
    pooled = SystemEntry("pooled", "random", {"dim": POOLED_DIM})
    cfg = replace(cfg, systems=cfg.systems + (pooled,), alphas=(0.0, 0.5, 1.0),
                  ps=(2.0, math.inf), ts=(1.0,))
    snapshots = []
    for workers in (1, None):
        tables = run_functionals(cfg, workers)
        with tempfile.TemporaryDirectory() as scratch:
            manifest = write_outputs(scratch, "functionals", tables, cfg, 0.0)
            with open(os.path.join(scratch, "curves.csv"), "rb") as handle:
                data = handle.read()
        manifest = dict(manifest)
        manifest.pop("wall_time_seconds")
        snapshots.append((data, json.dumps(manifest, sort_keys=True)))
    same = snapshots[0] == snapshots[1]
    return [vf.bounded_check("runner_determinism", "runner",
                             0.0 if same else 1.0, 0.5)]


def run_verify(cfg: ExperimentConfig) -> list:
    """Full battery plus runner-level checks; returns the rows."""
    extra = cfg.build_systems() if cfg.from_file else []
    return (vf.run_battery(extra_systems=extra, tolerances=cfg.tolerances)
            + _determinism_check())


def render_check_table(results) -> str:
    name_w = max(len("check"), max((len(r.name) for r in results), default=0))
    sys_w = max(len("system"), max((len(r.system_id) for r in results),
                                   default=0))
    lines = [f"{'check':<{name_w}}  {'system':<{sys_w}}  "
             f"{'residual':>12}  {'tolerance':>12}  status"]
    for r in results:
        lines.append(f"{r.name:<{name_w}}  {r.system_id:<{sys_w}}  "
                     f"{r.residual:>12.3e}  {r.tolerance:>12.3e}  {r.status}")
    total = len(results)
    passed = sum(1 for r in results if r.status == vf.PASS)
    expected = sum(1 for r in results if r.status == vf.XFAIL)
    failed = total - passed - expected
    lines.append(f"summary: {total} checks, {passed} pass, "
                 f"{expected} expected-fail, {failed} fail")
    return "\n".join(lines)


# -- emission -------------------------------------------------------------

def checks_to_table(results) -> ResultTable:
    table = ResultTable(CHECK_COLUMNS)
    _check_rows(table, results)
    return table


def write_outputs(output_dir: str, subcommand: str, tables: dict,
                  cfg: ExperimentConfig, wall_time: float) -> dict:
    """Write non-empty tables as CSV plus the run manifest; returns it."""
    os.makedirs(output_dir, exist_ok=True)
    gate = {"curves": cfg.write_curves,
            "distributions": cfg.write_distributions,
            "checks": cfg.write_checks}
    rows_written = {}
    for name in sorted(tables):
        table = tables[name]
        if table is None or not len(table) or not gate.get(name, True):
            continue
        path = os.path.join(output_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(table._csv_blocks())
        rows_written[name] = len(table)
    manifest = {
        "config_sha256": hashlib.sha256(cfg.source_text.encode()).hexdigest(),
        "rows": rows_written,
        "seed": cfg.seed,
        "subcommand": subcommand,
        "tool_version": __version__,
        "wall_time_seconds": wall_time,
    }
    with open(os.path.join(output_dir, "run.json"), "w", encoding="utf-8",
              newline="\n") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def execute(cfg: ExperimentConfig, subcommand: str, output_dir) -> tuple:
    """Run and time one subcommand; returns ``(report, passed)``, the text for
    stdout and whether the run passed.  A sweep writes its tables and
    ``run.json`` to ``output_dir``, and ``verify`` its checks when given one,
    also the rows run before a domain error or a lost worker it re-raises."""
    if subcommand == "model":
        return run_model(cfg), True
    start = time.monotonic()

    def write(tables: dict):
        if output_dir:
            return write_outputs(output_dir, subcommand, tables, cfg,
                                 time.monotonic() - start)

    if subcommand == "verify":
        try:
            results = run_verify(cfg)
        except (NumericalDomainError, WorkerLostError) as exc:
            write({"checks": checks_to_table(exc.results)})
            raise
        write({"checks": checks_to_table(results)})
        return render_check_table(results) + "\n", vf.suite_passed(results)
    # looked up at call time, so a function patched on the module runs
    drivers = {"functionals": run_functionals, "fcs": run_fcs,
               "classical": run_classical}
    rows = sum(write(drivers[subcommand](cfg))["rows"].values())
    return f"{subcommand}: wrote {rows} rows to {output_dir}\n", True

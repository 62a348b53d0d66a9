"""Correctness gate: decides whether one subcommand invocation failed.

An invocation fails when its exit code is not 0, when any row of its
``checks.csv`` has status ``fail``, when its emitted tables break one of
the invariants below, when it writes fewer or more curves or
distributions than the workload's reference says it must on every seed
(``shape``), or, on the seed the reference was made from, when a curve or
distribution of the reference is missing or its values depart from those
made at the commit that defined the benchmark.

Invariants (they hold for every seed), at the verification battery's own
tolerances, copied here from ``entroflux.verify.DEFAULT_TOLERANCES`` so the
gate does not trust the program it checks:

- ``kawasaki``: every curve vanishes at alpha = 0 and alpha = 1;
- ``symmetry``: e(alpha) = e(1 - alpha) on time-reversal invariant systems;
- ``tv``: each P, Q or ES distribution carries total weight 1;
- ``p_monotone``: functional curves do not increase with p;
- ``cgf``: a counting (P) or ES curve is the log moment generating function
  of the distribution emitted beside it, log sum_k w_k exp(-t alpha a_k).

Byte-identical tables are counted (``csv_identical``), never failed: the
spectral-core work on the roadmap may move the last bits of some values.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from collections import defaultdict

import numpy as np

TOL = {"kawasaki": 1e-10, "symmetry": 1e-10, "tv": 1e-10,
       "p_monotone": 1e-10, "cgf": 1e-10, "reference": 1e-10}
TABLES = ("curves", "distributions", "checks")
# alphas at which a distribution is fingerprinted for the reference
FINGERPRINT_ALPHAS = (-0.5, 0.25, 0.5, 0.75, 1.5)


def _rows(path: str):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return [line.split(",") for line in lines[1:]]


def read_tables(outdir: str) -> dict:
    """Parsed CSV tables plus their sha256 and byte counts."""
    tables = {}
    for name in TABLES:
        path = os.path.join(outdir, f"{name}.csv")
        if not os.path.exists(path):
            continue
        with open(path, "rb") as handle:
            data = handle.read()
        tables[name] = {"rows": _rows(path), "sha256":
                        hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return tables


def _num(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def curve_groups(rows) -> dict:
    """(system_id, p, t) -> (alphas, values) in emitted order."""
    groups = defaultdict(lambda: ([], []))
    for system_id, p, t, alpha, value in rows:
        alphas, values = groups[(system_id, p, t)]
        alphas.append(float(alpha))
        values.append(float(value))
    return {k: (np.array(a), np.array(v)) for k, (a, v) in groups.items()}


def distribution_groups(rows) -> dict:
    """(system_id, t, measure) -> (atoms, weights)."""
    groups = defaultdict(lambda: ([], []))
    for system_id, t, atom, weight, measure in rows:
        atoms, weights = groups[(system_id, t, measure)]
        atoms.append(float(atom))
        weights.append(float(weight))
    return {k: (np.array(a), np.array(w)) for k, (a, w) in groups.items()}


def log_mgf(atoms, weights, t: float, alphas) -> np.ndarray:
    """log sum_k w_k exp(-t alpha a_k) for each alpha, computed stably."""
    live = weights > 0.0
    expo = (np.log(weights[live])[None, :]
            - t * np.asarray(alphas, dtype=float)[:, None] * atoms[live][None, :])
    top = expo.max(axis=1)
    return top + np.log(np.exp(expo - top[:, None]).sum(axis=1))


def fingerprint(dist_groups: dict) -> dict:
    """Per distribution: its log MGF at FINGERPRINT_ALPHAS and its mean."""
    out = {}
    for (system_id, t, measure), (atoms, weights) in dist_groups.items():
        values = log_mgf(atoms, weights, float(t), FINGERPRINT_ALPHAS)
        out["|".join((system_id, t, measure))] = \
            [float(v) for v in values] + [float(np.dot(atoms, weights))]
    return out


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _curve_invariants(curves: dict, tri: dict, problems: list) -> None:
    by_point = defaultdict(list)
    for (system_id, p, t), (alphas, values) in curves.items():
        where = f"curve {system_id} p={p or '-'} t={t}"
        ends = np.isclose(alphas, 0.0, atol=1e-12) | np.isclose(alphas, 1.0, atol=1e-12)
        if ends.any() and np.abs(values[ends]).max() > TOL["kawasaki"]:
            problems.append(f"kawasaki: {where}")
        if tri.get(system_id, False):
            index = {round(a, 9): v for a, v in zip(alphas, values)}
            for a, v in zip(alphas, values):
                mirror = index.get(round(1.0 - a, 9))
                if mirror is not None and abs(v - mirror) > TOL["symmetry"]:
                    problems.append(f"symmetry: {where} alpha={a:g}")
                    break
        if p:
            for a, v in zip(alphas, values):
                by_point[(system_id, t, a)].append((_num(p), v))
    for (system_id, t, a), pairs in by_point.items():
        ordered = [v for _, v in sorted(pairs)]
        if len(ordered) > 1 and np.diff(ordered).max() > TOL["p_monotone"]:
            problems.append(f"p_monotone: {system_id} t={t} alpha={a:g}")


def _distribution_invariants(curves: dict, dists: dict, problems: list) -> None:
    for (system_id, t, measure), (atoms, weights) in dists.items():
        if abs(weights.sum() - 1.0) > TOL["tv"]:
            problems.append(f"tv: {measure} {system_id} t={t}")
        curve = curves.get((system_id, "", t))
        if measure in ("P", "ES") and curve is not None:
            alphas, values = curve
            mgf = log_mgf(atoms, weights, float(t), alphas)
            if not all(_close(m, v, TOL["cgf"]) for m, v in zip(mgf, values)):
                problems.append(f"cgf: {measure} {system_id} t={t}")


def shape(curves: dict, dists: dict) -> dict:
    """Counts that depend on the workload's grids and systems, not its seed."""
    return {"curve_rows": sum(len(alphas) for alphas, _ in curves.values()),
            "curve_groups": len(curves), "distribution_groups": len(dists)}


def keys(curves: dict, dists: dict) -> dict:
    """The curve and distribution keys an invocation wrote, sorted."""
    return {"curves": sorted("|".join(k) for k in curves),
            "distributions": sorted("|".join(k) for k in dists)}


def _against_reference(subcommand: str, curves: dict, dists: dict,
                       reference: dict, problems: list) -> None:
    written = keys(curves, dists)
    for kind, expected in reference["keys"][subcommand].items():
        missing = sorted(set(expected) - set(written[kind]))
        if missing:
            problems.append(f"reference: {len(missing)} {kind} not written, "
                            f"first {missing[0]}")
    for (system_id, p, t), (_, values) in curves.items():
        key = "|".join((system_id, p, t))
        ref = reference["curves"].get(key)
        if ref is None or len(ref) != len(values):
            problems.append(f"reference: curve {key} missing or resized")
        elif not all(_close(v, r, TOL["reference"]) for v, r in zip(values, ref)):
            problems.append(f"reference: curve {key} departs")
    for key, values in fingerprint(dists).items():
        ref = reference["distributions"].get(key)
        if ref is None or not all(_close(v, r, TOL["reference"])
                                  for v, r in zip(values, ref)):
            problems.append(f"reference: distribution {key} departs")


def check_invocation(subcommand: str, rc: int, outdir: str, tri: dict,
                     shapes: dict | None,
                     reference: dict | None) -> tuple[list, dict]:
    """Return (problems, stats) for one invocation; no problems means pass.

    ``shapes`` maps each subcommand to the ``shape`` it must write on any
    seed, or is None for a config without a reference (the warm-up).
    ``reference`` maps "keys", "curves", "distributions" and "sha256" to
    those made at the defining commit, or is None when the seed has none.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    tables = read_tables(outdir)
    try:
        with open(os.path.join(outdir, "run.json"), encoding="utf-8") as handle:
            written = json.load(handle)["rows"]
    except (OSError, ValueError, KeyError):
        written = None
        problems.append("no readable run.json")
    if written is not None and {k: len(t["rows"]) for k, t in tables.items()} != written:
        problems.append(f"tables on disk differ from run.json rows {written}")
    if subcommand == "verify" and "checks" not in tables:
        problems.append("verify wrote no checks.csv")
    checks = tables.get("checks", {"rows": []})["rows"]
    try:
        problems += [f"check {r[1]} on {r[0]}: {r[4]}" for r in checks
                     if r[4] == "fail"]
        curves = curve_groups(tables["curves"]["rows"]) \
            if "curves" in tables else {}
        dists = distribution_groups(tables["distributions"]["rows"]) \
            if "distributions" in tables else {}
    except (ValueError, IndexError) as exc:
        problems.append(f"malformed table: {exc}")
        curves, dists = {}, {}
    _curve_invariants(curves, tri, problems)
    _distribution_invariants(curves, dists, problems)
    if shapes is not None and shape(curves, dists) != shapes[subcommand]:
        problems.append(f"shape: wrote {shape(curves, dists)}, "
                        f"expected {shapes[subcommand]}")
    identical = 0
    if reference is not None:
        _against_reference(subcommand, curves, dists, reference, problems)
        for key, ref in reference["sha256"].items():
            sub, name = key.split("/")
            if sub != subcommand:
                continue
            if name not in tables:
                problems.append(f"reference: {name}.csv not written")
                continue
            identical += tables[name]["sha256"] == ref
    stats = {"rows": sum(len(t["rows"]) for t in tables.values()),
             "bytes": sum(t["bytes"] for t in tables.values()),
             "checks": len(checks), "csv_identical": identical}
    return problems, stats

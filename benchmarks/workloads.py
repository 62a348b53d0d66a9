"""Workload definitions: the YAML config each workload feeds the CLI.

The program only ever sees the YAML text produced here.  A workload seed
changes the values in the systems (their random seeds and the non-integer
times) but never the amount of work: dimensions, chain lengths, grid sizes
and time-reversal flags are fixed per workload, so runs on different seeds
measure the same work.
"""
from __future__ import annotations

import os
import random

import yaml

EXAMPLE_CONFIG = os.path.join("configs", "example.yaml")
SUBCOMMANDS = ("functionals", "fcs", "classical", "verify")
WORKLOADS = ("example", "dense-quantum", "long-chain")

# (id, dim, tri): the O(n^5) counting loop and the SVD sweep grow with dim;
# dim 32 appears with and without time-reversal invariance because the
# battery runs different checks on each.
DENSE_SYSTEMS = (("q16-tri", 16, True), ("q32-tri", 32, True),
                 ("q32-asym", 32, False), ("q64-asym", 64, False))
# (id, size, tri): measure comparisons are O(N^2) in the chain length and
# the telescoping cross-check is O(t) per functional call.
CHAIN_SYSTEMS = (("c250-tri", 250, True), ("c500-asym", 500, False),
                 ("c1200-tri", 1200, True), ("c2000-asym", 2000, False))
CHAIN_TIMES = (1, 2, 4, 8, 16, 32, 64)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def dense_quantum(seed: int) -> dict:
    rng = _rng("dense-quantum", seed)
    systems = [{"id": sid, "kind": "random", "dim": dim, "tri": tri,
                "seed": rng.randrange(2 ** 31)}
               for sid, dim, tri in DENSE_SYSTEMS]
    # random systems have ||H|| = 1, so the last time has ||H|| t >= 10;
    # t = 1 keeps an integer time so `classical` accepts the grid
    times = [1.0, round(rng.uniform(1.5, 3.0), 4),
             round(rng.uniform(10.0, 14.0), 4)]
    return {"systems": systems, "sweep": {"t": times}, "seed": seed}


def long_chain(seed: int) -> dict:
    rng = _rng("long-chain", seed)
    systems = [{"id": sid, "kind": "random_classical", "size": size,
                "tri": tri, "seed": rng.randrange(2 ** 31)}
               for sid, size, tri in CHAIN_SYSTEMS]
    return {"systems": systems, "sweep": {"t": list(CHAIN_TIMES)},
            "seed": seed}


def warmup(seed: int) -> dict:
    """Tiny config that touches every subcommand's code path once; the
    seed is ignored."""
    return {"systems": [
        {"id": "w-q", "kind": "random", "dim": 3, "tri": True, "seed": 1},
        {"id": "w-c", "kind": "random_classical", "size": 5, "tri": True,
         "seed": 1}],
        "sweep": {"alpha": [0.0, 0.5, 1.0], "p": [2, "inf"], "t": [1]}}


def config_text(workload: str, seed: int) -> str:
    """YAML text for a workload; ``example`` is the committed file as is."""
    if workload == "example":
        with open(EXAMPLE_CONFIG, encoding="utf-8") as handle:
            return handle.read()
    build = {"dense-quantum": dense_quantum, "long-chain": long_chain,
             "warmup": warmup}[workload]
    return yaml.safe_dump(build(seed), sort_keys=False)


def tri_flags(text: str) -> dict:
    """Time-reversal invariance of each declared system, read from the YAML.

    Mirrors the program's rules: random kinds carry a ``tri`` flag, inline
    classical weights are TRI when palindromic, and inline quantum or
    reservoir matrices are TRI when every entry is real.
    """
    flags = {}
    for index, entry in enumerate(yaml.safe_load(text)["systems"]):
        kind = entry["kind"]
        sid = entry.get("id", f"{kind}-{index}")
        if kind in ("random", "random_classical"):
            flags[sid] = bool(entry.get("tri", False))
        elif kind == "classical":
            w = [float(x) for x in entry["weights"]]
            flags[sid] = all(abs(a - b) <= 1e-12 for a, b in zip(w, w[::-1]))
        else:
            matrices = [v for k, v in entry.items()
                        if isinstance(v, list) and k != "id"]
            flags[sid] = entry.get("tri", True) is not False and all(
                not isinstance(x, list) or float(x[1]) == 0.0
                for m in matrices for row in m for x in row)
    return flags

"""Write the reference tables the gate compares default-seed runs against.

    python3 benchmarks/make_reference.py

Run from the root of a checkout of the commit that defines the baseline.
For each workload at the default seed it runs every subcommand once, in
the same pinned workload process the benchmark uses, and stores under
``benchmarks/reference/<workload>.json``:

- ``config_sha256``: the config text the reference belongs to;
- ``shape``: per subcommand, the curve rows, curve groups and distribution
  groups it writes, which every seed of the workload must match;
- ``keys``: per subcommand, every curve and distribution key it writes;
- ``curves``: every curve value, keyed "system|p|t", in alpha order;
- ``distributions``: a fingerprint per "system|t|measure" (see
  ``gate.fingerprint``), since full tables would run to megabytes;
- ``sha256``: the digest of every emitted table, keyed "subcommand/table",
  from which runs count byte-identical tables.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def reference_for(proc: run.Workload, work: str, workload: str) -> dict:
    cfg = run.write_config(work, workload, run.DEFAULT_SEED)
    with open(cfg["path"], "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    out = {"config_sha256": digest, "shape": {}, "keys": {}, "curves": {},
           "distributions": {}, "sha256": {}}
    for sub in wl.SUBCOMMANDS:
        outdir = os.path.abspath(os.path.join(work, f"{workload}-{sub}"))
        reply = proc.run([sub, "-c", cfg["path"], "-o", outdir])
        problems, _ = gate.check_invocation(sub, reply["rc"], outdir,
                                            cfg["tri"], None, None)
        if problems:
            raise SystemExit(f"{workload} {sub} fails the gate: {problems[:5]}")
        tables = gate.read_tables(outdir)
        for name, table in tables.items():
            out["sha256"][f"{sub}/{name}"] = table["sha256"]
        curves = gate.curve_groups(tables["curves"]["rows"]) \
            if "curves" in tables else {}
        dists = gate.distribution_groups(tables["distributions"]["rows"]) \
            if "distributions" in tables else {}
        out["shape"][sub] = gate.shape(curves, dists)
        out["keys"][sub] = gate.keys(curves, dists)
        for key, (_, values) in curves.items():
            out["curves"].setdefault("|".join(key), values.tolist())
        out["distributions"].update(gate.fingerprint(dists))
    return out


def main() -> int:
    work = os.path.join(run.WORK_DIR, "reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    proc = run.Workload(os.path.abspath("src"), work)
    try:
        for workload in wl.WORKLOADS:
            reference = reference_for(proc, work, workload)
            target = os.path.join(run.REFERENCE_DIR, f"{workload}.json")
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(reference, handle, sort_keys=True)
                handle.write("\n")
            print(f"wrote {target}: {len(reference['curves'])} curves, "
                  f"{len(reference['distributions'])} distributions")
        proc.finish()
    finally:
        proc.close()
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

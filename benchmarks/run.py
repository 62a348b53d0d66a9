"""entroflux benchmark: end-to-end subcommand times and traced per-layer costs.

    python3 benchmarks/run.py --workload {example,dense-quantum,long-chain}
                              --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The harness writes the workload's
YAML config from the seed, then drives ``entroflux.cli.main`` in one
workload process (``workload.py``) as a closed loop: one subcommand at a
time, each starting only after the previous one has returned and its
outputs have passed the correctness gate (``gate.py``).  Every round runs
``functionals``, ``fcs``, ``classical`` and ``verify``; a subcommand is
repeated within a round until it has run for SLICE_S, so cheap ones get
more samples.  Rounds continue while the next one is predicted to end
within ``--seconds``.

``--trace 0`` reports the end-to-end metrics: the median seconds of each
subcommand, ``setup_s`` (median over SETUPS fresh interpreters that import
entroflux, load the config and build its systems), the workload process's
peak resident set, and the share of invocations that passed the gate.
Each time is scaled by CAL_REF_S over a calibration kernel timed just
before and just after it, which cancels the machine's changes of speed;
the raw medians are printed on the ``samples:`` line.
``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics computed from spans (``tracing.py``): each is the median over a
subcommand's traced invocations, summed over the four subcommands.

The BLAS thread count is pinned to BLAS_THREADS for every process started
here.  The last line of stdout is the result as one JSON object; the lines
before it give the environment and the sample counts and quartiles.
Outputs go to ``.bench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads as wl  # noqa: E402

SRC = os.path.join("src", "entroflux")
WORK_DIR = ".bench_work"
REFERENCE_DIR = os.path.join(HERE, "reference")
DEFAULT_SEED = 0
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUPS = 11
# Seconds the calibration kernel (workload.calibrate) took, as a median, on
# the machine the baseline was measured on; see "Machine speed" in README.md.
CAL_REF_S = 0.0102
SLICE_S = 0.25
REPLY_TIMEOUT_S = 120.0
SETUP_PROBE = """import sys, time
begin = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import entroflux
entroflux.load_config(sys.argv[2]).build_systems()
print(repr(time.perf_counter() - begin))
"""


class BenchError(RuntimeError):
    pass


def pinned_env(tmp: str | None = None) -> dict:
    """The environment for every process started here; ``tmp`` keeps the
    program's temporary files (the determinism check) inside the checkout."""
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    if tmp:
        env["TMPDIR"] = tmp
    return env


class Workload:
    """The workload process and its request/reply pipe."""

    def __init__(self, src: str, cwd: str, spans_path: str | None = None):
        cmd = [sys.executable, os.path.join(HERE, "workload.py"), src]
        if spans_path:
            cmd += ["--trace", spans_path]
        tmp = os.path.abspath(os.path.join(cwd, "tmp"))
        os.makedirs(tmp, exist_ok=True)
        self.proc = subprocess.Popen(cmd, cwd=cwd, env=pinned_env(tmp),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def _request(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError(f"workload process gave no reply to {payload}")
        return json.loads(line)

    def run(self, argv, traced: bool = False, invocation: int = -1) -> dict:
        return self._request({"op": "run", "argv": argv, "trace": traced,
                              "invocation": invocation})

    def calibrate(self) -> float:
        return self._request({"op": "calibrate"})["seconds"]

    def finish(self) -> dict:
        reply = self._request({"op": "finish"})
        self.proc.wait(timeout=30)
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def load_reference(workload: str, text: str):
    """(shapes, reference): the workload's per-subcommand shapes, which hold
    for every seed, and its reference tables if they were made from this
    exact config text, else None.  Both are None without a reference file."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None, None
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return (reference["shape"],
            reference if reference["config_sha256"] == digest else None)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _git_commit() -> str:
    if not os.path.exists(".git"):   # a plain source checkout
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, index, "level")) as lv, \
                    open(os.path.join(base, index, "size")) as sz:
                level, size = lv.read().strip(), sz.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    return {"cpu_model": model, **caches}


def environment(args, process_info: dict) -> dict:
    env = pinned_env()
    return {
        "workload": args.workload, "seed": args.seed,
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        **_cpu(), **process_info, "blas_threads_pinned": BLAS_THREADS,
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
    }


def measure_setups(proc: Workload, text_path: str, count: int) -> list:
    """(seconds, calibration) of ``count`` fresh-interpreter set-ups."""
    src = os.path.abspath("src")
    times = []
    before = proc.calibrate()
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, src, text_path],
                              capture_output=True, text=True, timeout=60,
                              env=pinned_env())
        if done.returncode != 0:
            raise BenchError(f"setup probe failed: {done.stderr.strip()}")
        after = proc.calibrate()
        times.append((float(done.stdout.strip().splitlines()[-1]),
                      (before + after) / 2.0))
        before = after
    return times


class Loop:
    """Closed loop: invoke, gate, record."""

    def __init__(self, proc: Workload, work: str):
        self.proc = proc
        self.work = work
        self.invocations = []   # sub, seconds, traced, cal, stats
        self.failures = []      # one entry per failed invocation

    def invoke(self, sub: str, cfg: dict, traced: bool = False) -> float:
        index = len(self.invocations)
        outdir = os.path.abspath(os.path.join(self.work, f"out-{index}"))
        reply = self.proc.run([sub, "-c", cfg["path"], "-o", outdir],
                              traced, index)
        problems, stats = gate.check_invocation(
            sub, reply["rc"], outdir, cfg["tri"], cfg["shapes"],
            cfg["reference"])
        if problems:
            self.failures.append((sub, cfg["name"], problems[:5],
                                  reply["stderr"][-2000:]))
        shutil.rmtree(outdir, ignore_errors=True)
        self.invocations.append({"sub": sub, "seconds": reply["seconds"],
                                 "traced": traced, "cal": None,
                                 "stats": stats})
        return reply["seconds"]

    def rounds(self, cfg: dict, seconds: float, trace: bool) -> None:
        """Run rounds; each slice gets the mean of the calibrations taken
        just before and just after it."""
        begin = time.perf_counter()
        longest = 0.0
        count = 0
        before = self.proc.calibrate()
        while True:
            traced = trace and count % 2 == 1
            start = time.perf_counter()
            for sub in wl.SUBCOMMANDS:
                first = len(self.invocations)
                spent = 0.0
                while spent < SLICE_S:
                    spent += self.invoke(sub, cfg, traced)
                after = self.proc.calibrate()
                for done in self.invocations[first:]:
                    done["cal"] = (before + after) / 2.0
                before = after
            longest = max(longest, time.perf_counter() - start)
            count += 1
            if count >= (2 if trace else 1) and \
                    time.perf_counter() - begin + longest > seconds:
                return


def _quartiles(values) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "min": values[0], "max": values[-1]}


def end_to_end(loop: Loop, setups: list, peak_rss_kb: float):
    """Times are medians of seconds * CAL_REF_S / calibration, where the
    calibration is the mean of those taken just before and after the sample."""
    raw = {"setup_s": setups}
    for sub in wl.SUBCOMMANDS:
        raw[f"{sub}_s"] = [(i["seconds"], i["cal"]) for i in loop.invocations
                           if i["sub"] == sub and i["cal"] is not None]
    samples = {name: [t * CAL_REF_S / c for t, c in pairs]
               for name, pairs in raw.items()}
    metrics = {name: {"value": statistics.median(v), "unit": "s"}
               for name, v in samples.items()}
    metrics["peak_rss_mb"] = {"value": peak_rss_kb / 1024.0, "unit": "MiB"}
    failed = len(loop.failures)
    metrics["ok_share"] = {"value": 1.0 - failed / len(loop.invocations),
                           "unit": "ratio"}
    detail = {k: _quartiles(v) for k, v in samples.items()}
    for name, pairs in raw.items():
        detail[name]["raw_median"] = statistics.median(t for t, _ in pairs)
        detail[name]["calibration_median"] = statistics.median(c for _, c in pairs)
    return metrics, detail


def _span_tables(spans_path: str):
    """Span arrays from ``spans.npz``, with self seconds and core-hit flags."""
    data = np.load(spans_path)
    names = [str(n) for n in data["names"]]
    inv, name, parent = data["invocation"], data["name"], data["parent"]
    dur = data["end"] - data["start"]
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    own = dur - child
    # core calls whose subtree holds no eigendecomposition count as hits
    eig_below = np.zeros(len(dur), dtype=bool)
    if "quantum.eig" in names:
        for i in np.flatnonzero(name == names.index("quantum.eig")):
            j = parent[i]
            while j >= 0 and not eig_below[j]:
                eig_below[j] = True
                j = parent[j]
    core = names.index("quantum.core") if "quantum.core" in names else -1
    hits = (name == core) & ~eig_below
    return names, inv, name, own, data["x"], data["y"], hits


def per_layer(loop: Loop, spans_path: str) -> dict:
    names, inv, name, own, xs, ys, hits = _span_tables(spans_path)
    width = len(names)
    count = len(loop.invocations)
    key = inv * width + name
    size = count * width

    def table(weights=None):
        return np.bincount(key, weights, minlength=size).reshape(count, width)

    calls, selfs, xsum, ysum = table(), table(own), table(xs), table(ys)
    hit_count = np.bincount(inv[hits], minlength=count)
    col = {n: i for i, n in enumerate(names)}

    def traced_median(sub, per_invocation):
        values = [per_invocation(k) for k, i in enumerate(loop.invocations)
                  if i["sub"] == sub and i["traced"]]
        return statistics.median(values) if values else 0.0

    def summed(per_invocation):
        return sum(traced_median(sub, per_invocation) for sub in wl.SUBCOMMANDS)

    def by_name(matrix, span):
        return (lambda k: float(matrix[k, col[span]])) if span in col \
            else (lambda k: 0.0)

    metrics = {}

    def put(metric, value, unit):
        metrics[metric] = {"value": value, "unit": unit}

    for span in ("quantum.eig", "quantum.core", "quantum.quadrature",
                 "functionals.functional_finite_p", "functionals.functional_inf",
                 "fcs.counting", "fcs.modular", "fcs.cgf", "measures.build",
                 "measures.total_variation", "measures.fs_residual",
                 "classical.functional", "classical.mean_ep",
                 "models.flux_balance", "linalg.eigh", "linalg.eigvalsh",
                 "linalg.svd"):
        put(f"{span}.calls", summed(by_name(calls, span)), "count")
    for span in ("config.load", "models.build", "quantum.eig",
                 "quantum.quadrature", "quantum.mean_ep",
                 "functionals.functional_finite_p", "functionals.functional_inf",
                 "functionals.transfer_variational", "fcs.counting",
                 "fcs.modular", "fcs.cgf", "measures.build",
                 "measures.total_variation", "measures.fs_residual",
                 "classical.functional", "classical.mean_ep",
                 "classical.es_distribution", "classical.identity_routes",
                 "models.flux_balance", "verify.battery", "verify.determinism",
                 "runner.driver", "runner.write"):
        put(f"{span}.self_s", summed(by_name(selfs, span)), "s")
    core_calls = metrics["quantum.core.calls"]["value"]
    core_hits = summed(lambda k: float(hit_count[k]))
    put("quantum.core.hit_ratio", core_hits / core_calls if core_calls else 0.0,
        "ratio")
    put("measures.build.atoms_in", summed(by_name(xsum, "measures.build")), "count")
    put("measures.build.atoms_out", summed(by_name(ysum, "measures.build")), "count")
    kernels = ("linalg.eigh", "linalg.eigvalsh", "linalg.svd")
    put("linalg.n3_sum", sum(summed(by_name(xsum, s)) for s in kernels), "count")
    put("linalg.self_s", sum(summed(by_name(selfs, s)) for s in kernels), "s")
    for stat, metric in (("checks", "verify.checks"), ("rows", "runner.rows"),
                         ("bytes", "runner.bytes_written"),
                         ("csv_identical", "runner.csv_identical")):
        value = summed(lambda k: float(loop.invocations[k]["stats"][stat]))
        put(metric, value, "bytes" if stat == "bytes" else "count")
    overhead = 0.0
    for sub in wl.SUBCOMMANDS:
        for traced, sign in ((True, 1.0), (False, -1.0)):
            times = [i["seconds"] * CAL_REF_S / i["cal"]
                     for i in loop.invocations
                     if i["sub"] == sub and i["traced"] == traced
                     and i["cal"] is not None]
            overhead += sign * statistics.median(times)
    put("trace_overhead_s", overhead, "s")
    return metrics


def write_config(work: str, name: str, seed: int) -> dict:
    """Write a workload's YAML into ``work``; return its path and gate context."""
    text = wl.config_text(name, seed)
    path = os.path.abspath(os.path.join(work, f"{name}.yaml"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    shapes, reference = load_reference(name, text)
    return {"name": name, "path": path, "tri": wl.tri_flags(text),
            "shapes": shapes, "reference": reference}


def bench(args) -> dict:
    work = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg = write_config(work, args.workload, args.seed)
    warm = write_config(work, "warmup", 0)
    spans_path = os.path.abspath(os.path.join(work, "spans.npz")) \
        if args.trace else None
    proc = Workload(os.path.abspath("src"), work, spans_path)
    try:
        setups = [] if args.trace else measure_setups(proc, cfg["path"], SETUPS)
        loop = Loop(proc, work)
        for sub in wl.SUBCOMMANDS:
            loop.invoke(sub, warm)
        loop.rounds(cfg, args.seconds, bool(args.trace))
        info = proc.finish()
    finally:
        proc.close()
    peak = info.pop("peak_rss_kb")
    env = environment(args, info)
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = per_layer(loop, spans_path)
    else:
        metrics, samples = end_to_end(loop, setups, peak)
        print("samples: " + json.dumps(samples, sort_keys=True))
    for sub, name, problems, stderr in loop.failures:
        print(f"FAILED {sub} on {name}: {problems}\n{stderr}", file=sys.stderr)
    result = {"correct": not loop.failures, "attempted": len(loop.invocations),
              "failed": len(loop.failures),
              "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"environment": env, **result}, handle, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")) or \
            not os.path.isfile(wl.EXAMPLE_CONFIG):
        print(f"no entroflux checkout here: {SRC}/cli.py or "
              f"{wl.EXAMPLE_CONFIG} is missing", file=sys.stderr)
        return 2
    try:
        result = bench(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

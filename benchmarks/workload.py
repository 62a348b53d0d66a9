"""The workload process: runs ``entroflux.cli.main`` on request, one at a time.

Started by ``run.py`` with the BLAS thread count pinned in its environment.
It reads one JSON request per line on stdin and answers each with one JSON
line on stdout, so the harness drives a closed loop: the next subcommand
starts only after the previous one has returned and been checked.  Only
the ``main`` call itself is timed.  A ``calibrate`` request times a fixed
kernel instead, and ``finish`` reports the peak resident set and exits.
With ``--trace`` the process can wrap the library's module boundaries for
single invocations and, on ``finish``, writes the recorded spans to a file.

    python3 workload.py SRC_DIR [--trace SPANS_PATH]
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

CAL_REPEATS = 5


def _blas() -> dict:
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        info = {}
    return {"numpy": np.__version__, "blas_name": info.get("name", "unknown"),
            "blas_version": info.get("version", "unknown")}


def calibrate() -> float:
    """Median seconds of a fixed mix of interpreter, numpy, BLAS and LAPACK work.

    The harness divides program times by this figure, taken just before
    and after them, to cancel the shared machine's changes of speed.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 32))
    h = a + a.T
    v = rng.standard_normal(4096)
    z = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    times = []
    for _ in range(CAL_REPEATS):
        begin = time.perf_counter()
        acc = 0.0
        for i in range(10000):
            acc += i * 0.5
        for _ in range(400):
            v = np.roll(v, 1)
            acc += float(v[:64].sum())
        for _ in range(10):
            np.linalg.eigh(h)
            np.linalg.svd(a, compute_uv=False)
            z @ z
        times.append(time.perf_counter() - begin)
    return sorted(times)[len(times) // 2]


def serve(src: str, spans_path: str | None) -> None:
    sys.path.insert(0, src)
    import entroflux.cli
    tracer = None
    if spans_path:
        from tracing import Tracer
        tracer = Tracer()

    def send(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "finish":
            if tracer is not None:
                tracer.save(spans_path)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            send({"peak_rss_kb": usage.ru_maxrss, **_blas()})
            return
        if request["op"] == "calibrate":
            send({"seconds": calibrate()})
            continue
        traced = tracer is not None and request.get("trace", False)
        out, err = io.StringIO(), io.StringIO()
        if traced:
            tracer.install(request["invocation"])
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # looked up on the module each time, so a traced run calls
                # the wrapped entry point
                rc = entroflux.cli.main(request["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # report the crash and keep serving
            rc = -1
            err.write(traceback.format_exc())
        finally:
            seconds = time.perf_counter() - begin
            if traced:
                tracer.uninstall()
        send({"rc": rc, "seconds": seconds, "stdout": out.getvalue(),
              "stderr": err.getvalue()})


if __name__ == "__main__":
    serve(sys.argv[1], sys.argv[3] if sys.argv[2:3] == ["--trace"] else None)

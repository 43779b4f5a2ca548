"""One benchmark pass in a fresh interpreter.

Reads a JSON spec on stdin::

    {"src": "<dir holding cdwork>", "trace": false,
     "invocations": [["ho-figure1", "--out", "..."], ...]}

imports ``cdwork.cli`` from ``src``, optionally instruments it with
``tracer.Tracer``, calls ``cdwork.cli.main(argv)`` for each invocation
and prints one JSON line: wall and CPU time from the first call to the
last return, the process's peak resident memory, the exit codes, the
numeric environment and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def numeric_env() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
    }


def main() -> int:
    spec = json.load(sys.stdin)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import cdwork.cli

    if not os.path.abspath(cdwork.cli.__file__).startswith(src + os.sep):
        print(f"cdwork imported from {cdwork.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    entry = cdwork.cli.main

    codes = []
    sink = io.StringIO()
    cpu0 = _cpu_s()
    start = perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in spec["invocations"]:
            try:
                codes.append(entry(argv))
            except SystemExit as exc:
                codes.append(exc.code if isinstance(exc.code, int) else 2)
            except Exception:
                traceback.print_exc()
                codes.append(None)
    wall = perf_counter() - start
    cpu = _cpu_s() - cpu0
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": codes,
        "env": numeric_env(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

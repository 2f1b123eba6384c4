"""One benchmark pass in a fresh process.

    python3 bench/one_pass.py WORKLOAD SEED TRACE SPAWNED OUT_DIR

run.py starts this from the checkout root with `src` on PYTHONPATH.
SPAWNED is the CLOCK_MONOTONIC reading taken just before the process
was started, so set-up time covers interpreter start, the imports and
one untimed warm-up CLI call.  The pass then runs the workload's CLI
steps through `majorantlab.cli.main`, optionally under the tracer, and
prints one JSON object as its last line of standard output: timings,
peak memory, CPU time, the rows every step wrote and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_info(np) -> dict:
    """BLAS name, version and the thread count OpenBLAS reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def main(argv) -> int:
    name, seed, traced, spawned, out_dir = (
        argv[1], int(argv[2]), argv[3] == "1", float(argv[4]), argv[5])

    import numpy as np

    import majorantlab
    from majorantlab import cli

    src = Path("src").resolve()
    if Path(majorantlab.__file__).resolve().parent.parent != src:
        print(f"majorantlab imported from {majorantlab.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    import tracer
    from workloads import WORKLOADS, read_rows, step_argv

    workload = WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0))
    if cli.main(["thresholds", "--out", os.path.join(out_dir, "warmup")]) != 0:
        print("warm-up call failed", file=sys.stderr)
        return 1
    binds = tracer.bindings(tracer.targets())
    tr = tracer.Tracer() if traced else None
    if tr is not None:
        tr.install()

    steps = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t_first = clock()
    for i, step in enumerate(workload.steps):
        step_dir = os.path.join(out_dir, f"step{i}")
        args = step_argv(step, seed, min(workload.workers[i], nproc), step_dir)
        if tr is not None:
            tr.open_root(step[0])
        t0 = clock()
        try:
            rc = cli.main(args)
            error = None if rc == 0 else f"exit code {rc}"
        except Exception:
            error = traceback.format_exc(limit=4)
        t1 = clock()
        if tr is not None:
            tr.close_root()
        steps.append({"argv": args, "dir": step_dir, "seconds": t1 - t0,
                      "error": error})
    t_last = clock()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tr is not None:
        tr.uninstall()

    all_rows = []
    for s in steps:
        step_dir = s.pop("dir")
        s["rows"] = []
        if s["error"] is None:
            try:
                s["rows"] = read_rows(step_dir, s["argv"][0])
            except (OSError, ValueError) as exc:
                s["error"] = f"unreadable rows: {exc}"
        all_rows.extend(s["rows"])
    wall = t_last - t_first
    result = {
        "setup_s": t_first - spawned,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "patched_left": tracer.unpatched(binds),
        "steps": steps,
        "env": {"nproc": nproc, "python": platform.python_version(),
                "numpy": np.__version__, **blas_info(np)},
    }
    if tr is not None:
        result["layers"] = tr.metrics(wall, all_rows)
        result["max_fft"] = tr.max_fft
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Benchmark of the majorantlab command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/`
of that checkout; without it the benchmark exits with code 2 and prints
no result.  Each pass is a fresh process (bench/one_pass.py) that sets
up, runs the workload's CLI steps once and reports.  Passes repeat until
S seconds have gone, at least three of them (`--trace 0`) or at least one
untraced and one traced pass alternating (`--trace 1`).  Every row every
step writes is checked (workloads.py).  The last line of standard output
is one JSON object: `correct`, `attempted` and `failed` count CLI steps,
and `metrics` holds the end-to-end metrics (`--trace 0`: medians over
passes, peak memory as the maximum) or the per-layer metrics (`--trace 1`:
medians over the traced passes).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, comparable, load_references, step_problems

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
# a run must exit within 180 s; no pass starts that could end past this
RUN_LIMIT_S = 165.0
MIN_UNTRACED_PASSES = 3


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # numpy's OpenBLAS threads the complex mat-vec of the VdC sweep; a
    # second BLAS thread made that step's time vary 0.8-1.8 s between
    # passes on a 2-core machine, so BLAS runs on one thread (<= nproc)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    env.pop("MAJORANTLAB_GRID_CAP", None)
    return env


def run_pass(root, workload, seed, traced, out_dir, env, timeout) -> dict:
    spawned = clock()
    cmd = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed),
           "1" if traced else "0", repr(spawned), str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "crash": f"timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"traced": traced,
                "crash": f"exit {proc.returncode}: " + " | ".join(tail)}
    res = json.loads(lines[-1])
    res["traced"] = traced
    return res


def layer_problems(workload, layers) -> list:
    out = [f"traced {k} = {layers[k]}, expected 0"
           for k in workload.expect_zero if layers[k] != 0]
    out += [f"traced {k} = 0, expected it to fire"
            for k in workload.expect_positive if not layers[k] > 0]
    return out


def check_passes(workload, passes, refs):
    """(attempted, failed, problems): one operation per CLI step per pass."""
    attempted = failed = 0
    problems = []
    first_rows = {}
    for k, p in enumerate(passes):
        n_steps = len(workload.steps)
        attempted += n_steps
        if "crash" in p:
            failed += n_steps
            problems.append(f"pass {k}: {p['crash']}")
            continue
        pass_level = [f"binding left patched: {b}" for b in p["patched_left"]]
        if p["traced"]:
            pass_level += layer_problems(workload, p["layers"])
        for i, step in enumerate(p["steps"]):
            found = [step["error"]] if step["error"] else []
            if not found:
                found = step_problems(workload, i, step["rows"], refs)
                text = comparable(step["rows"])
                if first_rows.setdefault(i, text) != text:
                    found.append("rows differ from the first pass (same seed)")
            if i == n_steps - 1:
                found += pass_level
            if found:
                failed += 1
                problems += [f"pass {k} step {i} ({step['argv'][0]}): {m}"
                             for m in found]
    return attempted, failed, problems


def median_of(passes, key):
    vals = [p[key] for p in passes]
    return statistics.median(vals) if vals else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "majorantlab" / "__init__.py").is_file():
        print(f"no majorantlab sources under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads(BENCHMARK.read_text())
    refs = load_references()
    env = child_env(root)
    out_root = root / ".bench_out" / f"{args.workload}-{os.getpid()}"

    passes = []
    start = clock()
    longest = 0.0
    while True:
        elapsed = clock() - start
        untraced = sum(not p["traced"] for p in passes)
        traced_n = len(passes) - untraced
        enough = (traced_n >= 1 and untraced >= 1 if args.trace
                  else untraced >= MIN_UNTRACED_PASSES)
        if enough and elapsed >= args.seconds:
            break
        if passes and elapsed + longest > RUN_LIMIT_S:
            break
        trace_this = bool(args.trace) and len(passes) % 2 == 1
        t0 = clock()
        p = run_pass(root, args.workload, args.seed, trace_this,
                     out_root / f"pass{len(passes)}", env,
                     timeout=max(RUN_LIMIT_S - elapsed, 1.0))
        longest = max(longest, clock() - t0)
        passes.append(p)
        if "crash" in p:
            break
    shutil.rmtree(out_root, ignore_errors=True)
    try:
        out_root.parent.rmdir()     # only when no other run is using it
    except OSError:
        pass

    attempted, failed, problems = check_passes(workload, passes, refs)
    ok = [p for p in passes if "crash" not in p]
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    if ok:
        print("# env " + json.dumps(ok[0]["env"], sort_keys=True))
    for k, p in enumerate(passes):
        if "crash" not in p:
            print(f"# pass {k} traced={int(p['traced'])} setup_s={p['setup_s']:.4f}"
                  f" wall_s={p['wall_s']:.4f} peak_rss_mb={p['peak_rss_mb']:.1f}")
    p_values = sorted({r["p"] for p in ok for s in p["steps"] for r in s["rows"]
                       if r["experiment"] == "prop2"})
    if p_values:
        print(f"# prop2 resolved p = {p_values}")
    for m in problems[:20]:
        print(f"# FAIL {m}")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {n: statistics.median([p["layers"][n] for p in traced])
                  if traced and n in traced[0]["layers"] else 0.0
                  for n in names}
        values["proc.cpu_s"] = median_of(plain, "cpu_s")
        values["proc.cpu_util"] = (statistics.median(
            [p["cpu_s"] / p["wall_s"] for p in plain]) if plain else 0.0)
        if plain and traced:
            values["trace.overhead_frac"] = (median_of(traced, "wall_s")
                                             / median_of(plain, "wall_s") - 1.0)
        if traced:
            print(f"# largest FFT per layer: {traced[0]['max_fft']}")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "wall_s": median_of(plain, "wall_s"),
            "setup_s": median_of(plain, "setup_s"),
            # a peak is a maximum: with the 2-thread fan-out it depends on
            # whether the two largest grids happen to be live together
            "peak_rss_mb": max((p["peak_rss_mb"] for p in plain), default=0.0),
            "pass_frac": (attempted - failed) / attempted,
        }
    metrics = {n: {"value": float(values[n]), "unit": units[n]} for n in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the benchmark's reference rows and the machine it was sized on.

    python3 bench/record.py

Run from the repository root.  Writes two files next to this script:

* references.json: for each workload step, the rows that do not depend on
  the seed (every `count` row, and the `expsum-decay` rows at xi = 0 and
  1/2), wall time and seed removed.  Later commits must reproduce them
  (workloads.REF_RTOL).  Record them again only when a change to the
  program is meant to move these numbers, and say so in CHANGES.md.
* environment.json: CPU, caches, Python, numpy, BLAS and its threads,
  the git commit, and each workload's largest FFT per layer against the L2 cache.
"""

from __future__ import annotations

import json
import platform
import shutil
import subprocess
from pathlib import Path

from run import HERE, child_env, run_pass
from workloads import REFERENCES, WORKLOADS, reference_rows


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def _cache_bytes(level: int) -> int:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        if int((idx / "level").read_text()) == level and \
                (idx / "type").read_text().strip() in ("Unified", "Data"):
            text = (idx / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
            return int(text.rstrip("KM")) * scale
    return 0


def _git(*args) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main() -> int:
    root = Path.cwd()
    env = child_env(root)
    out = root / ".bench_out" / "record"
    l2 = _cache_bytes(2)
    refs, ffts, machine = {}, {}, None
    for name, w in WORKLOADS.items():
        plain = run_pass(root, name, 0, False, out / name, env, timeout=600)
        traced = run_pass(root, name, 0, True, out / name, env, timeout=600)
        for p in (plain, traced):
            if "crash" in p:
                raise SystemExit(f"{name}: {p['crash']}")
            bad = [s["error"] for s in p["steps"] if s["error"]]
            if bad:
                raise SystemExit(f"{name}: {bad[0]}")
        refs[name] = {str(i): reference_rows(s["rows"])
                      for i, s in enumerate(plain["steps"])
                      if reference_rows(s["rows"])}
        ffts[name] = {layer: {"largest_fft_points": k,
                              "largest_fft_bytes": 16 * k,
                              "fits_l2": 16 * k <= l2}
                      for layer, k in traced["max_fft"].items()}
        machine = plain["env"]
    shutil.rmtree(root / ".bench_out", ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    environment = {
        "cpu_model": _cpu_model(),
        "l2_bytes": l2,
        "l3_bytes": _cache_bytes(3),
        **machine,
        "git_sha": _git("rev-parse", "HEAD"),
        "src_tree": _git("rev-parse", "HEAD:src"),
        "workloads": ffts,
    }
    (HERE / "environment.json").write_text(
        json.dumps(environment, indent=1, sort_keys=True) + "\n")
    print(json.dumps(environment, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

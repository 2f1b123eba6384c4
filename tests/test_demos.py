"""Every demo script runs to the end: each is started in a fresh
interpreter that imports the package under test, and must exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import majorantlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(Path(majorantlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=demo.parent,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout

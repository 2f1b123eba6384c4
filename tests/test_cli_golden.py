"""Golden rows and option surface of the command line.

`cli_golden.json` holds, for each case below, the rows (without
`wall_ms`) and the config echo the subcommand wrote to its JSON-lines
file, and the option strings, choices, defaults and value types every
subparser accepts.  After an intended change of the output, rewrite it with

    PYTHONPATH=src python tests/test_cli_golden.py [CASE ...]

Named cases (say `majorant prop2`) are rewritten with the parser surface
and every other case is kept as it is; with no name every case is.  A
rewritten case keeps each stored value that `same` accepts, so the diff
shows only real changes, not last-digit float noise of another host.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import pytest

from majorantlab.cli import build_parser, main

FIXTURE = Path(__file__).with_name("cli_golden.json")
REL_TOL = 1e-12

# every file key the config reader knows, with a value other than the default
CONFIG_FILE = """\
[experiment]
name = count
[h1]
family = log_power
c = 1.0
[h2]
family = iterated_log
m = 2
c = 1.0
[params]
n_list = 2000,1000
seed = 21
workers = 2
tol = 1e-7
grid_cap = 67108864
psi_mode = derivative
kind = frac_minus
xi_rule = golden:2
m_max = 5
levels = 9:11
trials = 4
p_offset = 0.25
p = 3.5
budget = 99
fmt = jsonl
level = full
"""

CASES = {
    "count-frac-plus": ["count", "--N-list", "1e3,3e3,1e3", "--workers", "2"],
    "count-floor-image": ["count", "--kind", "floor_image",
                          "--N-list", "1e3,1e4"],
    "count-config-file": ["--config", "{config}", "count", "--seed", "22"],
    "expsum-decay": ["expsum-decay", "--N-list", "1e3,3e3",
                     "--xi-rule", "golden:1", "--workers", "2"],
    "lemma2": ["lemma2", "--N-list", "1e3,3e3", "--xi-rule", "random:1",
               "--seed", "7"],
    "vdc": ["vdc", "--m-max", "3", "--levels", "10:12",
            "--xi-rule", "golden:1", "--workers", "2"],
    "prop2": ["prop2", "--levels", "9:11", "--trials", "3",
              "--p-offset", "0.7", "--seed", "5", "--workers", "2"],
    "majorant": ["majorant", "--N-list", "256,512", "--budget", "40",
                 "--seed", "3"],
    # the default budget: the restarts stop by their own rule, and the
    # row at 2^10 is won by a phase restart
    "majorant-stop": ["majorant", "--N-list", "1024,4096", "--seed", "7"],
    "thresholds": ["thresholds"],
}


def run_case(name, tmp_path) -> dict:
    """Rows without wall_ms and the config echo of one case."""
    config = tmp_path / "case.ini"
    config.write_text(CONFIG_FILE)
    out = tmp_path / name
    argv = [a.format(config=config) for a in CASES[name]]
    assert main(argv + ["--out", str(out)]) == 0
    lines = next(out.glob("*.jsonl")).read_text().splitlines()
    echo = json.loads(lines[0])["config"]
    echo["out_dir"] = "OUT"
    rows = [json.loads(line) for line in lines[1:]]
    for r in rows:
        r.pop("wall_ms")
    return {"echo": echo, "rows": rows}


def _json_value(v):
    if v is argparse.SUPPRESS:
        return "SUPPRESS"
    if isinstance(v, tuple):
        return list(v)
    return v


def parser_surface() -> dict:
    """{subcommand or "": {option string: [choices, default, type]}}."""
    ap = build_parser()
    parsers = {"": ap}
    for action in ap._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.update(action.choices)
    return {name: {opt: [_json_value(a.choices), _json_value(a.default),
                         getattr(a.type, "__name__", None)]
                   for a in p._actions for opt in a.option_strings}
            for name, p in parsers.items()}


def same(want, got) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        return abs(got - want) <= REL_TOL * abs(want)
    if isinstance(want, dict) and isinstance(got, dict):
        return want.keys() == got.keys() and all(same(want[k], got[k])
                                                 for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(want) == len(got) and all(map(same, want, got))
    return type(want) is type(got) and want == got


def settled(want, got):
    """got, with each value that same() accepts against want kept as
    want; keys and items that want lacks come from got."""
    if same(want, got):
        return want
    if isinstance(want, dict) and isinstance(got, dict):
        return {k: settled(want[k], v) if k in want else v
                for k, v in got.items()}
    if isinstance(want, list) and isinstance(got, list) \
            and len(want) == len(got):
        return list(map(settled, want, got))
    return got


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_rows_and_echo_match_golden(golden, name, tmp_path):
    got = run_case(name, tmp_path)
    want = golden["cases"][name]
    assert got["echo"] == want["echo"]
    assert len(got["rows"]) == len(want["rows"])
    for w, g in zip(want["rows"], got["rows"]):
        assert same(w, g), (w, g)


def test_parser_surface_matches_golden(golden):
    assert parser_surface() == golden["parser"]


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s) {', '.join(unknown)}; "
                 f"known: {', '.join(CASES)}")
    fixture = json.loads(FIXTURE.read_text())
    stored = fixture["cases"]
    if not sys.argv[1:]:
        fixture["cases"] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            fixture["cases"][name] = settled(stored.get(name),
                                             run_case(name, Path(tmp)))
    fixture["parser"] = parser_surface()
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {', '.join(names)} to {FIXTURE}", file=sys.stderr)

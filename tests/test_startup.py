"""Start-up: a CLI call loads scipy only in the scenarios that use it.

Each check runs in a fresh interpreter, since this suite's own process has
scipy loaded by other test modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import obskit

SRC = str(Path(obskit.__file__).resolve().parent.parent)

PRELUDE = """
import contextlib, io, json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return obskit.cli.main(argv)
"""


def run_fresh(script: str, tmp_path) -> dict:
    """Run ``script`` after PRELUDE in a new interpreter; return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_config_and_three_scenarios_load_no_scipy(tmp_path):
    seen = run_fresh(
        """
import obskit, obskit.cli
obskit.load_config('{"scenario": "weak-observability", "system": {"type": "square", '
                   '"n_max_eigenvalue": 50, "gamma": [{"side": "bottom", "alpha": "pi/4", "beta": "pi/2"}]}}')
seen = {"import": scipy_modules(), "codes": []}
for scenario in ("weak-observability", "resolvent-scan", "admissibility"):
    seen["codes"].append(run([scenario, "--trials", "5", "--out", scenario + ".json"]))
    seen[scenario] = scipy_modules()
print(json.dumps(seen))
""",
        tmp_path,
    )
    assert seen == {
        "import": [],
        "codes": [0, 0, 0],
        "weak-observability": [],
        "resolvent-scan": [],
        "admissibility": [],
    }


def test_verify_cutoff_resolves_the_deferred_quadrature(tmp_path):
    seen = run_fresh(
        """
import obskit.cli
code = run(["verify-cutoff", "--out", "cutoff.json"])
with open("cutoff.json", encoding="utf-8") as fh:
    verdicts = json.load(fh)["verdicts"]
failing = [v["name"] for v in verdicts if not v["passed"]]
print(json.dumps({"code": code, "failing": failing, "quad": "scipy.integrate" in sys.modules}))
""",
        tmp_path,
    )
    assert seen == {"code": 2, "failing": ["sandwich-upper-bound"], "quad": True}

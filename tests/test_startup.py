"""Start-up: obskit runs on numpy alone; scipy is needed only by the tests.

Each run-time check runs in a fresh interpreter, since this suite's own
process has scipy loaded by other test modules.  A static check reads every
module of the package for a scipy import, whether or not any test runs it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import obskit
from obskit.config import SCENARIOS

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


def test_import_config_and_every_default_scenario_load_no_scipy(tmp_path):
    seen = run_fresh(
        """
import obskit, obskit.cli
from obskit.config import SCENARIOS
obskit.load_config('{"scenario": "weak-observability", "system": {"type": "square", '
                   '"n_max_eigenvalue": 50, "gamma": [{"side": "bottom", "alpha": "pi/4", "beta": "pi/2"}]}}')
seen = {"import": scipy_modules(), "codes": {}, "loaded": {}}
for scenario in SCENARIOS:
    seen["codes"][scenario] = run([scenario, "--out", scenario + ".json"])
    seen["loaded"][scenario] = scipy_modules()
with open("verify-cutoff.json", encoding="utf-8") as fh:
    seen["cutoff_failing"] = [v["name"] for v in json.load(fh)["verdicts"] if not v["passed"]]
print(json.dumps(seen))
""",
        tmp_path,
    )
    assert seen["import"] == []
    assert seen["loaded"] == {scenario: [] for scenario in SCENARIOS}
    assert seen["codes"] == {
        scenario: 2 if scenario in ("verify-cutoff", "assumption-ii-iii") else 0 for scenario in SCENARIOS
    }
    assert seen["cutoff_failing"] == ["sandwich-upper-bound"]


def test_plancherel_check_loads_no_scipy(tmp_path):
    seen = run_fresh(
        """
import obskit
system = obskit.SpectralSystem(eigenvalues=[1.0, 4.0], gram=[[1.0, 0.0], [0.0, 1.0]])
report = obskit.plancherel_lowerbound_check([1.0, 0.5], system, 2.0, 50.0)
print(json.dumps({"loaded": scipy_modules(), "holds": report.margin >= 0}))
""",
        tmp_path,
    )
    assert seen == {"loaded": [], "holds": True}


def test_no_package_module_imports_scipy():
    package = Path(obskit.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), (path.name, names)

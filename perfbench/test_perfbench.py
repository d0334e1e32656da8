"""Self-test of the benchmark, at tiny sizes.

    python3 -m pytest -q perfbench

Each workload runs once per mode with ``--scale tiny``: the same jobs and
expected outcomes as the benchmark, at sizes that take a second.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from jobs import WORKLOADS, run_pass, workload_jobs  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def results() -> dict:
    """(workload, trace) -> the last stdout line of a tiny run, parsed."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                          "--trace", str(trace), "--scale", "tiny")
            assert done.returncode == 0, done.stderr
            out[workload, trace] = json.loads(done.stdout.splitlines()[-1])
    return out


def test_benchmark_json_names_the_workloads():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == WORKLOADS


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_match_benchmark_json(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}


def test_every_per_layer_metric_is_exercised_by_some_workload(results):
    for metric in BENCHMARK["per_layer"]:
        if metric["name"] == "failed_ratio":
            continue
        values = [results[w, 1]["metrics"][metric["name"]]["value"] for w in WORKLOADS]
        assert any(v > 0 for v in values), metric["name"]


def test_tracer_restores_every_rebound_name(tmp_path):
    import obskit

    tracer = Tracer(obskit)
    before = tracer.snapshot()
    tracer.install()
    try:
        assert "obskit.cli.main" in tracer.restored(before)
        assert "numpy.linalg.eigvalsh" in tracer.restored(before)
        jobs = workload_jobs("trial-loop", "tiny")
        run_pass(obskit.cli, jobs, tmp_path, 3)
    finally:
        tracer.uninstall()
    assert tracer.restored(before) == []
    table = tracer.aggregate()
    assert table["cli.main"]["calls"] == len(jobs)
    assert tracer.top_level_s() == pytest.approx(table["cli.main"]["total_s"])
    assert tracer.counts()["decay.eval.calls"] > 0


def test_wrong_expected_exit_code_shows_in_failed_ratio(monkeypatch):
    jobs = workload_jobs("lattice-scan", "tiny")
    assert jobs[2].scenario == "verify-cutoff" and jobs[2].exit_code == 2
    jobs[2] = replace(jobs[2], exit_code=0)
    monkeypatch.setattr(run, "workload_jobs", lambda workload, scale: jobs)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "lattice-scan", "--seed", "3", "--seconds", "0",
                         "--trace", "1", "--scale", "tiny"])
    assert code == 0
    result = json.loads(stdout.getvalue().splitlines()[-1])
    # warm-up, untraced and traced pass: verify-cutoff fails in each
    assert (result["attempted"], result["failed"]) == (9, 3)
    assert result["correct"] is False
    assert result["metrics"]["failed_ratio"]["value"] == pytest.approx(3 / 9)
    assert "exit code 2, expected 0" in stdout.getvalue()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "trial-loop", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_normalized_divides_by_the_bracketing_references():
    # sample 1 ran while the reference took 0.3 s on average: half speed
    assert run.normalized([2.0, 4.0, 2.0], [0.15, 0.15, 0.45, 0.15]) == pytest.approx(2.0)

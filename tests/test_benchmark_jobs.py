"""Every benchmark job gives the outcome its job list expects.

The benchmark counts a job with another exit code, another verdict vector or
a non-finite constant as a failed operation.  This runs each job of each
workload once at full size, as one pass of ``perfbench/run.py`` does.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from obskit import cli

JOBS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"
WORKLOADS = ("subpatch-certify", "trial-loop", "lattice-scan")


@pytest.fixture
def jobs(monkeypatch):
    """``perfbench/jobs.py`` as a module, loaded with no bytecode written beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_workloads_are_the_benchmarked_ones(jobs):
    assert jobs.WORKLOADS == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_job_gives_its_expected_outcome(jobs, workload, tmp_path):
    _, results = jobs.run_pass(cli, jobs.workload_jobs(workload, "full"), tmp_path, seed=1)
    assert [(result.job.scenario, jobs.problems(result, None)) for result in results] == [
        (job.scenario, []) for job in jobs.workload_jobs(workload, "full")
    ]

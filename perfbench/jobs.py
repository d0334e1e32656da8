"""Workloads: each one a fixed list of in-process ``obskit`` CLI jobs.

A job is one ``obskit.cli.main([...])`` call with an inline ``--config`` and
an ``--out`` path, plus the outcome the current code must produce: the exit
code and the pass/fail vector of the report's verdicts.  Two expected
failures are documented findings (README "Known failing checks"): the
q-weighted restatement on the π/4–π/2 sub-patch (``assumption-ii-iii``
exits 2) and the κ₂ envelope constant (``verify-cutoff`` exits 2).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("subpatch-certify", "trial-loop", "lattice-scan")


@dataclass(frozen=True)
class Job:
    """One scenario run and the outcome it must produce."""

    scenario: str
    config: dict
    trials: int | None
    exit_code: int
    verdicts: tuple[bool, ...]

    def argv(self, out: Path, seed: int) -> list[str]:
        argv = [
            self.scenario,
            "--config", json.dumps(self.config, sort_keys=True),
            "--out", str(out),
            "--seed", str(seed),
        ]
        if self.trials is not None:
            argv += ["--trials", str(self.trials)]
        return argv


def _square(n_max: int, *patches: dict) -> dict:
    return {"system": {"type": "square", "n_max_eigenvalue": n_max, "gamma": list(patches)}}


_SUBPATCH = {"side": "bottom", "alpha": "pi/4", "beta": "pi/2"}
_BOTTOM = {"side": "bottom"}
_LEFT = {"side": "left"}

# Sizes per scale.  "full" is the benchmark; "tiny" keeps every job and every
# expected outcome (the sub-patch's first weighted-restatement violator sits
# at N = 65) but runs in well under a second, for the self-test.
_SIZES = {
    "full": {
        "subpatch_n": 250, "subpatch_trials": 200,
        "loop_n": 50, "loop_trials": 1000,
        "lattice_i_n": 2000, "lattice_scan_n": 1000,
    },
    "tiny": {
        "subpatch_n": 70, "subpatch_trials": 5,
        "loop_n": 20, "loop_trials": 5,
        "lattice_i_n": 60, "lattice_scan_n": 60,
    },
}


def workload_jobs(workload: str, scale: str = "full") -> list[Job]:
    """The job list of a workload at a scale ("full" or "tiny")."""
    s = _SIZES[scale]
    if workload == "subpatch-certify":
        sub = _square(s["subpatch_n"], _SUBPATCH)
        return [
            Job("assumption-ii-iii", sub, None, 2, (True, False)),
            Job("admissibility", sub, s["subpatch_trials"], 0, (True, True)),
        ]
    if workload == "trial-loop":
        bottom = _square(s["loop_n"], _BOTTOM)
        return [
            Job("weak-observability", bottom, s["loop_trials"], 0, (True,)),
            Job("resolvent-scan", bottom, s["loop_trials"], 0, (True,)),
            Job("admissibility", bottom, s["loop_trials"], 0, (True, True)),
        ]
    if workload == "lattice-scan":
        return [
            Job("assumption-i", _square(s["lattice_i_n"], _BOTTOM, _LEFT),
                None, 0, (True, True)),
            Job("coercivity-scan", _square(s["lattice_scan_n"], _BOTTOM),
                None, 0, (True, True)),
            Job("verify-cutoff", {}, None, 2, (True, True, True, True, False)),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


@dataclass
class JobResult:
    job: Job
    exit_code: int | None
    error: str | None
    report: bytes | None


def run_pass(cli, jobs: list[Job], outdir: Path, seed: int) -> tuple[float, list[JobResult]]:
    """Run every job once, in order; return the pass wall time and results.

    Only the ``cli.main`` calls are timed.  ``cli.main`` is looked up at each
    call, so a traced pass calls the traced wrapper.  The CLI's summary goes to a
    buffer so that the benchmark's own standard output stays parseable.
    """
    outs = [outdir / f"{i}-{job.scenario}.json" for i, job in enumerate(jobs)]
    for out in outs:
        out.unlink(missing_ok=True)
    codes: list[int | None] = []
    errors: list[str | None] = []
    start = time.perf_counter()
    for job, out in zip(jobs, outs):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(job.argv(out, seed)))
            errors.append(None)
        except (Exception, SystemExit) as exc:  # a job that raises is a failed job
            codes.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    results = [
        JobResult(job, code, err, out.read_bytes() if out.is_file() else None)
        for job, code, err, out in zip(jobs, codes, errors, outs)
    ]
    return wall, results


def _nonfinite_constants(constants: dict) -> list[str]:
    return [
        key for key, value in constants.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
        and not math.isfinite(value)
    ]


def problems(result: JobResult, reference: bytes | None) -> list[str]:
    """Every way ``result`` differs from its expected outcome.

    ``reference`` is the job's report from an earlier pass of the same run
    (same seed); the report must match it byte for byte.
    """
    job = result.job
    if result.error is not None:
        return [f"raised {result.error}"]
    found = []
    if result.exit_code != job.exit_code:
        found.append(f"exit code {result.exit_code}, expected {job.exit_code}")
    if result.report is None:
        return found + ["no report written"]
    try:
        report = json.loads(result.report)
    except ValueError as exc:
        return found + [f"report is not JSON: {exc}"]
    verdicts = tuple(bool(v["passed"]) for v in report.get("verdicts", []))
    if verdicts != job.verdicts:
        found.append(f"verdicts {verdicts}, expected {job.verdicts}")
    bad = _nonfinite_constants(report.get("constants", {}))
    if bad:
        found.append(f"non-finite constants {bad}")
    if reference is not None and result.report != reference:
        found.append("report bytes differ from the first pass")
    return found

"""obskit benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload trial-loop --seed 1 --seconds 20 --trace 0

Run it from anywhere in a checkout that holds ``src/obskit``; it imports the
package from those sources, never from an installed copy.  With
``--trace 0`` it measures the end-to-end metrics (tracing off; times are
normalized by ``host_reference``); with
``--trace 1`` it measures the per-layer metrics through ``tracer.Tracer``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit.  A full record (environment,
every sample, the span table) goes to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS, run_pass, problems, workload_jobs  # noqa: E402

ENV_MAX_WORKERS = "OBSKIT_MAX_WORKERS"
MIN_PASSES = 3  # timed passes per untraced run, however short --seconds is
SETUP_RUNS = 5  # fresh interpreters timed per untraced run
# Nominal time of host_reference(); the scale of the normalized end-to-end
# times, which read in seconds on a host that runs the reference this fast.
REFERENCE_S = 0.15

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Spans reported as <name>.calls, <name>.total_s and <name>.self_s.
LAYER_SPANS = (
    "config.load_config",
    "config.system_of",
    "square.build_square_system",
    "square.assumption_I_check",
    "square.delta_gamma_fit",
    "spectral.SpectralSystem",
    "spectral.frequency",
    "spectral.frequency_report",
    "window.solve_observation_time",
    "window.cutoff_profile",
    "evolution.observability_integral",
    "evolution.weak_observability_check",
    "evolution.sharp_admissibility_constant",
    "evolution.kernel_psd_margin",
    "evolution.admissibility_check",
    "coercivity.estimate_admissibility",
    "coercivity.scan_certificate",
    "coercivity.coercivity_scan",
    "coercivity.fit_psi_envelope",
    "coercivity.resolvent_check",
    "parallel.ordered_map",
    "report.bundle_to_json_text",
)
# Counters summed over a pass, with their units.
LAYER_COUNTS = {
    "decay.eval.calls": "count",
    "coercivity.estimate_admissibility.grid_points": "count",
    "parallel.ordered_map.items": "count",
    "report.bytes": "B",
    "linalg.eigensolves": "count",
    "linalg.flops_computed": "flop",
}
# Largest value seen in a pass.
LAYER_MAXIMA = {"square.modes": "count", "parallel.workers": "count", "linalg.max_order": "count"}
SCENARIOS = (
    "verify-cutoff",
    "coercivity-scan",
    "resolvent-scan",
    "weak-observability",
    "assumption-i",
    "assumption-ii-iii",
    "admissibility",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in LAYER_SPANS:
        units.update({f"{span}.calls": "count", f"{span}.total_s": "s", f"{span}.self_s": "s"})
    units.update(LAYER_COUNTS)
    units.update(LAYER_MAXIMA)
    units["parallel.ordered_map.item_s"] = "s"
    units.update({f"scenarios.{s}.total_s": "s" for s in SCENARIOS})
    units["cli.main.self_s"] = "s"
    units["unattributed_s"] = "s"
    units["trace.overhead_ratio"] = "1"
    units["failed_ratio"] = "1"
    return units


# -- environment and set-up ----------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD's commit when ``root`` is a git work tree, else None."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def environment(seed: int, worker_count: int) -> dict:
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "obskit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "obskit_worker_count": worker_count,
        ENV_MAX_WORKERS: os.environ.get(ENV_MAX_WORKERS),
        "seed": seed,
        "git_commit": git_commit(ROOT),
        "src_sha256": digest.hexdigest(),
    }


# A fresh interpreter imports obskit and loads and validates each job's
# config, as every CLI call does before its scenario starts.
_SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from obskit.config import load_config
for scenario, text in json.loads(sys.argv[2]):
    load_config(text, default_scenario=scenario)
"""


def time_setup(jobs) -> float:
    configs = json.dumps([[job.scenario, json.dumps(job.config)] for job in jobs])
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), configs],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{done.stderr}")
    return elapsed


# -- host speed ----------------------------------------------------------


def _reference_matrices():
    rng = numpy.random.default_rng(0)
    small = rng.standard_normal((33, 33))
    large = rng.standard_normal((500, 500)) + 1j * rng.standard_normal((500, 500))
    return small + small.T, large + large.conj().T


def host_reference(matrices) -> float:
    """Time a fixed mix of interpreter and LAPACK work that uses no obskit code.

    The host's speed drifts by up to 3x over minutes with no steal time
    reported, so end-to-end times are divided by this kernel's time, taken
    between measurements.  Its mix follows the workloads': a scalar Python
    bisection, many small ``eigvalsh`` calls, large complex ones.
    """
    small, large = matrices
    start = time.perf_counter()
    for k in range(400):
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid * (1.0 / (1.0 + mid)) ** 0.5 < 0.3 + k * 1e-3:
                lo = mid
            else:
                hi = mid
    for _ in range(300):
        numpy.linalg.eigvalsh(small)
    for _ in range(2):
        numpy.linalg.eigvalsh(large)
    return time.perf_counter() - start


def normalized(samples: list[float], references: list[float], average=statistics.median) -> float:
    """REFERENCE_S times the average of sample_i over the mean of the two
    reference times taken just before and just after it."""
    brackets = [(a + b) / 2.0 for a, b in zip(references, references[1:])]
    return REFERENCE_S * average([x / r for x, r in zip(samples, brackets)])


# -- runs ----------------------------------------------------------------


class Checker:
    """Counts attempted and failed jobs; the first pass sets each job's
    reference report bytes, which every later pass must reproduce."""

    def __init__(self):
        self.reference: dict[int, bytes | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, results, label: str) -> None:
        for i, result in enumerate(results):
            self.attempted += 1
            found = problems(result, self.reference.get(i))
            self.reference.setdefault(i, result.report)
            if found:
                self.failures.append(f"{label} pass, job {i} {result.job.scenario}: {'; '.join(found)}")


def _spread(samples: list[float], what: str) -> str:
    return f"median of {len(samples)} {what}; min {min(samples)!r}, max {max(samples)!r}"


def measure_end_to_end(cli, jobs, scratch, args, checker, record) -> dict:
    matrices = _reference_matrices()
    host_reference(matrices)  # warm-up, discarded
    setups: list[float] = []
    setup_refs = [host_reference(matrices)]
    for _ in range(SETUP_RUNS):
        setups.append(time_setup(jobs))
        setup_refs.append(host_reference(matrices))
    _, results = run_pass(cli, jobs, scratch, args.seed)
    checker.check(results, "warm-up")
    walls: list[float] = []
    wall_refs = [host_reference(matrices)]
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        wall, results = run_pass(cli, jobs, scratch, args.seed)
        walls.append(wall)
        wall_refs.append(host_reference(matrices))
        checker.check(results, "timed")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    record.update(wall_samples=walls, wall_references=wall_refs,
                  setup_samples=setups, setup_references=setup_refs)
    print(f"timed: {_spread(walls, 'passes')}, after 1 warm-up pass")
    print(f"set-up: {_spread(setups, 'fresh interpreters')}")
    print(f"host reference: {_spread(wall_refs + setup_refs, 'kernels')} (nominal {REFERENCE_S} s)")
    return {
        # Within a run, pass times jump between two host speeds a second or
        # so apart; the mean follows the mix, where the median of ~10 passes
        # flips between the two.
        "wall_s": normalized(walls, wall_refs, statistics.mean),
        "setup_s": normalized(setups, setup_refs),
        "peak_rss_mb": peak,
    }


def measure_per_layer(obskit, cli, jobs, scratch, args, checker, record) -> dict:
    from tracer import Tracer

    tracer = Tracer(obskit)
    _, results = run_pass(cli, jobs, scratch, args.seed)
    checker.check(results, "warm-up")
    untraced: list[float] = []
    traced: list[float] = []
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    counters: dict[str, float] = defaultdict(float)
    maxima: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        wall, results = run_pass(cli, jobs, scratch, args.seed)
        checker.check(results, "untraced")
        untraced.append(wall)

        before = tracer.snapshot()
        tracer.reset()
        tracer.install()
        try:
            wall, results = run_pass(cli, jobs, scratch, args.seed)
        finally:
            tracer.uninstall()
        left = tracer.restored(before)
        if left:
            raise RuntimeError(f"tracer left rebound names behind: {left}")
        checker.check(results, "traced")
        traced.append(wall)
        for name, row in tracer.aggregate().items():
            for key, value in row.items():
                table[name][key] += value
        for name, value in tracer.counts().items():
            counters[name] += value
        for name, value in tracer.maxima.items():
            maxima[name] = max(maxima[name], value)
        unattributed += wall - tracer.top_level_s()
        if "spans" not in record:
            origin = min((s[3] for s in tracer.spans), default=0.0)
            record["spans"] = [[sid, parent, name, t0 - origin, t1 - origin]
                               for sid, parent, name, t0, t1 in tracer.spans]

    n = len(traced)
    per_pass = {name: {k: v / n for k, v in row.items()} for name, row in table.items()}
    values: dict[str, float] = {}
    for span in LAYER_SPANS:
        row = per_pass.get(span, {})
        for key in ("calls", "total_s", "self_s"):
            values[f"{span}.{key}"] = row.get(key, 0.0)
    for name in LAYER_COUNTS:
        values[name] = counters.get(name, 0.0) / n
    for name in LAYER_MAXIMA:
        values[name] = maxima.get(name, 0.0)
    values["parallel.ordered_map.item_s"] = per_pass.get("parallel.item", {}).get("total_s", 0.0)
    for scenario in SCENARIOS:
        values[f"scenarios.{scenario}.total_s"] = per_pass.get(f"scenarios.{scenario}", {}).get("total_s", 0.0)
    values["cli.main.self_s"] = per_pass.get("cli.main", {}).get("self_s", 0.0)
    values["unattributed_s"] = unattributed / n
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)

    record.update(traced_samples=traced, untraced_samples=untraced, span_table=per_pass)
    wall = statistics.mean(traced)
    print(f"traced: {_spread(traced, 'passes')}; untraced: {_spread(untraced, 'passes')}")
    print("largest self times per traced pass:")
    for name, row in sorted(per_pass.items(), key=lambda kv: -kv[1]["self_s"])[:12]:
        print(f"  {name:44s} self {row['self_s']:9.4f} s  total {row['total_s']:9.4f} s"
              f"  ({row['total_s'] / wall:6.1%} of traced wall)  calls {row['calls']:.0f}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the same jobs at small sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "obskit" / "__init__.py").is_file():
        print(f"perfbench: no obskit sources at {SRC / 'obskit'}", file=sys.stderr)
        return 2
    if os.environ.get(ENV_MAX_WORKERS) is not None:
        print(f"perfbench: unset {ENV_MAX_WORKERS}; the benchmark runs the pool as users get it",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import obskit
    from obskit import cli, parallel

    if Path(obskit.__file__).resolve().parent != (SRC / "obskit").resolve():
        print(f"perfbench: imported obskit from {obskit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    jobs = workload_jobs(args.workload, args.scale)
    env = environment(args.seed, parallel.worker_count())
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} scale={args.scale}")
    print("environment: " + json.dumps(env, sort_keys=True))
    record: dict = {"args": vars(args), "environment": env}
    checker = Checker()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            values = measure_per_layer(obskit, cli, jobs, scratch, args, checker, record)
        else:
            values = measure_end_to_end(cli, jobs, scratch, args, checker, record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(checker.failures)
    failed_ratio = failed / checker.attempted
    units = per_layer_units() if args.trace else END_TO_END
    if args.trace:
        values["failed_ratio"] = failed_ratio
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for failure in checker.failures:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    if not args.trace:
        print(f"failed_ratio = {failed_ratio!r} 1")
    print(f"{failed} of {checker.attempted} jobs failed")
    record.update(metrics=metrics, failures=checker.failures, attempted=checker.attempted)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": checker.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the sha256 of each report that a byte-identity check compares.

    python3 tools/report_digests.py [--keep DIR] SEED [SEED ...]

For every seed it runs, in process, each scenario at its default config,
the same again with ``--format csv`` (its digest covers the CSV files too),
each scenario that reads a horizon again with ``--T 0.7``, and again with
``--T 0.7 --trials 1000`` (three blocks of states at the default 33
modes), four scenarios with ``--trials 20`` on a 4-mode custom system with
a dense complex Gram, ``resolvent-scan`` (``--trials 20``) on that system
read from a file named ``custom{1}.json``, a path with a brace that must
not be taken for inline text (its digest equals the inline run's),
``weak-observability`` and ``admissibility`` (each
``--trials 20``) on the same Gram over the non-integer spectrum
[1, 1.5, 2.25, 4], whose kernels take the sine of every pairwise gap, not
the integer spectra's table 0…L, ``weak-observability`` (``--trials 20``)
on the same Gram over [1, 1.01, 2.25, 4], whose least gap 0.01 puts every
horizon below 1/0.01, so that its rows take their own kernels (every other
per-row weak-observability run takes the closed form; ``--T 0.7`` the
kernel at one horizon),
``assumption-ii-iii``, ``coercivity-scan``, and ``admissibility``,
``resolvent-scan`` and ``weak-observability`` (each ``--trials 20``) on
the π/4–π/2 sub-patch at n_max 2000, ``admissibility`` and
``resolvent-scan`` (each ``--trials 20``) on the full bottom side at
n_max 2000, where the admissibility sup solves 1 of its 1182 or 1040
breakpoints, ``weak-observability`` and
``admissibility`` (each ``--trials 200``) on the full bottom side at
n_max 250, ``coercivity-scan`` and ``admissibility`` (``--trials 20``) on
the full bottom side at n_max 1000 with the wide cluster width 1.3
(clusters of 1 to 8 modes), ``coercivity-scan`` on the full bottom side
at n_max 250 with the width 40 (85 clusters of up to 62 modes, the longest
runs the cluster walk steps through; it records the failed
``weakly-coercive-at-width`` verdict), ``coercivity-scan``
and ``weak-observability`` (``--trials 20``) on two top patches and one
right patch at n_max 500, ``assumption-ii-iii`` on the right half of the
right side at n_max 500, ``assumption-ii-iii`` and ``coercivity-scan`` on
the narrow bottom patch (π/2 − 0.05, π/2 + 0.05) at n_max 250, where the
sine-product matrix takes its short-patch series on some entries,
``coercivity-scan``, ``resolvent-scan`` and
``weak-observability`` on a 3-mode custom system whose first cluster has a
null state (each records the failed ``weakly-coercive-at-width`` verdict),
``admissibility`` on a 3-mode custom system with a zero Gram (it records
the undecided ``sharp-constant-bounds-random-states`` verdict),
``assumption-i`` at the cluster width 1.3 (its second scan), ``assumption-i``
at the width 10, which is not weakly coercive (it records the failed
``weakly-coercive-at-width`` verdict), ``assumption-ii-iii`` on a bottom
patch of width 5e-324 at n_max 50, whose decay constant δ̂ is 0 (it writes
no ``certificate_widths`` table), ``coercivity-scan`` on the 2-mode
spectrum [1, 1e200], where the envelope fit's (1 + λ)² overflows,
``admissibility`` on a 3-mode custom system with the Gram 1e300·I at width
1e-8, whose sup overflows (exit 4, no report), ``admissibility`` (``--trials 20``)
on a 3-mode custom system with the Gram 1e307·I at ``--T 1``, whose
forms take G·2^(−s) with s > 0, and at ``--T 100``, where G∘S_T passes the
float range (exit 4, no report), ``weak-observability`` with ``--T 32000``,
a horizon between the smallest and the largest minimal observation time of
the default batch, so that only some rows carry a margin, and each job of
``perfbench/jobs.py`` at full size, and prints one line per report: the
digest (``-`` when no report was written), the exit code, the seed and a
label.  Run it in two checkouts and ``diff`` the outputs to see
which reports moved.  It imports obskit and the job list from the checkout
that holds it, and writes its reports to a temporary directory, or with
``--keep DIR`` to ``DIR/seed-SEED/LABEL.json``, where they stay; compare two
such directories with ``tools/report_diff.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from jobs import WORKLOADS, run_pass, workload_jobs  # noqa: E402
from obskit import cli  # noqa: E402
from obskit.config import HORIZON_SCENARIOS, SCENARIOS  # noqa: E402

GIVEN_T = "0.7"
# A horizon that about half of the default weak-observability batch reaches.
PARTIAL_T = "32000"
# A custom system with a dense complex Gram, so that the given-Gram config
# path and the per-state functions on it are byte-checked too.
CUSTOM_SYSTEM = {
    "type": "custom",
    "eigenvalues": [1, 2, 4, 7],
    "gram": [[1, [0.2, 0.1], 0, 0], [[0.2, -0.1], 1.5, 0.3, 0], [0, 0.3, 2, [0, 0.4]], [0, 0, [0, -0.4], 1]],
}
CUSTOM_SCENARIOS = ("coercivity-scan", "resolvent-scan", "weak-observability", "admissibility")
# The same Gram over a non-integer spectrum: with the one below, the only
# systems whose kernels take their n² pairwise gaps, not the table 0…L.
NONINTEGER_SYSTEM = {**CUSTOM_SYSTEM, "eigenvalues": [1, 1.5, 2.25, 4]}
NONINTEGER_SCENARIOS = ("weak-observability", "admissibility")
# The same Gram over a spectrum whose least gap is 0.01: every horizon of its
# weak-observability run (about 25) lies below 1/0.01, so each row takes its
# own kernel, where every other weak-observability run with per-row horizons
# here takes the closed form.
SUB_UNIT_GAP_SYSTEM = {**CUSTOM_SYSTEM, "eigenvalues": [1, 1.01, 2.25, 4]}
# The π/4–π/2 sub-patch at n_max 2000 (1529 modes), where the admissibility
# sup solves 64 of its 1182 breakpoints at width 0.25 and 113 of 1040 at
# 0.5, far more than on a full side, and at which the
# long-double row sums of the per-state scenarios fall back to math.fsum
# most often.
SCALE_CONFIG = {
    "system": {
        "type": "square",
        "n_max_eigenvalue": 2000,
        "gamma": [{"side": "bottom", "alpha": "pi/4", "beta": "pi/2"}],
    }
}
SCALE_RUNS = (
    ["assumption-ii-iii"],
    ["admissibility", "--trials", "20"],
    ["coercivity-scan"],
    ["resolvent-scan", "--trials", "20"],
    ["weak-observability", "--trials", "20"],
)
# The full bottom side at n_max 2000 (1529 modes): the row-sum bound prunes
# the admissibility sup to 1 of its 1182 breakpoints at width 0.25 and 1 of
# 1040 at 0.5, where the trace bound alone solved 1140 and 1006.
BOTTOM_SCALE_CONFIG = {"system": {"type": "square", "n_max_eigenvalue": 2000, "gamma": [{"side": "bottom"}]}}
BOTTOM_SCALE_SCENARIOS = ("admissibility", "resolvent-scan")
# The full bottom side at n_max 250: 183 modes with a real Gram, where
# ``weak-observability`` takes the closed form in runs of 44 states inside
# blocks of 89.
MID_CONFIG = {"system": {"type": "square", "n_max_eigenvalue": 250, "gamma": [{"side": "bottom"}]}}
MID_SCENARIOS = ("weak-observability", "admissibility")
# A width past the unit gap of the square's integer eigenvalues, so that the
# clusters overlap and come in 8 sizes.  Its admissibility sup solves 1 of
# its 618 breakpoints.
WIDE_CONFIG = {
    "system": {"type": "square", "n_max_eigenvalue": 1000, "gamma": [{"side": "bottom"}]},
    "epsilon_cluster": 1.3,
}
WIDE_RUNS = (["coercivity-scan"], ["admissibility", "--trials", "20"])
# Width 40 at n_max 250: clusters of up to 62 modes, where every other
# config here has runs of at most 8.
WALK_CONFIG = {**MID_CONFIG, "epsilon_cluster": 40}
# The top and right sides at n_max 500: their parity signs, the sine series
# taken about π − c (α + β > π) and two patches on one side.
SIDES_CONFIG = {
    "system": {
        "type": "square",
        "n_max_eigenvalue": 500,
        "gamma": [
            {"side": "top", "alpha": 0.0, "beta": "pi/3"},
            {"side": "top", "alpha": "pi/2", "beta": "pi"},
            {"side": "right", "alpha": "pi/4", "beta": "3pi/4"},
        ],
    }
}
RIGHT_HALF_CONFIG = {
    "system": {"type": "square", "n_max_eigenvalue": 500, "gamma": [{"side": "right", "alpha": "pi/2", "beta": "pi"}]}
}
SIDES_RUNS = (
    ("coercivity-scan", SIDES_CONFIG, []),
    ("weak-observability", SIDES_CONFIG, ["--trials", "20"]),
    ("assumption-ii-iii", RIGHT_HALF_CONFIG, []),
)
# A bottom patch 0.1 wide at n_max 250: the only config whose sine-product
# matrix takes its short-patch series (on 36 of its 225 entries); every other
# patch here is at least π/4 wide.
NARROW_CONFIG = {
    "system": {
        "type": "square",
        "n_max_eigenvalue": 250,
        "gamma": [{"side": "bottom", "alpha": math.pi / 2 - 0.05, "beta": math.pi / 2 + 0.05}],
    }
}
NARROW_SCENARIOS = ("assumption-ii-iii", "coercivity-scan")
# Branches of the scenarios: a scan whose envelope fit fails (the first
# cluster, modes 0 and 1, holds the null state e₀ − e₁), in the scan and in
# the two certificate scenarios, admissibility on a zero Gram, whose sharp
# constant is 0, assumption-i at a width past the unit gap, which scans
# a second time, and at a width that is not weakly coercive, and
# assumption-ii-iii on a patch so short that (β − α)/2 rounds to 0, so the
# Gram and δ̂ are 0, a scan whose envelope fit lifts a center past the float
# range, and admissibility whose r×r product overflows.  Each run is
# labelled by its scenario and suffix.
NULL_STATE_CONFIG = {
    "system": {"type": "custom", "eigenvalues": [1, 1.2, 3], "gram": [[1, 1, 0], [1, 1, 0], [0, 0, 1]]}
}
ZERO_GRAM_CONFIG = {"system": {"type": "custom", "eigenvalues": [1, 2, 4], "gram": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}}
HUGE_CONFIG = {"system": {"type": "custom", "eigenvalues": [1, 1e200], "gram": [[1, 0], [0, 1]]}}
OVERFLOW_CONFIG = {
    "system": {"type": "custom", "eigenvalues": [1, 2, 3], "gram": [[1e300, 0, 0], [0, 1e300, 0], [0, 0, 1e300]]},
    "epsilon_cluster": 1e-8,
}
ZERO_DECAY_CONFIG = {
    "system": {"type": "square", "n_max_eigenvalue": 50, "gamma": [{"side": "bottom", "alpha": 0, "beta": 5e-324}]}
}
# The Gram 1e307·I: at T = 1 every form takes G·2^(−s) with s > 0, and at
# T = 100 an entry of G∘S_T passes the float range.
BIG_GRAM_CONFIG = {
    "system": {"type": "custom", "eigenvalues": [1, 2, 3], "gram": [[1e307, 0, 0], [0, 1e307, 0], [0, 0, 1e307]]}
}
BIG_GRAM_RUNS = (("1", ""), ("100", "-overflow"))
BRANCH_RUNS = (
    ("coercivity-scan", NULL_STATE_CONFIG, ""),
    ("resolvent-scan", NULL_STATE_CONFIG, ""),
    ("weak-observability", NULL_STATE_CONFIG, ""),
    ("admissibility", ZERO_GRAM_CONFIG, ""),
    ("assumption-i", {"epsilon_cluster": 1.3}, ""),
    ("assumption-i", {"epsilon_cluster": 10}, "-incoercive"),
    ("assumption-ii-iii", ZERO_DECAY_CONFIG, "-zero-decay"),
    ("coercivity-scan", HUGE_CONFIG, "-huge"),
    ("admissibility", OVERFLOW_CONFIG, "-overflow"),
)


def _digest(report: bytes | None) -> str:
    return "-" if report is None else hashlib.sha256(report).hexdigest()


def _cli_line(argv: list[str], seed: int, outdir: Path, label: str) -> str:
    """Run ``obskit ARGV`` with the seed, writing ``outdir/LABEL.json``, and give its line.

    With ``--format csv`` in ARGV the digest covers the JSON report followed
    by each ``LABEL.*.csv`` next to it, in name order, each after its name.
    """
    out = outdir / f"{label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    tables = f"{out.stem}.*.csv"
    for path in [out, *out.parent.glob(tables)]:
        path.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", str(out), "--seed", str(seed)])
    report = out.read_bytes() if out.is_file() else None
    if report is not None and "csv" in argv:
        for path in sorted(out.parent.glob(tables)):
            report += b"\0" + path.name.encode() + b"\0" + path.read_bytes()
    return f"{_digest(report)}  exit={code} seed={seed} {label}"


def digest_lines(seed: int, outdir: Path) -> list[str]:
    """One ``digest exit=… seed=… label`` line per report, in a fixed order.

    The reports land in ``outdir/LABEL.json``: ``default/SCENARIO``,
    ``csv/SCENARIO`` (with its CSV files), ``given-T/SCENARIO``,
    ``blocks/SCENARIO``, ``custom/SCENARIO``, ``brace-path/resolvent-scan``,
    ``noninteger/SCENARIO``, ``sub-unit-gap/weak-observability``,
    ``scale/SCENARIO``, ``bottom-scale/SCENARIO``, ``mid/SCENARIO``,
    ``wide/SCENARIO``, ``walk/coercivity-scan``, ``sides/SCENARIO``, ``narrow/SCENARIO``,
    ``branch/SCENARIO`` (or ``branch/SCENARIO-SUFFIX``), ``branch/weak-observability-partial``,
    ``big-gram/admissibility`` (and ``-overflow``) and ``WORKLOAD/I-SCENARIO``.
    """
    lines = [_cli_line([scenario], seed, outdir, f"default/{scenario}") for scenario in SCENARIOS]
    lines += [
        _cli_line([scenario, "--format", "csv"], seed, outdir, f"csv/{scenario}")
        for scenario in SCENARIOS
    ]
    lines += [
        _cli_line([scenario, "--T", GIVEN_T], seed, outdir, f"given-T/{scenario}")
        for scenario in HORIZON_SCENARIOS
    ]
    lines += [
        _cli_line([scenario, "--T", GIVEN_T, "--trials", "1000"], seed, outdir, f"blocks/{scenario}")
        for scenario in HORIZON_SCENARIOS
    ]
    lines += [
        _cli_line(
            [scenario, "--config", json.dumps({"system": CUSTOM_SYSTEM}), "--trials", "20"],
            seed,
            outdir,
            f"custom/{scenario}",
        )
        for scenario in CUSTOM_SCENARIOS
    ]
    brace_path = outdir / "custom{1}.json"
    brace_path.write_text(json.dumps({"system": CUSTOM_SYSTEM}), encoding="utf-8")
    lines.append(
        _cli_line(["resolvent-scan", "--config", str(brace_path), "--trials", "20"], seed, outdir,
                  "brace-path/resolvent-scan")
    )
    lines += [
        _cli_line(
            [scenario, "--config", json.dumps({"system": NONINTEGER_SYSTEM}), "--trials", "20"],
            seed,
            outdir,
            f"noninteger/{scenario}",
        )
        for scenario in NONINTEGER_SCENARIOS
    ]
    lines.append(
        _cli_line(
            ["weak-observability", "--config", json.dumps({"system": SUB_UNIT_GAP_SYSTEM}), "--trials", "20"],
            seed,
            outdir,
            "sub-unit-gap/weak-observability",
        )
    )
    lines += [
        _cli_line([scenario, "--config", json.dumps(SCALE_CONFIG), *rest], seed, outdir, f"scale/{scenario}")
        for scenario, *rest in SCALE_RUNS
    ]
    lines += [
        _cli_line(
            [scenario, "--config", json.dumps(BOTTOM_SCALE_CONFIG), "--trials", "20"],
            seed,
            outdir,
            f"bottom-scale/{scenario}",
        )
        for scenario in BOTTOM_SCALE_SCENARIOS
    ]
    lines += [
        _cli_line(
            [scenario, "--config", json.dumps(MID_CONFIG), "--trials", "200"], seed, outdir, f"mid/{scenario}"
        )
        for scenario in MID_SCENARIOS
    ]
    lines += [
        _cli_line([scenario, "--config", json.dumps(WIDE_CONFIG), *rest], seed, outdir, f"wide/{scenario}")
        for scenario, *rest in WIDE_RUNS
    ]
    lines.append(
        _cli_line(["coercivity-scan", "--config", json.dumps(WALK_CONFIG)], seed, outdir, "walk/coercivity-scan")
    )
    lines += [
        _cli_line([scenario, "--config", json.dumps(config), *rest], seed, outdir, f"sides/{scenario}")
        for scenario, config, rest in SIDES_RUNS
    ]
    lines += [
        _cli_line([scenario, "--config", json.dumps(NARROW_CONFIG)], seed, outdir, f"narrow/{scenario}")
        for scenario in NARROW_SCENARIOS
    ]
    lines += [
        _cli_line([scenario, "--config", json.dumps(config)], seed, outdir, f"branch/{scenario}{suffix}")
        for scenario, config, suffix in BRANCH_RUNS
    ]
    lines.append(
        _cli_line(["weak-observability", "--T", PARTIAL_T], seed, outdir, "branch/weak-observability-partial")
    )
    lines += [
        _cli_line(
            ["admissibility", "--config", json.dumps(BIG_GRAM_CONFIG), "--trials", "20", "--T", horizon],
            seed,
            outdir,
            f"big-gram/admissibility{suffix}",
        )
        for horizon, suffix in BIG_GRAM_RUNS
    ]
    for workload in WORKLOADS:
        (outdir / workload).mkdir(exist_ok=True)
        _, results = run_pass(cli, workload_jobs(workload, "full"), outdir / workload, seed)
        for i, result in enumerate(results):
            label = f"{workload}/{i}-{result.job.scenario}"
            lines.append(f"{_digest(result.report)}  exit={result.exit_code} seed={seed} {label}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    parser.add_argument("--keep", type=Path, metavar="DIR", help="keep the reports under DIR")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        root = args.keep or Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="obskit-digests-")))
        for seed in args.seeds:
            for line in digest_lines(seed, root / f"seed-{seed}"):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

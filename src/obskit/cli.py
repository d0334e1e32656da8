"""Command line entry point: one subcommand per scenario.

Every run writes the structured JSON report to the configured output path
(``--format csv`` additionally writes one CSV per table, plus verdicts and
constants, next to it) and prints a short human summary.  Exit codes:

* 0 — every verdict passed
* 2 — a mathematical verdict failed (the report is written, as for 0;
  a scan that is not weakly coercive is one such verdict)
* 3 — input error (config parse/schema/invariant, bad domain or shape,
  a horizon T whose phase ½·T·(λ_max − λ_min) overflows, a report path
  that cannot be written)
* 4 — numeric failure (eigensolver, envelope dominance, a non-finite
  observation time or report value; no report file is written then)
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import _SCENARIO_TABLE, apply_overrides, default_config, load_config
from .errors import ConfigError, DomainError, NumericError, ShapeError
from .report import bundle_summary_text, bundle_to_csv_texts, bundle_to_json_text
from .scenarios import run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obskit",
        description="Spectral observability toolkit: verify frequency-localization "
        "identities, coercivity certificates, and observability inequalities on "
        "finite spectral systems.",
    )
    parser.add_argument("--version", action="version", version=f"obskit {__version__}")
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="SCENARIO")
    for scenario, row in _SCENARIO_TABLE.items():
        p = sub.add_parser(scenario, help=row.help)
        p.add_argument("--config", help="JSON config document: a file path or inline text")
        p.add_argument("--out", help="report output path (overrides the config)")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument("--trials", type=int, help="random trial count override")
        p.add_argument("--T", type=float, dest="T", help="time horizon override")
        p.add_argument(
            "--format",
            choices=("structured", "csv"),
            default="structured",
            help="structured: JSON report only (default); csv: also one CSV per table",
        )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use and kept for the process."""
    return build_parser()


def _write_outputs(bundle, output_path: str, fmt: str) -> None:
    report = bundle_to_json_text(bundle)  # before any file or directory is made
    out = Path(output_path)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report, encoding="utf-8")
    if fmt == "csv":
        stem = out.with_suffix("") if out.suffix else out
        for name, text in bundle_to_csv_texts(bundle).items():
            Path(f"{stem}.{name}.csv").write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config, default_scenario=args.scenario)
        else:
            cfg = default_config(args.scenario)
        cfg = apply_overrides(
            cfg, seed=args.seed, trials=args.trials, T=args.T, output_path=args.out
        )
        bundle = run_scenario(cfg)
        try:
            _write_outputs(bundle, cfg.output_path, args.format)
        except OSError as exc:
            sys.stderr.write(f"obskit: cannot write report: {exc}\n")
            return 3
        sys.stdout.write(bundle_summary_text(bundle))
        return bundle.exit_code
    except (ConfigError, DomainError, ShapeError) as exc:
        sys.stderr.write(f"obskit: {exc}\n")
        return 3
    except (NumericError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"obskit: numeric failure: {exc}\n")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

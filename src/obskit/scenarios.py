"""Scenario orchestration: each verification pipeline as one report bundle.

Every bundle carries the same constants block (window norms, κ's, c₀, c₀′,
θ₀, θ₁, θ₂), the config digest and seed, fixed-name tables,
and pass/fail verdicts.  Output is deterministic for identical
(config, seed): no wall-clock anywhere.
"""

from __future__ import annotations

import math

import numpy as np

from ._version import __version__
from .coercivity import (
    admissibility_breakpoints,
    coercivity_scan,
    estimate_admissibility,
    fit_psi_envelope,
    resolvent_check,
    scan_certificate,
)
from .config import RunConfig, system_of
from .errors import DomainError
from .evolution import (
    admissibility_check,
    kernel_psd_margin,
    observability_kernel,
    weak_observability_check,
)
from .report import ReportBundle, Table, Verdict
from .spectral import _rows_within, frequency
from .square import CIRCLE_WIDTH, assumption_I_check, delta_gamma_fit
from .window import (
    C0,
    C0_PRIME,
    CHI_DERIV_L2_NORM_SQ,
    CHI_L2_NORM_SQ,
    KAPPA1,
    KAPPA2,
    THETA0,
    THETA1,
    THETA2,
    chi_hat,
    chi_hat_real_form,
    default_tau_grid,
    sandwich_values,
    solve_observation_time,
)

THETA_NOTES = [
    "theta2 uses the factor-4 normalization 4*chi_l2_norm_sq/chi_sup_norm^2; a "
    "tighter arrangement of the same estimates would halve it.",
]


def _constants_block() -> dict:
    return {
        "kappa1": KAPPA1,
        "kappa2": KAPPA2,
        "chi_l2_norm_sq": CHI_L2_NORM_SQ,
        "chi_deriv_l2_norm_sq": CHI_DERIV_L2_NORM_SQ,
        "chi_sup_norm": 1.0,  # ‖χ‖∞ = χ(0)
        "c0": C0,
        "c0_prime": C0_PRIME,
        "theta0": THETA0,
        "theta1_l2_deriv": THETA1,
        "theta2": THETA2,
    }


def _new_bundle(cfg: RunConfig) -> ReportBundle:
    return ReportBundle(
        scenario=cfg.scenario,
        toolkit_version=__version__,
        config_sha256=cfg.digest(),
        seed=cfg.seed,
        constants=_constants_block(),
        notes=list(THETA_NOTES),
    )


def _state_blocks(cfg: RunConfig, size: int):
    """The ``cfg.trials`` states of ``cfg.seed`` as (first trial, (k, size) block) pairs.

    One generator draws each state once, in blocks of as many coefficient
    rows as ``_rows_within`` fits in ``spectral.BLOCK_BYTES``.  One
    (k, 2, size) draw takes the same stream as k draws of (2, size), so the
    states do not depend on the block size.  Its two halves are copied into
    the real and imaginary parts of one preallocated complex block.
    """
    rng = np.random.default_rng(cfg.seed)
    rows = _rows_within(16 * size)
    for start in range(0, cfg.trials, rows):
        block = rng.standard_normal((min(rows, cfg.trials - start), 2, size))
        z = np.empty((len(block), size), dtype=complex)
        z.real, z.imag = block[:, 0], block[:, 1]
        yield start, z


def _table_rows(*columns) -> list[list]:
    """Table rows from equal-length array columns, every cell a Python scalar."""
    return list(map(list, zip(*(col.tolist() for col in columns))))


def _coercive(bundle: ReportBundle, scan, passed: str | None = None) -> bool:
    """Whether ``scan`` is weakly coercive.  Its ``weakly-coercive-at-width``
    verdict is recorded when it fails, and when it passes if ``passed``
    gives the verdict's detail."""
    failure = scan.incoercivity
    if failure or passed:
        bundle.verdicts.append(Verdict("weakly-coercive-at-width", failure is None, failure or passed))
    return failure is None


def _worst_state(bundle: ReportBundle, name: str, constant: str, quantity: str, ratios: list) -> None:
    """Record the least of the per-state ``ratios`` (+inf for none) as ``constant``
    and the verdict ``name`` that it is at least −1e-9; ``quantity`` names the ratio."""
    worst = min([math.inf, *ratios])
    bundle.constants[constant] = worst
    bundle.verdicts.append(
        Verdict(name, worst >= -1e-9, f"worst {quantity} = {worst!r} over {len(ratios)} states")
    )


def _pipeline_constants(bundle: ReportBundle, pipeline) -> None:
    bundle.constants.update(
        {
            "scan_width": pipeline.scan.epsilon,
            "envelope_c": pipeline.envelope.c,
            "envelope_p": pipeline.envelope.p,
            "admissibility_sq": pipeline.admissibility_sq,
            "admissibility": pipeline.admissibility,
        }
    )


def run_verify_cutoff(cfg: RunConfig) -> ReportBundle:
    bundle = _new_bundle(cfg)
    grid = default_tau_grid()
    closed = chi_hat(grid)
    sandwich = sandwich_values(grid)
    kappa1 = bundle.constants["kappa1"]
    kappa2 = bundle.constants["kappa2"]

    value0 = float(chi_hat(0.0))
    reference0 = (1.0 + math.exp(-2.0)) / 2.0
    bundle.verdicts.append(
        Verdict(
            "transform-value-at-zero",
            abs(value0 - reference0) <= 1e-12,
            f"chi_hat(0) = {value0!r}, closed reference {reference0!r}",
        )
    )

    deviation = float(np.abs(closed - chi_hat_real_form(grid)).max())
    bundle.verdicts.append(
        Verdict(
            "transform-matches-real-form",
            deviation <= 1e-12,
            f"max |closed - real form| = {deviation:.3e} over {grid.size} offsets",
        )
    )

    even_dev = float(np.abs(closed - closed[::-1]).max())
    bundle.verdicts.append(
        Verdict("transform-even-symmetry", even_dev <= 1e-12, f"max asymmetry {even_dev:.3e}")
    )

    low = float(sandwich.min())
    high = float(sandwich.max())
    bundle.verdicts.append(
        Verdict(
            "sandwich-lower-bound",
            low >= kappa1 - 1e-9,
            f"min (1+tau^2)|chi_hat| = {low!r} vs kappa1 = {kappa1!r}",
        )
    )
    bundle.verdicts.append(
        Verdict(
            "sandwich-upper-bound",
            high <= kappa2 + 1e-9,
            f"max (1+tau^2)|chi_hat| = {high!r} vs kappa2 = {kappa2!r}",
        )
    )

    bundle.tables.append(
        Table(
            name="cutoff_transform",
            columns=["tau", "chi_hat", "sandwich"],
            rows=np.stack([grid, closed, sandwich], axis=1).tolist(),
        )
    )
    return bundle


def run_coercivity_scan(cfg: RunConfig) -> ReportBundle:
    bundle = _new_bundle(cfg)
    system = system_of(cfg)
    bundle.constants["system_label"] = system.label
    scan = coercivity_scan(system, cfg.epsilon_cluster)
    products = scan.centers * scan.min_eig
    bundle.tables.append(
        Table(
            name="clusters",
            columns=["center", "size", "min_eig", "center_times_min_eig"],
            rows=_table_rows(scan.centers, scan.sizes, scan.min_eig, products),
        )
    )
    min_eig = float(scan.min_eig.min())
    bundle.constants["min_cluster_eigenvalue"] = min_eig
    bundle.constants["delta_hat"] = float(products.min())
    if not _coercive(bundle, scan, f"{scan.centers.size} clusters, min eigenvalue {min_eig!r}"):
        return bundle
    envelope = fit_psi_envelope(scan)
    bundle.constants["envelope_c"] = envelope.c
    bundle.constants["envelope_p"] = envelope.p
    # fit_psi_envelope raises NumericError unless its envelope dominates the scan.
    bundle.verdicts.append(
        Verdict("envelope-dominates-scan", True, f"envelope c={envelope.c!r}, p={envelope.p!r}")
    )
    return bundle


def run_resolvent_scan(cfg: RunConfig) -> ReportBundle:
    bundle = _new_bundle(cfg)
    system = system_of(cfg)
    bundle.constants["system_label"] = system.label
    scan = coercivity_scan(system, cfg.epsilon_cluster)
    if not _coercive(bundle, scan):
        return bundle
    pipeline = scan_certificate(system, scan)
    _pipeline_constants(bundle, pipeline)
    rows, ratios = [], []
    for start, z in _state_blocks(cfg, system.size):
        rep = resolvent_check(system, z, pipeline.spectral)
        rel = rep.inf_margin / rep.norm_sq
        ratios += rel.tolist()
        columns = (rep.lambda_z, rep.inf_margin, rel, rep.residual_over_epsilon, rep.verdict)
        rows += _table_rows(np.arange(start, start + len(z)), *columns)
    bundle.tables.append(
        Table(
            name="resolvent_margins",
            columns=[
                "trial",
                "lambda_z",
                "inf_margin",
                "inf_margin_over_norm_sq",
                "residual_over_epsilon",
                "verdict",
            ],
            rows=rows,
        )
    )
    _worst_state(bundle, "resolvent-inequality-holds", "worst_relative_margin", "inf_margin/norm_sq", ratios)
    return bundle


def run_weak_observability(cfg: RunConfig) -> ReportBundle:
    bundle = _new_bundle(cfg)
    system = system_of(cfg)
    bundle.constants["system_label"] = system.label
    scan = coercivity_scan(system, cfg.epsilon_cluster)
    if not _coercive(bundle, scan):
        return bundle
    pipeline = scan_certificate(system, scan)
    _pipeline_constants(bundle, pipeline)
    rows, ratios = [], []
    for start, z in _state_blocks(cfg, system.size):
        t_min = solve_observation_time(frequency(z, system), pipeline.spectral.epsilon)
        horizon = cfg.T if cfg.T is not None else 2.0 * t_min
        rep = weak_observability_check(z, system, horizon, pipeline.spectral.psi, t_min)
        ratios += (rep.margin[rep.applicable] / (1.0 + rep.integral[rep.applicable])).tolist()
        columns = (rep.lambda_z0, rep.t_min, rep.T, rep.lhs, rep.integral, rep.margin, rep.applicable)
        rows += _table_rows(np.arange(start, start + len(z)), *columns)
    bundle.tables.append(
        Table(
            name="observability",
            columns=["trial", "lambda_z0", "t_min", "T", "lhs", "integral", "margin", "applicable"],
            rows=rows,
        )
    )
    if not ratios:
        bundle.verdicts.append(
            Verdict("weak-observability-margins", False, "no applicable horizon in the batch")
        )
        return bundle
    _worst_state(bundle, "weak-observability-margins", "worst_scaled_margin", "margin/(1+integral)", ratios)
    if len(ratios) < cfg.trials:
        bundle.notes.append(
            "some horizons fall below the minimal observation time; those rows carry "
            "no margin claim"
        )
    return bundle


def run_assumption_i(cfg: RunConfig) -> ReportBundle:
    bundle = _new_bundle(cfg)
    system = system_of(cfg)
    report = assumption_I_check(system)
    scan = report.scan
    bundle.constants["reference"] = report.reference
    bundle.constants["min_cluster_eigenvalue"] = report.min_mu
    bundle.constants["max_abs_deviation"] = report.max_abs_deviation
    bundle.tables.append(
        Table(
            name="clusters",
            columns=["N", "size", "mu", "deviation_from_reference"],
            rows=_table_rows(
                scan.centers.astype(int), scan.sizes, scan.min_eig, scan.min_eig - report.reference
            ),
        )
    )
    bundle.verdicts.append(
        Verdict(
            "cluster-minima-constant",
            report.max_abs_deviation <= 1e-10,
            f"max |mu - 2/pi| = {report.max_abs_deviation:.3e} over {scan.centers.size} clusters",
        )
    )
    if cfg.epsilon_cluster != CIRCLE_WIDTH:  # else the circle scan is this scan
        scan = coercivity_scan(system, cfg.epsilon_cluster)
    if not _coercive(bundle, scan):
        return bundle
    envelope = fit_psi_envelope(scan)
    bundle.constants["envelope_c"] = envelope.c
    bundle.constants["envelope_p"] = envelope.p
    bundle.verdicts.append(
        Verdict(
            "envelope-is-constant-form",
            envelope.p == 0 and abs(envelope.c - report.reference) <= 1e-10,
            f"fitted envelope c={envelope.c!r}, p={envelope.p!r}",
        )
    )
    return bundle


def run_assumption_ii_iii(cfg: RunConfig) -> ReportBundle:
    bundle = _new_bundle(cfg)
    system = system_of(cfg)
    delta_hat, report = delta_gamma_fit(system)
    scan = report.scan
    bundle.constants["delta_hat"] = delta_hat
    bundle.constants["min_generalized"] = report.min_generalized
    bundle.tables.append(
        Table(
            name="clusters",
            columns=["N", "size", "mu", "n_times_mu", "generalized_min"],
            rows=_table_rows(
                scan.centers.astype(int), scan.sizes, scan.min_eig, scan.centers * scan.min_eig,
                report.generalized,
            ),
        )
    )
    bundle.verdicts.append(
        Verdict(
            "decay-constant-positive",
            delta_hat > 0,
            f"delta_hat = {delta_hat!r} over {scan.centers.size} clusters",
        )
    )
    bundle.verdicts.append(
        Verdict(
            "q-weighted-restatement",
            report.min_generalized >= delta_hat - 1e-12,
            f"min generalized eigenvalue {report.min_generalized!r} vs delta_hat {delta_hat!r}",
        )
    )

    grid = admissibility_breakpoints(system, cfg.epsilon_cluster)
    m_sq = estimate_admissibility(system, cfg.epsilon_cluster, grid)
    m = math.sqrt(m_sq)
    bundle.constants["admissibility_sq"] = m_sq
    bundle.constants["admissibility"] = m
    if not delta_hat > 0:  # no certificate; decay-constant-positive has failed
        return bundle
    slope = 4.0 * m / delta_hat
    sample = [1.0, 10.0, 100.0, 1000.0]
    bundle.tables.append(
        Table(
            name="certificate_widths",
            columns=["lambda", "width_from_transform", "psi_tilde"],
            rows=[[lam, 1.0 / (slope * lam + 4.0), delta_hat / (4.0 * lam)] for lam in sample],
        )
    )
    return bundle


def run_admissibility(cfg: RunConfig) -> ReportBundle:
    bundle = _new_bundle(cfg)
    system = system_of(cfg)
    bundle.constants["system_label"] = system.label
    grid = admissibility_breakpoints(system, cfg.epsilon_cluster)
    m_sq = estimate_admissibility(system, cfg.epsilon_cluster, grid)
    bundle.constants["admissibility_sq"] = m_sq
    bundle.constants["admissibility"] = math.sqrt(m_sq)
    horizon = cfg.T if cfg.T is not None else 1.0
    kernel = observability_kernel(system, horizon)
    psd_min, sharp = kernel_psd_margin(kernel)
    bundle.constants["horizon"] = horizon
    bundle.constants["sharp_constant_truncated"] = sharp
    bundle.notes.append(
        "sharp_constant_truncated is the largest kernel eigenvalue of the truncated "
        "model only; it depends on the truncation level."
    )
    bundle.verdicts.append(
        Verdict(
            "kernel-positive-semidefinite",
            psd_min >= -1e-10 * max(sharp, 0.0),
            f"kernel eigenvalues in [{psd_min!r}, {sharp!r}] at T = {horizon!r}",
        )
    )
    if not sharp > 0:
        bundle.verdicts.append(
            Verdict(
                "sharp-constant-bounds-random-states",
                False,
                f"undecided: the sharp constant C_T = {sharp!r} is not positive",
            )
        )
        return bundle
    ratios = []
    for _, z in _state_blocks(cfg, system.size):
        check = admissibility_check(z, system, horizon, kernel, sharp * (1.0 + 1e-12))
        ratios += (check.margin / (sharp * check.norm_sq)).tolist()
    _worst_state(
        bundle, "sharp-constant-bounds-random-states", "worst_admissibility_margin", "margin/(C_T*norm_sq)", ratios
    )
    return bundle


_RUNNERS = {
    "verify-cutoff": run_verify_cutoff,
    "coercivity-scan": run_coercivity_scan,
    "resolvent-scan": run_resolvent_scan,
    "weak-observability": run_weak_observability,
    "assumption-i": run_assumption_i,
    "assumption-ii-iii": run_assumption_ii_iii,
    "admissibility": run_admissibility,
}


def run_scenario(cfg: RunConfig) -> ReportBundle:
    """Dispatch a validated configuration to its scenario pipeline."""
    runner = _RUNNERS.get(cfg.scenario)
    if runner is None:
        raise DomainError(f"unknown scenario {cfg.scenario!r}")
    return runner(cfg)

"""Spectral observability toolkit.

Encodes first-order evolution systems ż = iAz with observation y = Cz by
their spectral data (eigenvalue list, observation Gram matrix) and verifies
at desk scale the statements connecting them: frequency identities,
resolvent inequalities, cluster coercivity certificates and their
transforms, weak observability inequalities with explicit constants, and
the boundary-observed square model where every Gram entry is closed-form.
"""

from ._version import __version__
from .coercivity import (
    CertificatePipeline,
    ClusterScan,
    CoercivityCertificate,
    CoercivityViolation,
    ResolventReport,
    admissibility_breakpoints,
    coercivity_scan,
    estimate_admissibility,
    fit_psi_envelope,
    resolvent_check,
    scan_certificate,
    shifted_power_law,
    spectral_coercivity_violation_search,
    weak_to_spectral,
)
from .config import RunConfig, apply_overrides, default_config, load_config, system_of
from .decay import DecayFunction, PowerLaw, TransformedWidth
from .errors import (
    ConfigError,
    DomainError,
    NumericError,
    ShapeError,
)
from .evolution import (
    AdmissibilityReport,
    ObservabilityReport,
    admissibility_check,
    kernel_psd_margin,
    observability_integral,
    observability_kernel,
    weak_observability_check,
)
from .report import (
    ReportBundle,
    Table,
    Verdict,
    bundle_summary_text,
    bundle_to_csv_texts,
    bundle_to_json_text,
)
from .scenarios import run_scenario
from .spectral import (
    FrequencyReport,
    SpectralSystem,
    frequency,
    frequency_report,
    observed_energy_sq,
)
from .square import (
    AssumptionReport,
    BoundaryPatch,
    DeltaGammaReport,
    GammaSpec,
    Side,
    assumption_I_check,
    bottom_and_left,
    build_square_system,
    delta_gamma_fit,
    square_modes,
)
from .window import (
    PlancherelReport,
    chi_hat,
    default_tau_grid,
    plancherel_lowerbound_check,
    sandwich_values,
    solve_observation_time,
    windowed_frequency,
)

__all__ = [
    "__version__",
    "AdmissibilityReport",
    "AssumptionReport",
    "BoundaryPatch",
    "CertificatePipeline",
    "ClusterScan",
    "CoercivityCertificate",
    "CoercivityViolation",
    "ConfigError",
    "DecayFunction",
    "DeltaGammaReport",
    "DomainError",
    "FrequencyReport",
    "GammaSpec",
    "NumericError",
    "ObservabilityReport",
    "PlancherelReport",
    "PowerLaw",
    "ReportBundle",
    "ResolventReport",
    "RunConfig",
    "ShapeError",
    "Side",
    "SpectralSystem",
    "Table",
    "TransformedWidth",
    "Verdict",
    "admissibility_breakpoints",
    "admissibility_check",
    "apply_overrides",
    "assumption_I_check",
    "bottom_and_left",
    "build_square_system",
    "bundle_summary_text",
    "bundle_to_csv_texts",
    "bundle_to_json_text",
    "chi_hat",
    "coercivity_scan",
    "default_config",
    "default_tau_grid",
    "delta_gamma_fit",
    "estimate_admissibility",
    "fit_psi_envelope",
    "frequency",
    "frequency_report",
    "kernel_psd_margin",
    "load_config",
    "observability_integral",
    "observability_kernel",
    "observed_energy_sq",
    "plancherel_lowerbound_check",
    "resolvent_check",
    "run_scenario",
    "sandwich_values",
    "scan_certificate",
    "shifted_power_law",
    "solve_observation_time",
    "spectral_coercivity_violation_search",
    "square_modes",
    "system_of",
    "weak_observability_check",
    "weak_to_spectral",
    "windowed_frequency",
]

"""Spectral clusters, coercivity certificates, and their transforms.

A state whose frequency residual is small behaves like a near-eigenvector;
coercivity certificates quantify how strongly such states are observed.
Two certificate kinds exist: ``weak_spectral`` (lower bound ψ(λ) for states
supported on an ε-cluster of eigenvalues) and ``spectral`` (lower bound for
every state with residual(z) < ε(λ(z))).  The tools here enumerate
clusters, scan their Gram minima, fit envelope functions, convert weak
certificates into full spectral ones via an admissibility constant, test
the per-frequency resolvent inequality, and hunt for counterexamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import (
    Constant,
    DecayFunction,
    PowerLaw,
    TransformedWidth,
    require_positive_nonincreasing,
)
from .errors import CoercivityError, DomainError, NumericError
from .spectral import (
    SpectralSystem,
    _amax,
    coefficients_of,
    frequency_report,
    observed_energy_sq,
    residual_shifted,
)

CERTIFICATE_KINDS = ("spectral", "weak_spectral")

# Minimal cluster Gram eigenvalue below which weak coercivity is declared
# failed at the scanned width.
COERCIVITY_FLOOR = 1.0e-14

# Gram eigenvalues at or below this fraction of the largest are left out of
# the low-rank factor used by estimate_admissibility; their mass re-enters as
# a Weyl bound.
GRAM_RANK_CUTOFF = 1.0e-13

# Safety factor keeping the sampling cluster half-width β strictly inside
# the admissible range 2β² < ε.
BETA_SAFETY = 1.0 - 1.0e-9


@dataclass(frozen=True)
class CoercivityCertificate:
    """A (ε, ψ) pair certifying observation strength, with provenance.

    For ``kind="weak_spectral"`` the width ε must be a Constant (the bound
    applies to states supported on fixed-width eigenvalue clusters).  For
    ``kind="spectral"`` both members may vary with frequency.
    """

    epsilon: DecayFunction
    psi: DecayFunction
    kind: str
    provenance: str = ""

    def __post_init__(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise DomainError(f"certificate kind must be one of {CERTIFICATE_KINDS}, got {self.kind!r}")
        if not isinstance(self.epsilon, DecayFunction) or not isinstance(self.psi, DecayFunction):
            raise DomainError("epsilon and psi must be decay functions")
        if self.kind == "weak_spectral" and not isinstance(self.epsilon, Constant):
            raise DomainError("weak_spectral certificates require a Constant cluster width")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "epsilon": self.epsilon.to_dict(),
            "psi": self.psi.to_dict(),
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class ClusterReport:
    """One eigenvalue cluster with its minimal observed energy.

    ``indices`` is exactly {k : |center − λ_k| < epsilon} (strict), and
    ``min_eig``/``min_vec`` are the smallest eigenpair of the Gram submatrix
    on the cluster; ``min_vec`` is embedded at full length, unit norm, with
    its largest-magnitude component made real positive.
    """

    center: float
    epsilon: float
    indices: np.ndarray
    min_eig: float
    min_vec: np.ndarray

    @property
    def size(self) -> int:
        return int(self.indices.size)


def enumerate_cluster(system: SpectralSystem, lam: float, epsilon: float) -> np.ndarray:
    """Indices k with |λ − λ_k| < ε (strict); possibly empty."""
    if not epsilon > 0:
        raise DomainError(f"cluster width must be positive, got {epsilon}")
    return np.flatnonzero(np.abs(system.eigenvalues - lam) < epsilon)


def cluster_min_coercivity(system: SpectralSystem, indices) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and unit eigenvector of the Gram block on a cluster.

    The eigenvalue is min over unit-norm states supported on the cluster of
    ‖Cz‖²; the eigenvector is returned at full length with a deterministic
    phase (largest-magnitude component real positive).
    """
    idx = np.asarray(indices, dtype=int)
    if idx.size == 0:
        raise DomainError("cluster index list is empty")
    if idx.min() < 0 or idx.max() >= system.size or np.unique(idx).size != idx.size:
        raise DomainError("cluster indices must be unique and within the mode range")
    block = system.gram[np.ix_(idx, idx)]
    vals, vecs = np.linalg.eigh(block)
    v = vecs[:, 0]
    pivot = int(np.argmax(np.abs(v)))
    phase = v[pivot] / abs(v[pivot])
    v = v * np.conj(phase)
    full = np.zeros(system.size, dtype=complex)
    full[idx] = v
    return float(vals[0]), full


def coercivity_scan(system: SpectralSystem, epsilon: float, lambda_max: float) -> list[ClusterReport]:
    """One ClusterReport per distinct eigenvalue ≤ lambda_max, sorted by center."""
    if not epsilon > 0:
        raise DomainError(f"cluster width must be positive, got {epsilon}")
    centers = [float(v) for v in system.distinct_eigenvalues() if v <= lambda_max]

    def scan_one(center: float) -> ClusterReport:
        idx = enumerate_cluster(system, center, epsilon)
        min_eig, min_vec = cluster_min_coercivity(system, idx)
        return ClusterReport(center=center, epsilon=epsilon, indices=idx, min_eig=min_eig, min_vec=min_vec)

    return [scan_one(center) for center in centers]


def fit_psi_envelope(reports: list[ClusterReport]) -> PowerLaw:
    """Tightest dominated envelope c/(1+λ)^p, p ∈ {0, 1, 2}, under scan minima.

    For each exponent the largest c with c/(1+center)^p ≤ min_eig on every
    report is taken; the exponent minimizing the worst-case slack wins, ties
    going to the smaller exponent (so flat data yields a constant-form law).
    Envelope dominance is re-verified exactly before returning.
    """
    if not reports:
        raise DomainError("cannot fit an envelope to an empty scan")
    for rep in reports:
        if rep.min_eig <= COERCIVITY_FLOOR:
            raise CoercivityError(
                f"not weakly coercive at width {rep.epsilon}: cluster at center "
                f"{rep.center} has minimal observed energy {rep.min_eig:.3e}",
                cluster=rep,
            )
    centers = np.array([rep.center for rep in reports])
    minima = np.array([rep.min_eig for rep in reports])

    best_p, best_c, best_slack = None, None, None
    for p in (0, 1, 2):
        lifted = minima * (1.0 + centers) ** p
        c_p = float(lifted.min())
        slack_p = float(lifted.max() / c_p)
        if best_slack is None or slack_p < best_slack * (1.0 - 1e-12):
            best_p, best_c, best_slack = p, c_p, slack_p
    envelope = PowerLaw(best_c, float(best_p))
    values = envelope(centers)
    if np.any(values > minima * (1.0 + 1e-12)):
        raise NumericError("fitted envelope fails dominance re-verification")
    return envelope


def shifted_power_law(envelope: PowerLaw, shift: float) -> PowerLaw:
    """A same-family lower bound for λ ↦ envelope(λ + shift).

    Uses (1+λ+shift) ≤ (1+λ)(1+shift) for shift ≥ 0, so the result never
    exceeds the shifted envelope; exact for the constant form.
    """
    if not shift >= 0:
        raise DomainError(f"shift must be non-negative, got {shift}")
    return PowerLaw(envelope.c / (1.0 + shift) ** envelope.p, envelope.p)


def weak_to_spectral(cert: CoercivityCertificate, M: float) -> CoercivityCertificate:
    """Turn a weak certificate into a full spectral one via admissibility M.

    Output width ε(λ) = ½(2M/ψ(λ) + 1/ε₀)⁻¹ (kept as an exact composite)
    and strength ψ(λ)/4; both are re-verified positive non-increasing.
    """
    if cert.kind != "weak_spectral":
        raise DomainError("weak_to_spectral requires a weak_spectral certificate")
    if not (M > 0 and math.isfinite(M)):
        raise DomainError(f"admissibility constant must be positive and finite, got {M!r}")
    epsilon = TransformedWidth(psi=cert.psi, admissibility=M, base_width=cert.epsilon.c)
    psi = cert.psi.scaled(0.25)
    require_positive_nonincreasing(epsilon, "transformed cluster width")
    require_positive_nonincreasing(psi, "transformed coercivity strength")
    return CoercivityCertificate(
        epsilon=epsilon,
        psi=psi,
        kind="spectral",
        provenance=f"weak-to-spectral transform (M={M!r}) of: {cert.provenance}",
    )


def default_lambda_grid(system: SpectralSystem, points: int = 512) -> np.ndarray:
    """Log-spaced grid on [λ_min/2, 2λ_max] plus midpoints of spectral gaps."""
    base = np.geomspace(system.lambda_min / 2.0, 2.0 * system.lambda_max, points)
    distinct = system.distinct_eigenvalues()
    mids = 0.5 * (distinct[:-1] + distinct[1:])
    return np.unique(np.concatenate([base, mids]))


def admissibility_breakpoints(system: SpectralSystem, epsilon: float) -> np.ndarray:
    """Sorted unique cluster edges λ_k ± ε over the distinct eigenvalues.

    Between consecutive edges the off-cluster set is fixed and the squared
    norm is convex in λ, so its largest value over these points is its
    supremum over all real λ.
    """
    if not epsilon > 0:
        raise DomainError(f"cluster width must be positive, got {epsilon}")
    distinct = system.distinct_eigenvalues()
    return np.unique(np.concatenate([distinct - epsilon, distinct + epsilon]))


def estimate_admissibility(system: SpectralSystem, epsilon: float, lambda_grid) -> float:
    """Squared off-cluster resolvent-observation norm, maximized over the grid.

    For each λ the modes with |λ_k − λ| ≥ ε form the off-cluster block; the
    value there is the largest eigenvalue of D⁻¹ G D⁻¹ with D = diag(λ_k − λ)
    over that block.  A mode also counts as off-cluster at its own computed
    edges fl(λ_k ± ε), where rounding can make |λ_k − λ| fall just below ε.
    Returns M² (callers take the square root).

    Given ``admissibility_breakpoints(system, epsilon)`` as the grid, the
    result is the exact supremum over all real λ, not a grid maximum.

    The Gram is factored once, G = FF* + E, by ``eigh``: F keeps the
    eigenpairs above ``GRAM_RANK_CUTOFF`` times the largest eigenvalue, E is
    the rest.  At each λ the top eigenvalue of the r×r matrix (D⁻¹F)*(D⁻¹F)
    (the same nonzero spectrum as the off-cluster block of D⁻¹FF*D⁻¹) is
    taken, and the Weyl bound ‖E‖/ε² is added once, so the result is an
    upper bound for the value with the full Gram.
    """
    if not epsilon > 0:
        raise DomainError(f"cluster width must be positive, got {epsilon}")
    grid = np.asarray(lambda_grid, dtype=float).ravel()
    if grid.size == 0:
        raise DomainError("lambda grid is empty")
    eigenvalues = system.eigenvalues
    lower_edges = eigenvalues - epsilon
    upper_edges = eigenvalues + epsilon
    w, v = np.linalg.eigh(system.gram)
    kept = w > GRAM_RANK_CUTOFF * w[-1]
    factor = v[:, kept] * np.sqrt(w[kept])
    weyl = float(np.abs(w[~kept]).max(initial=0.0)) / epsilon**2

    best = 0.0
    for lam in grid:
        d = eigenvalues - lam
        off = (np.abs(d) >= epsilon) | (lam <= lower_edges) | (lam >= upper_edges)
        if not off.any():
            raise DomainError(
                f"the cluster at λ = {lam} covers every mode; off-cluster block is empty"
            )
        scaled = factor[off] / d[off, None]
        if scaled.shape[1]:
            best = max(best, float(np.linalg.eigvalsh(scaled.conj().T @ scaled)[-1]))
    return best + weyl


@dataclass(frozen=True)
class ResolventReport:
    """Per-frequency resolvent inequality margins for one state.

    Margin at λ is min(‖Cz‖²/ψ(λ(z)), ‖(A−λ)z‖²/((λ−λ(z))² + ε(λ(z)))) − ‖z‖²;
    the verdict requires every margin ≥ −1e−9·‖z‖².
    """

    lambdas: np.ndarray
    margins: np.ndarray
    lambda_z: float
    norm_sq: float
    observed_sq: float
    verdict: bool

    @property
    def min_margin(self) -> float:
        return float(self.margins.min())


def resolvent_check(
    system: SpectralSystem, z, lambda_grid, cert: CoercivityCertificate
) -> ResolventReport:
    """Evaluate the two-sided resolvent bound over a frequency grid."""
    if cert.kind != "spectral":
        raise DomainError("resolvent_check requires a spectral certificate")
    grid = np.asarray(lambda_grid, dtype=float).ravel()
    if grid.size == 0:
        raise DomainError("lambda grid is empty")
    # Every term is homogeneous of degree 2 in z, so evaluate on c·2^(−e), whose
    # largest entry lies in [1/2, 1): no state overflows, the power-of-two
    # scaling is exact, and the verdict is taken in that frame.
    c = coefficients_of(z, system)
    e = math.frexp(_amax(c))[1]
    c = c * 2.0**-e
    rep = frequency_report(c, system)
    observed = observed_energy_sq(c, system)
    psi_val = float(cert.psi(rep.lambda_z))
    eps_val = float(cert.epsilon(rep.lambda_z))
    abs2 = np.abs(c) ** 2
    shifted_sq = ((system.eigenvalues[None, :] - grid[:, None]) ** 2) @ abs2
    bound_obs = observed / psi_val
    bound_res = shifted_sq / ((grid - rep.lambda_z) ** 2 + eps_val)
    margins = np.minimum(bound_obs, bound_res) - rep.norm_sq
    verdict = bool(margins.min() >= -1.0e-9 * rep.norm_sq)
    with np.errstate(over="ignore"):  # back to the true scale, ±inf past the float range
        margins, norm_sq, observed = (np.ldexp(v, 2 * e) for v in (margins, rep.norm_sq, observed))
    return ResolventReport(
        lambdas=grid,
        margins=margins,
        lambda_z=rep.lambda_z,
        norm_sq=float(norm_sq),
        observed_sq=float(observed),
        verdict=verdict,
    )


@dataclass(frozen=True)
class CoercivityViolation:
    """A state beating a spectral certificate: residual inside the width,
    observed energy below the promised ψ(λ(z))‖z‖²."""

    coefficients: np.ndarray
    lambda_z: float
    residual: float
    epsilon_at: float
    observed: float
    required: float
    margin: float
    relative_margin: float
    trial: int
    origin: str


def spectral_coercivity_violation_search(
    system: SpectralSystem,
    cert: CoercivityCertificate,
    trials: int,
    seed: int,
) -> CoercivityViolation | None:
    """Randomized hunt for certificate violations; deterministic given seed.

    Deterministic candidates come first: for every distinct eigenvalue the
    admissible-width cluster's own minimal eigenvector (the worst observed
    state of that cluster).  Then ``trials`` random draws: complex Gaussian
    coefficients on a randomly chosen cluster, optionally perturbed on up to
    5 nearby outside modes at magnitude 10^{−u}, u uniform in [1, 6].  Only
    states satisfying residual(z) < ε(λ(z)) count; the worst relative margin
    below −1e−12 wins.
    """
    if cert.kind != "spectral":
        raise DomainError("violation search requires a spectral certificate")
    if not trials >= 0:
        raise DomainError(f"trials must be non-negative, got {trials}")
    rng = np.random.default_rng(seed)
    eigenvalues = system.eigenvalues
    centers = system.distinct_eigenvalues()
    best: CoercivityViolation | None = None

    def consider(zc: np.ndarray, trial: int, origin: str) -> None:
        nonlocal best
        rep = frequency_report(zc, system)
        res = residual_shifted(zc, system)
        eps_at = float(cert.epsilon(rep.lambda_z))
        if not res < eps_at:
            return
        required = float(cert.psi(rep.lambda_z)) * rep.norm_sq
        observed = observed_energy_sq(zc, system)
        margin = observed - required
        if margin >= -1.0e-12 * required:
            return
        relative = margin / required
        if best is None or relative < best.relative_margin:
            best = CoercivityViolation(
                coefficients=zc.copy(),
                lambda_z=rep.lambda_z,
                residual=res,
                epsilon_at=eps_at,
                observed=observed,
                required=required,
                margin=margin,
                relative_margin=relative,
                trial=trial,
                origin=origin,
            )

    def half_width(center: float) -> float:
        return math.sqrt(float(cert.epsilon(center)) / 2.0) * BETA_SAFETY

    for center in centers:
        idx = enumerate_cluster(system, float(center), half_width(float(center)))
        if idx.size == 0:
            continue
        _, vec = cluster_min_coercivity(system, idx)
        consider(vec, -1, "cluster_min_vec")

    for trial in range(trials):
        center = float(centers[int(rng.integers(centers.size))])
        idx = enumerate_cluster(system, center, half_width(center))
        if idx.size == 0:
            continue
        zc = np.zeros(system.size, dtype=complex)
        block = rng.standard_normal((2, idx.size))
        zc[idx] = block[0] + 1j * block[1]
        outside = np.setdiff1d(np.arange(system.size), idx)
        n_perturb = int(rng.integers(0, 6))
        if n_perturb > 0 and outside.size > 0:
            order = np.argsort(np.abs(eigenvalues[outside] - center), kind="stable")
            chosen = outside[order][:n_perturb]
            u = float(rng.uniform(1.0, 6.0))
            rms = math.sqrt(float(np.mean(np.abs(zc[idx]) ** 2)))
            noise = rng.standard_normal((2, chosen.size))
            zc[chosen] += 10.0 ** (-u) * rms * (noise[0] + 1j * noise[1])
        consider(zc, trial, "random")

    return best


@dataclass(frozen=True)
class CertificatePipeline:
    """Everything produced by the scan → envelope → transform chain."""

    scan_width: float
    reports: list[ClusterReport]
    envelope: PowerLaw
    weak: CoercivityCertificate
    admissibility_sq: float
    admissibility: float
    spectral: CoercivityCertificate


def scan_certificate(system: SpectralSystem, epsilon: float) -> CertificatePipeline:
    """Build a spectral certificate from the system's own cluster scan.

    Chain: eigenvalue-centered scan at width ε up to λ_max → envelope fit →
    shift to arbitrary centers as a weak certificate (ε/2, envelope lowered
    by the center shift) → admissibility at width ε/2 → weak_to_spectral.

    ``admissibility_sq`` is the exact supremum over all real λ:
    ``estimate_admissibility`` evaluated at the cluster edges
    ``admissibility_breakpoints(system, ε/2)``, in low rank plus a Weyl
    term, hence an upper bound.
    """
    reports = coercivity_scan(system, epsilon, system.lambda_max)
    envelope = fit_psi_envelope(reports)
    half = epsilon / 2.0
    weak = CoercivityCertificate(
        epsilon=Constant(half),
        psi=shifted_power_law(envelope, half),
        kind="weak_spectral",
        provenance=f"eigenvalue-centered cluster scan at width {epsilon!r} on {system.label or 'system'}",
    )
    m_sq = estimate_admissibility(system, half, admissibility_breakpoints(system, half))
    m = math.sqrt(m_sq)
    spectral = weak_to_spectral(weak, m)
    return CertificatePipeline(
        scan_width=epsilon,
        reports=reports,
        envelope=envelope,
        weak=weak,
        admissibility_sq=m_sq,
        admissibility=m,
        spectral=spectral,
    )

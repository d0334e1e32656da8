"""Observability integrals over the evolved trajectory.

For ż = iAz the trajectory is z(t) = Σ z_k e^{iλ_k t} φ_k, and the observed
energy over [0, T] has the exact closed form

    ∫₀ᵀ ‖Cz(t)‖² dt = Σ_{jk} G_{jk} z_j conj(z_k) K_{jk}(T),

with the phase kernel K_{jk}(T) = (e^{i(λ_j−λ_k)T} − 1)/(i(λ_j−λ_k)) and
K = T on the diagonal.  The kernel matrix G∘K is the Gram of the evolved
traces, hence positive semidefinite; its largest eigenvalue is the sharp
truncated admissibility constant (truncation-dependent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .decay import DecayFunction
from .errors import DomainError, NumericError
from .spectral import SpectralSystem, StateVector, coefficients_of, frequency
from .window import ThetaConstants, solve_observation_time

# Eigenvalue differences below this are treated as exactly equal.
TIE_TOL = 1.0e-12
# Below this |Δ|·T the kernel uses a series to dodge cancellation.
SERIES_THRESHOLD = 1.0e-4


def evolve(z0, system: SpectralSystem, t: float) -> StateVector:
    """The trajectory point z(t): coefficients z_k e^{iλ_k t}."""
    c = coefficients_of(z0, system)
    return StateVector(c * np.exp(1j * system.eigenvalues * t))


def phase_kernel(eigenvalues: np.ndarray, T: float) -> np.ndarray:
    """The matrix K_{jk}(T) = ∫₀ᵀ e^{i(λ_j−λ_k)t} dt, elementwise stable.

    Exact ties (|Δ| < 1e−12) give T; small |Δ|·T uses a 4-term series of
    (e^{ix}−1)/(ix); otherwise the direct formula applies.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    delta = lam[:, None] - lam[None, :]
    x = delta * T
    tie = np.abs(delta) < TIE_TOL
    small = (np.abs(x) < SERIES_THRESHOLD) & ~tie
    out = np.empty(delta.shape, dtype=complex)

    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (np.exp(1j * x) - 1.0) / (1j * delta)
    out[:] = direct
    ix = 1j * x[small]
    out[small] = T * (1.0 + ix / 2.0 + ix**2 / 6.0 + ix**3 / 24.0)
    out[tie] = T
    return out


def observability_kernel(system: SpectralSystem, T: float) -> np.ndarray:
    """The Hermitian form G∘K(T) whose quadratic form is the observed energy."""
    if not T >= 0:
        raise DomainError(f"time horizon must be non-negative, got {T}")
    return system.gram * phase_kernel(system.eigenvalues, T)


def observability_integral(z0, system: SpectralSystem, T: float) -> float:
    """Closed-form ∫₀ᵀ‖Cz(t)‖²dt; real and non-negative up to round-off."""
    if not T > 0:
        raise DomainError(f"time horizon must be positive, got {T}")
    c = coefficients_of(z0, system)
    u = c.conj()
    kernel = observability_kernel(system, T)
    value = complex(np.vdot(u, kernel @ u))
    scale = max(abs(value.real), T * float(np.vdot(c, c).real))
    if abs(value.imag) > 1.0e-10 * scale:
        raise NumericError(
            f"observability integral came out non-real: imag {value.imag:.3e} vs scale {scale:.3e}"
        )
    return value.real


def observability_integral_by_quadrature(
    z0, system: SpectralSystem, T: float, *, epsabs: float = 1.0e-10, epsrel: float = 1.0e-10
) -> float:
    """Adaptive time quadrature of t ↦ ‖Cz(t)‖², the oracle for the closed form."""
    if not T > 0:
        raise DomainError(f"time horizon must be positive, got {T}")
    c = coefficients_of(z0, system)
    gram = system.gram
    lam = system.eigenvalues

    def energy(t: float) -> float:
        u = (c * np.exp(1j * lam * t)).conj()
        return float(np.vdot(u, gram @ u).real)

    # Enough subdivisions to resolve the fastest phase difference on [0, T].
    spread = float(lam[-1] - lam[0])
    limit = int(200 + 20 * spread * T / math.pi)
    value, _ = quad(energy, 0.0, T, epsabs=epsabs, epsrel=epsrel, limit=limit)
    return value


def kernel_psd_margin(system: SpectralSystem, T: float) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of G∘K(T); smallest ≥ −1e−10·largest.

    The largest is the sharp admissibility constant of the truncated model
    only; it depends on the truncation level.
    """
    vals = np.linalg.eigvalsh(observability_kernel(system, T))
    return float(vals[0]), float(vals[-1])


def admissibility_check(z0, system: SpectralSystem, T: float, C_T: float) -> float:
    """Margin C_T‖z0‖² − ∫₀ᵀ‖Cz‖²; non-negative iff C_T is admissible for z0."""
    if not C_T > 0:
        raise DomainError(f"admissibility constant must be positive, got {C_T}")
    c = coefficients_of(z0, system)
    norm_sq = float(np.vdot(c, c).real)
    return C_T * norm_sq - observability_integral(z0, system, T)


@dataclass(frozen=True)
class ObservabilityReport:
    """One weak-observability inequality evaluation.

    ``lhs`` is θ₂·ψ(θ₀(1/T + λ(z0)))·‖z0‖², ``integral`` the observed
    energy, ``margin`` their difference, ``t_min`` the minimal horizon
    T(λ(z0)), and ``applicable`` whether T ≥ t_min so the inequality is
    actually claimed.  ``diagnostic_integral`` is filled only when a
    negative applicable margin triggered the tighter quadrature re-run.
    """

    T: float
    integral: float
    lhs: float
    t_min: float
    margin: float
    applicable: bool
    lambda_z0: float
    norm_sq: float
    diagnostic_integral: float | None = None


def weak_observability_check(
    z0,
    system: SpectralSystem,
    T: float,
    psi: DecayFunction,
    eps: DecayFunction,
    th: ThetaConstants,
    t_min: float | None = None,
) -> ObservabilityReport:
    """Evaluate θ₂ψ(θ₀(1/T+λ(z0)))‖z0‖² ≤ ∫₀ᵀ‖Cz‖² for one state.

    ``t_min`` is ``solve_observation_time(λ(z0), eps, th)``; a caller that
    has already solved it passes it in, otherwise it is solved here.
    A negative margin with T ≥ t_min does not by itself assert failure:
    the integral is re-evaluated by adaptive time quadrature at tighter
    tolerance and the re-run value is reported alongside.
    """
    if not T > 0:
        raise DomainError(f"time horizon must be positive, got {T}")
    c = coefficients_of(z0, system)
    lam0 = frequency(z0, system)
    norm_sq = float(np.vdot(c, c).real)
    if t_min is None:
        t_min = solve_observation_time(lam0, eps, th)
    applicable = T >= t_min
    lhs = th.theta2 * float(psi(th.theta0 * (1.0 / T + lam0))) * norm_sq
    integral = observability_integral(z0, system, T)
    margin = integral - lhs
    diagnostic = None
    if applicable and margin < -1.0e-9 * (1.0 + integral):
        diagnostic = observability_integral_by_quadrature(
            z0, system, T, epsabs=1.0e-12, epsrel=1.0e-12
        )
        margin = max(margin, diagnostic - lhs)
    return ObservabilityReport(
        T=T,
        integral=integral,
        lhs=lhs,
        t_min=t_min,
        margin=margin,
        applicable=applicable,
        lambda_z0=lam0,
        norm_sq=norm_sq,
        diagnostic_integral=diagnostic,
    )

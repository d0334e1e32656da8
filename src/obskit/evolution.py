"""Observability integrals over the evolved trajectory.

For ż = iAz the trajectory is z(t) = Σ z_k e^{iλ_k t} φ_k, and the observed
energy over [0, T] has the exact closed form

    ∫₀ᵀ ‖Cz(t)‖² dt = Σ_{jk} G_{jk} z_j conj(z_k) K_{jk}(T),

with the phase kernel K_{jk}(T) = ∫₀ᵀ e^{i(λ_j−λ_k)t} dt = T·e^{ih}·sin(h)/h,
h = (λ_j−λ_k)T/2 (K = T where h = 0).  The kernel matrix G∘K is the Gram of
the evolved traces, hence positive semidefinite; its largest eigenvalue is
the sharp truncated admissibility constant (truncation-dependent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import DecayFunction
from .errors import DomainError, NumericError
from .spectral import SpectralSystem, _power_of_two_frame, coefficients_of, frequency
from .window import THETA0, THETA2


def phase_kernel(eigenvalues: np.ndarray, T: float) -> np.ndarray:
    """The matrix K_{jk}(T) = ∫₀ᵀ e^{i(λ_j−λ_k)t} dt = r·e^{ih}, r = T·sin(h)/h.

    With h = (λ_j−λ_k)T/2 this one form holds for every gap and nothing in
    it cancels, so it keeps full relative accuracy; r = T where h = 0.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    h = 0.5 * T * (lam[:, None] - lam[None, :])
    s = np.sin(h)
    r = np.full(h.shape, float(T))
    np.divide(T * s, h, out=r, where=h != 0.0)
    return r * np.cos(h) + 1j * (r * s)


def observability_kernel(system: SpectralSystem, T: float) -> np.ndarray:
    """The Hermitian form G∘K(T) whose quadratic form is the observed energy."""
    if not T >= 0:
        raise DomainError(f"time horizon must be non-negative, got {T}")
    return system.gram * phase_kernel(system.eigenvalues, T)


def _observed_energy(c: np.ndarray, kernel: np.ndarray, T: float) -> float:
    """The quadratic form u*(G∘K(T))u, u = conj(c), checked real at horizon T."""
    u = c.conj()
    value = complex(np.vdot(u, kernel @ u))
    scale = max(abs(value.real), T * float(np.vdot(c, c).real))
    if abs(value.imag) > 1.0e-10 * scale:
        raise NumericError(
            f"observability integral came out non-real: imag {value.imag:.3e} vs scale {scale:.3e}"
        )
    return value.real


def observability_integral(z0, system: SpectralSystem, T: float) -> float:
    """Closed-form ∫₀ᵀ‖Cz(t)‖²dt; real and non-negative up to round-off.

    Evaluated in the power-of-two frame of z0, so a finite state never
    yields nan: past the float range the integral reads inf.
    """
    if not T > 0:
        raise DomainError(f"time horizon must be positive, got {T}")
    c, back = _power_of_two_frame(coefficients_of(z0, system))
    return back(_observed_energy(c, observability_kernel(system, T), T))


def kernel_psd_margin(kernel: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of ``kernel`` = G∘K(T); smallest ≥ −1e−10·largest.

    ``kernel`` is ``observability_kernel(system, T)``.  The largest
    eigenvalue is the sharp admissibility constant of the truncated model
    only; it depends on the truncation level.
    """
    vals = np.linalg.eigvalsh(kernel)
    return float(vals[0]), float(vals[-1])


def admissibility_check(z0, system: SpectralSystem, T: float, kernel: np.ndarray, C_T: float) -> float:
    """Margin C_T‖z0‖² − ∫₀ᵀ‖Cz‖²; non-negative iff C_T is admissible for z0.

    ``kernel`` is ``observability_kernel(system, T)``, built once per
    horizon by the caller.  Taken in the power-of-two frame of z0, like
    ``observability_integral``.
    """
    if not C_T > 0:
        raise DomainError(f"admissibility constant must be positive, got {C_T}")
    if not T > 0:
        raise DomainError(f"time horizon must be positive, got {T}")
    c, back = _power_of_two_frame(coefficients_of(z0, system))
    norm_sq = float(np.vdot(c, c).real)
    return back(C_T * norm_sq - _observed_energy(c, kernel, T))


@dataclass(frozen=True)
class ObservabilityReport:
    """One weak-observability inequality evaluation.

    ``lhs`` is θ₂·ψ(θ₀(1/T + λ(z0)))·‖z0‖², ``integral`` the observed
    energy, ``margin`` their difference, ``t_min`` the minimal horizon
    T(λ(z0)), and ``applicable`` whether T ≥ t_min so the inequality is
    actually claimed.
    """

    T: float
    integral: float
    lhs: float
    t_min: float
    margin: float
    applicable: bool
    lambda_z0: float
    norm_sq: float


def weak_observability_check(
    z0,
    system: SpectralSystem,
    T: float,
    psi: DecayFunction,
    t_min: float,
) -> ObservabilityReport:
    """Evaluate θ₂ψ(θ₀(1/T+λ(z0)))‖z0‖² ≤ ∫₀ᵀ‖Cz‖² for one state.

    ``t_min`` is the minimal horizon ``solve_observation_time(λ(z0), ε, θ₁)``.
    Both sides and their margin are taken in the power-of-two frame of z0
    and scaled back, so a finite state never yields nan.
    """
    if not T > 0:
        raise DomainError(f"time horizon must be positive, got {T}")
    c, back = _power_of_two_frame(coefficients_of(z0, system))
    lam0 = frequency(c, system)
    norm_sq = float(np.vdot(c, c).real)
    lhs = THETA2 * float(psi(THETA0 * (1.0 / T + lam0))) * norm_sq
    integral = observability_integral(c, system, T)
    return ObservabilityReport(
        T=T,
        integral=back(integral),
        lhs=back(lhs),
        t_min=t_min,
        margin=back(integral - lhs),
        applicable=T >= t_min,
        lambda_z0=lam0,
        norm_sq=back(norm_sq),
    )

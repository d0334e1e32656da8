"""The time cutoff window, its Fourier transform, and derived constants.

The window is χ(s) = (1−|s|)e^{−2|s|} on (−1, 1), zero outside.  Its
transform χ̂(τ) = ∫χ(s)e^{−iτs}ds has the closed form

    χ̂(τ) = 2·Re[ 1/w − (1 − e^{−w})/w² ],   w = 2 + iτ,

which ``chi_hat_real_form`` restates in real arithmetic; adaptive
quadrature is the test oracle for both.  The window is
fixed, so its norms and the frequency-localization constants c₀, c₀′, θ₀,
θ₁ and θ₂ are module constants in closed form.  Also here:
the windowed frequency of an evolved state, the minimal observation time
T(λ) solving T·ε(θ₀(1/T+λ)) = θ₁, and a proven, closed-form
truncated-Plancherel lower bound for windowed trajectory energy.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .decay import DecayFunction, PowerLaw, TransformedWidth
from .errors import DomainError, NumericError, ShapeError
from .spectral import SpectralSystem, _horizons, _moments, _per_row, _power_of_two_frame, coefficients_of

# Postulated sandwich constants for (1+τ²)|χ̂(τ)|: the verifier tests them,
# it does not assume them.
KAPPA1 = 4.0 / (3.0 * math.pi)
KAPPA2 = 6.0
# Proven sandwich, x = τ²: as |(4−x)cos τ − 4τ sin τ| ≤ 4 + x, (1+x)|χ̂| lies
# between 2(1+x)(4 + 3x − e⁻²(4+x))/(4+x)² ≥ (1 − e⁻²)/2 > κ₁ and
# 2(1+x)(3x+4)/(4+x)² + 2e⁻²(1+x)/(4+x) < κ₂*, each monotone in x.
KAPPA2_SUP = 6.0 + 2.0 * math.exp(-2.0)

# Window norms in closed form: ‖χ‖² = (5 − e⁻⁴)/16, ‖χ̇‖² = (13 − e⁻⁴)/4.
# χ is even and decreasing in |s| from χ(0) = 1, so ‖χ‖∞ = 1 exactly.
CHI_L2_NORM_SQ = (5.0 - math.exp(-4.0)) / 16.0
CHI_DERIV_L2_NORM_SQ = (13.0 - math.exp(-4.0)) / 4.0

# Frequency-localization constants: c₀ = 8κ₂/κ₁ + κ₁/κ₂ + 6, c₀′ = ‖χ̇‖/‖χ‖,
# θ₀ = max(c₀′, 8 + c₀), θ₁ = 4‖χ‖²/‖χ̇‖² and θ₂ = 4‖χ‖²/‖χ‖∞².
C0 = 8.0 * KAPPA2 / KAPPA1 + KAPPA1 / KAPPA2 + 6.0
C0_PRIME = math.sqrt(CHI_DERIV_L2_NORM_SQ / CHI_L2_NORM_SQ)
THETA0 = max(C0_PRIME, 8.0 + C0)
THETA1 = 4.0 * CHI_L2_NORM_SQ / CHI_DERIV_L2_NORM_SQ
THETA2 = 4.0 * CHI_L2_NORM_SQ


def chi_hat(tau):
    """Closed-form Fourier transform ∫χ(s)e^{−iτs}ds (real and even)."""
    if np.isscalar(tau) or getattr(tau, "ndim", None) == 0:
        w = complex(2.0, float(tau))
        return 2.0 * (1.0 / w - (1.0 - cmath.exp(-w)) / (w * w)).real
    t = np.asarray(tau, dtype=float)
    w = 2.0 + 1j * t
    return 2.0 * (1.0 / w - (1.0 - np.exp(-w)) / (w * w)).real


def chi_hat_real_form(tau):
    """χ̂ as 2[4 + 3τ² + e⁻²((4−τ²)cos τ − 4τ sin τ)]/(4+τ²)², in real arithmetic."""
    t = np.asarray(tau, dtype=float)
    x = t * t
    trig = (4.0 - x) * np.cos(t) - 4.0 * t * np.sin(t)
    out = 2.0 * (4.0 + 3.0 * x + math.exp(-2.0) * trig) / (4.0 + x) ** 2
    return float(out) if out.ndim == 0 else out


def default_tau_grid() -> np.ndarray:
    """The standard 4001-point grid on [−200, 200] used by transform checks."""
    return np.linspace(-200.0, 200.0, 4001)


def sandwich_values(tau) -> np.ndarray:
    """(1+τ²)|χ̂(τ)| — the quantity the κ-bounds sandwich."""
    t = np.asarray(tau, dtype=float)
    return (1.0 + t * t) * np.abs(chi_hat(t))


def windowed_frequency(z0, system: SpectralSystem, T: float, tau: float) -> float:
    """Frequency of the windowed transform of the evolved state at offset τ.

    Equals Σ λ_k |χ̂_T(τ−λ_k)|²|z_k|² / Σ |χ̂_T(τ−λ_k)|²|z_k|² with
    χ̂_T(s) = T·χ̂(Ts); always lies in [λ_min, λ_max].  ``T`` is one
    horizon, checked by ``_horizons``, for every row of a block.
    """
    c = coefficients_of(z0, system)
    T = _horizons(T, system, 1).item()
    window = (T * chi_hat(T * (tau - system.eigenvalues))) ** 2
    return _per_row(_moments(c, system, window)[3], c)


def _power_form(eps: DecayFunction) -> tuple[float, float, float]:
    """(A, B, p) with T·ε(θ₀(1/T + λ₀)) = θ₁ ⟺ T = A(1 + θ₀λ₀ + θ₀/T)^p + B."""
    match eps:
        case PowerLaw(c=c, p=p):
            return THETA1 / c, 0.0, p
        case TransformedWidth(psi=PowerLaw(c=c, p=p), admissibility=M, base_width=eps0):
            return 4.0 * M * (THETA1 / c), 2.0 * THETA1 / eps0, p
    raise TypeError(f"no observation-time solve for the width {eps!r}")


def solve_observation_time(lambda0, eps: DecayFunction):
    """The unique T > 0 with T·ε(θ₀(1/T + λ₀)) = θ₁, by Newton's method.

    ``lambda0`` is a scalar or an array, and every element is solved at
    once.  θ₀ is ``THETA0`` and θ₁ is ``THETA1``.  A scalar returns a
    float, an array an array of its shape.

    h(T) = T − A(a + θ₀/T)^p − B, a = 1 + θ₀λ₀, is increasing and concave
    for p ≥ 0, so Newton started below its root, at A·aᵖ + B or
    (A·θ₀ᵖ)^{1/(p+1)}, rises monotonically to it.  An element stops once a
    step no longer raises it, whatever the rest of the array does.  A root
    still rising after 64 steps or not finite is a ``NumericError``.
    """
    shape = np.shape(lambda0)
    lam = np.asarray(lambda0, dtype=float).ravel()
    bad = ~((lam >= 0) & np.isfinite(lam))
    if bad.any():
        raise DomainError(f"lambda0 must be non-negative and finite, got {float(lam[bad][0])!r}")
    A, B, p = _power_form(eps)
    a = 1.0 + THETA0 * lam
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.maximum(A * a**p + B, (A * THETA0**p) ** (1.0 / (p + 1.0)))
        for _ in range(64):
            x = a + THETA0 / t
            phi = A * x**p
            # h′ = 1 + pθ₀φ/(xT²); fmax drops a step down or a NaN step.
            raised = np.fmax(t, t - (t - phi - B) / (1.0 + p * THETA0 * phi / (x * t * t)))
            if np.array_equal(raised, t):
                break
            t = raised
        else:
            raise NumericError("observation time still rising after 64 Newton steps")
    if not np.isfinite(t).all():
        raise NumericError("observation time is not finite")
    return float(t[0]) if shape == () else t.reshape(shape)


@dataclass(frozen=True)
class PlancherelReport:
    """Truncated-Plancherel lower bound evaluation for one state."""

    lhs: float
    rhs: float
    margin: float
    norm_sq: float
    horizon: float
    radius: float


def _tail(x: np.ndarray) -> np.ndarray:
    """∫_x^∞ (1+u²)⁻² du: (arctan(1/x) − 1/(x + 1/x))/2 for x ≥ 0, else π/2 − tail(−x).

    Exact at x = 0 and x = ±∞, and never π/2 minus a difference of tails."""
    a = np.abs(x)
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / a
    t = 0.5 * (np.arctan(inv) - 1.0 / (a + inv))
    return np.where(x < 0, 0.5 * math.pi - t, t)


def _chi_hat_sq_lower_bound(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A proven lower bound on ∫_a^b χ̂(u)² du, elementwise for a ≤ b.

    With I = ∫_a^b (1+u²)⁻² du the bound is
    max(2π‖χ‖² − κ₂*²·(π/2 − I), κ₁²·I, 0): Plancherel gives
    ∫_ℝ χ̂² = 2π‖χ‖², and κ₁ ≤ (1+u²)|χ̂(u)| ≤ κ₂* on all of ℝ.  I and
    its complement π/2 − I are each a sum or difference of tails, so each
    is exact to a few ulps of π/2.
    """
    inside = _tail(a) - _tail(b)
    outside = _tail(b) + _tail(-a)
    energy = 2.0 * math.pi * CHI_L2_NORM_SQ
    return np.maximum(np.maximum(energy - KAPPA2_SUP**2 * outside, KAPPA1**2 * inside), 0.0)


def plancherel_lowerbound_check(z0, system: SpectralSystem, T: float, R: float) -> PlancherelReport:
    """Check (1 − (c₀′/T + λ(z0))/R)‖z0‖² ≤ ‖χ‖⁻² ∫_{−R}^{R} ‖x̂(τ)‖² dτ.

    ‖x̂(τ)‖² is the energy-normalized windowed transform of the evolved
    state, (2πT)⁻¹ Σ_k |χ̂_T(τ−λ_k)|²|z_k|², so that the R → ∞ limit of the
    right-hand side is exactly ‖z0‖².  Mode k contributes |z_k|²/(2π‖χ‖²)
    times ∫ χ̂(u)² du over [T(−R−λ_k), T(R−λ_k)], and ``rhs`` takes each
    integral from ``_chi_hat_sq_lower_bound``: it is a proven lower bound on
    the right-hand side, exact up to round-off and never above ‖z0‖², so a
    ``margin`` ≥ 0 proves the inequality for this state.  T and R must be
    finite; a window edge that overflows reads ±∞, where the bound is exact.
    """
    if not 0.0 < T <= sys.float_info.max:  # False for nan, inf and ints past the float range
        raise DomainError(f"window length T must be positive and finite, got {T}")
    c = coefficients_of(z0, system)
    if c.ndim != 1:
        raise ShapeError("the Plancherel check takes one 1-D state")
    lam0 = _moments(c, system)[3].item()
    threshold = C0_PRIME / T + lam0
    if not threshold < R <= sys.float_info.max:
        raise DomainError(
            f"radius R = {R} must exceed c0'/T + λ(z0) = {threshold} and be finite"
        )
    (u,), back = _power_of_two_frame(c)
    norm_sq = np.vdot(u, u).real
    lhs = (1.0 - threshold / R) * norm_sq
    lam = system.eigenvalues
    with np.errstate(over="ignore"):
        bound = _chi_hat_sq_lower_bound(T * (-R - lam), T * (R - lam))
    rhs = (np.abs(u) ** 2 @ bound) / (2.0 * math.pi * CHI_L2_NORM_SQ)
    return PlancherelReport(
        lhs=back(lhs), rhs=back(rhs), margin=back(rhs - lhs), norm_sq=back(norm_sq), horizon=T, radius=R
    )

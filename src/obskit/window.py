"""The time cutoff window, its Fourier transform, and derived constants.

The window is χ(s) = (1−|s|)e^{−2|s|} on (−1, 1), zero outside.  Its
transform χ̂(τ) = ∫χ(s)e^{−iτs}ds has the closed form

    χ̂(τ) = 2·Re[ 1/w − (1 − e^{−w})/w² ],   w = 2 + iτ,

which is validated against an adaptive-quadrature oracle.  From the window
come the frequency-localization constants c₀, c₀′, θ₀, θ₁, θ₂, the
windowed frequency of an evolved state, the minimal observation time T(λ)
solving T·ε(θ₀(1/T+λ)) = θ₁, and a truncated-Plancherel lower bound for
windowed trajectory energy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .decay import DecayFunction
from .errors import DomainError, NumericError
from .spectral import SpectralSystem, _moments, coefficients_of, frequency

# Postulated sandwich constants for (1+τ²)|χ̂(τ)|: the verifier tests them,
# it does not assume them.
KAPPA1 = 4.0 / (3.0 * math.pi)
KAPPA2 = 6.0

# sup of |χ̇| on (−1,1)\{0}, attained in the limit s → 0±.
CHI_DERIV_SUP = 3.0


def chi(s):
    """The window (1−|s|)e^{−2|s|} on (−1, 1), zero outside."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    out = np.where(a < 1.0, (1.0 - a) * np.exp(-2.0 * a), 0.0)
    return float(out) if out.ndim == 0 else out


def chi_dot(s):
    """The window's derivative −sign(s)(3−2|s|)e^{−2|s|} on (−1, 1)\\{0}."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    out = np.where(a < 1.0, -np.sign(s) * (3.0 - 2.0 * a) * np.exp(-2.0 * a), 0.0)
    return float(out) if out.ndim == 0 else out


def chi_hat(tau):
    """Closed-form Fourier transform ∫χ(s)e^{−iτs}ds (real and even)."""
    if np.isscalar(tau) or getattr(tau, "ndim", None) == 0:
        w = complex(2.0, float(tau))
        return 2.0 * (1.0 / w - (1.0 - cmath.exp(-w)) / (w * w)).real
    t = np.asarray(tau, dtype=float)
    w = 2.0 + 1j * t
    return 2.0 * (1.0 / w - (1.0 - np.exp(-w)) / (w * w)).real


def chi_hat_by_quadrature(tau: float) -> float:
    """Quadrature oracle for χ̂: 2∫₀¹(1−s)e^{−2s}cos(τs)ds (oscillatory rule)."""
    value, _ = quad(
        lambda s: 2.0 * (1.0 - s) * math.exp(-2.0 * s),
        0.0,
        1.0,
        weight="cos",
        wvar=float(tau),
        epsabs=1.0e-13,
        epsrel=1.0e-13,
        limit=400,
    )
    return value


def default_tau_grid() -> np.ndarray:
    """The standard 4001-point grid on [−200, 200] used by transform checks."""
    return np.linspace(-200.0, 200.0, 4001)


def sandwich_values(tau) -> np.ndarray:
    """(1+τ²)|χ̂(τ)| — the quantity the κ-bounds sandwich."""
    t = np.asarray(tau, dtype=float)
    return (1.0 + t * t) * np.abs(chi_hat(t))


@dataclass(frozen=True)
class CutoffProfile:
    """Norms of the window plus the postulated transform sandwich constants."""

    l2_norm_sq: float
    l2_deriv_norm_sq: float
    linf_norm: float
    kappa1: float
    kappa2: float

    def __post_init__(self):
        for name in ("l2_norm_sq", "l2_deriv_norm_sq", "linf_norm", "kappa1", "kappa2"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(f"{name} must be positive and finite, got {value!r}")
        if not self.kappa2 > self.kappa1:
            raise DomainError("kappa2 must exceed kappa1")


def cutoff_profile() -> CutoffProfile:
    """Window norms in closed form: ‖χ‖² = (5 − e⁻⁴)/16, ‖χ̇‖² = (13 − e⁻⁴)/4."""
    # χ is even, decreasing in |s| from χ(0) = 1, so the sup norm is exact.
    return CutoffProfile(
        l2_norm_sq=(5.0 - math.exp(-4.0)) / 16.0,
        l2_deriv_norm_sq=(13.0 - math.exp(-4.0)) / 4.0,
        linf_norm=1.0,
        kappa1=KAPPA1,
        kappa2=KAPPA2,
    )


@dataclass(frozen=True)
class ThetaConstants:
    """Derived constants for frequency localization and observation times.

    ``theta1_variant`` records which norm of χ̇ sits in θ₁'s denominator:
    ``"l2_deriv"`` (default, the one the estimates support) or
    ``"sup_deriv"`` (the selectable alternative using ‖χ̇‖²_{L∞}).
    """

    c0: float
    c0_prime: float
    theta0: float
    theta1: float
    theta2: float
    theta1_variant: str = "l2_deriv"

    def __post_init__(self):
        if abs(self.c0 - (8.0 * KAPPA2 / KAPPA1 + KAPPA1 / KAPPA2 + 6.0)) > 1e-9 * self.c0:
            raise DomainError("c0 does not match 8κ₂/κ₁ + κ₁/κ₂ + 6")
        if abs(self.theta0 - max(self.c0_prime, 8.0 + self.c0)) > 1e-9 * self.theta0:
            raise DomainError("theta0 does not match max(c0', 8 + c0)")
        for name in ("theta0", "theta1", "theta2"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")


def theta_constants(profile: CutoffProfile, *, sup_deriv_theta1: bool = False) -> ThetaConstants:
    """All five derived constants from a window profile.

    With ``sup_deriv_theta1`` the θ₁ denominator uses ‖χ̇‖²_{L∞} instead of
    the default ‖χ̇‖²_{L²}; both variants appear in reports, only the
    default is asserted anywhere.
    """
    c0 = 8.0 * profile.kappa2 / profile.kappa1 + profile.kappa1 / profile.kappa2 + 6.0
    c0_prime = math.sqrt(profile.l2_deriv_norm_sq / profile.l2_norm_sq)
    theta0 = max(c0_prime, 8.0 + c0)
    if sup_deriv_theta1:
        theta1 = 4.0 * profile.l2_norm_sq / CHI_DERIV_SUP**2
        variant = "sup_deriv"
    else:
        theta1 = 4.0 * profile.l2_norm_sq / profile.l2_deriv_norm_sq
        variant = "l2_deriv"
    theta2 = 4.0 * profile.l2_norm_sq / profile.linf_norm**2
    return ThetaConstants(
        c0=c0,
        c0_prime=c0_prime,
        theta0=theta0,
        theta1=theta1,
        theta2=theta2,
        theta1_variant=variant,
    )


def windowed_frequency(z0, system: SpectralSystem, T: float, tau: float) -> float:
    """Frequency of the windowed transform of the evolved state at offset τ.

    Equals Σ λ_k |χ̂_T(τ−λ_k)|²|z_k|² / Σ |χ̂_T(τ−λ_k)|²|z_k|² with
    χ̂_T(s) = T·χ̂(Ts); always lies in [λ_min, λ_max].
    """
    if not T > 0:
        raise DomainError(f"window length T must be positive, got {T}")
    window = (T * chi_hat(T * (tau - system.eigenvalues))) ** 2
    return _moments(z0, system, window)[3]


def solve_observation_time(lambda0: float, eps: DecayFunction, th: ThetaConstants) -> float:
    """The unique T > 0 with T·ε(θ₀(1/T + λ₀)) = θ₁, by guarded bisection.

    The map T ↦ T·ε(θ₀(1/T+λ₀)) is verified increasing on the bracket;
    relative tolerance 1e−12.
    """
    if not (lambda0 >= 0 and math.isfinite(lambda0)):
        raise DomainError(f"lambda0 must be non-negative and finite, got {lambda0!r}")

    def g(T: float) -> float:
        return T * float(eps(th.theta0 * (1.0 / T + lambda0))) - th.theta1

    lo = hi = 1.0
    if g(1.0) < 0.0:
        for _ in range(200):
            hi *= 2.0
            if g(hi) >= 0.0:
                break
            lo = hi
        else:
            raise NumericError("bracket expansion failed after 200 doublings (upward)")
    else:
        for _ in range(200):
            lo *= 0.5
            if g(lo) < 0.0:
                break
            hi = lo
        else:
            raise NumericError("bracket expansion failed after 200 halvings (downward)")

    samples = [g(t) + th.theta1 for t in np.linspace(lo, hi, 17)]
    scale = max(abs(v) for v in samples)
    for a, b in zip(samples, samples[1:]):
        if b < a - 1e-9 * scale:
            raise NumericError("T·ε(θ₀(1/T+λ)) is not increasing on the bracket")

    for _ in range(200):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PlancherelReport:
    """Truncated-Plancherel lower bound evaluation for one state."""

    lhs: float
    rhs: float
    margin: float
    norm_sq: float
    horizon: float
    radius: float


def _chi_hat_sq_half_line() -> float:
    """∫₀^∞ χ̂(u)² du = π‖χ‖², by Plancherel (χ̂ is even)."""
    return math.pi * cutoff_profile().l2_norm_sq


def _chi_hat_sq_right_tail(x: float) -> float:
    """∫_x^∞ χ̂(u)² du for any real x."""
    if x <= 0.0:
        left, _ = quad(lambda u: chi_hat(u) ** 2, x, 0.0, epsabs=1e-12, epsrel=1e-10, limit=2000)
        return left + _chi_hat_sq_half_line()
    if x >= 60.0:
        tail, _ = quad(lambda u: chi_hat(u) ** 2, x, np.inf, epsabs=1e-11, epsrel=1e-8, limit=800)
        return tail
    mid, _ = quad(lambda u: chi_hat(u) ** 2, x, 60.0, epsabs=1e-12, epsrel=1e-10, limit=2000)
    tail, _ = quad(lambda u: chi_hat(u) ** 2, 60.0, np.inf, epsabs=1e-11, epsrel=1e-8, limit=800)
    return mid + tail


def _chi_hat_sq_integral(a: float, b: float) -> float:
    """∫_a^b χ̂(u)² du via tail differences (robust for very wide intervals)."""
    if not a < b:
        return 0.0
    return max(_chi_hat_sq_right_tail(a) - _chi_hat_sq_right_tail(b), 0.0)


def plancherel_lowerbound_check(z0, system: SpectralSystem, T: float, R: float) -> PlancherelReport:
    """Check (1 − (c₀′/T + λ(z0))/R)‖z0‖² ≤ ‖χ‖⁻² ∫_{−R}^{R} ‖x̂(τ)‖² dτ.

    ‖x̂(τ)‖² is the energy-normalized windowed transform of the evolved
    state, (2πT)⁻¹ Σ_k |χ̂_T(τ−λ_k)|²|z_k|², so that the R → ∞ limit of the
    right-hand side is exactly ‖z0‖².  The τ-integral is evaluated per mode
    (the spectral sum and the integral commute), each mode contributing
    ∫ χ̂(u)² du over its own shifted window — an exact decomposition, with
    quadrature refined around each mode's peak at u = 0.
    """
    if not T > 0:
        raise DomainError(f"window length T must be positive, got {T}")
    c = coefficients_of(z0, system)
    lam0 = frequency(z0, system)
    profile = cutoff_profile()
    threshold = theta_constants(profile).c0_prime / T + lam0
    if not R > threshold:
        raise DomainError(
            f"radius R = {R} must exceed c0'/T + λ(z0) = {threshold}"
        )
    norm_sq = float(np.vdot(c, c).real)
    lhs = (1.0 - threshold / R) * norm_sq

    weights: dict[float, float] = {}
    for lam, amp in zip(system.eigenvalues, np.abs(c) ** 2):
        weights[float(lam)] = weights.get(float(lam), 0.0) + float(amp)
    total = 0.0
    for lam, amp in weights.items():
        if amp == 0.0:
            continue
        total += amp * _chi_hat_sq_integral(T * (-R - lam), T * (R - lam))
    rhs = total / (2.0 * math.pi * profile.l2_norm_sq)
    return PlancherelReport(
        lhs=lhs, rhs=rhs, margin=rhs - lhs, norm_sq=norm_sq, horizon=T, radius=R
    )

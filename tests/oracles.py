"""Test oracles: the window transform and the observed energy by quadrature, the
trajectory point and the closed-form cluster minima of the full bottom side."""

import math

import numpy as np
from scipy.integrate import quad

from obskit import DomainError, SpectralSystem, StateVector
from obskit.spectral import coefficients_of
from obskit.square import lattice_circle


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


def evolve(z0, system: SpectralSystem, t: float) -> StateVector:
    """The trajectory point z(t): coefficients z_k e^{iλ_k t}."""
    c = coefficients_of(z0, system)
    return StateVector(c * np.exp(1j * system.eigenvalues * t))


def observability_integral_by_quadrature(z0, system: SpectralSystem, T: float) -> float:
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
    value, _ = quad(energy, 0.0, T, epsabs=1.0e-10, epsrel=1.0e-10, limit=limit)
    return value


def bottom_side_closed_form_n_mu(N: int) -> float:
    """Closed form for N·μ_N on the full bottom side: 2·q_min(N)²/π."""
    modes = lattice_circle(N)
    if not modes:
        raise DomainError(f"no lattice point on the circle N = {N}")
    q_min = min(m.q for m in modes)
    return 2.0 * q_min * q_min / math.pi

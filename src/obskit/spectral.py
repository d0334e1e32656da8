"""Spectrally represented systems and the frequency functional.

A system ż = iAz with observation y = Cz is encoded by its spectral data:
the eigenvalues of A and the Gram matrix G_{jk} = ⟨Cφ_j, Cφ_k⟩ of observed
eigenfunctions.  States are coefficient vectors in the (orthonormal)
eigenbasis.  The frequency functional λ(z) = ⟨Az,z⟩/‖z‖² and its residual
‖Az‖²/‖z‖² − λ(z)² drive everything downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ShapeError

HERMITIAN_ATOL = 1.0e-12
PSD_RTOL = 1.0e-10
# Coefficient vectors with max |entry| below this are treated as zero.
ZERO_NORM_FLOOR = 1.0e-300


@dataclass(frozen=True)
class SpectralSystem:
    """Eigenvalues of A plus the observation Gram matrix G.

    ``eigenvalues`` must be strictly positive and sorted non-decreasing
    (repeats are permitted; clusters absorb multiplicity).  ``gram`` must be
    Hermitian to 1e−12 absolute and positive semidefinite up to a relative
    tolerance of 1e−10 of its largest eigenvalue.
    """

    eigenvalues: np.ndarray
    gram: np.ndarray
    label: str = ""

    def __post_init__(self):
        eig = np.array(self.eigenvalues, dtype=float)
        if eig.ndim != 1 or eig.size == 0:
            raise ShapeError("eigenvalues must be a nonempty 1-D array")
        if not np.all(np.isfinite(eig)):
            raise DomainError("eigenvalues must be finite")
        if eig[0] <= 0:
            raise DomainError(f"eigenvalues must be strictly positive, got {eig.min()}")
        if np.any(np.diff(eig) < 0):
            raise DomainError("eigenvalues must be sorted non-decreasing")
        g = np.asarray(self.gram, dtype=complex)
        if g.ndim != 2 or g.shape != (eig.size, eig.size):
            raise ShapeError(
                f"gram must be {eig.size}x{eig.size} to match the eigenvalue list, "
                f"got shape {g.shape}"
            )
        dev = np.abs(g - g.conj().T)
        if dev.size and dev.max() > HERMITIAN_ATOL:
            j, k = np.unravel_index(int(dev.argmax()), dev.shape)
            raise DomainError(
                f"gram is not Hermitian: |G[{j}][{k}] - conj(G[{k}][{j}])| = {dev[j, k]:.3e}"
            )
        g = 0.5 * (g + g.conj().T)
        vals = np.linalg.eigvalsh(g) if g.size else np.zeros(0)
        if vals.size and vals[0] < -PSD_RTOL * max(vals[-1], 0.0):
            raise DomainError(
                f"gram is not positive semidefinite: min eigenvalue {vals[0]:.3e} "
                f"vs max {vals[-1]:.3e}"
            )
        eig.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "gram", g)

    @property
    def size(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    def distinct_eigenvalues(self) -> np.ndarray:
        """Sorted distinct eigenvalue values (exact-equality grouping)."""
        return np.unique(self.eigenvalues)


@dataclass(frozen=True)
class StateVector:
    """A state z = Σ z_k φ_k, stored as its coefficient vector."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ShapeError("coefficients must be a nonempty 1-D array")
        if not np.all(np.isfinite(c)):
            raise DomainError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @classmethod
    def basis(cls, index: int, size: int) -> "StateVector":
        """The unit coefficient vector e_index."""
        c = np.zeros(size, dtype=complex)
        c[index] = 1.0
        return cls(c)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.coefficients, self.coefficients).real)

    def __len__(self) -> int:
        return int(self.coefficients.size)


@dataclass(frozen=True)
class FrequencyReport:
    """Frequency, residual and squared norm of one state."""

    lambda_z: float
    residual: float
    norm_sq: float


def coefficients_of(z, system: SpectralSystem) -> np.ndarray:
    """Coefficient vector of ``z`` (StateVector or array) matched to ``system``."""
    c = z.coefficients if isinstance(z, StateVector) else np.asarray(z, dtype=complex)
    if c.ndim != 1:
        raise ShapeError("state must be a 1-D coefficient vector")
    if c.size != system.size:
        raise ShapeError(
            f"state has {c.size} coefficients but the system has {system.size} modes"
        )
    return c


def _amax(c: np.ndarray) -> float:
    """max|c_k|; states with max|c_k| ≤ ``ZERO_NORM_FLOOR`` are rejected as zero."""
    amax = float(np.abs(c).max())
    if not amax > ZERO_NORM_FLOOR:
        raise DomainError("state vector is numerically zero (max |coefficient| < 1e-300)")
    return amax


def _moments(z, system: SpectralSystem, window=None) -> tuple[np.ndarray, float, float, float]:
    """Weights w = window·|z_k/amax|², the scale amax, Σw and the mean Σλ_k w_k/Σw.

    Scaling by amax = max|z_k| keeps the weights in range for states of any
    magnitude; states with amax ≤ ``ZERO_NORM_FLOOR`` are rejected as zero.
    The mean is clamped to [λ_min, λ_max], which rounding can leave by an ulp.
    """
    c = coefficients_of(z, system)
    amax = _amax(c)
    w = np.abs(c / amax) ** 2
    if window is not None:
        w = window * w
    total = math.fsum(w)
    if not total > 0:
        raise NumericError("all weights underflowed to zero; the window misses the state")
    mean = math.fsum(system.eigenvalues * w) / total
    return w, amax, total, min(max(mean, system.lambda_min), system.lambda_max)


def frequency(z, system: SpectralSystem) -> float:
    """The frequency λ(z) = Σ λ_k|z_k|² / Σ|z_k|², always in [λ_min, λ_max]."""
    return _moments(z, system)[3]


def residual(z, system: SpectralSystem) -> float:
    """The moment gap ‖Az‖²/‖z‖² − λ(z)², non-negative up to round-off."""
    w, _, total, mean = _moments(z, system)
    return math.fsum(system.eigenvalues**2 * w) / total - mean * mean


def residual_shifted(z, system: SpectralSystem) -> float:
    """The same residual computed directly as ‖(A − λ(z)I)z‖²/‖z‖² (exactly ≥ 0)."""
    w, _, total, mean = _moments(z, system)
    return math.fsum((system.eigenvalues - mean) ** 2 * w) / total


def shifted_norm_sq(z, system: SpectralSystem, lam: float) -> float:
    """‖(A − λI)z‖² in the state's own scale (no normalization)."""
    c = coefficients_of(z, system)
    return math.fsum((system.eigenvalues - lam) ** 2 * np.abs(c) ** 2)


def key_identity_gap(z, lam: float, system: SpectralSystem) -> float:
    """Relative defect of ‖(A−λI)z‖² = (λ−λ(z))²‖z‖² + ‖(A−λ(z)I)z‖².

    Returns |LHS − RHS| / LHS, or 0 by convention when LHS = 0 (both sides
    vanish together).  This is a verification probe: the identity is exact,
    so the gap sits at round-off, about u·max(|λ|, λ_max)/d for the RMS
    distance d = √(LHS/‖z‖²) of the state's spectrum from λ.
    """
    w, _, total, mean = _moments(z, system)
    lhs = math.fsum((system.eigenvalues - lam) ** 2 * w)
    if lhs == 0.0:
        return 0.0
    rhs = (lam - mean) ** 2 * total + math.fsum((system.eigenvalues - mean) ** 2 * w)
    return abs(lhs - rhs) / lhs


def frequency_report(z, system: SpectralSystem) -> FrequencyReport:
    """Frequency, residual, and true-scale squared norm in one pass."""
    w, amax, total, mean = _moments(z, system)
    second = math.fsum(system.eigenvalues**2 * w) / total
    return FrequencyReport(
        lambda_z=mean,
        residual=second - mean * mean,
        norm_sq=amax * amax * total,
    )


def observed_energy_sq(z, system: SpectralSystem) -> float:
    """‖Cz‖² = Σ_{jk} G_{jk} z_j conj(z_k), real by Hermiticity."""
    c = coefficients_of(z, system)
    u = c.conj()
    value = np.vdot(u, system.gram @ u)
    return float(value.real)

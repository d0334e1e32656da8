"""Positive non-increasing rate functions on [0, ∞).

These model coercivity strengths ψ(λ) and cluster widths ε(λ): strictly
positive, continuous, non-increasing functions of the frequency.  The
family is closed: the power law c/(1+λ)^p (p = 0 is the constant c), and
the composite width produced by turning a weak certificate into a full
spectral one (kept as an exact composite rather than re-fitted, so no
conservatism is introduced).  Each is in the class as soon as its
parameters are valid; only floating-point underflow at large λ can break
positivity, which a caller checks at the largest frequency it evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


class DecayFunction:
    """A strictly positive, non-increasing function of frequency λ ≥ 0."""

    def __call__(self, lam):
        raise NotImplementedError


def _check_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _check_nonnegative(name: str, value: float) -> None:
    if not (value >= 0 and math.isfinite(value)):
        raise DomainError(f"{name} must be non-negative and finite, got {value!r}")


@dataclass(frozen=True)
class PowerLaw(DecayFunction):
    """ψ(λ) = c / (1 + λ)^p; p = 0 is the constant c."""

    c: float
    p: float

    def __post_init__(self):
        _check_positive("c", self.c)
        _check_nonnegative("p", self.p)

    def __call__(self, lam):
        # Scalars take the array loop too: numpy's scalar ``**`` can differ in the last bit.
        # A power past the float range is inf, and the rate there 0.
        lam = np.asarray(lam, dtype=float)
        with np.errstate(over="ignore"):
            out = self.c / (1.0 + lam.reshape(-1)) ** self.p
        return float(out[0]) if lam.ndim == 0 else out.reshape(lam.shape)

    def scaled(self, factor: float) -> "PowerLaw":
        """The pointwise product ``factor * self`` (factor > 0)."""
        _check_positive("factor", factor)
        return PowerLaw(self.c * factor, self.p)


@dataclass(frozen=True)
class TransformedWidth(DecayFunction):
    """ε(λ) = ½ · (2M/ψ(λ) + 1/ε₀)⁻¹.

    The cluster width admissible for a full spectral certificate built from
    a weak one with strength ``psi`` (a ``PowerLaw``), admissibility
    constant ``admissibility`` (M) and constant weak width ``base_width``
    (ε₀).  Evaluated exactly as a composite; positive and non-increasing
    wherever ψ is positive.
    """

    psi: PowerLaw
    admissibility: float
    base_width: float

    def __post_init__(self):
        if not isinstance(self.psi, PowerLaw):
            raise TypeError(f"a transformed width needs a PowerLaw strength, got {self.psi!r}")
        _check_positive("admissibility", self.admissibility)
        _check_positive("base_width", self.base_width)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        psi_val = np.asarray(self.psi(lam), dtype=float)
        # ψ underflowing to 0 makes 2M/ψ inf and the width 0; one such point
        # must not abort a whole array.
        with np.errstate(over="ignore", divide="ignore"):
            out = 0.5 / (2.0 * self.admissibility / psi_val + 1.0 / self.base_width)
        return float(out) if out.ndim == 0 else out

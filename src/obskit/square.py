"""Analytic spectral data for the Dirichlet Laplacian on the square (0, π)².

Modes are indexed by positive integer pairs (p, q) with eigenvalue
N = p² + q² and eigenfunction φ_{p,q}(x) = (2/(π√N)) sin(p x₁) sin(q x₂)
(normalized so the coefficient frame is orthonormal in the energy space).
The observation is the outward normal derivative on a union of boundary
patches; all Gram entries reduce to closed-form sine product integrals.

On the bottom side x₂ = 0 the trace of φ_{p,q} is −(2q/(π√N))·sin(p x₁)
(the −1 from the outward normal cancels in every Gram entry, since each
entry integrates two traces over the same side).  Top/right traces carry
the parities (−1)^q and (−1)^p respectively.

Eigenvalue multiplicity is the number of lattice points (p, q) on the
circle p² + q² = N, which drives all cluster structure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError
from .spectral import SpectralSystem


class Side(enum.Enum):
    """A side of the square, named by its location."""

    BOTTOM = "bottom"  # x₂ = 0
    LEFT = "left"      # x₁ = 0
    TOP = "top"        # x₂ = π
    RIGHT = "right"    # x₁ = π

    @classmethod
    def parse(cls, text: str) -> "Side":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise DomainError(
                f"unknown side {text!r}; expected one of "
                f"{[s.value for s in cls]}"
            ) from None


@dataclass(frozen=True)
class SquareMode:
    """One eigenmode (p, q), eigenvalue p² + q²."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise DomainError("mode indices must be integers")
        if self.p < 1 or self.q < 1:
            raise DomainError(f"mode indices must be positive, got ({self.p}, {self.q})")

    @property
    def eigenvalue(self) -> int:
        return self.p * self.p + self.q * self.q


@dataclass(frozen=True)
class BoundaryPatch:
    """An arc-length interval (alpha, beta) ⊆ [0, π] on one side."""

    side: Side
    alpha: float = 0.0
    beta: float = math.pi

    def __post_init__(self):
        if not isinstance(self.side, Side):
            raise DomainError("side must be a Side value")
        if not (0.0 <= self.alpha < self.beta <= math.pi):
            raise DomainError(
                f"patch bounds must satisfy 0 ≤ α < β ≤ π, got ({self.alpha}, {self.beta})"
            )


@dataclass(frozen=True)
class GammaSpec:
    """A nonempty union of boundary patches, pairwise disjoint within a side."""

    patches: tuple[BoundaryPatch, ...]

    def __post_init__(self):
        patches = tuple(self.patches)
        if not patches:
            raise DomainError("gamma must contain at least one patch")
        by_side: dict[Side, list[BoundaryPatch]] = {}
        for patch in patches:
            by_side.setdefault(patch.side, []).append(patch)
        for side, group in by_side.items():
            group = sorted(group, key=lambda pt: pt.alpha)
            for a, b in zip(group, group[1:]):
                if b.alpha < a.beta:
                    raise DomainError(
                        f"patches overlap on side {side.value}: "
                        f"({a.alpha}, {a.beta}) and ({b.alpha}, {b.beta})"
                    )
        object.__setattr__(self, "patches", patches)

    @classmethod
    def full_sides(cls, *sides: Side) -> "GammaSpec":
        return cls(tuple(BoundaryPatch(side) for side in sides))

    def sides(self) -> set[Side]:
        return {patch.side for patch in self.patches}


def full_bottom() -> GammaSpec:
    return GammaSpec.full_sides(Side.BOTTOM)


def bottom_and_left() -> GammaSpec:
    return GammaSpec.full_sides(Side.BOTTOM, Side.LEFT)


def lattice_circle(N: int) -> list[SquareMode]:
    """All (p, q) with p, q ≥ 1 and p² + q² = N, sorted by p."""
    if N < 2:
        raise DomainError(f"lattice circles need N ≥ 2, got {N}")
    modes = []
    for p in range(1, math.isqrt(N) + 1):
        rest = N - p * p
        if rest < 1:
            break
        q = math.isqrt(rest)
        if q >= 1 and q * q == rest:
            modes.append(SquareMode(p, q))
    return modes


def square_modes(n_max_eigenvalue: int) -> list[SquareMode]:
    """All modes with eigenvalue ≤ n_max, sorted by (eigenvalue, p, q)."""
    if n_max_eigenvalue < 2:
        raise DomainError(f"n_max_eigenvalue must be at least 2, got {n_max_eigenvalue}")
    modes: list[SquareMode] = []
    for N in range(2, n_max_eigenvalue + 1):
        modes.extend(lattice_circle(N))
    return modes


def mode_count(n_max_eigenvalue: int) -> int:
    """len(square_modes(n_max)) in O(√n_max): Σ_{p ≥ 1, p² < n} ⌊√(n − p²)⌋."""
    n = n_max_eigenvalue
    return sum(math.isqrt(n - p * p) for p in range(1, math.isqrt(n - 1) + 1))


def sine_product_integral(p: int, p_prime: int, alpha: float, beta: float) -> float:
    """∫_α^β sin(px) sin(p′x) dx by the exact antiderivative."""
    if p < 1 or p_prime < 1:
        raise DomainError("sine indices must be positive integers")
    if not (0.0 <= alpha < beta <= math.pi):
        raise DomainError(f"bounds must satisfy 0 ≤ α < β ≤ π, got ({alpha}, {beta})")
    if p == p_prime:
        return (beta - alpha) / 2.0 - (math.sin(2 * p * beta) - math.sin(2 * p * alpha)) / (4.0 * p)
    d = p - p_prime
    s = p + p_prime
    return (math.sin(d * beta) - math.sin(d * alpha)) / (2.0 * d) - (
        math.sin(s * beta) - math.sin(s * alpha)
    ) / (2.0 * s)


def _sine_product_matrix(freq: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Matrix of ∫_α^β sin(f_j x) sin(f_k x) dx over a frequency vector."""
    f = freq.astype(float)
    d = f[:, None] - f[None, :]
    s = f[:, None] + f[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (np.sin(d * beta) - np.sin(d * alpha)) / (2.0 * d) - (
            np.sin(s * beta) - np.sin(s * alpha)
        ) / (2.0 * s)
    diag = (beta - alpha) / 2.0 - (np.sin(2.0 * f * beta) - np.sin(2.0 * f * alpha)) / (4.0 * f)
    equal = d == 0.0
    return np.where(equal, np.broadcast_to(diag[:, None], off.shape), off)


def _trace_data(modes: list[SquareMode], side: Side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(oscillation frequency, amplitude, parity sign) of each trace on a side."""
    p = np.array([m.p for m in modes], dtype=int)
    q = np.array([m.q for m in modes], dtype=int)
    root_n = np.sqrt((p * p + q * q).astype(float))
    if side in (Side.BOTTOM, Side.TOP):
        freq, amp = p, (2.0 / math.pi) * q / root_n
        sign = np.ones(len(modes)) if side is Side.BOTTOM else (-1.0) ** q
    else:
        freq, amp = q, (2.0 / math.pi) * p / root_n
        sign = np.ones(len(modes)) if side is Side.LEFT else (-1.0) ** p
    return freq, amp, sign


def boundary_gram(modes: list[SquareMode], gamma: GammaSpec) -> np.ndarray:
    """Gram matrix of normal-derivative traces over the patch union."""
    n = len(modes)
    gram = np.zeros((n, n))
    for patch in gamma.patches:
        freq, amp, sign = _trace_data(modes, patch.side)
        signed_amp = sign * amp
        integrals = _sine_product_matrix(freq, patch.alpha, patch.beta)
        gram += np.outer(signed_amp, signed_amp) * integrals
    gram = 0.5 * (gram + gram.T)
    return gram.astype(complex)


def build_square_system(n_max_eigenvalue: int, gamma: GammaSpec) -> SpectralSystem:
    """Spectral system for the square with normal-derivative observation on Γ."""
    if not isinstance(gamma, GammaSpec):
        raise DomainError("gamma must be a GammaSpec")
    modes = square_modes(n_max_eigenvalue)
    eigenvalues = np.array([m.eigenvalue for m in modes], dtype=float)
    gram = boundary_gram(modes, gamma)
    sides = ",".join(sorted(s.value for s in gamma.sides()))
    return SpectralSystem(
        eigenvalues=eigenvalues,
        gram=gram,
        label=f"square n_max={n_max_eigenvalue} gamma[{sides}]",
    )


@dataclass(frozen=True)
class ClusterRow:
    """Per-cluster summary for the square: eigenvalue N and Gram minima."""

    N: int
    size: int
    mu: float
    n_mu: float
    generalized_min: float


@dataclass(frozen=True)
class DeltaGammaReport:
    """Scan of N·μ_N over lattice circles for a single-side Γ.

    One row per nonempty cluster; ``generalized_min`` carries the smallest
    generalized eigenvalue of (G_N, diag(q²/N)) per cluster.
    """

    rows: list[ClusterRow]

    @property
    def min_generalized(self) -> float:
        return min(row.generalized_min for row in self.rows)


def _cluster_rows(gamma: GammaSpec, n_max_eigenvalue: int) -> list[ClusterRow]:
    if n_max_eigenvalue < 2:
        raise DomainError(f"n_max_eigenvalue must be at least 2, got {n_max_eigenvalue}")

    def row_for(N: int) -> ClusterRow | None:
        modes = lattice_circle(N)
        if not modes:
            return None
        gram = boundary_gram(modes, gamma)
        mu = float(np.linalg.eigvalsh(gram)[0])
        weights = np.diag([m.q * m.q / float(N) for m in modes]).astype(complex)
        gen = float(
            scipy.linalg.eigh(gram, weights, eigvals_only=True, subset_by_index=(0, 0))[0]
        )
        return ClusterRow(N=N, size=len(modes), mu=mu, n_mu=N * mu, generalized_min=gen)

    rows = (row_for(N) for N in range(2, n_max_eigenvalue + 1))
    return [row for row in rows if row is not None]


def delta_gamma_fit(gamma: GammaSpec, n_max_eigenvalue: int) -> tuple[float, DeltaGammaReport]:
    """Fit the 1/λ coercivity constant δ̂ = min_N N·μ_N for a one-side Γ.

    Returns (δ̂, full report).  δ̂ > 0 is reported, never asserted to a
    specific value; the report also carries each cluster's generalized
    minimum of (G_N, diag(q²/N)) so the q-weighted restatement can be
    examined side by side.
    """
    if len(gamma.sides()) != 1:
        raise DomainError("delta_gamma_fit requires all patches on a single side")
    rows = _cluster_rows(gamma, n_max_eigenvalue)
    if not rows:
        raise DomainError("no nonempty cluster at or below the requested eigenvalue")
    delta_hat = min(row.n_mu for row in rows)
    return delta_hat, DeltaGammaReport(rows=rows)


@dataclass(frozen=True)
class AssumptionReport:
    """Cluster minima for the two-full-touching-sides observation."""

    rows: list[ClusterRow]
    min_mu: float
    max_abs_deviation: float
    reference: float


def assumption_I_check(n_max_eigenvalue: int) -> AssumptionReport:
    """Scan Γ = full bottom ∪ full left: every cluster minimum is 2/π.

    The cluster Gram is diagonal with constant entries 2q²/(πN) + 2p²/(πN)
    = 2/π, the frequency-independent lower bound of exact observability;
    the report carries the numerically confirmed deviations.
    """
    rows = _cluster_rows(bottom_and_left(), n_max_eigenvalue)
    reference = 2.0 / math.pi
    min_mu = min(row.mu for row in rows)
    max_dev = max(abs(row.mu - reference) for row in rows)
    return AssumptionReport(
        rows=rows, min_mu=min_mu, max_abs_deviation=max_dev, reference=reference
    )


def bottom_side_closed_form_n_mu(N: int) -> float:
    """Closed form for N·μ_N on the full bottom side: 2·q_min(N)²/π."""
    modes = lattice_circle(N)
    if not modes:
        raise DomainError(f"no lattice point on the circle N = {N}")
    q_min = min(m.q for m in modes)
    return 2.0 * q_min * q_min / math.pi

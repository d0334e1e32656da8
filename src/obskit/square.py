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

from .coercivity import ClusterScan, _cluster_runs, _gram_stacks, coercivity_scan
from .errors import DomainError
from .spectral import PSD_RTOL, SpectralSystem


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


def bottom_and_left() -> GammaSpec:
    return GammaSpec.full_sides(Side.BOTTOM, Side.LEFT)


def require_bottom_and_left(gamma: GammaSpec, user: str) -> None:
    """Γ of assumption (I): the full bottom and left sides, in any order.

    Any other Γ is a ``DomainError`` naming ``user``, the check or scenario that asked.
    """
    if set(gamma.patches) != set(bottom_and_left().patches):
        raise DomainError(f"{user} requires gamma to be the full bottom and left sides")


def require_single_side(gamma: GammaSpec, user: str) -> None:
    """Γ of assumptions (II) and (III): every patch on one side; else a ``DomainError`` naming ``user``."""
    if len(gamma.sides()) != 1:
        raise DomainError(f"{user} requires all patches on a single side")


def square_modes(n_max_eigenvalue: int) -> np.ndarray:
    """All modes with eigenvalue ≤ n_max as an (n, 2) integer array of (p, q)
    rows, sorted by (eigenvalue, p, q)."""
    if n_max_eigenvalue < 2:
        raise DomainError(f"n_max_eigenvalue must be at least 2, got {n_max_eigenvalue}")
    p, q = np.indices((math.isqrt(n_max_eigenvalue - 1),) * 2).reshape(2, -1) + 1
    keep = p * p + q * q <= n_max_eigenvalue
    p, q = p[keep], q[keep]
    order = np.lexsort((q, p, p * p + q * q))
    return np.stack([p[order], q[order]], axis=1)


def mode_count(n_max_eigenvalue: int) -> int:
    """len(square_modes(n_max)) in O(√n_max): Σ_{p ≥ 1, p² < n} ⌊√(n − p²)⌋."""
    n = n_max_eigenvalue
    return sum(math.isqrt(n - p * p) for p in range(1, math.isqrt(n - 1) + 1))


def _sine_product_matrix(freq: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Matrix of ∫_α^β sin(f_j x) sin(f_k x) dx over a frequency vector.

    With d = f_j − f_k and s = f_j + f_k, the exact antiderivative takes two
    differences of size h = (β − α)/2 each, which cancel where s·h ≤ ½.  There
    the integral is the series h·Σ_k (−1)^k (d^{2k} cos(dc) − s^{2k} cos(sc))
    h^{2k}/(2k+1)! about the midpoint c, whose k = 0 term is 2 sin(f_j c)
    sin(f_k c).  Past the middle of the side it is taken about π − c, with
    the sign (−1)^s of x ↦ π − x; π − fl(π) is math.sin(math.pi).
    """
    f = freq.astype(float)
    d = f[:, None] - f[None, :]
    s = f[:, None] + f[None, :]
    h, mirror = (beta - alpha) / 2.0, alpha + beta > math.pi
    with np.errstate(divide="ignore", invalid="ignore"):
        first = np.where(d == 0.0, h, (np.sin(d * beta) - np.sin(d * alpha)) / (2.0 * d))
    gram = first - (np.sin(s * beta) - np.sin(s * alpha)) / (2.0 * s)
    far = (math.pi - alpha) + (math.pi - beta) + 2.0 * math.sin(math.pi)
    c = (far if mirror else alpha + beta) / 2.0
    series = 2.0 * np.sin(f[:, None] * c) * np.sin(f[None, :] * c)
    a, b = np.cos(d * c), np.cos(s * c)
    for k in range(1, 10):
        a, b = a * -((d * h) ** 2) / (2 * k * (2 * k + 1)), b * -((s * h) ** 2) / (2 * k * (2 * k + 1))
        series += a - b
    return np.where(s * h <= 0.5, h * series * (-1.0) ** (s * mirror), gram)


def _trace_indices(modes: np.ndarray, side: Side) -> tuple[np.ndarray, np.ndarray]:
    """(frequency index, amplitude index) of each trace on a side: (p, q) on
    the bottom and top, (q, p) on the left and right."""
    p, q = modes.T
    return (p, q) if side in (Side.BOTTOM, Side.TOP) else (q, p)


def _trace_data(modes: np.ndarray, side: Side) -> tuple[np.ndarray, np.ndarray]:
    """(oscillation frequency, amplitude times parity sign) of each trace on a side."""
    freq, other = _trace_indices(modes, side)
    amp = (2.0 / math.pi) * other / np.sqrt((freq * freq + other * other).astype(float))
    return freq, (amp * (-1.0) ** other if side in (Side.TOP, Side.RIGHT) else amp)


def gram_factor(modes: np.ndarray, gamma: GammaSpec) -> tuple[np.ndarray, float]:
    """The real factor F (n × Σm) of the boundary Gram over Γ and a bound on ‖G − FFᵀ‖.

    ``modes`` is an (n, 2) integer array of (p, q) rows, each index ≥ 1.
    On one patch G is D·P·S·Pᵀ·D: S is the m×m sine-product matrix over the
    m distinct trace frequencies, P gathers each mode's frequency and D is
    the signed amplitude.  With S = V·diag(w)·Vᵀ from one ``eigh`` (positive
    semidefinite by the ``PSD_RTOL`` rule), the patch's columns of F are
    D·P·V·√max(w, 0).  The bound sums, over patches, ‖DP‖² times the clipped
    part max(0, −w_min) plus the eigensolver's backward error m·u·‖S‖.
    """
    if not (
        isinstance(modes, np.ndarray) and modes.ndim == 2 and modes.shape[1] == 2
        and modes.dtype.kind in "iu" and (modes >= 1).all()
    ):
        raise DomainError("modes must be an (n, 2) integer array of (p, q) rows, each index ≥ 1")
    columns, error = [], 0.0
    for patch in gamma.patches:
        freq, amp = _trace_data(modes, patch.side)
        distinct, gather = np.unique(freq, return_inverse=True)
        w, v = np.linalg.eigh(_sine_product_matrix(distinct, patch.alpha, patch.beta))
        lo, hi = w.min(initial=0.0), w.max(initial=0.0)
        # For a subnormal S the relative rule underflows to lo < −0, while
        # eigh's rounding there is a few smallest subnormals per entry.
        if lo < -max(PSD_RTOL * hi, distinct.size * np.finfo(float).smallest_subnormal):
            raise DomainError(
                f"sine-product matrix on ({patch.alpha}, {patch.beta}) is not positive "
                f"semidefinite: min eigenvalue {lo:.3e} vs max {hi:.3e}"
            )
        backward = distinct.size * np.finfo(float).eps / 2.0 * hi - lo
        error += float(np.bincount(gather, weights=amp * amp).max(initial=0.0)) * backward
        columns.append(amp[:, None] * (v * np.sqrt(np.maximum(w, 0.0)))[gather])
    return np.hstack(columns), error


class SquareSystem(SpectralSystem):
    """The square's spectral system over ``square_modes(n_max)``, observed on ``gamma``.

    It keeps its (n, 2) lattice ``modes``, row k the (p, q) of eigenvalue k,
    and its ``gamma``, so the checks that need them read them from here.
    """

    def __init__(self, n_max_eigenvalue: int, gamma: GammaSpec):
        if not isinstance(gamma, GammaSpec):
            raise DomainError("gamma must be a GammaSpec")
        modes = square_modes(n_max_eigenvalue)
        factor, error = gram_factor(modes, gamma)
        p, q = modes.T
        sides = ",".join(sorted(s.value for s in gamma.sides()))
        super().__init__(
            # Integers below 2⁵³, so exact as floats.
            eigenvalues=(p * p + q * q).astype(float),
            factor=factor,
            factor_error=error,
            label=f"square n_max={n_max_eigenvalue} gamma[{sides}]",
        )
        modes.setflags(write=False)
        self.modes, self.gamma = modes, gamma


def build_square_system(n_max_eigenvalue: int, gamma: GammaSpec) -> SquareSystem:
    """Spectral system for the square with normal-derivative observation on Γ."""
    return SquareSystem(n_max_eigenvalue, gamma)


# Square eigenvalues are integers, so a cluster narrower than 1 about one of
# them holds exactly one lattice circle.
CIRCLE_WIDTH = 0.5


def _square_system(system: SpectralSystem) -> SquareSystem:
    if not isinstance(system, SquareSystem):
        raise DomainError(
            "the system is not build_square_system(n_max, gamma): it carries no lattice "
            "modes and no gamma"
        )
    return system


def delta_gamma_fit(system: SpectralSystem) -> tuple[float, ClusterScan, np.ndarray]:
    """Fit the 1/λ coercivity constant δ̂ = min_N N·μ_N for a one-side Γ.

    ``system`` is ``build_square_system(n_max, gamma)``, whose modes and Γ
    it reads; any other system, or a Γ on more than one side, is a
    ``DomainError``.  Returns (δ̂, scan, generalized): ``scan`` is
    ``coercivity_scan(system, CIRCLE_WIDTH)``, one lattice circle per center
    N with its minimum μ_N, and ``generalized`` holds, circle by circle, the
    smallest generalized eigenvalue of (G_N, diag(k²/N)), k = q on the
    bottom and top and p on the left and right, so the weighted restatement
    can be examined side by side.  The weight is diagonal, so that minimum
    is the least eigenvalue of r·G_N·r, r = √N/k.  δ̂ > 0 is reported, never
    asserted to a specific value.
    """
    square = _square_system(system)
    require_single_side(square.gamma, "delta_gamma_fit")
    k_all = _trace_indices(square.modes, square.gamma.patches[0].side)[1]
    # One pass of coercivity_scan's runs and stacks feeds both minima.
    centers, lo, hi = _cluster_runs(system, CIRCLE_WIDTH)
    min_eig, generalized = np.empty(centers.size), np.empty(centers.size)
    for clusters, idx, blocks in _gram_stacks(system, lo, hi):
        min_eig[clusters] = np.linalg.eigh(blocks)[0][:, 0]
        r = np.sqrt(centers[clusters])[:, None] / k_all[idx]
        generalized[clusters] = np.linalg.eigvalsh(r[:, :, None] * blocks * r[:, None, :])[:, 0]
    delta_hat = float((centers * min_eig).min())
    return delta_hat, ClusterScan(CIRCLE_WIDTH, centers, lo, hi, min_eig), generalized


def assumption_I_check(system: SpectralSystem) -> ClusterScan:
    """Scan Γ = full bottom ∪ full left: every circle minimum is 2/π.

    ``system`` is ``build_square_system(n_max, bottom_and_left())``; any
    other system is a ``DomainError``.  The circle Gram is diagonal with
    constant entries 2q²/(πN) + 2p²/(πN) = 2/π, the frequency-independent
    lower bound of exact observability.  Returns the circle scan
    ``coercivity_scan(system, CIRCLE_WIDTH)``, whose ``min_eig`` holds the
    minima to compare with 2/π.
    """
    require_bottom_and_left(_square_system(system).gamma, "assumption_I_check")
    return coercivity_scan(system, CIRCLE_WIDTH)

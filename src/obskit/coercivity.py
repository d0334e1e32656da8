"""Spectral clusters, coercivity certificates, and their transforms.

A state whose frequency residual is small behaves like a near-eigenvector;
coercivity certificates quantify how strongly such states are observed.
A cluster scan yields a weak pair: a strength ψ(λ) for states supported on
a cluster of constant width ε₀.  ``weak_to_spectral`` turns it, with an
admissibility constant M, into the one certificate type: a lower bound for
every state whose residual is below ε(λ(z)).  The tools here enumerate
clusters, scan their Gram minima, fit envelope functions, build
certificates, test the resolvent inequality at its worst frequency, and
hunt for counterexamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import DecayFunction, PowerLaw, TransformedWidth
from .errors import DomainError, NumericError
from .spectral import (
    SpectralSystem,
    _frequency_rows,
    _per_row,
    _power_of_two_frame,
    _row_forms,
    _rows_within,
    coefficients_of,
    frequency_report,
    observed_energy_sq,
)

# Minimal cluster Gram eigenvalue below which weak coercivity is declared
# failed at the scanned width.
COERCIVITY_FLOOR = 1.0e-14

# Safety factor keeping the sampling cluster half-width β strictly inside
# the admissible range 2β² < ε.
BETA_SAFETY = 1.0 - 1.0e-9

@dataclass(frozen=True)
class CoercivityCertificate:
    """A spectral (ε, ψ) pair: ‖Cz‖² ≥ ψ(λ(z))‖z‖² for every state z whose residual is below ε(λ(z))."""

    epsilon: DecayFunction
    psi: DecayFunction

    def __post_init__(self):
        if not isinstance(self.epsilon, DecayFunction) or not isinstance(self.psi, DecayFunction):
            raise DomainError("epsilon and psi must be decay functions")


@dataclass(frozen=True)
class ClusterScan:
    """The clusters of every distinct eigenvalue at a width, as columns.

    ``centers`` holds the distinct eigenvalues, ascending.  The cluster of
    ``centers[i]`` is the mode run [lo[i], hi[i]), exactly the k with
    |fl(λ_k − centers[i])| < ε (strict), ε its width, as the outward walk of
    ``_cluster_runs`` finds it; ``min_eig[i]`` is the smallest eigenvalue of
    the Gram block on it.  ``epsilon`` is one width, or one per center.
    """

    epsilon: float | np.ndarray
    centers: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    min_eig: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def incoercivity(self) -> str | None:
        """Why the scan is not weakly coercive, naming its first cluster with
        ``min_eig`` ≤ ``COERCIVITY_FLOOR``; None when it is."""
        low = np.flatnonzero(self.min_eig <= COERCIVITY_FLOOR)
        if not low.size:
            return None
        center, minimum = float(self.centers[low[0]]), float(self.min_eig[low[0]])
        return (
            f"not weakly coercive at width {self.epsilon}: cluster at center "
            f"{center} has minimal observed energy {minimum:.3e}"
        )


def _cluster_runs(system: SpectralSystem, epsilon) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers, lo, hi): each distinct eigenvalue c and its ε-cluster as the run [lo, hi).

    ``epsilon`` is one width, or one width per distinct eigenvalue.  The run
    is exactly the k with |fl(λ_k − c)| < ε, ε the center's width.  It is
    one run: λ is sorted and rounding is monotone, so fl(λ_k − c) does not
    decrease in k, and the k where it lies in (−ε, ε) are consecutive; c is
    itself an eigenvalue and fl(c − c) = 0, so it is never empty.  The same
    holds over the distinct values u_j, since the test reads only the value.
    So one outward walk finds both ends for every center at once: each end
    starts at its center and steps one distinct value outward while the next
    value passes the test, R + 1 vector steps per end, R the longest run in
    distinct values.
    """
    lam, u = system.eigenvalues, system.distinct_eigenvalues()
    bad = np.flatnonzero(~(np.asarray(epsilon) > 0))
    if bad.size:
        at = "" if np.ndim(epsilon) == 0 else f" at center {u[bad[0]]}"
        raise DomainError(f"cluster width must be positive, got {np.ravel(epsilon)[bad[0]]}{at}")

    def walk(step):
        end = np.arange(u.size)
        while True:
            k = end + step
            grow = (k >= 0) & (k < u.size) & (np.abs(u[k % u.size] - u) < epsilon)
            if not grow.any():
                return end
            end = end + step * grow

    first, last = walk(-1), walk(1)
    starts = np.append(np.searchsorted(lam, u), lam.size)
    return u, starts[first], starts[last + 1]


def _gram_stacks(system: SpectralSystem, lo: np.ndarray, hi: np.ndarray):
    """Yield (clusters, rows, blocks) over the runs [lo, hi), one size at a time.

    ``clusters`` numbers the runs in the stack, ``rows`` is their (k, s)
    array of modes and ``blocks`` the (k, s, s) stack of their Gram blocks,
    each bit-identical to its ``gram_block``.  A stack holds at most
    ``spectral.BLOCK_BYTES``, each block counted as s·max(s, rank) complex
    entries, and at least one block, so a wide cluster never holds more
    than one copy of itself.
    """
    sizes, rank = hi - lo, system.factor.shape[1]
    for s in np.unique(sizes).tolist():
        same = np.flatnonzero(sizes == s)
        per = _rows_within(16 * s * max(s, rank))
        for start in range(0, same.size, per):
            clusters = same[start:start + per]
            rows = lo[clusters, None] + np.arange(s)
            yield clusters, rows, system.gram_blocks(rows)


def coercivity_scan(system: SpectralSystem, epsilon: float) -> ClusterScan:
    """The cluster of every distinct eigenvalue and its Gram minimum.

    ε is one width or one per distinct eigenvalue; ``_cluster_runs`` checks
    it.  The clusters are grouped by size, and each group's Gram blocks are
    solved by one ``eigh`` of their stack (see ``_gram_stacks``).  ``eigh``,
    not ``eigvalsh``: on the square systems at n_max 2000 (bottom and left
    sides, full bottom side, π/4–π/2 bottom sub-patch; widths ½ and 1.3) the
    two differ in the last bits on 34 to 309 of the 591 clusters, and in
    four of those six scans that moves the fitted envelope's c and every
    report value downstream of it.
    """
    centers, lo, hi = _cluster_runs(system, epsilon)
    min_eig = np.empty(centers.size)
    for clusters, _, blocks in _gram_stacks(system, lo, hi):
        min_eig[clusters] = np.linalg.eigh(blocks)[0][:, 0]
    return ClusterScan(epsilon, centers, lo, hi, min_eig)


def fit_psi_envelope(scan: ClusterScan) -> PowerLaw:
    """Tightest dominated envelope c/(1+λ)^p, p ∈ {0, 1, 2}, under scan minima.

    For each exponent the largest c with c/(1+center)^p ≤ min_eig on every
    cluster is taken; the exponent minimizing the worst-case slack wins, ties
    going to the smaller exponent (so flat data yields a constant-form law).
    The scan must be weakly coercive (else ``DomainError`` with its
    ``incoercivity``).  Envelope dominance is re-verified exactly before
    returning.
    """
    centers, minima = scan.centers, scan.min_eig
    if not centers.size:
        raise DomainError("cannot fit an envelope to an empty scan")
    failure = scan.incoercivity
    if failure:
        raise DomainError(failure)

    best_p, best_c, best_slack = None, None, None
    for p in (0, 1, 2):
        # A lift past the float range makes the slack inf, or nan when every
        # lift is inf; neither is ever picked.
        with np.errstate(over="ignore", invalid="ignore"):
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


def weak_to_spectral(psi: PowerLaw, base_width: float, M: float) -> CoercivityCertificate:
    """Turn the weak pair (ψ, constant width ε₀) into a spectral certificate via admissibility M.

    Output width ε(λ) = ½(2M/ψ(λ) + 1/ε₀)⁻¹ (kept as an exact composite,
    which holds the weak pair) and strength ψ(λ)/4.  ψ must be a ``PowerLaw``
    (else ``TypeError``), ε₀ and M positive and finite (else
    ``DomainError``); both outputs are then positive and non-increasing
    wherever ψ does not underflow.
    """
    epsilon = TransformedWidth(psi=psi, admissibility=M, base_width=base_width)
    return CoercivityCertificate(epsilon=epsilon, psi=psi.scaled(0.25))


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


def _trace_pass(system: SpectralSystem, epsilon: float, grid: np.ndarray, principal: np.ndarray | None):
    """(t, ρ, lo, hi): at each grid point the trace bound t, the row-sum bound ρ and the on-cluster run [lo, hi).

    The modes on the cluster at λ are one run of the sorted modes: fl(λ_k − λ)
    and both edges fl(λ_k ± ε) do not decrease in k, so |λ_k − λ| < ε holds
    on a run, λ > fl(λ_k − ε) on a prefix and λ < fl(λ_k + ε) on a suffix.
    ``principal`` is ``_principal_rows(system.factor)``; with None no point
    takes ρ (it is inf), and neither does a point with some |λ_k − λ| ≥ 2⁵¹¹,
    where 1/d/d leaves the normal range.  The pass runs in row chunks of at
    most ``spectral.BLOCK_BYTES`` of distances and names the first point in
    grid order whose cluster covers every mode.
    """
    eigenvalues, factor = system.eigenvalues, system.factor
    lower_edges, upper_edges = eigenvalues - epsilon, eigenvalues + epsilon
    weights = (factor.real**2 + factor.imag**2).sum(axis=1)
    trace, rho = np.empty(grid.size), np.full(grid.size, np.inf)
    lo, hi = np.empty(grid.size, dtype=np.intp), np.empty(grid.size, dtype=np.intp)
    rows = _rows_within(8 * eigenvalues.size)
    for start in range(0, grid.size, rows):
        chunk = slice(start, start + rows)
        lam = grid[chunk, None]
        d = eigenvalues - lam
        off = (np.abs(d) >= epsilon) | (lam <= lower_edges) | (lam >= upper_edges)
        size = eigenvalues.size - off.sum(axis=1)
        empty = size == eigenvalues.size
        if empty.any():
            raise DomainError(
                f"the cluster at λ = {lam[np.argmax(empty), 0]} covers every mode; "
                "off-cluster block is empty"
            )
        lo[chunk] = np.argmin(off, axis=1)
        hi[chunk] = lo[chunk] + size
        far = np.maximum(np.abs(d[:, 0]), np.abs(d[:, -1])) >= 2.0**511
        d = np.where(off, d, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            trace[chunk] = (weights / d / d).sum(axis=1)
            if principal is not None:
                rho[chunk] = np.where(far, np.inf, (1.0 / d / d @ principal).max(axis=1))
    return trace, rho, lo, hi


def _principal_rows(factor: np.ndarray) -> np.ndarray | None:
    """B with B_kσ ≥ |g_kσ|·‖g_k‖₁ for G = FQ̂, Q̂ the eigenvectors of FᴴF, or None when FᴴF overflows.

    Each |g_kσ| is bounded by |fl(FQ̂)| + 2(r + 2)u·fl(|F||Q̂|), which covers
    the rounding of the r-term inner product (``estimate_admissibility``
    derives it and the underflow).
    """
    gram = factor.conj().T @ factor
    if not np.isfinite(gram).all():
        return None
    q = np.linalg.eigh(gram)[1]
    r = factor.shape[1]
    upper = np.abs(factor @ q) + (r + 2) * np.finfo(float).eps * (np.abs(factor) @ np.abs(q))
    with np.errstate(over="ignore"):
        return upper * upper.sum(axis=1, keepdims=True)


def _ceiling(trace, rho, gamma: float, sigma: float):
    """c = min(t(1 + γ), ρ(1 + 2γ) + γt) + σ, at least each computed top eigenvalue; ρ = inf gives t's arm."""
    with np.errstate(over="ignore"):
        return np.minimum(trace * (1.0 + gamma) + sigma, rho * (1.0 + 2.0 * gamma) + gamma * trace + sigma)


def _margins(n: int, r: int, epsilon: float) -> tuple[float, float]:
    """(γ, σ) of ``estimate_admissibility`` for n modes, rank r and width ε."""
    return 8.0 * (n + r) * (np.finfo(float).eps / 2.0), math.ldexp(n * (r + 1), -1072) * (1.0 + 1.0 / epsilon**2)


def estimate_admissibility(system: SpectralSystem, epsilon: float, lambda_grid) -> float:
    """Squared off-cluster resolvent-observation norm, maximized over the grid.

    For each λ the modes with |λ_k − λ| ≥ ε form the off-cluster block; the
    value there is the largest eigenvalue of D⁻¹ G D⁻¹ with D = diag(λ_k − λ)
    over that block.  A mode also counts as off-cluster at its own computed
    edges fl(λ_k ± ε), where rounding can make |λ_k − λ| fall just below ε.
    Returns M² (callers take the square root).

    Given ``admissibility_breakpoints(system, epsilon)`` as the grid, the
    result is the exact supremum over all real λ, not a grid maximum.

    It reads the system's factor, G = FF* + E with ‖E‖ = ``factor_error``
    (0 for an exact factor).  At each λ the top eigenvalue of the r×r matrix
    P = (D⁻¹F)*(D⁻¹F) (the same nonzero spectrum as the off-cluster block of
    D⁻¹FF*D⁻¹) is taken, and the Weyl bound ‖E‖/ε² is added once: it bounds
    what truncating G to FF* leaves out.  The top eigenvalue is computed in
    round-to-nearest, not rounded upward, so the result can lie an ulp or
    so on either side of the exact supremum; it is not an upper bound to
    the last bit.  A P that overflows is a ``NumericError``: a non-finite
    entry of P means a non-finite diagonal, so the supremum itself is past
    the float range.

    Only the grid points that can still win are solved.  Two bounds on the
    top eigenvalue of P serve:

    * the trace t(λ) = Σ_off w_k/(λ_k − λ)², w_k = ‖f_k‖², since P is PSD;
    * the row-sum bound ρ(λ) = max_σ Σ_off |g_kσ|·‖g_k‖₁/(λ_k − λ)², g_k the
      rows of G = FQ and Q the eigenvectors of FᴴF (one r×r ``eigh`` per
      call).  QᴴPQ = (D⁻¹G)ᴴ(D⁻¹G) has entries at most |D⁻¹G|ᵀ|D⁻¹G| in
      modulus, so its largest absolute row sum, at most ρ, bounds its top
      eigenvalue, which is at least σ_min(Q)²·λ_max(P) (Ostrowski: QᴴPQ is
      congruent to P).  In this principal basis P is nearly diagonal where
      one column of G dominates each row, and ρ is then close to λ_max(P),
      while t can exceed it by up to a factor r: on the full bottom side,
      whose factor ``eigh`` returns in an arbitrary rotation, ρ/λ_max(P)
      reads 1.000000 at every breakpoint at ``n_max`` 50 to 2000, where
      t/λ_max(P) reaches 1.8 to 4.4.

    One vectorized pass (``_trace_pass``) gives t, ρ and the on-cluster run
    [a, b) at every point.  The points are solved in order of decreasing
    ceiling c(λ) = min(t(1 + γ), ρ(1 + 2γ) + γt) + σ until c(λ) falls below
    best, the largest value solved so far.  A solve divides F[:a] and F[b:]
    by their distances into one (n, r) buffer allocated per call: its
    leading rows are the same C-contiguous array as
    ``factor[off] / d[off, None]``, so each solved value is the same
    ``eigvalsh`` of the same matrix as when every point is solved.  The
    maximum does not depend on order, so the result is bit-identical,
    provided the computed top eigenvalue is at most c(λ) at every point.
    Proof, with n modes, rank r and unit round-off u, to first order:

    * the computed t is at least (1 − (n + 2r + 2)u) times the trace of P
      over the computed distances: each w_k sums 2r rounded squares (γ_2r),
      each term is two rounded divisions (2u), the n-term sum loses γ_n;
    * the computed top eigenvalue is at most λ_max(P) + (3n + 3 + p(r))u·tr P,
      and λ_max(P) ≤ tr P: the rounded D⁻¹F is within u of it entry by
      entry and has squared Frobenius norm within (1 + 3u) of tr P, each
      entry of the product is an inner product of length ≤ n whose real and
      imaginary parts sum 2n real terms (at most √2·γ_2n ≤ 3nu times tr P in
      norm), and ``eigvalsh`` is backward stable, ‖ΔP‖ ≤ p(r)·u·‖P‖, taking
      p(r) ≤ 4r (LAPACK's own error bounds take p = 2);
    * so the trace arm needs (4n + 6r + 7)u, 2u of it for the rounding of
      the ceiling, and γ = 8(n + r)u covers it with room for the
      second-order terms (when n = r = 1, P is 1×1 and its eigenvalue
      exact); the γt of the row-sum arm covers (3n + 3 + 4r)u·tr P and
      the u·t of underflow below;
    * the computed ρ is at least (1 − (n + r + 6)u) times ρ over the
      computed distances and the exact G = FQ̂, Q̂ as computed: each |g_kσ|
      is at most |fl(FQ̂)| + 2(r + 2)u·fl(|F||Q̂|), because an r-term complex
      inner product errs by at most √2·γ_(r+2) of |F||Q̂| (3u for the
      modulus and the sum), the ℓ₁ row sums lose γ_r, the products u, each
      1/d/d 2u and the n-term sums γ_n; ``eigh`` returns Q̂ orthonormal to
      p(r)u, so σ_min(Q̂) ≥ 1 − p(r)u and λ_max(P) ≤ ρ/(1 − p(r)u)²;
    * so the row-sum arm needs (n + 9r + 10)u on ρ, with 4u for the
      ceiling's own rounding, and 2γ = 16(n + r)u covers it with room,
      since n and r are at least 1.

    γ is below 1.5e-11 for r ≤ n ≤ 8192, the ``config.MAX_GRAM_BYTES`` cap.
    Gradual underflow adds absolute errors instead: at most 2r·2⁻¹⁰⁷⁵/ε² per
    w_k, 2⁻¹⁰⁷⁵(1 + 1/ε) per term's divisions and 4nr·2⁻¹⁰⁷⁵ in the
    product, and n(1 + 1/ε²)·2⁻¹⁰⁷⁵ in ρ's products, which
    σ = n(r + 1)(1 + 1/ε²)·2⁻¹⁰⁷² covers in each arm.  The bound on each
    |g_kσ| can also fall short by a = 4r·2⁻¹⁰⁷⁵ where its products underflow;
    that moves ρ by at most Σ_off (1 + r)√r·a·√w_k/d_k² + nra²/ε², below
    (1 + r)√r·a·√(nt)/ε + nra²/ε² (Cauchy–Schwarz), which is at most u·t
    plus n·2⁻²⁰⁰⁰/ε², far below σ (2xy ≤ ux² + y²/u).  A point with some
    |λ_k − λ| ≥ 2⁵¹¹, where 1/d/d leaves the normal range, takes no ρ, nor
    does any point when FᴴF overflows.  A bound that overflows is inf, and
    a nan one is ordered first, so both points are solved.

    A width outside the float range of the spectrum, where ε² is not a
    normal float or an edge fl(λ_k ± ε) rounds to λ_k itself, is a
    ``DomainError``: there ε², 1/ε² or 1/(λ_k − λ) is out of range.  So is
    a grid point that is not finite, and one whose cluster covers every
    mode; the first in grid order is named.
    """
    if not epsilon > 0:
        raise DomainError(f"cluster width must be positive, got {epsilon}")
    grid = np.asarray(lambda_grid, dtype=float).ravel()
    if grid.size == 0:
        raise DomainError("lambda grid is empty")
    bad = np.flatnonzero(~np.isfinite(grid))
    if bad.size:
        raise DomainError(f"lambda grid point {grid[bad[0]]} at index {bad[0]} is not finite")
    eigenvalues, factor = system.eigenvalues, system.factor
    if not np.finfo(float).tiny <= epsilon * epsilon < math.inf or np.any(
        (eigenvalues - epsilon == eigenvalues) | (eigenvalues + epsilon == eigenvalues)
    ):
        raise DomainError(
            f"cluster width {epsilon!r} is outside the float range of the spectrum: ε² must be "
            "a normal float and no cluster edge λ_k ± ε may round to λ_k"
        )
    n, r = factor.shape
    trace, rho, lo, hi = _trace_pass(system, epsilon, grid, _principal_rows(factor) if r else None)
    weyl = system.factor_error / epsilon**2
    if not r:
        return weyl
    gamma, sigma = _margins(n, r, epsilon)
    scaled, dist = np.empty_like(factor), np.empty(n)

    def solve(j: int) -> float:
        a, b = lo[j], hi[j]
        m = n - (b - a)
        np.subtract(eigenvalues[:a], grid[j], out=dist[:a])
        np.subtract(eigenvalues[b:], grid[j], out=dist[a:m])
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(factor[:a], dist[:a, None], out=scaled[:a])
            np.divide(factor[b:], dist[a:m, None], out=scaled[a:m])
            off = scaled[:m]
            product = off.conj().T @ off
        if not np.isfinite(product).all():
            raise NumericError(f"the admissibility sup at λ = {float(grid[j])!r} is past the float range")
        return float(np.linalg.eigvalsh(product)[-1])

    ceiling = _ceiling(trace, rho, gamma, sigma)
    best = 0.0
    for j in np.argsort(np.where(np.isnan(ceiling), -np.inf, -ceiling), kind="stable"):
        if ceiling[j] < best:
            break
        best = max(best, solve(j))
    return best + weyl


@dataclass(frozen=True)
class ResolventReport:
    """The resolvent inequality for one state, at its worst frequency.

    The inequality is additive: for every real λ,
    ‖z‖² ≤ ‖Cz‖²/ψ(λ(z)) + ‖(A−λ)z‖²/((λ−λ(z))² + ε(λ(z))).
    By the key identity ‖(A−λ)z‖² = ‖z‖²(x + R), x = (λ−λ(z))² and R the
    residual, its margin is ‖Cz‖²/ψ + ‖z‖²(R−ε)/(x+ε), monotone in x.  So
    ``inf_margin``, the infimum over all real λ, is
    ‖Cz‖²/ψ − ‖z‖²·max(0, 1 − R/ε): attained at λ = λ(z) when
    ``residual_over_epsilon`` R/ε < 1, approached as |λ| → ∞ otherwise.
    The verdict requires ``inf_margin`` ≥ −1e−9·‖z‖².
    """

    inf_margin: float
    lambda_z: float
    residual_over_epsilon: float
    norm_sq: float
    observed_sq: float
    verdict: bool


def resolvent_check(system: SpectralSystem, z, cert: CoercivityCertificate) -> ResolventReport:
    """The infimum over all real λ of the additive resolvent inequality's margin.

    For a (k, n) block of states every field holds one entry per row.
    """
    # Every term is homogeneous of degree 2 in z: the verdict is taken in the
    # power-of-two frame, where no state overflows, and the rest scaled back.
    z = coefficients_of(z, system)
    c, back = _power_of_two_frame(z)
    lam, res, norm_sq = _frequency_rows(c, system)
    observed = _row_forms(c, system.gram).real
    ratio = res / cert.epsilon(lam)
    short = 1.0 - ratio
    margin = observed / cert.psi(lam) - norm_sq * np.where(short > 0.0, short, 0.0)
    return ResolventReport(
        inf_margin=back(margin),
        lambda_z=_per_row(lam, z),
        residual_over_epsilon=_per_row(ratio, z),
        norm_sq=back(norm_sq),
        observed_sq=back(observed),
        verdict=_per_row(margin >= -1.0e-9 * norm_sq, z),
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
    states whose residual is below ε(λ(z)) count; the worst relative margin
    below −1e−12 wins.
    """
    if not trials >= 0:
        raise DomainError(f"trials must be non-negative, got {trials}")
    rng = np.random.default_rng(seed)
    best: CoercivityViolation | None = None

    def consider(zc: np.ndarray, trial: int, origin: str) -> None:
        nonlocal best
        rep = frequency_report(zc, system)
        eps_at = float(cert.epsilon(rep.lambda_z))
        if not rep.residual < eps_at:
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
                residual=rep.residual,
                epsilon_at=eps_at,
                observed=observed,
                required=required,
                margin=margin,
                relative_margin=relative,
                trial=trial,
                origin=origin,
            )

    # The clusters at the sampling half-width β = √(ε(c)/2), each state's support.
    widths = np.sqrt(cert.epsilon(system.distinct_eigenvalues()) / 2.0) * BETA_SAFETY
    centers, lo, hi = _cluster_runs(system, widths)
    minimal = [None] * centers.size
    for clusters, _, blocks in _gram_stacks(system, lo, hi):
        for i, v in zip(clusters.tolist(), np.linalg.eigh(blocks)[1][:, :, 0]):
            minimal[i] = v

    for a, b, v in zip(lo.tolist(), hi.tolist(), minimal):
        # The phase that makes the largest-magnitude component real positive.
        pivot = int(np.argmax(np.abs(v)))
        zc = np.zeros(system.size, dtype=complex)
        zc[a:b] = v * np.conj(v[pivot] / abs(v[pivot]))
        consider(zc, -1, "cluster_min_vec")

    for trial in range(trials):
        j = int(rng.integers(centers.size))
        center, a, b = float(centers[j]), int(lo[j]), int(hi[j])
        zc = np.zeros(system.size, dtype=complex)
        block = rng.standard_normal((2, b - a))
        zc[a:b] = block[0] + 1j * block[1]
        outside = np.concatenate([np.arange(a), np.arange(b, system.size)])
        n_perturb = int(rng.integers(0, 6))
        if n_perturb > 0 and outside.size > 0:
            order = np.argsort(np.abs(system.eigenvalues[outside] - center), kind="stable")
            chosen = outside[order][:n_perturb]
            u = float(rng.uniform(1.0, 6.0))
            rms = math.sqrt(float(np.mean(np.abs(zc[a:b]) ** 2)))
            noise = rng.standard_normal((2, chosen.size))
            zc[chosen] += 10.0 ** (-u) * rms * (noise[0] + 1j * noise[1])
        consider(zc, trial, "random")

    return best


@dataclass(frozen=True)
class CertificatePipeline:
    """Everything produced by the scan → envelope → transform chain."""

    scan: ClusterScan
    envelope: PowerLaw
    admissibility_sq: float
    admissibility: float
    spectral: CoercivityCertificate


def scan_certificate(system: SpectralSystem, scan: ClusterScan) -> CertificatePipeline:
    """Build a spectral certificate from a cluster scan of the system.

    Chain: ``scan``, the system's ``coercivity_scan`` at one width ε (one
    width per center is a ``DomainError``) → envelope fit (the scan must be
    weakly coercive) → shift to arbitrary centers as the weak pair (envelope
    lowered by the center shift, width ε/2) → admissibility at width ε/2 →
    weak_to_spectral.  The weak pair is ``spectral.epsilon.psi`` and
    ``spectral.epsilon.base_width``.

    ``admissibility_sq`` is the exact supremum over all real λ, up to
    rounding: ``estimate_admissibility`` evaluated at the cluster edges
    ``admissibility_breakpoints(system, ε/2)``, in low rank plus a Weyl
    term.  The certificate's ψ and ε are non-increasing, so being > 0 at
    ``system.lambda_max`` (checked, else ``NumericError``) makes them
    positive at every frequency λ(z) ≤ λ_max of a state of the system.
    """
    epsilon = scan.epsilon
    if np.ndim(epsilon):
        raise DomainError("a certificate needs a scan at one cluster width, not one width per center")
    envelope = fit_psi_envelope(scan)
    half = epsilon / 2.0
    try:
        m_sq = estimate_admissibility(system, half, admissibility_breakpoints(system, half))
    except DomainError as exc:
        raise DomainError(f"half of the cluster width {epsilon!r}: {exc}") from exc
    m = math.sqrt(m_sq)
    spectral = weak_to_spectral(shifted_power_law(envelope, half), half, m)
    for name, rate in (("psi", spectral.psi), ("epsilon", spectral.epsilon)):
        if not rate(system.lambda_max) > 0:
            raise NumericError(
                f"the spectral certificate's {name} underflows to 0 at lambda_max = {system.lambda_max!r}"
            )
    return CertificatePipeline(
        scan=scan,
        envelope=envelope,
        admissibility_sq=m_sq,
        admissibility=m,
        spectral=spectral,
    )

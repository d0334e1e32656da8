"""Test oracles: the window and its derivative (the quadrature integrands), the window
transform, its energy on an interval and the observed energy by quadrature, the trajectory
point, the key identity's defect in round-off units, the complex phase kernel and the real
sinc kernel with their gap index from ``np.unique``, the quadratic forms (one ``vdot``, or
for a real matrix one (2, n) product and ``dot``, at a time) and squared norms of a block's
rows, the lattice circles one integer square root at a time, the sine-product integral as
one entry of the sine-product matrix, the boundary Gram as FFᵀ, the closed-form cluster
minima of the full bottom side, one cluster as a mask over the modes and its minimal Gram
eigenpair with a fixed phase, the cluster scan (one width or one per center) and the
weighted circle minima solved one cluster at a time (with an exact comparison of two
scans), the admissibility sup solved at every grid point, the observation time by
bisection, the three per-trial scenarios run one state at a time, and the report JSON from
the pure-Python encoder."""

import itertools
import json
import math

import numpy as np
from scipy.integrate import quad

from obskit import DomainError, NumericError, SpectralSystem
from obskit.coercivity import (
    ClusterScan,
    admissibility_breakpoints,
    coercivity_scan,
    estimate_admissibility,
    resolvent_check,
    scan_certificate,
)
from obskit.config import RunConfig, system_of
from obskit.evolution import (
    admissibility_check,
    kernel_psd_margin,
    observability_kernel,
    weak_observability_check,
)
from obskit.report import ReportBundle, Table, Verdict, _json_default
from obskit.scenarios import _new_bundle, _pipeline_constants
from obskit.spectral import _moments, coefficients_of, frequency
from obskit.square import GammaSpec, _sine_product_matrix, gram_factor
from obskit.window import CHI_L2_NORM_SQ, THETA0, THETA1, chi_hat, solve_observation_time


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


def _chi_hat_sq_right_tail(x: float) -> float:
    """∫_x^∞ χ̂(u)² du for any real x, by quadrature split at u = 0 and u = 60."""
    if x <= 0.0:
        left, _ = quad(lambda u: chi_hat(u) ** 2, x, 0.0, epsabs=1e-12, epsrel=1e-10, limit=2000)
        return left + math.pi * CHI_L2_NORM_SQ  # ∫₀^∞ χ̂² = π‖χ‖² (Plancherel)
    if x >= 60.0:
        tail, _ = quad(lambda u: chi_hat(u) ** 2, x, np.inf, epsabs=1e-11, epsrel=1e-8, limit=800)
        return tail
    mid, _ = quad(lambda u: chi_hat(u) ** 2, x, 60.0, epsabs=1e-12, epsrel=1e-10, limit=2000)
    tail, _ = quad(lambda u: chi_hat(u) ** 2, 60.0, np.inf, epsabs=1e-11, epsrel=1e-8, limit=800)
    return mid + tail


def chi_hat_sq_integral_by_quadrature(a: float, b: float) -> float:
    """∫_a^b χ̂(u)² du as a difference of quadrature tails, the oracle for the
    closed-form Plancherel bound.  Reliable to about 1e-11 absolute on windows
    of moderate width and position; it loses accuracy on very wide or far ones."""
    if not a < b:
        return 0.0
    return max(_chi_hat_sq_right_tail(a) - _chi_hat_sq_right_tail(b), 0.0)


def evolve(z0, system: SpectralSystem, t: float) -> np.ndarray:
    """The trajectory point z(t): coefficients z_k e^{iλ_k t}."""
    c = coefficients_of(z0, system)
    return c * np.exp(1j * system.eigenvalues * t)


def key_identity_gap(z, lam: float, system: SpectralSystem) -> float:
    """Defect of ‖(A−λI)z‖² = (λ−λ(z))²‖z‖² + ‖(A−λ(z)I)z‖² in round-off units.

    With the computed mean m in place of λ(z) the right side exceeds the
    left by exactly 2‖z‖²(m − λ(z))(m − λ), and |m − λ(z)| is a few ulps of
    λ_max.  So |LHS − RHS| is divided by LHS + 2·max(|λ|, λ_max)·‖z‖²·|λ − m|,
    all in the moments' scale, and the result reads a small multiple of the
    unit round-off u for every input.  It is 0 by convention when LHS = 0
    (both sides vanish together).  For one 1-D state.
    """
    (w,), _, (total,), (mean,) = _moments(coefficients_of(z, system), system)
    total, mean = float(total), float(mean)
    lhs = math.fsum((system.eigenvalues - lam) ** 2 * w)
    if lhs == 0.0:
        return 0.0
    rhs = (lam - mean) ** 2 * total + math.fsum((system.eigenvalues - mean) ** 2 * w)
    scale = lhs + 2.0 * max(abs(lam), system.lambda_max) * total * abs(lam - mean)
    return abs(lhs - rhs) / scale


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


def _kernel_table_by_unique_inverse(eigenvalues, T, table_of):
    """``table_of(h, r)`` over the distinct gaps, h = ½·T·gap and r = T·sin(h)/h
    (T at h = 0), gathered to (n, n) per horizon with each gap's index from
    ``np.unique(..., return_inverse=True)``."""
    lam = np.asarray(eigenvalues, dtype=float)
    t = np.asarray(T, dtype=float)[..., None]
    gaps, where = np.unique(np.subtract.outer(lam, lam).ravel(), return_inverse=True)
    h = 0.5 * t * gaps
    r = np.broadcast_to(t, h.shape).copy()
    np.divide(t * np.sin(h), h, out=r, where=h != 0.0)
    return np.take(table_of(h, r), where, axis=-1).reshape(t.shape[:-1] + (lam.size, lam.size))


def phase_kernel_by_unique_inverse(eigenvalues, T) -> np.ndarray:
    """The complex phase kernel K(T) = ∫₀ᵀ e^{i(λ_j−λ_k)t} dt = r·e^{ih}, with each
    gap's index from ``np.unique(..., return_inverse=True)``."""
    return _kernel_table_by_unique_inverse(eigenvalues, T, lambda h, r: r * np.cos(h) + 1j * (r * np.sin(h)))


def sinc_kernel_by_unique_inverse(eigenvalues, T) -> np.ndarray:
    """The real kernel S_T = T·sin(h)/h of ``observability_kernel``, with each gap's
    index from ``np.unique(..., return_inverse=True)``."""
    return _kernel_table_by_unique_inverse(eigenvalues, T, lambda h, r: r)


def row_forms_by_row(c: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """u*Mu per row of ``c``, u = conj(row), each its own ``vdot(u, M @ u)``, with
    ``matrix`` one (n, n) M or a (k, n, n) stack: the oracle for ``_row_forms``
    with a complex M."""
    matrices = matrix if matrix.ndim == 3 else itertools.repeat(matrix)
    return np.array([np.vdot(u, m @ u) for u, m in zip(c.conj(), matrices)], dtype=complex)


def real_row_forms_by_row(c: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """aᵀMa + bᵀMb per row a + ib of ``c``, each row its own Y = X @ M, X = [a; b]
    the (2, n) view of the row's parts, then a·Y₀ + b·Y₁, with a real
    ``matrix`` one (n, n) M or a (k, n, n) stack: the oracle for ``_row_forms``
    with a real M."""
    matrices = matrix if matrix.ndim == 3 else itertools.repeat(matrix)
    forms = []
    for row, m in zip(c, matrices):
        y = row.view(float).reshape(-1, 2).T @ m
        forms.append(np.dot(row.real, y[0]) + np.dot(row.imag, y[1]))
    return np.array(forms, dtype=float)


def row_norms_sq_by_row(c: np.ndarray) -> np.ndarray:
    """‖row‖² per row of ``c``, each its own ``vdot(row, row)``: the oracle for the
    squared norms of ``evolution._energy``."""
    return np.array([np.vdot(row, row).real for row in c], dtype=float)


def lattice_circle(N: int) -> np.ndarray:
    """All (p, q) with p, q ≥ 1 and p² + q² = N as (p, q) rows, sorted by p: the
    oracle for one circle of ``square_modes``, one integer square root per p."""
    if N < 2:
        raise DomainError(f"lattice circles need N ≥ 2, got {N}")
    modes = []
    for p in range(1, math.isqrt(N - 1) + 1):
        q = math.isqrt(N - p * p)
        if q * q == N - p * p:
            modes.append((p, q))
    return np.array(modes, dtype=int).reshape(-1, 2)


def sine_product_integral(p: int, p_prime: int, alpha: float, beta: float) -> float:
    """∫_α^β sin(px) sin(p′x) dx, one entry of ``square._sine_product_matrix``."""
    return float(_sine_product_matrix(np.array([p, p_prime]), alpha, beta)[0, 1])


def boundary_gram(modes: np.ndarray, gamma: GammaSpec) -> np.ndarray:
    """Gram matrix of normal-derivative traces over the patch union, FFᵀ."""
    factor = gram_factor(modes, gamma)[0]
    return factor @ factor.T


def bottom_side_closed_form_n_mu(N: int) -> float:
    """Closed form for N·μ_N on the full bottom side: 2·q_min(N)²/π."""
    modes = lattice_circle(N)
    if not modes.size:
        raise DomainError(f"no lattice point on the circle N = {N}")
    q_min = int(modes[:, 1].min())
    return 2.0 * q_min * q_min / math.pi


def _gram_block_by_gather(system: SpectralSystem, idx: np.ndarray) -> np.ndarray:
    """G on the modes ``idx`` as one 2-D product (factor) or one 2-D gather (given Gram)."""
    if not system._from_factor:
        return system.gram[np.ix_(idx, idx)]
    return system.factor[idx] @ system.factor[idx].conj().T


def enumerate_cluster(system: SpectralSystem, lam: float, epsilon: float) -> np.ndarray:
    """Indices k with |λ − λ_k| < ε (strict), one mask over the modes; possibly empty."""
    if not epsilon > 0:
        raise DomainError(f"cluster width must be positive, got {epsilon}")
    return np.flatnonzero(np.abs(system.eigenvalues - lam) < epsilon)


def cluster_min_coercivity(system: SpectralSystem, indices) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and unit eigenvector of the Gram block on a cluster.

    The eigenvalue is min over unit-norm states supported on the cluster of
    ‖Cz‖²; the eigenvector is returned at full length with a deterministic
    phase (largest-magnitude component real positive), the state the
    violation search tries first for each cluster.
    """
    idx = np.asarray(indices, dtype=int)
    if idx.size == 0:
        raise DomainError("cluster index list is empty")
    if idx.min() < 0 or idx.max() >= system.size or np.unique(idx).size != idx.size:
        raise DomainError("cluster indices must be unique and within the mode range")
    vals, vecs = np.linalg.eigh(system.gram_block(idx))
    v = vecs[:, 0]
    pivot = int(np.argmax(np.abs(v)))
    phase = v[pivot] / abs(v[pivot])
    v = v * np.conj(phase)
    full = np.zeros(system.size, dtype=complex)
    full[idx] = v
    return float(vals[0]), full


def coercivity_scan_by_cluster(system: SpectralSystem, epsilon) -> ClusterScan:
    """``coercivity_scan`` with one ``enumerate_cluster`` mask and one ``eigh`` per
    distinct eigenvalue, in order, the oracle for its runs and stacked solves.

    ``epsilon`` is one width or one per distinct eigenvalue.  Each mask is
    checked to be one run before it becomes the columns lo and hi.
    """
    centers = system.distinct_eigenvalues()
    widths = np.broadcast_to(epsilon, centers.shape).tolist()
    lo, hi, min_eig = [], [], []
    for center, width in zip(centers.tolist(), widths):
        idx = enumerate_cluster(system, center, width)
        assert idx.size and np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))
        lo.append(idx[0])
        hi.append(idx[-1] + 1)
        min_eig.append(float(np.linalg.eigh(_gram_block_by_gather(system, idx))[0][0]))
    return ClusterScan(epsilon, centers, np.array(lo), np.array(hi), np.array(min_eig))


def assert_same_scan(got: ClusterScan, expected: ClusterScan) -> None:
    """Two scans agree exactly: widths, centers, runs (values and dtype) and minima."""
    assert np.array_equal(got.epsilon, expected.epsilon)
    for name in ("centers", "lo", "hi", "min_eig"):
        g, e = getattr(got, name), getattr(expected, name)
        assert g.dtype == e.dtype and g.tolist() == e.tolist(), name


def generalized_minima_by_cluster(system: SpectralSystem, scan: ClusterScan, k_all) -> list[float]:
    """Each circle's least eigenvalue of r·G_N·r, r = √N/k, one ``eigvalsh`` per
    cluster, the oracle for ``delta_gamma_fit``'s stacked weighted solves."""
    generalized = []
    for center, a, b in zip(scan.centers.tolist(), scan.lo.tolist(), scan.hi.tolist()):
        idx = np.arange(a, b)
        r = math.sqrt(center) / k_all[idx]
        block = _gram_block_by_gather(system, idx)
        generalized.append(float(np.linalg.eigvalsh(r[:, None] * block * r)[0]))
    return generalized


def admissibility_tops(system: SpectralSystem, epsilon: float, lambda_grid) -> list[float]:
    """The top eigenvalue of the off-cluster r×r form at each grid point, in grid order,
    one ``eigvalsh`` each, as ``estimate_admissibility`` solves a point (none when the
    factor has no column; inputs already checked by it)."""
    eigenvalues = system.eigenvalues
    lower_edges = eigenvalues - epsilon
    upper_edges = eigenvalues + epsilon
    tops = []
    for lam in np.asarray(lambda_grid, dtype=float).ravel():
        d = eigenvalues - lam
        off = (np.abs(d) >= epsilon) | (lam <= lower_edges) | (lam >= upper_edges)
        if not off.any():
            raise DomainError(
                f"the cluster at λ = {lam} covers every mode; off-cluster block is empty"
            )
        scaled = system.factor[off] / d[off, None]
        if scaled.shape[1]:
            tops.append(float(np.linalg.eigvalsh(scaled.conj().T @ scaled)[-1]))
    return tops


def admissibility_by_every_point(system: SpectralSystem, epsilon: float, lambda_grid) -> float:
    """``estimate_admissibility`` with an ``eigvalsh`` at every grid point, in grid order,
    the oracle for its pruned search (inputs already checked by it)."""
    return max([0.0, *admissibility_tops(system, epsilon, lambda_grid)]) + system.factor_error / epsilon**2


def scalar_observation_time(lambda0, eps):
    """The bracket-and-bisect search ``solve_observation_time`` replaced, one λ₀ at a time:
    the bracket grows from T = 1 by doubling or halving, the map is checked increasing
    on 17 points of it, and bisection stops at hi − lo ≤ 1e-12·hi."""
    if not (lambda0 >= 0 and math.isfinite(lambda0)):
        raise DomainError(f"lambda0 must be non-negative and finite, got {lambda0!r}")

    def g(T):
        return T * float(eps(THETA0 * (1.0 / T + lambda0))) - THETA1

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

    samples = [g(t) + THETA1 for t in np.linspace(lo, hi, 17)]
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


def random_state(rng: np.random.Generator, size: int) -> np.ndarray:
    """One trial state: a (2, size) standard normal draw as real and imaginary parts."""
    block = rng.standard_normal((2, size))
    return block[0] + 1j * block[1]


def run_resolvent_scan_by_row(cfg: RunConfig) -> ReportBundle:
    """``resolvent-scan`` with one state per iteration, as the block runner's oracle."""
    bundle = _new_bundle(cfg)
    system = system_of(cfg)
    bundle.constants["system_label"] = system.label
    pipeline = scan_certificate(system, coercivity_scan(system, cfg.epsilon_cluster))
    _pipeline_constants(bundle, pipeline)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = math.inf
    for trial in range(cfg.trials):
        z = random_state(rng, system.size)
        rep = resolvent_check(system, z, pipeline.spectral)
        rel = rep.inf_margin / rep.norm_sq
        worst = min(worst, rel)
        rows.append([trial, rep.lambda_z, rep.inf_margin, rel, rep.residual_over_epsilon, rep.verdict])
    bundle.tables.append(
        Table(
            name="resolvent_margins",
            columns=[
                "trial",
                "lambda_z",
                "inf_margin",
                "inf_margin_over_norm_sq",
                "residual_over_epsilon",
                "verdict",
            ],
            rows=rows,
        )
    )
    bundle.constants["worst_relative_margin"] = worst
    bundle.verdicts.append(
        Verdict(
            "resolvent-inequality-holds",
            worst >= -1e-9,
            f"worst inf_margin/norm_sq = {worst!r} over {cfg.trials} states",
        )
    )
    return bundle


def run_weak_observability_by_row(cfg: RunConfig) -> ReportBundle:
    """``weak-observability`` with one state per iteration, as the block runner's oracle."""
    bundle = _new_bundle(cfg)
    system = system_of(cfg)
    bundle.constants["system_label"] = system.label
    pipeline = scan_certificate(system, coercivity_scan(system, cfg.epsilon_cluster))
    _pipeline_constants(bundle, pipeline)
    rng = np.random.default_rng(cfg.seed)
    lam0 = [frequency(random_state(rng, system.size), system) for _ in range(cfg.trials)]
    t_mins = solve_observation_time(lam0, pipeline.spectral.epsilon).tolist()
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst, applicable = math.inf, 0
    for trial, t_min in enumerate(t_mins):
        z = random_state(rng, system.size)
        horizon = cfg.T if cfg.T is not None else 2.0 * t_min
        rep = weak_observability_check(z, system, horizon, pipeline.spectral.psi, t_min)
        if rep.applicable:
            applicable += 1
            worst = min(worst, rep.margin / (1.0 + rep.integral))
        rows.append(
            [trial, rep.lambda_z0, rep.t_min, rep.T, rep.lhs, rep.integral, rep.margin, rep.applicable]
        )
    bundle.tables.append(
        Table(
            name="observability",
            columns=["trial", "lambda_z0", "t_min", "T", "lhs", "integral", "margin", "applicable"],
            rows=rows,
        )
    )
    if math.isinf(worst):
        bundle.verdicts.append(
            Verdict("weak-observability-margins", False, "no applicable horizon in the batch")
        )
        return bundle
    bundle.constants["worst_scaled_margin"] = worst
    bundle.verdicts.append(
        Verdict(
            "weak-observability-margins",
            worst >= -1e-9,
            f"worst margin/(1+integral) = {worst!r} over {applicable} states",
        )
    )
    if applicable < cfg.trials:
        bundle.notes.append(
            "some horizons fall below the minimal observation time; those rows carry "
            "no margin claim"
        )
    return bundle


def run_admissibility_by_row(cfg: RunConfig) -> ReportBundle:
    """``admissibility`` with one state per iteration, as the block runner's oracle."""
    bundle = _new_bundle(cfg)
    system = system_of(cfg)
    bundle.constants["system_label"] = system.label
    grid = admissibility_breakpoints(system, cfg.epsilon_cluster)
    m_sq = estimate_admissibility(system, cfg.epsilon_cluster, grid)
    bundle.constants["admissibility_sq"] = m_sq
    bundle.constants["admissibility"] = math.sqrt(m_sq)
    horizon = cfg.T if cfg.T is not None else 1.0
    kernel = observability_kernel(system, horizon)
    psd_min, sharp = kernel_psd_margin(kernel)
    bundle.constants["horizon"] = horizon
    bundle.constants["sharp_constant_truncated"] = sharp
    bundle.notes.append(
        "sharp_constant_truncated is the largest kernel eigenvalue of the truncated "
        "model only; it depends on the truncation level."
    )
    bundle.verdicts.append(
        Verdict(
            "kernel-positive-semidefinite",
            psd_min >= -1e-10 * max(sharp, 0.0),
            f"kernel eigenvalues in [{psd_min!r}, {sharp!r}] at T = {horizon!r}",
        )
    )
    rng = np.random.default_rng(cfg.seed)
    worst = math.inf
    for _ in range(cfg.trials):
        z = random_state(rng, system.size)
        check = admissibility_check(z, system, horizon, kernel, sharp * (1.0 + 1e-12))
        worst = min(worst, check.margin / (sharp * check.norm_sq))
    bundle.constants["worst_admissibility_margin"] = worst
    bundle.verdicts.append(
        Verdict(
            "sharp-constant-bounds-random-states",
            worst >= -1e-9,
            f"worst margin/(C_T*norm_sq) = {worst!r} over {cfg.trials} states",
        )
    )
    return bundle


ROW_RUNNERS = {
    "resolvent-scan": run_resolvent_scan_by_row,
    "weak-observability": run_weak_observability_by_row,
    "admissibility": run_admissibility_by_row,
}


def report_json_by_pure_python_encoder(bundle: ReportBundle) -> str:
    """The report as one ``json.dumps(indent=2)`` call, which runs Python's pure-Python encoder."""
    payload = {
        "toolkit": {"name": "obskit", "version": bundle.toolkit_version},
        "scenario": bundle.scenario,
        "seed": bundle.seed,
        "config_sha256": bundle.config_sha256,
        "constants": bundle.constants,
        "notes": bundle.notes,
        "verdicts": [
            {"name": v.name, "passed": v.passed, "detail": v.detail} for v in bundle.verdicts
        ],
        "tables": {
            t.name: {"columns": t.columns, "rows": t.rows} for t in bundle.tables
        },
    }
    return (
        json.dumps(payload, indent=2, ensure_ascii=False, allow_nan=False, default=_json_default)
        + "\n"
    )

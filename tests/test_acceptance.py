"""End-to-end acceptance checks, one per advertised guarantee.

Each test prints a single PASS/FAIL line with the measured quantities and
then asserts the stated bound verbatim.  Two checks are known to fail and
are kept at their stated strength on purpose: the upper constant of the
two-sided cutoff sandwich and the weighted generalized-eigenvalue
restatement for a strict sub-patch; the measured values in their FAIL
lines document the actual behavior.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from obskit import (
    BoundaryPatch,
    CoercivityCertificate,
    GammaSpec,
    PowerLaw,
    Side,
    SpectralSystem,
    TransformedWidth,
    assumption_I_check,
    bottom_and_left,
    build_square_system,
    chi_hat,
    coercivity_scan,
    default_tau_grid,
    delta_gamma_fit,
    fit_psi_envelope,
    frequency,
    frequency_report,
    kernel_psd_margin,
    observability_integral,
    observability_kernel,
    observed_energy_sq,
    plancherel_lowerbound_check,
    resolvent_check,
    sandwich_values,
    scan_certificate,
    solve_observation_time,
    spectral_coercivity_violation_search,
    weak_observability_check,
    windowed_frequency,
)
from obskit.window import C0, C0_PRIME, KAPPA1, KAPPA2, THETA0, THETA1

from oracles import (
    bottom_side_closed_form_n_mu,
    chi_hat_by_quadrature,
    evolve,
    key_identity_gap,
    lattice_circle,
)


def check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_state(rng, size):
    block = rng.standard_normal((2, size))
    return block[0] + 1j * block[1]


@pytest.fixture(scope="module")
def bottom50():
    return build_square_system(50, GammaSpec.full_sides(Side.BOTTOM))


@pytest.fixture(scope="module")
def pipeline50(bottom50):
    return scan_certificate(bottom50, coercivity_scan(bottom50, 0.5))


def test_01_cutoff_sandwich_two_sided():
    grid = default_tau_grid()
    start = time.perf_counter()
    values = sandwich_values(grid)
    elapsed = time.perf_counter() - start
    lo = float(values.min())
    hi = float(values.max())
    ok = lo >= KAPPA1 - 1e-9 and hi <= KAPPA2 + 1e-9 and elapsed < 1.0
    check(
        "cutoff-sandwich-two-sided",
        ok,
        f"(1+τ²)|transform| spans [{lo:.12g}, {hi:.12g}] over {grid.size} points, "
        f"claimed envelope [{KAPPA1:.12g}, {KAPPA2:g}], {elapsed:.3f}s",
    )


def test_02_transform_closed_form_vs_quadrature():
    target = (1.0 + math.exp(-2.0)) / 2.0
    at_zero_quad = chi_hat_by_quadrature(0.0)
    at_zero_closed = float(chi_hat(0.0))
    grid = default_tau_grid()
    closed = chi_hat(grid)
    worst = max(
        abs(float(closed[i]) - chi_hat_by_quadrature(float(tau)))
        for i, tau in enumerate(grid)
    )
    ok = (
        abs(at_zero_quad - target) <= 1e-12
        and abs(at_zero_closed - target) <= 1e-12
        and worst <= 1e-9
    )
    check(
        "transform-closed-form-vs-quadrature",
        ok,
        f"value at zero off by {abs(at_zero_quad - target):.3e} (quad) / "
        f"{abs(at_zero_closed - target):.3e} (closed), worst grid gap {worst:.3e}",
    )


def test_03_key_identity_random_states():
    rng = np.random.default_rng(103)
    pool = []
    for _ in range(10):
        n = int(rng.integers(1, 65))
        lam = np.sort(rng.uniform(1e-3, 100.0, size=n))
        pool.append(SpectralSystem(eigenvalues=lam, gram=np.eye(n)))
    draws = [
        (pool[i % len(pool)], random_state(rng, pool[i % len(pool)].size),
         float(rng.uniform(-50.0, 150.0)))
        for i in range(1000)
    ]
    start = time.perf_counter()
    worst = max(key_identity_gap(z, lam, sys_) for sys_, z, lam in draws)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    check(
        "key-identity-random-states",
        ok,
        f"worst relative gap {worst:.3e} over 1000 (state, shift) pairs, {elapsed:.3f}s",
    )


def test_04_residual_sign_and_eigenvectors():
    rng = np.random.default_rng(104)
    lam = np.sort(rng.uniform(0.1, 80.0, size=64))
    sys_ = SpectralSystem(eigenvalues=lam, gram=np.eye(64))
    worst_basis = max(
        abs(frequency_report(np.eye(64)[k], sys_).residual) for k in range(64)
    )
    worst_scaled = 0.0
    for _ in range(1000):
        z = random_state(rng, 64)
        lam_z = frequency(z, sys_)
        worst_scaled = min(worst_scaled, frequency_report(z, sys_).residual / (lam_z * lam_z))
    ok = worst_basis <= 1e-12 and worst_scaled >= -1e-12
    check(
        "residual-sign-and-eigenvectors",
        ok,
        f"worst eigenvector residual {worst_basis:.3e}, "
        f"worst residual/λ(z)² = {worst_scaled:.3e} over 1000 states",
    )


def test_05_windowed_frequency_two_sided_bound():
    rng = np.random.default_rng(105)
    horizons = (0.1, 1.0, 10.0)
    violations = 0
    start = time.perf_counter()
    for i in range(1000):
        lam = np.sort(rng.uniform(0.5, 40.0, size=10))
        sys_ = SpectralSystem(eigenvalues=lam, gram=np.eye(10))
        z0 = random_state(rng, 10)
        tau = float(rng.uniform(-50.0, 50.0))
        T = horizons[i % 3]
        wf = windowed_frequency(z0, sys_, T, tau)
        upper = 4.0 * abs(tau) + C0 * frequency(z0, sys_)
        if not (lam[0] <= wf <= upper):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    check(
        "windowed-frequency-two-sided-bound",
        ok,
        f"{violations} violations over 1000 (state, shift, horizon) draws, {elapsed:.1f}s",
    )


def test_06_truncated_energy_lower_bound():
    lam = np.array([1.0, 3.0, 4.0, 8.0, 13.0])
    sys_ = SpectralSystem(eigenvalues=lam, gram=np.eye(5))
    rng = np.random.default_rng(106)
    worst = math.inf
    for _ in range(20):
        z0 = random_state(rng, 5)
        T = float(rng.uniform(0.3, 4.0))
        threshold = C0_PRIME / T + float(lam[-1])
        R = threshold * float(rng.uniform(1.2, 20.0))
        rep = plancherel_lowerbound_check(z0, sys_, T, R)
        worst = min(worst, rep.margin / rep.norm_sq)
    z0 = random_state(rng, 5)
    limit_rep = plancherel_lowerbound_check(z0, sys_, 1.0, 1.0e3)
    limit_gap = abs(limit_rep.rhs - limit_rep.norm_sq) / limit_rep.norm_sq
    ok = worst >= -1e-8 and limit_gap <= 1e-2
    check(
        "truncated-energy-lower-bound",
        ok,
        f"worst margin/‖z‖² = {worst:.3e} over 20 admissible pairs, "
        f"wide-radius energy recovered to {limit_gap:.2%}",
    )


def test_07_observability_integral_vs_time_quadrature():
    rng = np.random.default_rng(107)
    worst_rel = 0.0
    worst_psd = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        lam = np.sort(rng.uniform(0.5, 12.0, size=n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gram = b.conj().T @ b / n
        sys_ = SpectralSystem(eigenvalues=lam, gram=gram)
        z0 = random_state(rng, n)
        T = float(rng.uniform(0.1, 10.0))
        closed = observability_integral(z0, sys_, T)
        oracle, _ = quad(
            lambda t: observed_energy_sq(evolve(z0, sys_, t), sys_),
            0.0,
            T,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=800,
        )
        worst_rel = max(worst_rel, abs(closed - oracle) / oracle)
        mn, mx = kernel_psd_margin(observability_kernel(sys_, T))
        worst_psd = min(worst_psd, mn / mx)
    ok = worst_rel <= 1e-8 and worst_psd >= -1e-10
    check(
        "observability-integral-vs-quadrature",
        ok,
        f"worst relative gap {worst_rel:.3e} over 100 draws, "
        f"worst kernel eigenvalue ratio {worst_psd:.3e}",
    )


def test_08_observation_time_solver():
    worst_res = 0.0
    width = TransformedWidth(psi=PowerLaw(0.3, 1.0), admissibility=2.0, base_width=0.15)
    for eps in (PowerLaw(0.2, 0.0), PowerLaw(0.3, 1.0), width):
        for lam0 in (0.5, 3.0, 25.0):
            T = solve_observation_time(lam0, eps)
            res = abs(T * float(eps(THETA0 * (1.0 / T + lam0))) - THETA1)
            worst_res = max(worst_res, res)

    worst_oracle = 0.0
    for c, lam0 in ((1.0, 1.0), (0.05, 3.0), (2.0, 40.0)):
        disc = THETA1 * (1.0 + THETA0 * lam0)
        root = (disc + math.sqrt(disc * disc + 4.0 * c * THETA1 * THETA0)) / (2.0 * c)
        got = solve_observation_time(lam0, PowerLaw(c, 1.0))
        worst_oracle = max(worst_oracle, abs(got - root) / root)

    times = [
        solve_observation_time(float(lam), PowerLaw(0.8, 1.0))
        for lam in np.linspace(0.0, 100.0, 50)
    ]
    monotone = all(b >= a * (1.0 - 1e-11) for a, b in zip(times, times[1:]))

    ok = worst_res <= 1e-10 * THETA1 and worst_oracle <= 1e-10 and monotone
    check(
        "observation-time-solver",
        ok,
        f"worst equation residual {worst_res:.3e}, worst oracle gap {worst_oracle:.3e}, "
        f"monotone on 50-point grid: {monotone}",
    )


def test_09_lattice_circles_vs_double_loop():
    n_max = 10_000
    oracle: dict[int, list[tuple[int, int]]] = {}
    r = math.isqrt(n_max)
    for p in range(1, r + 1):
        for q in range(1, r + 1):
            n = p * p + q * q
            if n <= n_max:
                oracle.setdefault(n, []).append((p, q))
    mismatches = 0
    for n in range(2, n_max + 1):
        got = [tuple(m) for m in lattice_circle(n).tolist()]
        if got != sorted(oracle.get(n, [])):
            mismatches += 1
    fifty = [tuple(m) for m in lattice_circle(50).tolist()]
    ok = mismatches == 0 and fifty == [(1, 7), (5, 5), (7, 1)]
    check(
        "lattice-circles-vs-double-loop",
        ok,
        f"{mismatches} mismatches for N ≤ {n_max}, circle at 50 = {fifty}",
    )


def test_10_two_full_sides_constant_minima():
    sys_ = build_square_system(2000, bottom_and_left())
    report = assumption_I_check(sys_)
    envelope = fit_psi_envelope(coercivity_scan(sys_, 0.5))
    ok = (
        report.max_abs_deviation <= 1e-10
        and envelope.p == 0.0
        and abs(envelope.c - 2.0 / math.pi) <= 1e-10
    )
    check(
        "two-full-sides-constant-minima",
        ok,
        f"max |μ_N − 2/π| = {report.max_abs_deviation:.3e} over {report.scan.centers.size} "
        f"clusters, fitted envelope {envelope!r}",
    )


def test_11_one_full_side_decay_constant():
    delta_hat, report = delta_gamma_fit(build_square_system(5000, GammaSpec.full_sides(Side.BOTTOM)))
    scan = report.scan
    worst = max(
        abs(center * min_eig - bottom_side_closed_form_n_mu(int(center)))
        for center, min_eig in zip(scan.centers.tolist(), scan.min_eig.tolist())
    )
    ok = worst <= 1e-10 and delta_hat > 0.0 and abs(delta_hat - 2.0 / math.pi) <= 1e-10
    check(
        "one-full-side-decay-constant",
        ok,
        f"worst closed-form gap {worst:.3e} over {scan.centers.size} clusters, "
        f"min N·μ_N = {delta_hat:.12g} vs 2/π = {2.0 / math.pi:.12g}",
    )


def test_12_sub_patch_decay_and_weighted_restatement():
    gamma = GammaSpec((BoundaryPatch(Side.BOTTOM, math.pi / 4.0, math.pi / 2.0),))
    start = time.perf_counter()
    delta_hat, report = delta_gamma_fit(build_square_system(500, gamma))
    elapsed = time.perf_counter() - start
    min_gen = report.min_generalized
    ok = delta_hat > 0.0 and min_gen >= delta_hat - 1e-12 and elapsed < 60.0
    check(
        "sub-patch-decay-and-weighted-restatement",
        ok,
        f"min N·μ_N = {delta_hat:.12g} > 0 over {report.scan.centers.size} clusters, but the "
        f"weighted restatement needs every generalized minimum ≥ that constant and "
        f"the smallest is {min_gen:.12g}; {elapsed:.1f}s",
    )


def test_13_certificate_round_trip_and_search(bottom50, pipeline50):
    rng = np.random.default_rng(113)
    negatives = 0
    for _ in range(100):
        z = random_state(rng, bottom50.size)
        rep = resolvent_check(bottom50, z, pipeline50.spectral)
        negatives += int(rep.inf_margin < 0.0)
    clean = spectral_coercivity_violation_search(
        bottom50, pipeline50.spectral, 10_000, seed=42
    )
    inflated = CoercivityCertificate(
        epsilon=pipeline50.spectral.epsilon,
        psi=pipeline50.spectral.psi.scaled(10.0),  # deliberately inflated strength
    )
    caught = spectral_coercivity_violation_search(bottom50, inflated, 10_000, seed=42)
    ok = negatives == 0 and clean is None and caught is not None
    caught_text = (
        f"caught with relative margin {caught.relative_margin:.3e}"
        if caught is not None
        else "not caught"
    )
    check(
        "certificate-round-trip-and-search",
        ok,
        f"{negatives} negative resolvent margins (infimum over all frequencies) over "
        f"100 states, honest certificate survives 10000 trials, inflated strength "
        f"{caught_text}",
    )


def test_14_weak_observability_end_to_end(bottom50, pipeline50):
    psi = pipeline50.spectral.psi
    eps = pipeline50.spectral.epsilon
    rng = np.random.default_rng(114)
    worst = math.inf
    for _ in range(50):
        z0 = random_state(rng, bottom50.size)
        t_min = solve_observation_time(frequency(z0, bottom50), eps)
        rep = weak_observability_check(z0, bottom50, 2.0 * t_min, psi, t_min)
        assert rep.applicable
        worst = min(worst, rep.margin / rep.norm_sq)
    check(
        "weak-observability-end-to-end",
        worst >= 0.0,
        f"worst margin/‖z0‖² over 50 states at twice the minimal horizon: {worst:.6g}",
    )

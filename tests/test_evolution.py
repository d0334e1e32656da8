"""Observability integrals: closed form vs quadrature, kernel properties."""

import math

import numpy as np
import pytest

from obskit import (
    Constant,
    DomainError,
    SpectralSystem,
    StateVector,
    admissibility_check,
    cutoff_profile,
    evolve,
    frequency,
    kernel_psd_margin,
    observability_integral,
    observability_integral_by_quadrature,
    observability_kernel,
    phase_kernel,
    scan_certificate,
    solve_observation_time,
    theta_constants,
    weak_observability_check,
)
from obskit.square import full_bottom, build_square_system


def random_system(rng, n, spread=12.0):
    lam = np.sort(rng.uniform(1.0, 1.0 + spread, size=n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return SpectralSystem(eigenvalues=lam, gram=b.conj().T @ b / n)


class TestEvolve:
    def test_unimodular_phases(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 3.0], gram=np.eye(3))
        z0 = np.array([1.0, 1.0 - 1j, 0.5])
        z_t = evolve(z0, sys_, 0.7)
        np.testing.assert_allclose(np.abs(z_t.coefficients), np.abs(z0), rtol=1e-14)
        expected = z0 * np.exp(1j * sys_.eigenvalues * 0.7)
        np.testing.assert_allclose(z_t.coefficients, expected, rtol=1e-14)

    def test_group_property(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 4.0], gram=np.eye(2))
        z0 = np.array([1.0, 1j])
        once = evolve(evolve(z0, sys_, 0.3), sys_, 0.4)
        direct = evolve(z0, sys_, 0.7)
        np.testing.assert_allclose(once.coefficients, direct.coefficients, rtol=1e-13)


class TestPhaseKernel:
    def test_diagonal_is_horizon(self):
        lam = np.array([1.0, 1.0, 2.0, 5.0])
        k = phase_kernel(lam, 3.0)
        np.testing.assert_allclose(np.diag(k), 3.0, rtol=0)
        # exact tie off the diagonal also integrates to T
        assert k[0, 1] == pytest.approx(3.0)

    def test_direct_formula_off_diagonal(self):
        lam = np.array([1.0, 4.0])
        T = 2.5
        k = phase_kernel(lam, T)
        delta = -3.0
        expected = (np.exp(1j * delta * T) - 1.0) / (1j * delta)
        assert k[0, 1] == pytest.approx(expected, rel=1e-14)

    def test_series_branch_matches_direct(self):
        # |delta|*T just below and above the series threshold must agree
        lam = np.array([1.0, 1.0 + 2e-9])
        T = 10.0  # |delta|*T = 2e-8, series branch
        k_series = phase_kernel(lam, T)[0, 1]
        phase = (lam[0] - lam[1]) * T
        exact = T * (1.0 + 1j * phase / 2.0 + (1j * phase) ** 2 / 6.0)
        assert k_series == pytest.approx(exact, rel=1e-12)
        # conjugate entry carries the opposite phase
        assert phase_kernel(lam, T)[1, 0] == pytest.approx(np.conj(exact), rel=1e-12)

    def test_hermitian(self):
        rng = np.random.default_rng(31)
        lam = np.sort(rng.uniform(1.0, 20.0, size=8))
        k = phase_kernel(lam, 1.7)
        np.testing.assert_allclose(k, k.conj().T, atol=1e-14)


class TestObservabilityIntegral:
    def test_basis_vector_linear_growth(self):
        rng = np.random.default_rng(32)
        sys_ = random_system(rng, 6)
        for k in [0, 3, 5]:
            z = StateVector.basis(k, 6)
            got = observability_integral(z, sys_, 4.2)
            assert got == pytest.approx(4.2 * sys_.gram[k, k].real, rel=1e-12)

    def test_identity_gram_gives_norm_times_time(self):
        rng = np.random.default_rng(33)
        lam = np.array([1.0, 2.0, 2.0, 6.0])  # includes a repeated eigenvalue
        sys_ = SpectralSystem(eigenvalues=lam, gram=np.eye(4))
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = observability_integral(z, sys_, 3.3)
        assert got == pytest.approx(3.3 * float(np.vdot(z, z).real), rel=1e-12)

    def test_two_mode_dense_vs_quadrature(self):
        gram = np.array([[2.0, 0.3 + 0.4j], [0.3 - 0.4j, 1.0]])
        sys_ = SpectralSystem(eigenvalues=[1.0, 3.0], gram=gram)
        z = np.array([1.0, 1.0])
        closed = observability_integral(z, sys_, 2.5)
        quadrature = observability_integral_by_quadrature(z, sys_, 2.5)
        assert closed == pytest.approx(quadrature, rel=1e-8)

    def test_random_systems_vs_quadrature(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            sys_ = random_system(rng, n)
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            T = float(rng.uniform(0.1, 10.0))
            closed = observability_integral(z, sys_, T)
            quadrature = observability_integral_by_quadrature(z, sys_, T)
            assert closed == pytest.approx(quadrature, rel=1e-8, abs=1e-12)

    def test_additivity_by_phase_shift(self):
        rng = np.random.default_rng(35)
        sys_ = random_system(rng, 7)
        z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        t1, t2 = 1.3, 2.1
        whole = observability_integral(z, sys_, t1 + t2)
        first = observability_integral(z, sys_, t1)
        second = observability_integral(evolve(z, sys_, t1), sys_, t2)
        assert whole == pytest.approx(first + second, rel=1e-10)

    def test_monotone_in_horizon(self):
        rng = np.random.default_rng(36)
        sys_ = random_system(rng, 6)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        values = [observability_integral(z, sys_, float(T)) for T in np.linspace(0.2, 8.0, 25)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-10 * (1.0 + abs(a))

    def test_nonnegative(self):
        rng = np.random.default_rng(37)
        sys_ = random_system(rng, 6)
        for _ in range(50):
            z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert observability_integral(z, sys_, 1.0) >= -1e-12

    def test_rejects_nonpositive_horizon(self):
        sys_ = SpectralSystem(eigenvalues=[1.0], gram=np.eye(1))
        with pytest.raises(DomainError):
            observability_integral([1.0], sys_, 0.0)


class TestKernelAndAdmissibility:
    def test_kernel_positive_semidefinite(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            sys_ = random_system(rng, n)
            T = float(rng.uniform(0.05, 20.0))
            low, high = kernel_psd_margin(sys_, T)
            assert low >= -1e-10 * max(high, 0.0)

    def test_sharp_constant_diagonal_gram(self):
        gram = np.diag([0.5, 2.0, 1.25]).astype(complex)
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 4.0], gram=gram)
        assert kernel_psd_margin(sys_, 3.0)[1] == pytest.approx(6.0, rel=1e-12)

    def test_sharp_constant_bounds_every_state(self):
        rng = np.random.default_rng(39)
        sys_ = random_system(rng, 7)
        T = 1.9
        sharp = kernel_psd_margin(sys_, T)[1]
        for _ in range(50):
            z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            margin = admissibility_check(z, sys_, T, sharp * (1.0 + 1e-12))
            assert margin >= -1e-9 * float(np.vdot(z, z).real)

    def test_square_sharp_constant_matches_kernel_eigensolve(self):
        sys_ = build_square_system(50, full_bottom())
        kernel = observability_kernel(sys_, 1.0)
        top = float(np.linalg.eigvalsh(kernel)[-1])
        assert kernel_psd_margin(sys_, 1.0)[1] == pytest.approx(top, rel=1e-12)
        assert math.isfinite(top) and top > 0

    def test_basis_state_margin_arithmetic(self):
        rng = np.random.default_rng(40)
        sys_ = random_system(rng, 5)
        k, T = 2, 1.4
        c_t = sys_.gram[k, k].real * T + 1.0
        margin = admissibility_check(StateVector.basis(k, 5), sys_, T, c_t)
        assert margin == pytest.approx(1.0, rel=1e-10)


@pytest.fixture(scope="module")
def pipeline_system():
    sys_ = build_square_system(50, full_bottom())
    pipeline = scan_certificate(sys_, 0.5)
    th = theta_constants(cutoff_profile())
    return sys_, pipeline, th


class TestWeakObservability:

    def test_below_minimal_time_not_applicable(self, pipeline_system):
        sys_, pipeline, th = pipeline_system
        z = StateVector.basis(0, sys_.size)
        rep = weak_observability_check(
            z, sys_, 1.0, pipeline.spectral.psi, pipeline.spectral.epsilon, th
        )
        assert not rep.applicable
        assert rep.t_min > 1.0

    def test_applicable_margin_nonnegative(self, pipeline_system):
        sys_, pipeline, th = pipeline_system
        rng = np.random.default_rng(41)
        for _ in range(10):
            z = rng.standard_normal(sys_.size) + 1j * rng.standard_normal(sys_.size)
            rep_probe = weak_observability_check(
                z, sys_, 1.0, pipeline.spectral.psi, pipeline.spectral.epsilon, th
            )
            T = 2.0 * rep_probe.t_min
            rep = weak_observability_check(
                z, sys_, T, pipeline.spectral.psi, pipeline.spectral.epsilon, th
            )
            assert rep.applicable
            assert rep.margin >= -1e-9 * (1.0 + rep.integral)

    def test_given_t_min_matches_solved(self, pipeline_system):
        sys_, pipeline, th = pipeline_system
        rng = np.random.default_rng(43)
        psi, eps = pipeline.spectral.psi, pipeline.spectral.epsilon
        for horizon in (1.0, 1.0e6):
            z = rng.standard_normal(sys_.size) + 1j * rng.standard_normal(sys_.size)
            t_min = solve_observation_time(frequency(z, sys_), eps, th)
            solved = weak_observability_check(z, sys_, horizon, psi, eps, th)
            given = weak_observability_check(z, sys_, horizon, psi, eps, th, t_min=t_min)
            assert given == solved

    def test_margin_nondecreasing_in_horizon(self, pipeline_system):
        sys_, pipeline, th = pipeline_system
        rng = np.random.default_rng(42)
        z = rng.standard_normal(sys_.size) + 1j * rng.standard_normal(sys_.size)
        probe = weak_observability_check(
            z, sys_, 1.0, pipeline.spectral.psi, pipeline.spectral.epsilon, th
        )
        margins = []
        for factor in [1.0, 1.5, 2.0, 3.0, 4.0]:
            rep = weak_observability_check(
                z,
                sys_,
                factor * probe.t_min,
                pipeline.spectral.psi,
                pipeline.spectral.epsilon,
                th,
            )
            assert rep.applicable
            margins.append(rep.margin)
        for a, b in zip(margins, margins[1:]):
            assert b >= a - 1e-9 * (1.0 + abs(a))

    def test_basis_state_margin_grows(self):
        sys_ = SpectralSystem(eigenvalues=[2.0, 5.0], gram=np.diag([0.8, 0.3]).astype(complex))
        th = theta_constants(cutoff_profile())
        psi = Constant(0.1)
        eps = Constant(0.1)
        z = StateVector.basis(0, 2)
        t_min = weak_observability_check(z, sys_, 1.0, psi, eps, th).t_min
        rep = weak_observability_check(z, sys_, 4.0 * t_min, psi, eps, th)
        assert rep.applicable
        assert rep.margin > 0
        assert rep.integral == pytest.approx(4.0 * t_min * 0.8, rel=1e-12)

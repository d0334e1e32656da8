"""Cutoff window: transform closed form, derived constants, solver, Plancherel."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from obskit import (
    Constant,
    DomainError,
    Exponential,
    PowerLaw,
    SpectralSystem,
    StateVector,
    chi,
    chi_dot,
    chi_hat,
    chi_hat_by_quadrature,
    cutoff_profile,
    plancherel_lowerbound_check,
    sandwich_values,
    solve_observation_time,
    theta_constants,
    windowed_frequency,
)
from obskit.window import CHI_DERIV_SUP, KAPPA1, KAPPA2, default_tau_grid


@pytest.fixture(scope="module")
def profile():
    return cutoff_profile()


@pytest.fixture(scope="module")
def theta(profile):
    return theta_constants(profile)


class TestWindow:
    def test_values_and_support(self):
        assert chi(0.0) == 1.0
        assert chi(1.0) == 0.0
        assert chi(-1.0) == 0.0
        assert chi(2.0) == 0.0
        assert chi(0.5) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-15)

    def test_even(self):
        s = np.linspace(-1.5, 1.5, 301)
        np.testing.assert_allclose(chi(s), chi(-s), atol=1e-15)

    def test_derivative_odd_with_sup_three(self):
        s = np.linspace(1e-9, 1 - 1e-9, 10001)
        np.testing.assert_allclose(chi_dot(s), -chi_dot(-s), atol=1e-15)
        assert np.abs(chi_dot(s)).max() <= CHI_DERIV_SUP
        assert abs(chi_dot(1e-12)) == pytest.approx(CHI_DERIV_SUP, rel=1e-9)

    def test_derivative_matches_finite_differences(self):
        h = 1e-7
        for s in [0.2, -0.35, 0.8, -0.55]:
            fd = (chi(s + h) - chi(s - h)) / (2 * h)
            assert chi_dot(s) == pytest.approx(fd, rel=1e-6)


class TestTransform:
    def test_value_at_zero_closed_form(self):
        assert chi_hat(0.0) == pytest.approx((1.0 + math.exp(-2.0)) / 2.0, abs=1e-15)

    def test_value_at_zero_vs_quadrature(self):
        assert abs(chi_hat(0.0) - chi_hat_by_quadrature(0.0)) <= 1e-12

    def test_closed_form_vs_quadrature_sampled(self):
        for tau in np.linspace(-200.0, 200.0, 81):
            assert abs(chi_hat(float(tau)) - chi_hat_by_quadrature(float(tau))) <= 1e-9

    def test_even_and_real(self):
        grid = default_tau_grid()
        values = chi_hat(grid)
        assert values.dtype == np.float64
        np.testing.assert_allclose(values, values[::-1], atol=1e-14)

    def test_scalar_vector_paths_agree(self):
        grid = np.linspace(-30.0, 30.0, 61)
        vector = chi_hat(grid)
        scalars = np.array([chi_hat(float(t)) for t in grid])
        np.testing.assert_allclose(vector, scalars, rtol=0, atol=1e-16)

    @pytest.mark.parametrize("T", [0.5, 2.0, 7.0])
    def test_dilation_rule(self, T):
        # transform of s -> chi(s/T) equals T * chi_hat(T tau)
        for tau in [0.0, 0.3, 1.7, 9.0]:
            direct, _ = quad(
                lambda s: 2.0 * (1.0 - s / T) * math.exp(-2.0 * s / T),
                0.0,
                T,
                weight="cos",
                wvar=tau,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=400,
            )
            assert T * chi_hat(T * tau) == pytest.approx(direct, abs=1e-10)

    def test_sandwich_lower_bound_on_grid(self):
        values = sandwich_values(default_tau_grid())
        assert float(values.min()) >= KAPPA1 - 1e-9

    def test_sandwich_upper_bound_on_grid(self):
        # The claimed two-sided envelope has upper constant 6; the measured
        # grid supremum sits near 6.2696, so this bound does not hold.
        values = sandwich_values(default_tau_grid())
        assert float(values.max()) <= KAPPA2 + 1e-9


class TestProfileAndConstants:
    def test_window_norms_closed_form(self, profile):
        assert profile.l2_norm_sq == pytest.approx((5.0 - math.exp(-4.0)) / 16.0, rel=1e-12)
        assert profile.l2_deriv_norm_sq == pytest.approx(
            (13.0 - math.exp(-4.0)) / 4.0, rel=1e-12
        )
        assert profile.linf_norm == 1.0
        # quadrature is the oracle: 2∫₀¹ of χ² and χ̇² on the half window
        l2, _ = quad(lambda s: ((1.0 - s) * math.exp(-2.0 * s)) ** 2, 0.0, 1.0,
                     epsabs=1e-12, epsrel=1e-12)
        deriv, _ = quad(lambda s: ((3.0 - 2.0 * s) * math.exp(-2.0 * s)) ** 2, 0.0, 1.0,
                        epsabs=1e-12, epsrel=1e-12)
        assert profile.l2_norm_sq == pytest.approx(2.0 * l2, rel=1e-14)
        assert profile.l2_deriv_norm_sq == pytest.approx(2.0 * deriv, rel=1e-14)

    def test_transform_energy_matches_window_energy(self, profile):
        # full-line transform energy = 2 pi * window energy
        half, _ = quad(lambda u: chi_hat(u) ** 2, 0.0, 500.0, limit=4000)
        assert 2.0 * half == pytest.approx(
            2.0 * math.pi * profile.l2_norm_sq, rel=1e-6
        )

    def test_half_line_transform_energy_closed_form(self):
        from obskit.window import _chi_hat_sq_half_line

        # quadrature is the oracle for the Plancherel value π‖χ‖²
        inner, _ = quad(lambda u: chi_hat(u) ** 2, 0.0, 60.0, epsabs=1e-12, epsrel=1e-12, limit=2000)
        tail, _ = quad(lambda u: chi_hat(u) ** 2, 60.0, np.inf, epsabs=1e-11, epsrel=1e-8, limit=800)
        assert _chi_hat_sq_half_line() == pytest.approx(inner + tail, rel=1e-11)

    def test_kappa_values(self, profile):
        assert profile.kappa1 == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-15)
        assert profile.kappa2 == 6.0

    def test_c0_arithmetic(self, theta):
        expected = 36.0 * math.pi + 2.0 / (9.0 * math.pi) + 6.0
        assert theta.c0 == pytest.approx(expected, rel=1e-12)

    def test_c0_prime_is_norm_ratio(self, theta, profile):
        assert theta.c0_prime == pytest.approx(
            math.sqrt(profile.l2_deriv_norm_sq / profile.l2_norm_sq), rel=1e-14
        )

    def test_theta0_takes_larger_branch(self, theta):
        assert theta.c0_prime < 8.0 + theta.c0
        assert theta.theta0 == pytest.approx(8.0 + theta.c0, rel=1e-14)

    def test_theta1_default_and_variant(self, profile):
        th = theta_constants(profile)
        assert th.theta1_variant == "l2_deriv"
        assert th.theta1 == pytest.approx(
            4.0 * profile.l2_norm_sq / profile.l2_deriv_norm_sq, rel=1e-14
        )
        th_sup = theta_constants(profile, sup_deriv_theta1=True)
        assert th_sup.theta1_variant == "sup_deriv"
        assert th_sup.theta1 == pytest.approx(
            4.0 * profile.l2_norm_sq / CHI_DERIV_SUP**2, rel=1e-14
        )
        assert th_sup.theta1 < th.theta1
        # everything else identical between variants
        assert th_sup.c0 == th.c0
        assert th_sup.theta0 == th.theta0
        assert th_sup.theta2 == th.theta2

    def test_theta2_factor_four(self, theta, profile):
        assert theta.theta2 == pytest.approx(4.0 * profile.l2_norm_sq, rel=1e-14)


class TestWindowedFrequency:
    def make_system(self):
        lam = np.array([1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 40.0])
        return SpectralSystem(eigenvalues=lam, gram=np.eye(10))

    def test_basis_vector_pins_frequency(self):
        sys_ = self.make_system()
        for k in [0, 4, 9]:
            z = StateVector.basis(k, 10)
            for tau in [-20.0, 0.0, 13.0]:
                for T in [0.1, 1.0, 10.0]:
                    got = windowed_frequency(z, sys_, T, tau)
                    assert got == pytest.approx(sys_.eigenvalues[k], rel=1e-12)

    def test_stays_in_spectral_hull(self):
        sys_ = self.make_system()
        rng = np.random.default_rng(21)
        for _ in range(100):
            z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            tau = float(rng.uniform(-50.0, 50.0))
            T = float(rng.choice([0.1, 1.0, 10.0]))
            got = windowed_frequency(z, sys_, T, tau)
            assert sys_.lambda_min - 1e-10 <= got <= sys_.lambda_max + 1e-10

    def test_support_bound(self):
        sys_ = self.make_system()
        z = np.zeros(10, dtype=complex)
        z[:4] = [1.0, 0.5j, -0.25, 0.1]  # supported on eigenvalues <= 7
        for tau in [-30.0, 0.0, 30.0]:
            assert windowed_frequency(z, sys_, 1.0, tau) <= 7.0 + 1e-10

    def test_rejects_bad_inputs(self):
        sys_ = self.make_system()
        with pytest.raises(DomainError):
            windowed_frequency(np.zeros(10), sys_, 1.0, 0.0)
        with pytest.raises(DomainError):
            windowed_frequency(StateVector.basis(0, 10), sys_, 0.0, 0.0)


class TestObservationTimeSolver:
    def test_constant_width_closed_form(self, theta):
        for eps0 in [1.0, 0.37, 2.5e-3]:
            got = solve_observation_time(1.0, Constant(eps0), theta)
            assert got == pytest.approx(theta.theta1 / eps0, rel=1e-11)

    def test_power_law_quadratic_oracle(self, theta):
        for c, lam0 in [(1.0, 1.0), (0.05, 3.0), (2.0, 40.0)]:
            disc = theta.theta1 * (1.0 + theta.theta0 * lam0)
            root = (disc + math.sqrt(disc * disc + 4.0 * c * theta.theta1 * theta.theta0)) / (
                2.0 * c
            )
            got = solve_observation_time(lam0, PowerLaw(c, 1.0), theta)
            assert got == pytest.approx(root, rel=1e-10)

    def test_equation_residual_small(self, theta):
        for eps in [Constant(0.2), PowerLaw(0.3, 1.0), Exponential(0.5, 0.01)]:
            for lam0 in [0.0, 1.0, 25.0]:
                T = solve_observation_time(lam0, eps, theta)
                res = abs(T * float(eps(theta.theta0 * (1.0 / T + lam0))) - theta.theta1)
                assert res <= 1e-10 * theta.theta1

    def test_monotone_in_frequency(self, theta):
        eps = PowerLaw(0.8, 1.0)
        grid = np.linspace(0.0, 100.0, 50)
        times = [solve_observation_time(float(lam), eps, theta) for lam in grid]
        for a, b in zip(times, times[1:]):
            assert b >= a * (1.0 - 1e-11)

    def test_rejects_negative_frequency(self, theta):
        with pytest.raises(DomainError):
            solve_observation_time(-1.0, Constant(1.0), theta)


class TestPlancherelLowerBound:
    def make_system(self):
        lam = np.array([1.0, 3.0, 4.0, 8.0, 13.0])
        return SpectralSystem(eigenvalues=lam, gram=np.eye(5))

    def test_basis_state_wide_radius(self, theta):
        sys_ = self.make_system()
        z = StateVector.basis(0, 5)
        R = 10.0 * (theta.c0_prime + sys_.lambda_min)
        rep = plancherel_lowerbound_check(z, sys_, 1.0, R)
        assert rep.margin >= 0.0
        assert rep.norm_sq == pytest.approx(1.0, rel=1e-12)

    def test_random_admissible_pairs(self, theta):
        sys_ = self.make_system()
        rng = np.random.default_rng(22)
        for _ in range(20):
            z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            T = float(rng.uniform(0.3, 4.0))
            threshold = theta.c0_prime / T + 13.0
            R = threshold * float(rng.uniform(1.2, 20.0))
            rep = plancherel_lowerbound_check(z, sys_, T, R)
            assert rep.margin >= -1e-8 * rep.norm_sq

    def test_limit_recovers_full_energy(self):
        sys_ = self.make_system()
        rng = np.random.default_rng(23)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        rep = plancherel_lowerbound_check(z, sys_, 1.0, 1.0e3)
        assert rep.rhs == pytest.approx(rep.norm_sq, rel=1e-2)

    def test_precondition_enforced(self, theta):
        sys_ = self.make_system()
        z = StateVector.basis(4, 5)
        bad_R = theta.c0_prime / 1.0 + 13.0  # equals the threshold, not above it
        with pytest.raises(DomainError, match="must exceed"):
            plancherel_lowerbound_check(z, sys_, 1.0, bad_R)

"""Cutoff window: transform closed form, derived constants, solver, Plancherel."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from obskit import (
    Constant,
    DecayFunction,
    DomainError,
    NumericError,
    PowerLaw,
    ShapeError,
    SpectralSystem,
    StateVector,
    TransformedWidth,
    chi,
    chi_dot,
    chi_hat,
    plancherel_lowerbound_check,
    sandwich_values,
    solve_observation_time,
    windowed_frequency,
)
from obskit.window import (
    C0,
    C0_PRIME,
    CHI_DERIV_L2_NORM_SQ,
    CHI_DERIV_SUP,
    CHI_L2_NORM_SQ,
    KAPPA1,
    KAPPA2,
    THETA0,
    THETA1,
    THETA1_SUP_DERIV,
    THETA2,
    chi_hat_real_form,
    default_tau_grid,
)

from oracles import chi_hat_by_quadrature


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

    def test_real_form_matches_closed_form_and_quadrature_on_grid(self):
        grid = default_tau_grid()
        real = chi_hat_real_form(grid)
        oracle = np.array([chi_hat_by_quadrature(float(t)) for t in grid])
        assert np.abs(real - chi_hat(grid)).max() <= 1e-15
        assert np.abs(real - oracle).max() <= 1e-15

    @given(st.floats(-2000.0, 2000.0))
    def test_real_form_matches_both_closed_form_paths(self, tau):
        real = chi_hat_real_form(tau)
        assert abs(real - chi_hat(tau)) <= 1e-15
        assert abs(real - chi_hat(np.array([tau]))[0]) <= 1e-15

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
    def test_window_norms_closed_form(self):
        assert CHI_L2_NORM_SQ == pytest.approx((5.0 - math.exp(-4.0)) / 16.0, rel=1e-12)
        assert CHI_DERIV_L2_NORM_SQ == pytest.approx((13.0 - math.exp(-4.0)) / 4.0, rel=1e-12)
        # the sup norm is χ(0) = 1, the largest value on a grid through 0
        assert float(chi(np.linspace(-1.0, 1.0, 2001)).max()) == chi(0.0) == 1.0
        # quadrature is the oracle: 2∫₀¹ of χ² and χ̇² on the half window
        l2, _ = quad(lambda s: ((1.0 - s) * math.exp(-2.0 * s)) ** 2, 0.0, 1.0,
                     epsabs=1e-12, epsrel=1e-12)
        deriv, _ = quad(lambda s: ((3.0 - 2.0 * s) * math.exp(-2.0 * s)) ** 2, 0.0, 1.0,
                        epsabs=1e-12, epsrel=1e-12)
        assert CHI_L2_NORM_SQ == pytest.approx(2.0 * l2, rel=1e-14)
        assert CHI_DERIV_L2_NORM_SQ == pytest.approx(2.0 * deriv, rel=1e-14)

    def test_transform_energy_matches_window_energy(self):
        # full-line transform energy = 2 pi * window energy
        half, _ = quad(lambda u: chi_hat(u) ** 2, 0.0, 500.0, limit=4000)
        assert 2.0 * half == pytest.approx(2.0 * math.pi * CHI_L2_NORM_SQ, rel=1e-6)

    def test_half_line_transform_energy_closed_form(self):
        # quadrature is the oracle for the Plancherel value π‖χ‖² that the
        # truncated-Plancherel tail integral uses for ∫₀^∞ χ̂²
        inner, _ = quad(lambda u: chi_hat(u) ** 2, 0.0, 60.0, epsabs=1e-12, epsrel=1e-12, limit=2000)
        tail, _ = quad(lambda u: chi_hat(u) ** 2, 60.0, np.inf, epsabs=1e-11, epsrel=1e-8, limit=800)
        assert math.pi * CHI_L2_NORM_SQ == pytest.approx(inner + tail, rel=1e-11)

    def test_kappa_values(self):
        assert KAPPA1 == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-15)
        assert KAPPA2 == 6.0

    def test_c0_arithmetic(self):
        expected = 36.0 * math.pi + 2.0 / (9.0 * math.pi) + 6.0
        assert C0 == pytest.approx(expected, rel=1e-12)

    def test_c0_prime_is_norm_ratio(self):
        assert C0_PRIME == pytest.approx(math.sqrt(CHI_DERIV_L2_NORM_SQ / CHI_L2_NORM_SQ), rel=1e-14)

    def test_theta0_takes_larger_branch(self):
        assert C0_PRIME < 8.0 + C0
        assert THETA0 == pytest.approx(8.0 + C0, rel=1e-14)

    def test_theta1_default_and_variant(self):
        assert THETA1 == pytest.approx(4.0 * CHI_L2_NORM_SQ / CHI_DERIV_L2_NORM_SQ, rel=1e-14)
        assert THETA1_SUP_DERIV == pytest.approx(4.0 * CHI_L2_NORM_SQ / CHI_DERIV_SUP**2, rel=1e-14)
        assert THETA1_SUP_DERIV < THETA1

    def test_theta2_factor_four(self):
        assert THETA2 == pytest.approx(4.0 * CHI_L2_NORM_SQ, rel=1e-14)


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
    def test_constant_width_closed_form(self):
        for theta1 in [THETA1, THETA1_SUP_DERIV]:
            for eps0 in [1.0, 0.37, 2.5e-3]:
                got = solve_observation_time(1.0, Constant(eps0), theta1)
                assert got == pytest.approx(theta1 / eps0, rel=1e-11)

    def test_power_law_quadratic_oracle(self):
        for c, lam0 in [(1.0, 1.0), (0.05, 3.0), (2.0, 40.0)]:
            disc = THETA1 * (1.0 + THETA0 * lam0)
            root = (disc + math.sqrt(disc * disc + 4.0 * c * THETA1 * THETA0)) / (2.0 * c)
            got = solve_observation_time(lam0, PowerLaw(c, 1.0), THETA1)
            assert got == pytest.approx(root, rel=1e-10)

    def test_equation_residual_small(self):
        width = TransformedWidth(psi=PowerLaw(0.3, 1.0), admissibility=2.0, base_width=0.5)
        for eps in [Constant(0.2), PowerLaw(0.3, 1.0), width]:
            for lam0 in [0.0, 1.0, 25.0]:
                T = solve_observation_time(lam0, eps, THETA1)
                res = abs(T * float(eps(THETA0 * (1.0 / T + lam0))) - THETA1)
                assert res <= 1e-10 * THETA1

    def test_monotone_in_frequency(self):
        eps = PowerLaw(0.8, 1.0)
        grid = np.linspace(0.0, 100.0, 50)
        times = [solve_observation_time(float(lam), eps, THETA1) for lam in grid]
        for a, b in zip(times, times[1:]):
            assert b >= a * (1.0 - 1e-11)

    def test_rejects_negative_frequency(self):
        with pytest.raises(DomainError):
            solve_observation_time(-1.0, Constant(1.0), THETA1)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_one_bad_frequency_in_an_array(self, bad):
        with pytest.raises(DomainError):
            solve_observation_time(np.array([0.0, 1.0, bad, 3.0]), Constant(1.0), THETA1)

    def test_width_not_increasing_on_the_bracket_in_array_form(self):
        class Bump(DecayFunction):
            """0.6·θ₁ plus a narrow bump at θ₀/1.5: for λ₀ = 0 the bracket is
            [1, 2] and T·ε(θ₀/T) peaks at T = 1.5 inside it."""

            def __call__(self, lam):
                lam = np.asarray(lam, dtype=float)
                return THETA1 * (0.6 + 10.0 * np.exp(-((lam - THETA0 / 1.5) ** 2)))

        with pytest.raises(NumericError, match="not increasing"):
            solve_observation_time(np.array([5.0, 0.0, 5.0]), Bump(), THETA1)

    def test_array_shape_and_theta1_broadcast(self):
        lam = np.array([0.0, 1.0, 25.0])
        theta1 = np.array([[THETA1], [THETA1_SUP_DERIV]])
        got = solve_observation_time(lam, PowerLaw(0.3, 1.0), theta1)
        assert got.shape == (2, 3)
        for row, th in zip(got, (THETA1, THETA1_SUP_DERIV)):
            assert row.tolist() == [solve_observation_time(x, PowerLaw(0.3, 1.0), th) for x in lam]


class TestPlancherelLowerBound:
    def make_system(self):
        lam = np.array([1.0, 3.0, 4.0, 8.0, 13.0])
        return SpectralSystem(eigenvalues=lam, gram=np.eye(5))

    def test_basis_state_wide_radius(self):
        sys_ = self.make_system()
        z = StateVector.basis(0, 5)
        R = 10.0 * (C0_PRIME + sys_.lambda_min)
        rep = plancherel_lowerbound_check(z, sys_, 1.0, R)
        assert rep.margin >= 0.0
        assert rep.norm_sq == pytest.approx(1.0, rel=1e-12)

    def test_random_admissible_pairs(self):
        sys_ = self.make_system()
        rng = np.random.default_rng(22)
        for _ in range(20):
            z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            T = float(rng.uniform(0.3, 4.0))
            threshold = C0_PRIME / T + 13.0
            R = threshold * float(rng.uniform(1.2, 20.0))
            rep = plancherel_lowerbound_check(z, sys_, T, R)
            assert rep.margin >= -1e-8 * rep.norm_sq

    def test_limit_recovers_full_energy(self):
        sys_ = self.make_system()
        rng = np.random.default_rng(23)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        rep = plancherel_lowerbound_check(z, sys_, 1.0, 1.0e3)
        assert rep.rhs == pytest.approx(rep.norm_sq, rel=1e-2)

    def test_precondition_enforced(self):
        sys_ = self.make_system()
        z = StateVector.basis(4, 5)
        bad_R = C0_PRIME / 1.0 + 13.0  # equals the threshold, not above it
        with pytest.raises(DomainError, match="must exceed"):
            plancherel_lowerbound_check(z, sys_, 1.0, bad_R)

    def test_takes_one_state_not_a_block(self):
        sys_ = self.make_system()
        with pytest.raises(ShapeError, match="one 1-D state"):
            plancherel_lowerbound_check(np.eye(5)[:2], sys_, 1.0, 1.0e3)

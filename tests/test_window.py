"""Cutoff window: transform closed form, derived constants, solver, Plancherel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from obskit import (
    DecayFunction,
    DomainError,
    NumericError,
    PowerLaw,
    ShapeError,
    SpectralSystem,
    TransformedWidth,
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
    CHI_L2_NORM_SQ,
    KAPPA1,
    KAPPA2,
    KAPPA2_SUP,
    THETA0,
    THETA1,
    THETA2,
    _chi_hat_sq_lower_bound,
    _tail,
    chi_hat_real_form,
    default_tau_grid,
)

from oracles import chi, chi_dot, chi_hat_by_quadrature, chi_hat_sq_integral_by_quadrature


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
        assert np.abs(chi_dot(s)).max() <= 3.0
        assert abs(chi_dot(1e-12)) == pytest.approx(3.0, rel=1e-9)

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
        # quadrature is the oracle for the Plancherel value ∫₀^∞ χ̂² = π‖χ‖²
        # on which the closed-form truncated-Plancherel bound rests
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

    def test_theta1_uses_the_derivative_l2_norm(self):
        assert THETA1 == pytest.approx(4.0 * CHI_L2_NORM_SQ / CHI_DERIV_L2_NORM_SQ, rel=1e-14)

    def test_theta2_factor_four(self):
        assert THETA2 == pytest.approx(4.0 * CHI_L2_NORM_SQ, rel=1e-14)


class TestWindowedFrequency:
    def make_system(self):
        lam = np.array([1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 40.0])
        return SpectralSystem(eigenvalues=lam, gram=np.eye(10))

    def test_basis_vector_pins_frequency(self):
        sys_ = self.make_system()
        for k in [0, 4, 9]:
            z = np.eye(10)[k]
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
        for T in (0.0, math.inf, 1.0e308):  # ½·1e308·39 overflows
            with pytest.raises(DomainError):
                windowed_frequency(np.eye(10)[0], sys_, T, 0.0)
        with pytest.raises(ShapeError):
            windowed_frequency(np.eye(10)[0], sys_, np.array([1.0, 2.0]), 0.0)


class TestObservationTimeSolver:
    def test_constant_width_closed_form(self):
        for eps0 in [1.0, 0.37, 2.5e-3]:
            got = solve_observation_time(1.0, PowerLaw(eps0, 0.0))
            assert got == pytest.approx(THETA1 / eps0, rel=1e-11)

    def test_power_law_quadratic_oracle(self):
        for c, lam0 in [(1.0, 1.0), (0.05, 3.0), (2.0, 40.0)]:
            disc = THETA1 * (1.0 + THETA0 * lam0)
            root = (disc + math.sqrt(disc * disc + 4.0 * c * THETA1 * THETA0)) / (2.0 * c)
            got = solve_observation_time(lam0, PowerLaw(c, 1.0))
            assert got == pytest.approx(root, rel=1e-14)
        # TransformedWidth: T = A(a + θ₀/T)^p + B with A = 4θ₁M/c, B = 2θ₁/ε₀, a = 1 + θ₀λ₀.
        for c, M, eps0, lam0 in [(0.519, 3.16, 0.25, 25.0), (2.0, 1e-3, 4.0, 0.0), (1e-4, 50.0, 1e-3, 1e3)]:
            A, B, a = 4.0 * THETA1 * M / c, 2.0 * THETA1 / eps0, 1.0 + THETA0 * lam0
            got = solve_observation_time(lam0, TransformedWidth(psi=PowerLaw(c, 0.0), admissibility=M, base_width=eps0))
            assert got == pytest.approx(A + B, rel=1e-14)
            b = A * a + B
            root = 0.5 * b + math.sqrt(0.25 * b * b + A * THETA0)
            got = solve_observation_time(lam0, TransformedWidth(psi=PowerLaw(c, 1.0), admissibility=M, base_width=eps0))
            assert got == pytest.approx(root, rel=1e-14)

    def test_equation_residual_small(self):
        width = TransformedWidth(psi=PowerLaw(0.3, 1.0), admissibility=2.0, base_width=0.5)
        for eps in [PowerLaw(0.2, 0.0), PowerLaw(0.3, 1.0), width]:
            for lam0 in [0.0, 1.0, 25.0]:
                T = solve_observation_time(lam0, eps)
                res = abs(T * float(eps(THETA0 * (1.0 / T + lam0))) - THETA1)
                assert res <= 1e-10 * THETA1

    def test_monotone_in_frequency(self):
        eps = PowerLaw(0.8, 1.0)
        grid = np.linspace(0.0, 100.0, 50)
        times = [solve_observation_time(float(lam), eps) for lam in grid]
        for a, b in zip(times, times[1:]):
            assert b >= a * (1.0 - 1e-11)

    def test_rejects_negative_frequency(self):
        with pytest.raises(DomainError):
            solve_observation_time(-1.0, PowerLaw(1.0, 0.0))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_one_bad_frequency_in_an_array(self, bad):
        with pytest.raises(DomainError):
            solve_observation_time(np.array([0.0, 1.0, bad, 3.0]), PowerLaw(1.0, 0.0))

    def test_width_outside_the_two_families_is_a_type_error(self):
        class Bump(DecayFunction):
            def __call__(self, lam):
                return np.exp(-np.asarray(lam, dtype=float))

        with pytest.raises(TypeError, match="no observation-time solve"):
            solve_observation_time(np.array([5.0, 0.0, 5.0]), Bump())

    def test_root_past_the_float_range_is_a_numeric_error(self):
        with pytest.raises(NumericError, match="not finite"):
            solve_observation_time(1e300, PowerLaw(1.0, 2.0))

    def test_array_shape(self):
        lam = np.array([[0.0, 1.0, 25.0], [3.0, 0.5, 1e4]])
        got = solve_observation_time(lam, PowerLaw(0.3, 1.0))
        assert got.shape == (2, 3)
        for row, lams in zip(got, lam):
            assert row.tolist() == [solve_observation_time(x, PowerLaw(0.3, 1.0)) for x in lams]
        assert solve_observation_time([], PowerLaw(0.3, 1.0)).shape == (0,)


class TestPlancherelLowerBound:
    def make_system(self):
        lam = np.array([1.0, 3.0, 4.0, 8.0, 13.0])
        return SpectralSystem(eigenvalues=lam, gram=np.eye(5))

    def test_basis_state_wide_radius(self):
        sys_ = self.make_system()
        z = np.eye(5)[0]
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
        z = np.eye(5)[4]
        bad_R = C0_PRIME / 1.0 + 13.0  # equals the threshold, not above it
        with pytest.raises(DomainError, match="must exceed"):
            plancherel_lowerbound_check(z, sys_, 1.0, bad_R)

    def test_takes_one_state_not_a_block(self):
        sys_ = self.make_system()
        with pytest.raises(ShapeError, match="one 1-D state"):
            plancherel_lowerbound_check(np.eye(5)[:2], sys_, 1.0, 1.0e3)

    def test_states_past_the_float_range_scale_exactly(self):
        # lhs, rhs and margin are taken in the power-of-two frame, so z·2^k gives
        # each times exactly 2^(2k): ±inf or ±0.0 past the float range, never nan,
        # and the margin keeps its sign.  A RuntimeWarning fails the test.
        two = SpectralSystem(eigenvalues=[1.0, 4.0], gram=np.eye(2))
        cases = (
            (two, np.array([1.0, 0.5]), 50.0, 1.0),
            (self.make_system(), np.array([1.0, -0.5, 0.0, -0.75, 0.5]), 1.0e18, -1.0),  # round-off
        )
        for sys_, z, R, sign in cases:
            ref = plancherel_lowerbound_check(z, sys_, 1.0, R)
            assert math.copysign(1.0, ref.margin) == sign
            for k in (664, -664):  # 2^±664 ≈ 1e±200
                rep = plancherel_lowerbound_check(np.ldexp(z, k), sys_, 1.0, R)
                for name in ("lhs", "rhs", "margin", "norm_sq"):
                    with np.errstate(over="ignore"):
                        assert getattr(rep, name) == np.ldexp(getattr(ref, name), 2 * k), (name, k)
                assert math.copysign(1.0, rep.margin) == sign
        for scale, margin in ((1e200, math.inf), (1e-200, 0.0)):
            rep = plancherel_lowerbound_check([scale, 0.5 * scale], two, 1.0, 50.0)
            assert rep.margin == margin and math.copysign(1.0, rep.margin) == 1.0


class TestPlancherelClosedFormBound:
    FIVE = SpectralSystem(eigenvalues=[1.0, 3.0, 4.0, 8.0, 13.0], gram=np.eye(5))
    TWO = SpectralSystem(eigenvalues=[1.0, 4.0], gram=np.eye(2))

    def test_envelope_holds_on_chunked_grids(self):
        # the proven envelope (1 − e⁻²)/2 ≤ (1+τ²)|χ̂| < κ₂* that the bound rests
        # on, on 4·10⁶ points of [0, 2·10⁴] (χ̂ is even), one chunk at a time
        lower = (1.0 - math.exp(-2.0)) / 2.0
        assert KAPPA1 < lower
        for start in range(0, 20000, 1000):
            values = sandwich_values(np.linspace(start, start + 1000.0, 200001))
            assert float(values.min()) >= lower
            assert float(values.max()) < KAPPA2_SUP

    def test_tails_are_exact_at_zero_and_infinity(self):
        x = np.array([0.0, -0.0, math.inf, -math.inf, 1.0, -1.0])
        expected = [math.pi / 4, math.pi / 4, 0.0, math.pi / 2, math.pi / 8 - 0.25, 3 * math.pi / 8 + 0.25]
        assert _tail(x)[:4].tolist() == expected[:4]
        np.testing.assert_allclose(_tail(x)[4:], expected[4:], rtol=1e-15)

    @settings(max_examples=60)
    @given(st.floats(-500.0, 500.0), st.floats(-3.0, 4.0))
    def test_bound_never_exceeds_quadrature(self, centre, log_width):
        width = 10.0**log_width
        a, b = centre - width / 2, centre + width / 2
        bound = float(_chi_hat_sq_lower_bound(np.array([a]), np.array([b]))[0])
        assert 0.0 <= bound <= chi_hat_sq_integral_by_quadrature(a, b) + 1e-10  # the oracle's tolerance

    def test_bound_is_non_negative_where_tails_round(self):
        # far from 0 each tail carries a relative error of about x²·2⁻⁵³, so
        # a difference of two tails can come out negative (it does at 10⁶)
        edge = np.concatenate([10.0 ** np.linspace(3.0, 9.0, 61), -(10.0 ** np.linspace(3.0, 9.0, 61))])
        for width in (1.0, 10.0):
            assert float(_chi_hat_sq_lower_bound(edge, edge + width).min()) >= 0.0

    def test_rhs_never_exceeds_the_norm(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            lam = np.sort(10.0 ** rng.uniform(-2.0, 4.0, n))
            sys_ = SpectralSystem(eigenvalues=lam, gram=np.eye(n))
            z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-100, 100)
            T = 10.0 ** rng.uniform(-3.0, 300.0)
            R = (C0_PRIME / T + lam[-1]) * 10.0 ** rng.uniform(1e-3, 12.0)
            rep = plancherel_lowerbound_check(z, sys_, T, R)
            assert 0.0 <= rep.rhs <= rep.norm_sq * (1.0 + 8 * np.finfo(float).eps)

    @pytest.mark.parametrize(
        "system, z, T, R",
        [
            (TWO, [1.0, 0.5], 1.0e4, 50.0),
            (TWO, [1.0, 0.5], 1.0e6, 50.0),
            (TWO, [1.0, 0.5], 1.0e300, 50.0),  # window edges overflow to ±inf
            (FIVE, np.ones(5), 1.0, 1.0e6),
            (FIVE, np.ones(5), 1.0, 1.0e8),
        ],
    )
    def test_wide_windows_hold(self, system, z, T, R):
        # quadrature read margins −0.46, −0.585, −0.585 and −2.5 on four of
        # these, and rhs = 5.0000000196 > ‖z‖² on the fifth
        rep = plancherel_lowerbound_check(z, system, T, R)
        assert rep.margin >= 0.0
        assert rep.rhs <= rep.norm_sq

    @pytest.mark.parametrize(
        "T, R", [(math.inf, 50.0), (math.nan, 50.0), (10**400, 50.0), (1.0, math.inf), (1.0, math.nan), (1.0, 10**400)]
    )
    def test_non_finite_horizon_or_radius_raise(self, T, R):
        with pytest.raises(DomainError, match="finite"):
            plancherel_lowerbound_check([1.0, 0.5], self.TWO, T, R)

"""Observability integrals: closed form vs quadrature, kernel properties."""

import math
import tracemalloc

import numpy as np
import pytest

from obskit import (
    DomainError,
    NumericError,
    PowerLaw,
    ShapeError,
    SpectralSystem,
    admissibility_check,
    coercivity_scan,
    frequency,
    kernel_psd_margin,
    observability_integral,
    observability_kernel,
    scan_certificate,
    solve_observation_time,
    weak_observability_check,
)
from obskit.square import GammaSpec, Side, build_square_system

from obskit.evolution import _phased

from oracles import evolve, observability_integral_by_quadrature, sinc_kernel_by_unique_inverse


def random_system(rng, n, spread=12.0):
    lam = np.sort(rng.uniform(1.0, 1.0 + spread, size=n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return SpectralSystem(eigenvalues=lam, gram=b.conj().T @ b / n)


def sinc_kernel(lam, T):
    """S_T alone: ``observability_kernel`` with G = 1 in every entry, so G∘S_T is S_T bit for bit."""
    lam = np.asarray(lam, dtype=float)
    return observability_kernel(SpectralSystem(eigenvalues=lam, factor=np.ones((lam.size, 1))), T)


def phase_kernel(lam, T):
    """K(T) = D·S_T·D*, with D = diag(e^{i(λ_k−λ_1)T/2}) read off ``_phased`` of the identity rows."""
    lam = np.asarray(lam, dtype=float)
    d = np.diagonal(_phased(np.eye(lam.size, dtype=complex), lam, np.asarray(T, dtype=float)))
    return d[:, None] * sinc_kernel(lam, T) * d.conj()[None, :]


class TestEvolve:
    def test_unimodular_phases(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 3.0], gram=np.eye(3))
        z0 = np.array([1.0, 1.0 - 1j, 0.5])
        z_t = evolve(z0, sys_, 0.7)
        np.testing.assert_allclose(np.abs(z_t), np.abs(z0), rtol=1e-14)
        expected = z0 * np.exp(1j * sys_.eigenvalues * 0.7)
        np.testing.assert_allclose(z_t, expected, rtol=1e-14)

    def test_group_property(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 4.0], gram=np.eye(2))
        z0 = np.array([1.0, 1j])
        once = evolve(evolve(z0, sys_, 0.3), sys_, 0.4)
        direct = evolve(z0, sys_, 0.7)
        np.testing.assert_allclose(once, direct, rtol=1e-13)


class TestPhaseKernel:
    def test_diagonal_is_horizon(self):
        lam = np.array([1.0, 1.0, 2.0, 5.0])
        k = sinc_kernel(lam, 3.0)
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

    def test_matches_taylor_reference_at_small_and_tiny_gaps(self):
        # K = T·Σ_k (ix)^k/(k+1)! with x = Δ·T, summed in floats; 40 terms
        # converge to round-off for |x| ≤ 1.
        def taylor(delta, T):
            ix = 1j * delta * T
            term, total = 1.0 + 0j, 0j
            for k in range(40):
                total += term
                term *= ix / (k + 2)
            return T * total

        cases = [(x / 10.0, 10.0) for x in np.geomspace(1e-9, 1.0, 61)]
        cases += [(gap, T) for gap in np.linspace(1e-13, 9e-13, 9) for T in (1e4, 1e6, 1e7)]
        for delta, T in cases:
            lam = np.array([1.0, 1.0 + delta])
            k = phase_kernel(lam, T)
            exact = taylor(lam[0] - lam[1], T)
            assert k[0, 1] == pytest.approx(exact, rel=1e-14, abs=0)
            # conjugate entry carries the opposite phase
            assert k[1, 0] == pytest.approx(np.conj(exact), rel=1e-14, abs=0)

    def test_hermitian(self):
        rng = np.random.default_rng(31)
        lam = np.sort(rng.uniform(1.0, 20.0, size=8))
        for k in (sinc_kernel(lam, 1.7), phase_kernel(lam, 1.7)):
            np.testing.assert_allclose(k, k.conj().T, atol=1e-14)


class TestGapTable:
    def test_observability_kernel_equals_gram_times_phase_kernel(self):
        # Repeated modes and repeated gaps, as on a lattice, and a random spectrum.
        systems = [build_square_system(50, GammaSpec.full_sides(Side.BOTTOM)), random_system(np.random.default_rng(3), 9)]
        for sys_ in systems:
            for t in (0.7, np.array([0.3, 0.7, 2.5])):
                kernel = observability_kernel(sys_, t)
                sinc = sinc_kernel(sys_.eigenvalues, t)
                assert sinc.flags.c_contiguous and kernel.flags.c_contiguous
                # Real S; G∘S real for the lattice's real factor, complex for the given Gram.
                assert sinc.dtype == float and kernel.dtype == sys_.gram.dtype
                expected = sinc_kernel_by_unique_inverse(sys_.eigenvalues, t)
                assert np.array_equal(sinc.view(np.int64), expected.view(np.int64))
                assert np.array_equal(kernel.view(float), (sys_.gram * expected).view(float))

    def test_gaps_are_cached_read_only_and_sorted_distinct(self):
        # The lattice's integer spectrum 2 … 50 takes the table 0 … 48; a
        # non-integer spectrum keeps its sorted distinct gap magnitudes.
        lattice = build_square_system(50, GammaSpec.full_sides(Side.BOTTOM))
        other = random_system(np.random.default_rng(3), 9)
        for sys_, span in ((lattice, 48), (other, None)):
            gaps = sys_.phase_gaps
            assert sys_.phase_gaps is gaps and not gaps.flags.writeable
            assert sys_.integer_span == span
        assert np.array_equal(lattice.phase_gaps, np.arange(49.0))
        lam = other.eigenvalues
        assert np.array_equal(other.phase_gaps, np.unique(np.abs(np.subtract.outer(lam, lam))))

    def test_square_kernels_neither_sort_nor_search(self, monkeypatch):
        sys_ = build_square_system(50, GammaSpec.full_sides(Side.BOTTOM))

        def refused(*args, **kwargs):
            raise AssertionError("an integer spectrum sorted or searched its gaps")

        monkeypatch.setattr(np, "unique", refused)
        monkeypatch.setattr(np, "searchsorted", refused)
        z = np.random.default_rng(5).standard_normal((3, sys_.size)) + 0j
        observability_kernel(sys_, np.array([0.3, 0.7]))
        observability_integral(z, sys_, np.array([0.3, 0.7, 2.5]))

    @pytest.mark.parametrize(
        "lam",
        [
            [1.0, 2.5, 3.0, 3.0],  # one non-integer eigenvalue
            [1.0, 2.0, 1.0e6],  # L + 1 > n²
            [2.0**53, 2.0**53, 2.0**53 + 2.0],  # integers, but not below 2⁵³
        ],
    )
    def test_other_spectra_take_the_sorted_distinct_gaps(self, lam):
        sys_ = SpectralSystem(eigenvalues=lam, factor=np.ones((len(lam), 1)))
        assert sys_.integer_span is None
        diffs = np.subtract.outer(sys_.eigenvalues, sys_.eigenvalues)
        tracemalloc.start()
        try:
            gaps = sys_.phase_gaps
            kernel = observability_kernel(sys_, np.array([0.3, 0.7]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # no table of span size: 0 … 10⁶ would take 8 MB
        assert np.array_equal(gaps, np.unique(np.abs(diffs)))
        assert np.array_equal(kernel, sinc_kernel_by_unique_inverse(sys_.eigenvalues, np.array([0.3, 0.7])))

    @pytest.mark.parametrize("lam, span", [([1.0, 5.0, 9.0], 8), ([1.0, 5.0, 10.0], None)])
    def test_the_integer_route_holds_while_its_table_fits_the_pairs(self, lam, span):
        # Three modes index 9 pairs: the span 8 takes the table 0 … 8, the span 9 the sorted magnitudes.
        sys_ = SpectralSystem(eigenvalues=lam, gram=np.array([[2.0, 0.5j, 0.1], [-0.5j, 1.0, 0.2], [0.1, 0.2, 1.5]]))
        assert sys_.integer_span == span
        gaps = np.arange(9.0) if span else np.array([0.0, 4.0, 5.0, 9.0])
        assert np.array_equal(sys_.phase_gaps, gaps)
        for t in (0.7, np.array([0.3, 0.7, 2.5])):
            assert np.all(observability_kernel(sys_, t) == sys_.gram * sinc_kernel_by_unique_inverse(lam, t))


class TestObservabilityIntegral:
    def test_basis_vector_linear_growth(self):
        rng = np.random.default_rng(32)
        sys_ = random_system(rng, 6)
        for k in [0, 3, 5]:
            z = np.eye(6)[k]
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

    def test_horizons_that_do_not_fit_the_rows_raise(self):
        rng = np.random.default_rng(41)
        sys_ = random_system(rng, 4)
        block = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        calls = (
            lambda: observability_integral(block, sys_, np.array([0.7])),
            lambda: observability_integral(block, sys_, np.full(4, 0.7)),
            lambda: observability_integral(block[0], sys_, [0.5, 1.0]),
            lambda: observability_integral(block, sys_, np.full((5, 1), 0.7)),
            lambda: admissibility_check(block, sys_, 0.7, observability_kernel(sys_, np.full(5, 0.7)), 3.0),
            lambda: admissibility_check(block, sys_, np.full(5, 0.7), observability_kernel(sys_, 0.7), 3.0),
            lambda: admissibility_check(block, sys_, np.full(2, 0.7), observability_kernel(sys_, np.full(2, 0.7)), 3.0),
            lambda: weak_observability_check(block, sys_, 0.7, PowerLaw(1.0, 0.0), [1.0, 2.0]),
        )
        for call in calls:
            with pytest.raises(ShapeError):
                call()

    def test_horizons_that_are_not_positive_and_finite_raise(self):
        # 1e308 is finite, but ½·1e308·(λ_max − λ_min) is not: the kernel would be nan
        rng = np.random.default_rng(43)
        sys_ = random_system(rng, 4)
        block = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        for T in (math.inf, 1.0e308, np.array([0.7, 0.7, math.inf, 0.7, 0.7])):
            calls = (
                lambda: observability_integral(block, sys_, T),
                lambda: observability_kernel(sys_, T),
                lambda: admissibility_check(block, sys_, T, np.zeros(np.shape(T) + (4, 4)), 3.0),
                lambda: weak_observability_check(block, sys_, T, PowerLaw(1.0, 0.0), 1.0),
            )
            for call in calls:
                with pytest.raises(DomainError, match="finite"):
                    call()
        for t_min in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                weak_observability_check(block, sys_, 0.7, PowerLaw(1.0, 0.0), t_min)
            with pytest.raises(DomainError):
                weak_observability_check(block[0], sys_, 0.7, PowerLaw(1.0, 0.0), [t_min])


class TestKernelAndAdmissibility:
    def test_kernel_positive_semidefinite(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            sys_ = random_system(rng, n)
            T = float(rng.uniform(0.05, 20.0))
            low, high = kernel_psd_margin(observability_kernel(sys_, T))
            assert low >= -1e-10 * max(high, 0.0)

    def test_sharp_constant_diagonal_gram(self):
        gram = np.diag([0.5, 2.0, 1.25]).astype(complex)
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 4.0], gram=gram)
        assert kernel_psd_margin(observability_kernel(sys_, 3.0))[1] == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("C_T", [0.0, -1.0, math.nan])
    def test_admissibility_constant_must_be_positive(self, C_T):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 4.0], gram=np.eye(3))
        with pytest.raises(DomainError, match=f"^admissibility constant must be positive, got {C_T}$"):
            admissibility_check(np.ones(3), sys_, 1.0, observability_kernel(sys_, 1.0), C_T)

    def test_sharp_constant_bounds_every_state(self):
        rng = np.random.default_rng(39)
        sys_ = random_system(rng, 7)
        T = 1.9
        kernel = observability_kernel(sys_, T)
        sharp = kernel_psd_margin(kernel)[1]
        for _ in range(50):
            z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            check = admissibility_check(z, sys_, T, kernel, sharp * (1.0 + 1e-12))
            assert check.margin >= -1e-9 * float(np.vdot(z, z).real)
            assert check.norm_sq == pytest.approx(float(np.vdot(z, z).real), rel=1e-14)

    def test_square_sharp_constant_matches_kernel_eigensolve(self):
        sys_ = build_square_system(50, GammaSpec.full_sides(Side.BOTTOM))
        kernel = observability_kernel(sys_, 1.0)
        top = float(np.linalg.eigvalsh(kernel)[-1])
        assert kernel_psd_margin(kernel)[1] == pytest.approx(top, rel=1e-12)
        assert math.isfinite(top) and top > 0

    def test_basis_state_margin_arithmetic(self):
        rng = np.random.default_rng(40)
        sys_ = random_system(rng, 5)
        k, T = 2, 1.4
        c_t = sys_.gram[k, k].real * T + 1.0
        check = admissibility_check(np.eye(5)[k], sys_, T, observability_kernel(sys_, T), c_t)
        assert check.margin == pytest.approx(1.0, rel=1e-10)
        assert check.norm_sq == 1.0

    def test_a_kernel_whose_forms_are_not_real_raises(self):
        # A non-Hermitian kernel: its forms are complex beyond 1e-10 of their scale,
        # and the message names the first bad row, for one horizon or one per row.
        rng = np.random.default_rng(3)
        block = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        kernel = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sys_ = SpectralSystem([1, 2, 4], gram=np.eye(3))
        message = "observability integral came out non-real: imag -1.180e[+]00 vs scale 5.351e-01"
        for T, stack in ((0.7, kernel), (np.full(5, 0.7), np.stack([kernel] * 5))):
            with pytest.raises(NumericError, match=message):
                admissibility_check(block, sys_, T, stack, 3.0)


@pytest.fixture(scope="module")
def pipeline_system():
    sys_ = build_square_system(50, GammaSpec.full_sides(Side.BOTTOM))
    return sys_, scan_certificate(sys_, coercivity_scan(sys_, 0.5))


class TestWeakObservability:

    @staticmethod
    def t_min_of(z, sys_, pipeline):
        return solve_observation_time(frequency(z, sys_), pipeline.spectral.epsilon)

    def test_below_minimal_time_not_applicable(self, pipeline_system):
        sys_, pipeline = pipeline_system
        z = np.eye(sys_.size)[0]
        t_min = self.t_min_of(z, sys_, pipeline)
        rep = weak_observability_check(z, sys_, 1.0, pipeline.spectral.psi, t_min)
        assert not rep.applicable
        assert rep.t_min > 1.0

    def test_applicable_margin_nonnegative(self, pipeline_system):
        sys_, pipeline = pipeline_system
        rng = np.random.default_rng(41)
        for _ in range(10):
            z = rng.standard_normal(sys_.size) + 1j * rng.standard_normal(sys_.size)
            t_min = self.t_min_of(z, sys_, pipeline)
            rep = weak_observability_check(z, sys_, 2.0 * t_min, pipeline.spectral.psi, t_min)
            assert rep.applicable
            assert rep.margin >= -1e-9 * (1.0 + rep.integral)

    def test_margin_nondecreasing_in_horizon(self, pipeline_system):
        sys_, pipeline = pipeline_system
        rng = np.random.default_rng(42)
        z = rng.standard_normal(sys_.size) + 1j * rng.standard_normal(sys_.size)
        t_min = self.t_min_of(z, sys_, pipeline)
        margins = []
        for factor in [1.0, 1.5, 2.0, 3.0, 4.0]:
            rep = weak_observability_check(
                z, sys_, factor * t_min, pipeline.spectral.psi, t_min
            )
            assert rep.applicable
            margins.append(rep.margin)
        for a, b in zip(margins, margins[1:]):
            assert b >= a - 1e-9 * (1.0 + abs(a))

    def test_basis_state_margin_grows(self):
        sys_ = SpectralSystem(eigenvalues=[2.0, 5.0], gram=np.diag([0.8, 0.3]).astype(complex))
        psi = PowerLaw(0.1, 0.0)
        z = np.eye(2)[0]
        t_min = solve_observation_time(frequency(z, sys_), PowerLaw(0.1, 0.0))
        rep = weak_observability_check(z, sys_, 4.0 * t_min, psi, t_min)
        assert rep.applicable
        assert rep.margin > 0
        assert rep.integral == pytest.approx(4.0 * t_min * 0.8, rel=1e-12)

"""Frequency functional, residuals, and system validation."""

import math

import numpy as np
import pytest

from obskit import (
    DomainError,
    GammaSpec,
    ShapeError,
    Side,
    SpectralSystem,
    admissibility_breakpoints,
    build_square_system,
    coercivity_scan,
    estimate_admissibility,
    frequency,
    frequency_report,
    observability_integral,
    observed_energy_sq,
)

from oracles import key_identity_gap


def random_system(rng, n, lam_lo=1.0, lam_hi=40.0, repeats=False):
    lam = np.sort(rng.uniform(lam_lo, lam_hi, size=n))
    if repeats and n >= 4:
        lam[1] = lam[0]
        lam[-1] = lam[-2]
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gram = b.conj().T @ b / n
    return SpectralSystem(eigenvalues=lam, gram=gram)


def random_state(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestSystemValidation:
    def test_accepts_valid_system(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 5.0], gram=np.eye(3))
        assert sys_.size == 3
        assert sys_.lambda_min == 1.0
        assert sys_.lambda_max == 5.0

    def test_rejects_nonpositive_eigenvalue(self):
        with pytest.raises(DomainError, match="strictly positive"):
            SpectralSystem(eigenvalues=[0.0, 1.0], gram=np.eye(2))
        with pytest.raises(DomainError, match="strictly positive"):
            SpectralSystem(eigenvalues=[-1.0, 1.0], gram=np.eye(2))

    @pytest.mark.parametrize("eigenvalues", [[], [[1.0, 2.0]]], ids=["empty", "2-D"])
    def test_rejects_eigenvalues_that_are_not_a_nonempty_vector(self, eigenvalues):
        with pytest.raises(ShapeError, match="^eigenvalues must be a nonempty 1-D array$"):
            SpectralSystem(eigenvalues=eigenvalues, gram=np.eye(2))

    def test_rejects_a_nan_eigenvalue(self):
        with pytest.raises(DomainError, match="^eigenvalues must be finite$"):
            SpectralSystem(eigenvalues=[1.0, math.nan], gram=np.eye(2))

    def test_rejects_unsorted_eigenvalues(self):
        with pytest.raises(DomainError, match="sorted"):
            SpectralSystem(eigenvalues=[2.0, 1.0], gram=np.eye(2))

    def test_permits_repeated_eigenvalues(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 1.0, 2.0], gram=np.eye(3))
        assert list(sys_.distinct_eigenvalues()) == [1.0, 2.0]

    def test_rejects_gram_shape_mismatch(self):
        with pytest.raises(ShapeError, match="gram must be"):
            SpectralSystem(eigenvalues=[1.0, 2.0], gram=np.eye(3))

    def test_rejects_non_hermitian_gram_naming_offender(self):
        gram = np.eye(3, dtype=complex)
        gram[0, 2] = 1j
        gram[2, 0] = 1j  # should be -1j
        with pytest.raises(DomainError, match=r"G\[0\]\[2\]"):
            SpectralSystem(eigenvalues=[1.0, 2.0, 3.0], gram=gram)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_gram(self, bad):
        # NaN fails every comparison, so only an explicit check rejects it
        gram = np.array([[1.0, bad], [np.conj(bad), 1.0]], dtype=complex)
        with pytest.raises(DomainError, match="finite"):
            SpectralSystem(eigenvalues=[1.0, 2.0], gram=gram)

    def test_rejects_indefinite_gram(self):
        gram = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DomainError, match="positive semidefinite"):
            SpectralSystem(eigenvalues=[1.0, 2.0], gram=gram)

    def test_accepts_zero_gram(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0], gram=np.zeros((2, 2)))
        assert observed_energy_sq([1.0, 1.0], sys_) == 0.0

    def test_arrays_are_read_only_copies(self):
        lam = np.array([1.0, 2.0])
        sys_ = SpectralSystem(eigenvalues=lam, gram=np.eye(2))
        lam[0] = 99.0  # caller's array stays independent
        assert sys_.lambda_min == 1.0
        with pytest.raises(ValueError):
            sys_.eigenvalues[0] = 3.0



class TestFactor:
    def test_given_gram_is_kept_and_factored(self):
        rng = np.random.default_rng(12)
        b = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        gram = b.conj().T @ b
        sys_ = SpectralSystem(eigenvalues=np.arange(1.0, 7.0), gram=gram)
        np.testing.assert_array_equal(sys_.gram, 0.5 * (gram + gram.conj().T))
        assert sys_.factor.shape == (6, 3)
        assert sys_.factor_error <= 1e-13 * np.linalg.eigvalsh(gram)[-1]
        f = sys_.factor
        np.testing.assert_allclose(f @ f.conj().T, sys_.gram, atol=1e-12)
        idx = [4, 1]
        np.testing.assert_array_equal(sys_.gram_block(idx), sys_.gram[np.ix_(idx, idx)])
        with pytest.raises(ValueError):
            sys_.gram[0, 0] = 0.0

    def test_gram_from_factor_is_formed_on_first_read(self):
        f = np.array([[1.0, 0.5], [0.0, 2.0], [3.0, -1.0]])
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 3.0], factor=f, factor_error=1e-15)
        assert sys_.factor_error == 1e-15
        assert "gram" not in vars(sys_)
        np.testing.assert_array_equal(sys_.gram_block([2, 0]), f[[2, 0]] @ f[[2, 0]].T)
        assert "gram" not in vars(sys_)
        np.testing.assert_array_equal(sys_.gram, f @ f.T)
        assert sys_.gram is sys_.gram
        with pytest.raises(ValueError):
            sys_.factor[0, 0] = 0.0

    def test_complex_factor_gives_hermitian_gram(self):
        rng = np.random.default_rng(13)
        f = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        sys_ = SpectralSystem(eigenvalues=np.arange(1.0, 6.0), factor=f)
        np.testing.assert_array_equal(sys_.gram, sys_.gram.conj().T)
        np.testing.assert_allclose(sys_.gram, f @ f.conj().T, atol=1e-14)

    def test_needs_exactly_one_of_gram_and_factor(self):
        with pytest.raises(ShapeError, match="exactly one"):
            SpectralSystem(eigenvalues=[1.0])
        with pytest.raises(ShapeError, match="exactly one"):
            SpectralSystem(eigenvalues=[1.0], gram=np.eye(1), factor=np.eye(1))

    @pytest.mark.parametrize(
        "factor", [np.ones((3, 1)), np.ones(2), np.array([[1.0], [np.nan]])], ids=["rows", "1-D", "nan"]
    )
    def test_rejects_bad_factor(self, factor):
        with pytest.raises(ShapeError, match="factor must be finite with 2 rows"):
            SpectralSystem(eigenvalues=[1.0, 2.0], factor=factor)

    @pytest.mark.parametrize(
        "cast",
        [
            lambda f: f.astype(np.float32),
            lambda f: f.astype(np.float16),
            lambda f: np.rint(8.0 * f).astype(np.int64),
            lambda f: (f * np.exp(0.3j)).astype(np.complex64),
        ],
        ids=["float32", "float16", "int64", "complex64"],
    )
    def test_a_factor_of_any_dtype_computes_in_double(self, cast):
        # The round-off margins of the admissibility sup assume double
        # precision, so a narrower factor is widened and every result equals
        # its double copy's; an integer factor used to fail in a solve buffer.
        bottom = build_square_system(50, GammaSpec.full_sides(Side.BOTTOM))
        given = cast(bottom.factor)
        double = given.astype(np.complex128 if np.iscomplexobj(given) else np.float64)
        narrow, wide = (SpectralSystem(bottom.eigenvalues, factor=f) for f in (given, double))
        assert narrow.factor.dtype == narrow.gram.dtype == double.dtype
        grid = admissibility_breakpoints(wide, 0.25)
        assert estimate_admissibility(narrow, 0.25, grid) == estimate_admissibility(wide, 0.25, grid)
        np.testing.assert_array_equal(coercivity_scan(narrow, 0.5).min_eig, coercivity_scan(wide, 0.5).min_eig)
        z = random_state(np.random.default_rng(14), bottom.size)
        assert observability_integral(z, narrow, 0.7) == observability_integral(z, wide, 0.7)

    @pytest.mark.parametrize("error", [-1e-16, math.inf, math.nan])
    def test_rejects_bad_factor_error(self, error):
        with pytest.raises(DomainError, match="factor_error"):
            SpectralSystem(eigenvalues=[1.0, 2.0], factor=np.eye(2), factor_error=error)


class TestStateContract:
    def test_a_state_is_a_1d_array_or_a_block_of_rows(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 3.0], gram=np.eye(2))
        assert frequency([1.0, 1.0], sys_) == 2.0
        assert frequency(np.array([[1.0, 0.0], [1.0, 1.0]]), sys_).tolist() == [1.0, 2.0]
        for z in (1.0, np.ones((1, 1, 2))):
            with pytest.raises(ShapeError, match="1-D coefficient vector or a"):
                frequency(z, sys_)

    def test_rejects_empty_and_non_finite(self):
        sys_ = SpectralSystem(eigenvalues=[1.0], gram=np.eye(1))
        with pytest.raises(ShapeError, match="0 coefficients"):
            frequency(np.zeros(0), sys_)
        with pytest.raises(DomainError, match="coefficients must be finite"):
            frequency(np.array([np.nan + 0j]), sys_)

    def test_dimension_mismatch_is_shape_error(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0], gram=np.eye(2))
        with pytest.raises(ShapeError, match="2 modes"):
            frequency([1.0, 0.0, 0.0], sys_)

    def test_zero_vector_is_domain_error(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0], gram=np.eye(2))
        with pytest.raises(DomainError, match="zero"):
            frequency([0.0, 0.0], sys_)


class TestFrequency:
    def test_basis_vectors_give_eigenvalues(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.5, 7.0], gram=np.eye(3))
        for k, lam in enumerate([1.0, 2.5, 7.0]):
            assert frequency(np.eye(3)[k], sys_) == pytest.approx(lam, abs=1e-14)

    def test_equal_weight_mean(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0], gram=np.eye(2))
        assert frequency([1.0, 1.0], sys_) == pytest.approx(1.5, abs=1e-15)

    def test_within_spectral_hull(self):
        rng = np.random.default_rng(11)
        sys_ = random_system(rng, 12)
        for _ in range(200):
            z = random_state(rng, 12)
            lam = frequency(z, sys_)
            assert sys_.lambda_min - 1e-12 <= lam <= sys_.lambda_max + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        sys_ = random_system(rng, 8)
        z = random_state(rng, 8)
        base = frequency(z, sys_)
        for c in [3.0, 1e-8, 1e8, 2.0 - 1.5j]:
            assert frequency(c * z, sys_) == pytest.approx(base, rel=1e-12)


class TestResidual:
    def test_basis_vector_residual_zero(self):
        rng = np.random.default_rng(13)
        sys_ = random_system(rng, 10)
        for k in range(10):
            assert frequency_report(np.eye(10)[k], sys_).residual <= 1e-12

    def test_two_mode_arithmetic(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 3.0], gram=np.eye(2))
        # mean 2, second moment 5, gap 1
        assert frequency_report([1.0, 1.0], sys_).residual == pytest.approx(1.0, abs=1e-13)

    def test_moment_and_shifted_forms_agree(self):
        rng = np.random.default_rng(14)
        sys_ = random_system(rng, 10)
        lam = sys_.eigenvalues
        for _ in range(100):
            z = random_state(rng, 10)
            # the moment gap ‖Az‖²/‖z‖² − λ(z)² is the oracle
            w = np.abs(z) ** 2 / np.sum(np.abs(z) ** 2)
            gap = np.sum(lam**2 * w) - np.sum(lam * w) ** 2
            assert frequency_report(z, sys_).residual == pytest.approx(gap, rel=1e-10, abs=1e-12)

    def test_nonnegative_up_to_roundoff(self):
        rng = np.random.default_rng(15)
        sys_ = random_system(rng, 16, repeats=True)
        for _ in range(500):
            z = random_state(rng, 16)
            rep = frequency_report(z, sys_)
            assert rep.residual >= 0.0

    def test_zero_on_repeated_eigenvalue_group(self):
        sys_ = SpectralSystem(eigenvalues=[2.0, 2.0, 5.0], gram=np.eye(3))
        z = np.array([1.0 + 1j, -0.5, 0.0])
        assert frequency_report(z, sys_).residual <= 1e-14
        assert abs(frequency(z, sys_) - 2.0) <= 1e-14


class TestKeyIdentity:
    def test_exact_two_mode_case(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 3.0], gram=np.eye(2))
        assert key_identity_gap([1.0, 1.0], 0.0, sys_) <= 1e-14

    def test_zero_defect_convention(self):
        sys_ = SpectralSystem(eigenvalues=[4.0, 5.0], gram=np.eye(2))
        assert key_identity_gap(np.eye(2)[0], 4.0, sys_) == 0.0

    def test_state_on_an_interior_eigenvalue_reads_roundoff(self):
        # The computed λ(z) lands an ulp off 3.0 while ‖(A − 3)z‖² is about
        # 1e-119 in the moments' scale: the right side's round-off comes from
        # that ulp, not from a fraction of the left side.
        sys_ = SpectralSystem(eigenvalues=[1.0, 3.0, 3.0, 3.0, 7.0], gram=np.eye(5))
        for z in ([0.0, 0.3, 0.7, 0.9, 1e-60], [0.0, 1.0, 0.6, 0.2, 1e-60]):
            assert frequency(z, sys_) != 3.0
            assert key_identity_gap(z, 3.0, sys_) <= 8 * np.finfo(float).eps

    def test_random_states_and_shifts(self):
        rng = np.random.default_rng(16)
        sys_ = random_system(rng, 10)
        for _ in range(50):
            z = random_state(rng, 10)
            lam = rng.uniform(-10.0, 80.0)
            assert key_identity_gap(z, lam, sys_) <= 1e-10

    def test_minimizer_at_frequency(self):
        rng = np.random.default_rng(17)
        sys_ = random_system(rng, 9)
        z = random_state(rng, 9)
        lam_z = frequency(z, sys_)
        weights = np.abs(z) ** 2

        def shifted_norm_sq(lam):  # ‖(A − λ)z‖²
            return math.fsum((sys_.eigenvalues - lam) ** 2 * weights)

        at_min = shifted_norm_sq(lam_z)
        for lam in np.linspace(sys_.lambda_min - 5, sys_.lambda_max + 5, 101):
            assert shifted_norm_sq(float(lam)) >= at_min - 1e-10 * (1 + at_min)


class TestObservedEnergy:
    def test_identity_gram_returns_norm(self):
        rng = np.random.default_rng(18)
        sys_ = SpectralSystem(eigenvalues=np.arange(1.0, 7.0), gram=np.eye(6))
        z = random_state(rng, 6)
        assert observed_energy_sq(z, sys_) == pytest.approx(
            float(np.vdot(z, z).real), rel=1e-13
        )

    def test_matches_quadratic_form(self):
        rng = np.random.default_rng(19)
        sys_ = random_system(rng, 7)
        z = random_state(rng, 7)
        u = z.conj()
        direct = float((u.conj() @ (sys_.gram @ u)).real)
        assert observed_energy_sq(z, sys_) == pytest.approx(direct, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(20)
        sys_ = random_system(rng, 7)
        for _ in range(50):
            assert observed_energy_sq(random_state(rng, 7), sys_) >= 0.0

"""Clusters, coercivity certificates, transforms, resolvent margins, search."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obskit import (
    CoercivityCertificate,
    DomainError,
    NumericError,
    PowerLaw,
    SpectralSystem,
    TransformedWidth,
    admissibility_breakpoints,
    coercivity_scan,
    default_config,
    estimate_admissibility,
    fit_psi_envelope,
    resolvent_check,
    scan_certificate,
    shifted_power_law,
    spectral_coercivity_violation_search,
    system_of,
    weak_to_spectral,
)
from obskit import coercivity, evolution, spectral, window
from obskit.coercivity import BETA_SAFETY, ClusterScan
from obskit.spectral import frequency, frequency_report, observed_energy_sq
from obskit.square import BoundaryPatch, GammaSpec, Side, bottom_and_left, build_square_system

from oracles import (
    admissibility_by_every_point,
    assert_same_scan,
    cluster_min_coercivity,
    coercivity_scan_by_cluster,
    enumerate_cluster,
)


def make_scan(centers, minima):
    """A scan at width 0.5 of one-mode clusters with the given centers and minima."""
    n = len(centers)
    centers, minima = np.array(centers, dtype=float), np.array(minima, dtype=float)
    return ClusterScan(0.5, centers, np.arange(n), np.arange(1, n + 1), minima)


def dense_admissibility(system, epsilon, lambda_grid):
    """Reference: top eigenvalue of the dense off-cluster block D⁻¹GD⁻¹ per λ."""
    best = 0.0
    for lam in lambda_grid:
        d = system.eigenvalues - lam
        keep = np.abs(d) >= epsilon
        if not keep.any():
            raise DomainError(f"the cluster at λ = {lam} covers every mode")
        dinv = 1.0 / d[keep]
        block = system.gram[np.ix_(keep, keep)] * np.outer(dinv, dinv)
        best = max(best, float(np.linalg.eigvalsh(block)[-1]))
    return best


def dense_resolvent_margins(system, z, cert, lambdas):
    """Reference: the additive resolvent margin at each λ, from direct shifted norms."""
    c = np.asarray(z, dtype=complex)
    abs2 = np.abs(c) ** 2
    lam_z = frequency(c, system)
    shifted = ((system.eigenvalues[None, :] - lambdas[:, None]) ** 2) @ abs2
    return (
        observed_energy_sq(c, system) / float(cert.psi(lam_z))
        + shifted / ((lambdas - lam_z) ** 2 + float(cert.epsilon(lam_z)))
        - math.fsum(abs2)
    )


def check_against_dense_oracle(system, z, cert):
    """The closed-form infimum is never above the margin on a dense λ grid plus
    λ(z) and far out; it equals the margin at λ(z) when R < ε, and the margin
    far from the spectrum when R ≥ ε."""
    rep = resolvent_check(system, z, cert)
    span = system.lambda_max + 1.0
    far = rep.lambda_z + 1.0e6 * span
    lambdas = np.concatenate(
        [
            np.linspace(system.lambda_min - 10.0 * span, system.lambda_max + 10.0 * span, 4001),
            system.eigenvalues,
            [rep.lambda_z, far],
        ]
    )
    dense = dense_resolvent_margins(system, z, cert, lambdas)
    tol = 1e-12 * (rep.norm_sq + rep.observed_sq / float(cert.psi(rep.lambda_z)))
    assert rep.inf_margin <= dense.min() + tol
    attained = dense[-2] if rep.residual_over_epsilon < 1.0 else dense[-1]
    assert rep.inf_margin == pytest.approx(attained, abs=1e-9 * rep.norm_sq + tol)
    return rep


def low_rank_system(eigenvalues, rank, seed):
    rng = np.random.default_rng(seed)
    shape = (len(eigenvalues), rank)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralSystem(eigenvalues=eigenvalues, gram=f @ f.conj().T)


@pytest.fixture(scope="module")
def square50():
    return build_square_system(50, GammaSpec.full_sides(Side.BOTTOM))


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The matrices handed to ``np.linalg.eigvalsh`` while the test runs."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    return calls


class TestClusters:
    def test_strict_boundary(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 3.0], gram=np.eye(3))
        # eigenvalue exactly epsilon away is excluded
        assert list(enumerate_cluster(sys_, 2.5, 0.5)) == []
        assert list(enumerate_cluster(sys_, 2.4, 0.5)) == [1]

    def test_far_center_is_empty(self):
        sys_ = SpectralSystem(eigenvalues=[5.0, 6.0], gram=np.eye(2))
        assert enumerate_cluster(sys_, 0.5, 1.0).size == 0

    def test_square_integer_clusters(self, square50):
        idx2 = enumerate_cluster(square50, 2.0, 0.5)
        assert idx2.size == 1
        idx50 = enumerate_cluster(square50, 50.0, 0.5)
        assert idx50.size == 3

    def test_rejects_nonpositive_width(self, square50):
        with pytest.raises(DomainError):
            enumerate_cluster(square50, 2.0, 0.0)

    def test_frequency_of_cluster_states_stays_close(self):
        rng = np.random.default_rng(50)
        lam = np.sort(rng.uniform(1.0, 30.0, size=20))
        sys_ = SpectralSystem(eigenvalues=lam, gram=np.eye(20))
        for _ in range(50):
            center = float(rng.uniform(2.0, 29.0))
            beta = float(rng.uniform(0.3, 2.0))
            idx = enumerate_cluster(sys_, center, beta)
            if idx.size == 0:
                continue
            z = np.zeros(20, dtype=complex)
            z[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
            if not np.abs(z).max() > 0:
                continue
            assert abs(frequency(z, sys_) - center) < beta
            assert frequency_report(z, sys_).residual < 2.0 * beta * beta


class TestClusterMinCoercivity:
    def test_singleton(self):
        gram = np.diag([0.5, 2.0]).astype(complex)
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0], gram=gram)
        val, vec = cluster_min_coercivity(sys_, [1])
        assert val == pytest.approx(2.0, rel=1e-14)
        np.testing.assert_allclose(vec, [0.0, 1.0], atol=1e-14)

    def test_diagonal_block(self):
        gram = np.diag([0.5, 0.2, 0.9]).astype(complex)
        sys_ = SpectralSystem(eigenvalues=[1.0, 1.5, 2.0], gram=gram)
        val, vec = cluster_min_coercivity(sys_, [0, 1, 2])
        assert val == pytest.approx(0.2, rel=1e-14)
        assert abs(vec[1]) == pytest.approx(1.0, rel=1e-12)

    def test_square_cluster_fifty(self, square50):
        idx = enumerate_cluster(square50, 50.0, 0.5)
        val, _ = cluster_min_coercivity(square50, idx)
        assert val == pytest.approx(2.0 / (50.0 * math.pi), rel=1e-12)

    def test_unit_norm_and_phase_convention(self, square50):
        idx = enumerate_cluster(square50, 50.0, 0.5)
        _, vec = cluster_min_coercivity(square50, idx)
        assert float(np.vdot(vec, vec).real) == pytest.approx(1.0, rel=1e-12)
        pivot = np.argmax(np.abs(vec))
        assert vec[pivot].imag == pytest.approx(0.0, abs=1e-14)
        assert vec[pivot].real > 0

    def test_sampling_never_beats_eigen_minimum(self):
        rng = np.random.default_rng(51)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(b)
        gram = q @ np.diag([0.2, 0.28, 0.45]) @ q.conj().T
        gram = (gram + gram.conj().T) / 2.0
        sys_ = SpectralSystem(eigenvalues=[1.0, 1.2, 1.4], gram=gram)
        val, _ = cluster_min_coercivity(sys_, [0, 1, 2])
        samples = rng.standard_normal((300_000, 3)) + 1j * rng.standard_normal((300_000, 3))
        norms = np.einsum("ij,ij->i", samples.conj(), samples).real
        quad = np.einsum("ij,jk,ik->i", samples.conj(), gram, samples).real
        ratios = quad / norms
        assert float(ratios.min()) >= val - 1e-10
        assert float(ratios.min()) <= val + 1e-3

    def test_empty_and_invalid_indices(self, square50):
        with pytest.raises(DomainError):
            cluster_min_coercivity(square50, [])
        with pytest.raises(DomainError):
            cluster_min_coercivity(square50, [0, 0])
        with pytest.raises(DomainError):
            cluster_min_coercivity(square50, [square50.size])


class TestScanAndEnvelope:
    def test_scan_centers_are_distinct_eigenvalues(self, square50):
        scan = coercivity_scan(square50, 0.5)
        first = scan.centers <= 10.0
        assert scan.centers[first].tolist() == [2.0, 5.0, 8.0, 10.0]
        assert scan.sizes[first].tolist() == [1, 2, 1, 2]

    def test_scan_respects_lambda_max_inclusive(self, square50):
        scan = coercivity_scan(square50, 0.5)
        assert scan.centers[-1] == square50.lambda_max

    def test_singleton_clusters_give_diagonal_entries(self):
        gram = np.diag([0.3, 0.7, 0.1]).astype(complex)
        sys_ = SpectralSystem(eigenvalues=[1.0, 5.0, 9.0], gram=gram)
        scan = coercivity_scan(sys_, 0.5)
        assert scan.min_eig.tolist() == pytest.approx([0.3, 0.7, 0.1])

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
    def test_scan_rejects_a_width_that_is_not_positive(self, square50, width):
        with pytest.raises(DomainError, match=f"^cluster width must be positive, got {width}$"):
            coercivity_scan(square50, width)

    @pytest.mark.parametrize("widths", [[1.0, 0.0, 0.5], [1.0, math.nan, -1.0]])
    def test_runs_name_the_first_width_that_is_not_positive_and_its_center(self, widths):
        sys_ = SpectralSystem(eigenvalues=[1.0, 5.0, 5.0, 9.0], factor=np.eye(4))
        with pytest.raises(DomainError, match=f"^cluster width must be positive, got {widths[1]} at center 5.0$"):
            coercivity._cluster_runs(sys_, np.array(widths))

    @pytest.mark.parametrize("width", [1e308, math.inf, 5e-324])
    @pytest.mark.parametrize("huge", [False, True], ids=["square", "huge-eigenvalues"])
    def test_extreme_widths_equal_the_per_cluster_oracle(self, square50, huge, width):
        # Widths where u + ε leaves the float range, and the least subnormal width.
        sys_ = SpectralSystem([1e300, 1.5e300, 1.7976931348623157e308], factor=np.eye(3)) if huge else square50
        assert_same_scan(coercivity_scan(sys_, width), coercivity_scan_by_cluster(sys_, width))

    def test_a_stack_holds_at_most_the_byte_budget_and_at_least_one_block(self, monkeypatch):
        # Width 400 puts all 220 modes of n_max 300 into each of its 101
        # clusters: a 774 KB block each, over the default budget, so one at a
        # time; a 2 MiB budget holds two.
        sys_ = build_square_system(300, GammaSpec.full_sides(Side.BOTTOM))
        rank = sys_.factor.shape[1]
        default = spectral.BLOCK_BYTES
        cases = [(1, 0.5), (2**14, 1.3), (default, 400.0), (2**21, 400.0)]
        expected = [coercivity_scan_by_cluster(sys_, width) for _, width in cases]
        stacks = []
        solver = np.linalg.eigh

        def recording(a, *args, **kwargs):
            stacks.append(np.shape(a))
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        for (budget, width), oracle in zip(cases, expected):
            monkeypatch.setattr(spectral, "BLOCK_BYTES", budget)
            stacks.clear()
            assert_same_scan(coercivity_scan(sys_, width), oracle)
            assert sum(k for k, _, _ in stacks) == oracle.centers.size
            for k, s, _ in stacks:
                assert k == 1 or k * s * max(s, rank) * 16 <= budget
            if width == 400.0:
                per = 1 if budget == default else 2
                assert stacks == [(per, 220, 220)] * (101 // per) + [(1, 220, 220)] * (101 % per)

    def test_flat_minima_fit_constant_form(self):
        env = fit_psi_envelope(make_scan([1.0, 10.0, 100.0], [0.3] * 3))
        assert env.p == 0.0
        assert env.c == pytest.approx(0.3, rel=1e-14)

    def test_single_report_fits_constant_form(self):
        env = fit_psi_envelope(make_scan([7.0], [0.42]))
        assert env.p == 0.0
        assert env.c == pytest.approx(0.42, rel=1e-14)

    def test_reciprocal_minima_fit_power_law(self, square50):
        scan = coercivity_scan(square50, 0.5)
        env = fit_psi_envelope(scan)
        assert env.p == 1.0
        for center, min_eig in zip(scan.centers.tolist(), scan.min_eig.tolist()):
            assert env(center) <= min_eig * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "diagonal", [[0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 1e-15, 0.0]], ids=["one", "several"]
    )
    def test_zero_minimum_raises_with_cluster(self, diagonal):
        # With several clusters below the floor the first center is named.
        n = len(diagonal)
        sys_ = SpectralSystem(eigenvalues=np.arange(1.0, n + 1), gram=np.diag(diagonal).astype(complex))
        scan = coercivity_scan(sys_, 0.5)
        message = "not weakly coercive at width 0.5: cluster at center 2.0 has minimal observed energy 0.000e+00"
        assert scan.incoercivity == message
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            fit_psi_envelope(scan)

    def test_coercive_scan_names_no_cluster(self, square50):
        assert coercivity_scan(square50, 0.5).incoercivity is None
        assert make_scan([1.0, 2.0], [2e-14, 1.0]).incoercivity is None
        assert make_scan([1.0, 2.0], [1.0, 1e-14]).incoercivity == (
            "not weakly coercive at width 0.5: cluster at center 2.0 has minimal observed energy 1.000e-14"
        )

    @pytest.mark.parametrize("eigenvalues", [[1.0, 1e200], [1e200, 2e200]])
    def test_huge_centers_fit_without_overflow(self, eigenvalues):
        # (1 + λ)² overflows at λ = 1e200: that exponent's slack is inf, or nan
        # when every lift is inf, and the constant form wins.
        sys_ = SpectralSystem(eigenvalues=eigenvalues, gram=np.eye(2))
        assert fit_psi_envelope(coercivity_scan(sys_, 0.5)) == PowerLaw(1.0, 0.0)

    def test_empty_scan_rejected(self):
        with pytest.raises(DomainError):
            fit_psi_envelope(make_scan([], []))

    def test_arbitrary_centers_inherit_scan_bound(self):
        rng = np.random.default_rng(52)
        lam = np.sort(rng.uniform(1.0, 25.0, size=15))
        b = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
        sys_ = SpectralSystem(eigenvalues=lam, gram=b.conj().T @ b / 15.0)
        eps = 1.0
        env = fit_psi_envelope(coercivity_scan(sys_, eps))
        for center in np.linspace(0.5, 26.0, 120):
            idx = enumerate_cluster(sys_, float(center), eps / 2.0)
            if idx.size == 0:
                continue
            min_eig, _ = cluster_min_coercivity(sys_, idx)
            assert min_eig >= float(env(center + eps / 2.0)) * (1.0 - 1e-9)


class TestShiftAndTransform:
    def test_shifted_power_law_is_conservative(self):
        env = PowerLaw(2.0, 1.0)
        shifted = shifted_power_law(env, 0.5)
        for lam in [0.0, 1.0, 10.0, 1e3]:
            assert shifted(lam) <= env(lam + 0.5) * (1.0 + 1e-14)
        flat = shifted_power_law(PowerLaw(2.0, 0.0), 0.5)
        assert flat(3.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("shift", [-0.5, math.nan])
    def test_shift_must_be_non_negative(self, shift):
        with pytest.raises(DomainError, match=f"^shift must be non-negative, got {shift}$"):
            shifted_power_law(PowerLaw(1.0, 1.0), shift)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.inf, math.nan])
    def test_weak_width_must_be_positive_and_finite(self, width):
        with pytest.raises(DomainError, match="base_width must be positive and finite"):
            weak_to_spectral(PowerLaw(1.0, 0.0), width, 1.0)

    def test_transform_arithmetic_example(self):
        spectral = weak_to_spectral(PowerLaw(1.0, 0.0), 1.0, 1.0)
        assert spectral.epsilon(0.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert spectral.epsilon(1e4) == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert spectral.psi(3.0) == pytest.approx(0.25, rel=1e-14)

    def test_transform_power_law_substitution(self):
        d, m = 0.4, 3.0
        spectral = weak_to_spectral(PowerLaw(d, 1.0), 0.5, m)
        assert isinstance(spectral.epsilon, TransformedWidth)
        for lam in [0.0, 2.0, 50.0]:
            expected = 0.5 / (2.0 * m * (1.0 + lam) / d + 2.0)
            assert spectral.epsilon(lam) == pytest.approx(expected, rel=1e-13)
            assert spectral.psi(lam) == pytest.approx(d / (4.0 * (1.0 + lam)), rel=1e-13)

    def test_transform_rejects_wrong_inputs(self):
        for M in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="admissibility must be positive and finite"):
                weak_to_spectral(PowerLaw(1.0, 0.0), 1.0, M)
        spectral = weak_to_spectral(PowerLaw(1.0, 0.0), 1.0, 1.0)
        with pytest.raises(TypeError, match="PowerLaw strength"):
            weak_to_spectral(spectral.epsilon, 1.0, 1.0)


class TestAdmissibilityEstimate:
    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
    def test_width_must_be_positive(self, width):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 4.0], gram=np.eye(3))
        with pytest.raises(DomainError, match=f"^cluster width must be positive, got {width}$"):
            estimate_admissibility(sys_, width, [1.5])

    def test_diagonal_closed_form(self):
        gram = np.diag([0.5, 1.0, 2.0]).astype(complex)
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 4.0], gram=gram)
        lam = 2.9
        expected = max(
            0.5 / (1.0 - lam) ** 2, 1.0 / (2.0 - lam) ** 2, 2.0 / (4.0 - lam) ** 2
        )
        got = estimate_admissibility(sys_, 0.5, [lam])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_gram_gives_zero(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0], gram=np.zeros((2, 2)))
        assert estimate_admissibility(sys_, 0.5, [1.5]) == 0.0

    def test_square_midpoint_grid_bound(self, square50):
        grid = np.arange(2.0, 50.0) + 0.5
        got = estimate_admissibility(square50, 0.5, grid)
        assert got <= 8.0 / math.pi + 1e-12

    def test_product_past_the_float_range_is_a_numeric_error(self):
        # ‖f_k‖² = 1e300 over distances of about 1e-8: P's entries overflow.
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 3.0], gram=np.diag([1e300] * 3))
        with pytest.raises(NumericError, match=r"^the admissibility sup at λ = 0\.99999999 is past the float range$"):
            estimate_admissibility(sys_, 1e-8, admissibility_breakpoints(sys_, 1e-8))

    def test_covering_cluster_rejected(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 1.2], gram=np.eye(2))
        with pytest.raises(DomainError, match="every mode"):
            estimate_admissibility(sys_, 2.0, [1.1])

    @pytest.mark.parametrize("block_bytes", [None, 16, 24])
    def test_first_covering_point_in_grid_order_is_named(self, block_bytes, monkeypatch):
        # The covering points come second and third; budgets of one 2-mode
        # row (16 bytes) and of one and a half rows put them on chunk seams.
        if block_bytes is not None:
            monkeypatch.setattr(spectral, "BLOCK_BYTES", block_bytes)
        sys_ = SpectralSystem(eigenvalues=[1.0, 1.2], gram=np.eye(2))
        with pytest.raises(DomainError, match=r"^the cluster at λ = 1\.15 covers every mode"):
            estimate_admissibility(sys_, 2.0, [10.0, 1.15, 1.1, -5.0])

    def test_near_tie_in_trace_bound_solves_both_points(self, eigvalsh_calls):
        # Rank one, so each solved value is its point's trace up to rounding.
        # The traces at 1.5 and 2.5 differ by a few ulps, less than γ: the
        # first solved value can exceed the second trace, and only the margin
        # keeps the second point from being skipped.
        lam = np.array([1.0, 2.0, np.nextafter(3.0, 4.0)])
        sys_ = SpectralSystem(eigenvalues=lam, factor=np.ones((3, 1)))
        grid = np.array([1.5, 2.5])
        traces = [float(np.sum(1.0 / (lam - x) ** 2)) for x in grid]
        gamma = 8 * (3 + 1) * np.finfo(float).eps / 2
        assert 0.0 < (traces[0] - traces[1]) / traces[0] < gamma
        expected = admissibility_by_every_point(sys_, 0.5, grid)
        eigvalsh_calls.clear()
        assert estimate_admissibility(sys_, 0.5, grid) == expected
        assert len(eigvalsh_calls) == 2

    @pytest.mark.parametrize("side", [Side.BOTTOM, Side.LEFT, Side.TOP, Side.RIGHT], ids=lambda side: side.name.lower())
    @pytest.mark.parametrize("n_max", [50, 250])
    @pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.3])
    def test_full_side_solves_one_point(self, side, n_max, epsilon, eigvalsh_calls):
        # In the principal basis the row-sum bound is within rounding of each
        # point's value, so the first point in ceiling order wins and every
        # other ceiling falls below it; in the factor's own basis the bottom
        # side solves 152 of the 170 breakpoints at n_max 250 and width 0.25.
        system = build_square_system(n_max, GammaSpec.full_sides(side))
        grid = admissibility_breakpoints(system, epsilon)
        expected = admissibility_by_every_point(system, epsilon, grid)
        eigvalsh_calls.clear()
        assert estimate_admissibility(system, epsilon, grid) == expected
        assert len(eigvalsh_calls) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_point_rejected(self, square50, bad):
        with pytest.raises(DomainError, match=rf"^lambda grid point {bad} at index 2 is not finite$"):
            estimate_admissibility(square50, 0.5, [3.0, 4.0, bad, 5.0, math.nan])

    def test_sub_patch_solves_fewer_points_than_breakpoints(self, eigvalsh_calls):
        patch = BoundaryPatch(Side.BOTTOM, math.pi / 4.0, math.pi / 2.0)
        system = build_square_system(250, GammaSpec((patch,)))
        grid = admissibility_breakpoints(system, 0.5)
        expected = admissibility_by_every_point(system, 0.5, grid)
        eigvalsh_calls.clear()
        assert estimate_admissibility(system, 0.5, grid) == expected
        assert 0 < len(eigvalsh_calls) < grid.size

    @pytest.mark.parametrize(
        "eigenvalues, epsilon",
        [
            ([1.0, 2.0], 1e-20),
            ([1e-300, 2e-300], 1e-200),
            ([1e-300, 2e-300], 1e-160),
            ([1.0, 1e300], 1e200),
        ],
        ids=["edges-round-to-eigenvalues", "square-underflows", "square-subnormal", "square-overflows"],
    )
    def test_width_outside_float_range_rejected(self, eigenvalues, epsilon):
        sys_ = SpectralSystem(eigenvalues=eigenvalues, gram=np.eye(2))
        with pytest.raises(DomainError, match="outside the float range"):
            estimate_admissibility(sys_, epsilon, admissibility_breakpoints(sys_, epsilon))

    def test_empty_grid_rejected(self, square50):
        with pytest.raises(DomainError):
            estimate_admissibility(square50, 0.5, [])

    @pytest.mark.parametrize(
        "system",
        [
            SpectralSystem(eigenvalues=[1.0, 2.0, 4.0], gram=np.diag([0.5, 1.0, 2.0])),
            low_rank_system(np.sort(np.random.default_rng(5).uniform(1.0, 30.0, 40)), 4, 6),
            low_rank_system(np.arange(1.0, 41.0), 1, 7),
        ],
        ids=["full-rank", "rank-4-of-40", "rank-1-of-40"],
    )
    @pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.3])
    def test_low_rank_matches_dense_oracle(self, system, epsilon):
        grid = np.linspace(system.lambda_min - 3.0, system.lambda_max + 3.0, 201)
        expected = dense_admissibility(system, epsilon, grid)
        got = estimate_admissibility(system, epsilon, grid)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got >= expected
        # At rounded cluster edges the oracle's |d| ≥ ε test can drop a mode
        # that estimate_admissibility keeps, so only the bound holds there.
        edges = admissibility_breakpoints(system, epsilon)
        assert estimate_admissibility(system, epsilon, edges) >= dense_admissibility(
            system, epsilon, edges
        )

    @pytest.mark.parametrize(
        "n_max, gamma",
        [
            (50, GammaSpec.full_sides(Side.BOTTOM)),
            (120, GammaSpec((BoundaryPatch(Side.BOTTOM, math.pi / 4.0, math.pi / 2.0),))),
            (80, bottom_and_left()),
            (100, GammaSpec((BoundaryPatch(Side.BOTTOM, 0.3, 2.0), BoundaryPatch(Side.RIGHT, 0.1, 1.0)))),
        ],
        ids=["bottom-50", "sub-patch-120", "two-sides-80", "two-patches-100"],
    )
    @pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.3])
    def test_square_factor_matches_dense_oracle(self, n_max, gamma, epsilon):
        # The oracle reads the dense Gram FFᵀ; the factor's error bound keeps
        # the result at or above it.
        system = build_square_system(n_max, gamma)
        grid = np.linspace(system.lambda_min - 3.0, system.lambda_max + 3.0, 201)
        expected = dense_admissibility(system, epsilon, grid)
        got = estimate_admissibility(system, epsilon, grid)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got >= expected
        edges = admissibility_breakpoints(system, epsilon)
        assert estimate_admissibility(system, epsilon, edges) >= dense_admissibility(
            system, epsilon, edges
        )

    def test_zero_gram_gives_zero_on_breakpoints(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 3.5], gram=np.zeros((3, 3)))
        assert estimate_admissibility(sys_, 0.5, admissibility_breakpoints(sys_, 0.5)) == 0.0

    @pytest.mark.parametrize("epsilon", [0.1, 0.3])
    def test_mode_is_off_cluster_at_its_own_edges(self, epsilon):
        # Non-dyadic eigenvalues: |λ_k − fl(λ_k ± ε)| < ε for many k, which
        # must not drop mode k from the off-cluster block.
        lam = np.sort(np.random.default_rng(8).uniform(1.0, 50.0, 40))
        sys_ = SpectralSystem(eigenvalues=lam, gram=np.eye(lam.size))
        edges = np.concatenate([lam - epsilon, lam + epsilon])
        rounded_inside = np.abs(np.concatenate([lam, lam]) - edges) < epsilon
        assert rounded_inside.any()
        for edge in edges:
            got = estimate_admissibility(sys_, epsilon, [edge])
            assert got == pytest.approx(1.0 / epsilon**2, rel=1e-12)

    def test_breakpoints_are_sorted_unique_cluster_edges(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 1.0, 2.0, 3.0], gram=np.eye(4))
        np.testing.assert_array_equal(
            admissibility_breakpoints(sys_, 0.5), [0.5, 1.5, 2.5, 3.5]
        )
        with pytest.raises(DomainError):
            admissibility_breakpoints(sys_, 0.0)

    def test_breakpoint_sup_dominates_dense_grid(self, square50):
        grid = np.linspace(square50.lambda_min / 2.0, 2.0 * square50.lambda_max, 2001)
        for epsilon in (0.25, 0.5):
            exact = estimate_admissibility(
                square50, epsilon, admissibility_breakpoints(square50, epsilon)
            )
            assert exact >= estimate_admissibility(square50, epsilon, grid)

    @settings(max_examples=60)
    @given(
        eigenvalues=st.lists(
            st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False), min_size=2, max_size=10
        ),
        rank=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        fraction=st.floats(0.01, 1.0),
        probes=st.lists(st.floats(-10.0, 120.0, allow_nan=False), max_size=10),
    )
    def test_breakpoint_sup_bounds_every_sampled_lambda(
        self, eigenvalues, rank, seed, fraction, probes
    ):
        lam = np.sort(np.array(eigenvalues))
        spread = lam[-1] - lam[0]
        if not spread > 0:
            lam[-1] += 1.0
            spread = lam[-1] - lam[0]
        # no cluster covers every mode when 2ε ≤ λ_max − λ_min
        epsilon = fraction * spread / 2.0
        sys_ = low_rank_system(lam, min(rank, lam.size), seed)
        sup = estimate_admissibility(sys_, epsilon, admissibility_breakpoints(sys_, epsilon))
        sample = np.concatenate(
            [np.linspace(lam[0] - 2.0 * epsilon - 1.0, lam[-1] + 2.0 * epsilon + 1.0, 250), probes]
        )
        assert sup >= estimate_admissibility(sys_, epsilon, sample)


class TestResolventCheck:
    def test_identity_gram_unit_strength_margin_zero(self):
        # With G = I and ψ = 1 the margin is ‖z‖²·min(1, R/ε): zero exactly on
        # eigenvectors, where the inequality is tight at λ = λ(z).
        rng = np.random.default_rng(53)
        lam = np.sort(rng.uniform(1.0, 20.0, size=10))
        sys_ = SpectralSystem(eigenvalues=lam, gram=np.eye(10))
        cert = CoercivityCertificate(epsilon=PowerLaw(1e-3, 0.0), psi=PowerLaw(1.0, 0.0))
        for k in range(10):
            rep = resolvent_check(sys_, np.eye(10)[k], cert)
            assert rep.verdict
            assert rep.inf_margin == pytest.approx(0.0, abs=1e-10 * rep.norm_sq)
        z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        rep = resolvent_check(sys_, z, cert)
        assert rep.verdict and rep.residual_over_epsilon > 1.0
        assert rep.inf_margin == pytest.approx(rep.norm_sq, rel=1e-12)

    def test_tiny_state_with_a_gram_near_the_float_range_keeps_its_energy(self):
        # In the state's frame ‖Cz‖² passes the float range at G; at G·2^(−s)
        # it does not, and the true 3e108 reads finite, with no RuntimeWarning.
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 3.0], gram=np.diag([1e308] * 3))
        z = np.full(3, 1e-100)
        assert observed_energy_sq(z, sys_) == pytest.approx(3e108, rel=1e-15)
        cert = CoercivityCertificate(epsilon=PowerLaw(1e-3, 0.0), psi=PowerLaw(1.0, 0.0))
        rep = resolvent_check(sys_, z, cert)
        assert rep.observed_sq == pytest.approx(3e108, rel=1e-15)
        assert rep.residual_over_epsilon > 1.0 and rep.inf_margin == rep.observed_sq

    def test_pipeline_certificate_margins(self, square50):
        pipeline = scan_certificate(square50, coercivity_scan(square50, 0.5))
        rng = np.random.default_rng(54)
        for _ in range(20):
            z = rng.standard_normal(square50.size) + 1j * rng.standard_normal(square50.size)
            rep = resolvent_check(square50, z, pipeline.spectral)
            assert rep.verdict
            assert rep.inf_margin >= -1e-9 * rep.norm_sq

    def test_every_eigenvector_of_default_system_passes(self):
        cfg = default_config("resolvent-scan")
        sys_ = system_of(cfg)
        cert = scan_certificate(sys_, coercivity_scan(sys_, cfg.epsilon_cluster)).spectral
        states = list(np.eye(sys_.size))
        for lam in sys_.distinct_eigenvalues():  # the least observed one of each eigenspace
            states.append(cluster_min_coercivity(sys_, np.flatnonzero(sys_.eigenvalues == lam))[1])
        for z in states:
            rep = resolvent_check(sys_, z, cert)
            assert rep.residual_over_epsilon < 1e-12
            assert rep.verdict and rep.inf_margin > 0.0

    def test_gram_kernel_states_pass(self):
        # Unobserved states far from every eigenvector: the infimum sits at
        # |λ| → ∞, where the bound tends to ‖Cz‖²/ψ ≈ 0, so the margin is ≈ 0.
        cfg = default_config("resolvent-scan")
        sys_ = system_of(cfg)
        cert = scan_certificate(sys_, coercivity_scan(sys_, cfg.epsilon_cluster)).spectral
        w, v = np.linalg.eigh(sys_.gram)
        kernel = v[:, w <= 1e-13 * w[-1]].T
        assert len(kernel) == 26
        for z in kernel:
            rep = resolvent_check(sys_, z, cert)
            assert rep.verdict and rep.residual_over_epsilon > 1.0
            assert abs(rep.inf_margin) <= 1e-9 * rep.norm_sq

    def test_closed_form_matches_dense_oracle_on_pipeline_states(self, square50):
        cert = scan_certificate(square50, coercivity_scan(square50, 0.5)).spectral
        rng = np.random.default_rng(55)
        v = np.linalg.eigh(square50.gram)[1]
        states = [v[:, 0], v[:, -1]]
        for k in (0, 7, square50.size - 1):
            for size in (0.0, 1e-6, 1e-2):
                noise = rng.standard_normal(square50.size) + 1j * rng.standard_normal(square50.size)
                states.append(np.eye(square50.size)[k] + size * noise)
        states += [rng.standard_normal(square50.size) for _ in range(3)]
        ratios = [check_against_dense_oracle(square50, z, cert).residual_over_epsilon for z in states]
        assert min(ratios) < 1.0 < max(ratios)

    @settings(max_examples=60)
    @given(
        eigenvalues=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8),
        rank=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        epsilon=st.floats(1e-4, 10.0),
        psi=st.tuples(st.floats(1e-3, 10.0), st.sampled_from([0.0, 1.0, 2.0])),
        mode=st.integers(0, 7),
        noise=st.sampled_from([0.0, 1e-8, 1e-4, 1e-2, 1.0, 1e3]),
    )
    def test_closed_form_matches_dense_oracle(
        self, eigenvalues, rank, seed, epsilon, psi, mode, noise
    ):
        lam = np.sort(np.array(eigenvalues))
        sys_ = low_rank_system(lam, min(rank, lam.size), seed)
        cert = CoercivityCertificate(epsilon=PowerLaw(epsilon, 0.0), psi=PowerLaw(*psi))
        rng = np.random.default_rng(seed)
        z = np.eye(lam.size)[mode % lam.size] + noise * (
            rng.standard_normal(lam.size) + 1j * rng.standard_normal(lam.size)
        )
        check_against_dense_oracle(sys_, z, cert)

    def test_huge_state_matches_its_scaled_copy(self):
        sys_ = build_square_system(20, GammaSpec.full_sides(Side.BOTTOM))
        cert = scan_certificate(sys_, coercivity_scan(sys_, 0.5)).spectral
        z = np.zeros(sys_.size, dtype=complex)
        z[0], z[1] = 1e200, 1e199
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            huge = resolvent_check(sys_, z, cert)
            scaled = resolvent_check(sys_, z * 2.0**-665, cert)
        assert huge.verdict == scaled.verdict
        assert scaled.verdict and math.isfinite(scaled.inf_margin)
        assert huge.lambda_z == scaled.lambda_z
        assert huge.norm_sq == math.inf and not math.isnan(huge.inf_margin)

    def test_numerically_zero_state_rejected(self, square50):
        pipeline = scan_certificate(square50, coercivity_scan(square50, 0.5))
        with pytest.raises(DomainError):
            resolvent_check(square50, np.full(square50.size, 1e-301), pipeline.spectral)

    def test_validates_its_state_once(self, square50, monkeypatch):
        calls, original = [], spectral.coefficients_of

        def counting(z, system):
            calls.append(np.shape(z))
            return original(z, system)

        for module in (spectral, coercivity, evolution, window):
            monkeypatch.setattr(module, "coefficients_of", counting)
        cert = scan_certificate(square50, coercivity_scan(square50, 0.5)).spectral
        rows = np.random.default_rng(3).standard_normal((4, square50.size))
        for z in (rows[0], rows):
            calls.clear()
            resolvent_check(square50, z, cert)
            assert calls == [z.shape]


class TestViolationSearch:
    def test_identity_gram_has_no_violations(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 3.0, 4.0], gram=np.eye(4))
        cert = CoercivityCertificate(epsilon=PowerLaw(0.5, 0.0), psi=PowerLaw(0.5, 0.0))
        assert spectral_coercivity_violation_search(sys_, cert, 500, seed=1) is None

    def test_valid_pipeline_certificate_survives(self, square50):
        pipeline = scan_certificate(square50, coercivity_scan(square50, 0.5))
        found = spectral_coercivity_violation_search(square50, pipeline.spectral, 300, seed=2)
        assert found is None

    def test_inflated_strength_is_caught_deterministically(self, square50):
        pipeline = scan_certificate(square50, coercivity_scan(square50, 0.5))
        inflated = CoercivityCertificate(
            epsilon=pipeline.spectral.epsilon,
            psi=pipeline.spectral.psi.scaled(10.0),
        )
        found = spectral_coercivity_violation_search(square50, inflated, 0, seed=3)
        assert found is not None
        assert found.trial == -1
        assert found.origin == "cluster_min_vec"
        assert found.observed < found.required
        assert found.residual < found.epsilon_at

    def test_deterministic_given_seed(self, square50):
        pipeline = scan_certificate(square50, coercivity_scan(square50, 0.5))
        inflated = CoercivityCertificate(
            epsilon=pipeline.spectral.epsilon,
            psi=pipeline.spectral.psi.scaled(10.0),
        )
        a = spectral_coercivity_violation_search(square50, inflated, 200, seed=9)
        b = spectral_coercivity_violation_search(square50, inflated, 200, seed=9)
        assert a is not None and b is not None
        assert a.relative_margin == b.relative_margin
        assert a.trial == b.trial
        np.testing.assert_array_equal(a.coefficients, b.coefficients)

    def test_trials_must_be_non_negative(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 3.0, 4.0], gram=np.eye(4))
        cert = CoercivityCertificate(epsilon=PowerLaw(0.5, 0.0), psi=PowerLaw(0.5, 0.0))
        with pytest.raises(DomainError, match="^trials must be non-negative, got -1$"):
            spectral_coercivity_violation_search(sys_, cert, -1, seed=0)


class TestPipeline:
    def test_chain_consistency(self, square50):
        pipeline = scan_certificate(square50, coercivity_scan(square50, 0.5))
        assert pipeline.admissibility_sq == estimate_admissibility(
            square50, 0.25, admissibility_breakpoints(square50, 0.25)
        )
        assert pipeline.spectral.epsilon.base_width == 0.25
        assert pipeline.spectral.epsilon.psi == shifted_power_law(pipeline.envelope, 0.25)
        env = pipeline.envelope
        half = 0.25
        for lam in [2.0, 10.0, 50.0]:
            expected_psi = env(lam + half) / 4.0
            # the shifted power law under-estimates psi(lam + half) slightly
            assert pipeline.spectral.psi(lam) <= expected_psi * (1.0 + 1e-12)
        width = pipeline.spectral.epsilon
        assert isinstance(width, TransformedWidth)
        assert width.base_width == pytest.approx(half)
        # M, the transform's admissibility constant, is √(M²) as computed.
        assert width.admissibility == math.sqrt(pipeline.admissibility_sq)

    @pytest.mark.parametrize(
        "envelope, admissibility_sq, name",
        # ψ/4 = 1e-320·(4/5)²/4 underflows at λ_max = 50; or 2M/ψ = 2e10/1e-300
        # overflows and the width reads 0 while ψ/4 stays positive.
        [(PowerLaw(1e-320, 2.0), None, "psi"), (PowerLaw(1e-300, 0.0), 1e20, "epsilon")],
        ids=["psi", "epsilon"],
    )
    def test_rates_that_underflow_at_lambda_max_are_rejected(
        self, square50, monkeypatch, envelope, admissibility_sq, name
    ):
        monkeypatch.setattr(coercivity, "fit_psi_envelope", lambda scan: envelope)
        if admissibility_sq is not None:
            monkeypatch.setattr(coercivity, "estimate_admissibility", lambda *args: admissibility_sq)
        with pytest.raises(NumericError, match=f"^the spectral certificate's {name} underflows to 0 at lambda_max = 50.0$"):
            scan_certificate(square50, coercivity_scan(square50, 0.5))

    def test_scan_with_one_width_per_center_rejected(self, square50):
        scan = coercivity_scan(square50, np.full(square50.distinct_eigenvalues().size, 0.5))
        with pytest.raises(DomainError, match="^a certificate needs a scan at one cluster width"):
            scan_certificate(square50, scan)

    def test_scan_that_is_not_weakly_coercive_rejected(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 1.2, 3.0], gram=[[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        message = "not weakly coercive at width 0.5: cluster at center 1.0 has minimal observed energy 0.000e+00"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            scan_certificate(sys_, coercivity_scan(sys_, 0.5))

    def test_sampling_half_width_eligibility(self, square50):
        # states drawn inside the search's own half-width satisfy the
        # residual constraint of the certificate they are tested against
        pipeline = scan_certificate(square50, coercivity_scan(square50, 0.5))
        eps = pipeline.spectral.epsilon
        for center in [2.0, 25.0, 50.0]:
            beta = math.sqrt(float(eps(center)) / 2.0) * BETA_SAFETY
            idx = enumerate_cluster(square50, center, beta)
            if idx.size == 0:
                continue
            z = np.zeros(square50.size, dtype=complex)
            z[idx] = 1.0
            assert frequency_report(z, square50).residual < float(eps(frequency(z, square50)))

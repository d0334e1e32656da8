"""Clusters, coercivity certificates, transforms, resolvent margins, search."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obskit import (
    CoercivityCertificate,
    CoercivityError,
    Constant,
    DomainError,
    PowerLaw,
    SpectralSystem,
    TransformedWidth,
    admissibility_breakpoints,
    cluster_min_coercivity,
    coercivity_scan,
    default_lambda_grid,
    enumerate_cluster,
    estimate_admissibility,
    fit_psi_envelope,
    resolvent_check,
    scan_certificate,
    shifted_power_law,
    spectral_coercivity_violation_search,
    weak_to_spectral,
)
from obskit.coercivity import BETA_SAFETY, ClusterReport
from obskit.spectral import frequency, residual_shifted
from obskit.square import full_bottom, build_square_system


def make_report(center, min_eig):
    return ClusterReport(
        center=center,
        epsilon=0.5,
        indices=np.array([0]),
        min_eig=min_eig,
        min_vec=np.array([1.0 + 0j]),
    )


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


def low_rank_system(eigenvalues, rank, seed):
    rng = np.random.default_rng(seed)
    shape = (len(eigenvalues), rank)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralSystem(eigenvalues=eigenvalues, gram=f @ f.conj().T)


@pytest.fixture(scope="module")
def square50():
    return build_square_system(50, full_bottom())


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
            assert residual_shifted(z, sys_) < 2.0 * beta * beta


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
        reports = coercivity_scan(square50, 0.5, 10.0)
        assert [rep.center for rep in reports] == [2.0, 5.0, 8.0, 10.0]
        assert [rep.size for rep in reports] == [1, 2, 1, 2]

    def test_scan_respects_lambda_max_inclusive(self, square50):
        reports = coercivity_scan(square50, 0.5, square50.lambda_max)
        assert reports[-1].center == square50.lambda_max

    def test_singleton_clusters_give_diagonal_entries(self):
        gram = np.diag([0.3, 0.7, 0.1]).astype(complex)
        sys_ = SpectralSystem(eigenvalues=[1.0, 5.0, 9.0], gram=gram)
        reports = coercivity_scan(sys_, 0.5, 9.0)
        assert [rep.min_eig for rep in reports] == pytest.approx([0.3, 0.7, 0.1])

    def test_flat_minima_fit_constant_form(self):
        reports = [make_report(c, 0.3) for c in [1.0, 10.0, 100.0]]
        env = fit_psi_envelope(reports)
        assert env.p == 0.0
        assert env.c == pytest.approx(0.3, rel=1e-14)

    def test_single_report_fits_constant_form(self):
        env = fit_psi_envelope([make_report(7.0, 0.42)])
        assert env.p == 0.0
        assert env.c == pytest.approx(0.42, rel=1e-14)

    def test_reciprocal_minima_fit_power_law(self, square50):
        reports = coercivity_scan(square50, 0.5, square50.lambda_max)
        env = fit_psi_envelope(reports)
        assert env.p == 1.0
        for rep in reports:
            assert env(rep.center) <= rep.min_eig * (1.0 + 1e-12)

    def test_zero_minimum_raises_with_cluster(self):
        gram = np.diag([0.5, 0.0, 0.5]).astype(complex)
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 3.0], gram=gram)
        reports = coercivity_scan(sys_, 0.5, 3.0)
        with pytest.raises(CoercivityError, match="not weakly coercive") as info:
            fit_psi_envelope(reports)
        assert info.value.cluster.center == 2.0

    def test_empty_scan_rejected(self):
        with pytest.raises(DomainError):
            fit_psi_envelope([])

    def test_arbitrary_centers_inherit_scan_bound(self):
        rng = np.random.default_rng(52)
        lam = np.sort(rng.uniform(1.0, 25.0, size=15))
        b = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
        sys_ = SpectralSystem(eigenvalues=lam, gram=b.conj().T @ b / 15.0)
        eps = 1.0
        env = fit_psi_envelope(coercivity_scan(sys_, eps, sys_.lambda_max))
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

    def test_weak_requires_constant_width(self):
        with pytest.raises(DomainError, match="Constant"):
            CoercivityCertificate(
                epsilon=PowerLaw(1.0, 1.0), psi=Constant(1.0), kind="weak_spectral"
            )

    def test_transform_arithmetic_example(self):
        weak = CoercivityCertificate(
            epsilon=Constant(1.0), psi=Constant(1.0), kind="weak_spectral"
        )
        spectral = weak_to_spectral(weak, 1.0)
        assert spectral.kind == "spectral"
        assert spectral.epsilon(0.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert spectral.epsilon(1e4) == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert spectral.psi(3.0) == pytest.approx(0.25, rel=1e-14)

    def test_transform_power_law_substitution(self):
        d, m = 0.4, 3.0
        weak = CoercivityCertificate(
            epsilon=Constant(0.5), psi=PowerLaw(d, 1.0), kind="weak_spectral"
        )
        spectral = weak_to_spectral(weak, m)
        assert isinstance(spectral.epsilon, TransformedWidth)
        for lam in [0.0, 2.0, 50.0]:
            expected = 0.5 / (2.0 * m * (1.0 + lam) / d + 2.0)
            assert spectral.epsilon(lam) == pytest.approx(expected, rel=1e-13)
            assert spectral.psi(lam) == pytest.approx(d / (4.0 * (1.0 + lam)), rel=1e-13)

    def test_transform_rejects_wrong_inputs(self):
        weak = CoercivityCertificate(
            epsilon=Constant(1.0), psi=Constant(1.0), kind="weak_spectral"
        )
        with pytest.raises(DomainError):
            weak_to_spectral(weak, 0.0)
        spectral = weak_to_spectral(weak, 1.0)
        with pytest.raises(DomainError):
            weak_to_spectral(spectral, 1.0)


class TestAdmissibilityEstimate:
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

    def test_covering_cluster_rejected(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 1.2], gram=np.eye(2))
        with pytest.raises(DomainError, match="every mode"):
            estimate_admissibility(sys_, 2.0, [1.1])

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

    def test_breakpoint_sup_dominates_default_grid(self, square50):
        for epsilon in (0.25, 0.5):
            exact = estimate_admissibility(
                square50, epsilon, admissibility_breakpoints(square50, epsilon)
            )
            assert exact >= estimate_admissibility(square50, epsilon, default_lambda_grid(square50))

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
        rng = np.random.default_rng(53)
        lam = np.sort(rng.uniform(1.0, 20.0, size=10))
        sys_ = SpectralSystem(eigenvalues=lam, gram=np.eye(10))
        cert = CoercivityCertificate(
            epsilon=Constant(1e-3), psi=Constant(1.0), kind="spectral"
        )
        z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        rep = resolvent_check(sys_, z, np.linspace(0.5, 40.0, 200), cert)
        assert rep.verdict
        assert rep.min_margin == pytest.approx(0.0, abs=1e-10 * rep.norm_sq)

    def test_pipeline_certificate_margins(self, square50):
        pipeline = scan_certificate(square50, 0.5)
        rng = np.random.default_rng(54)
        grid = default_lambda_grid(square50)
        for _ in range(20):
            z = rng.standard_normal(square50.size) + 1j * rng.standard_normal(square50.size)
            rep = resolvent_check(square50, z, grid, pipeline.spectral)
            assert rep.verdict
            assert rep.min_margin >= -1e-9 * rep.norm_sq

    def test_huge_state_matches_its_scaled_copy(self):
        sys_ = build_square_system(20, full_bottom())
        cert = scan_certificate(sys_, 0.5).spectral
        grid = default_lambda_grid(sys_)
        z = np.zeros(sys_.size, dtype=complex)
        z[0], z[1] = 1e200, 1e199
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            huge = resolvent_check(sys_, z, grid, cert)
            scaled = resolvent_check(sys_, z * 2.0**-665, grid, cert)
        assert huge.verdict == scaled.verdict
        assert scaled.verdict and np.isfinite(scaled.margins).all()
        assert huge.lambda_z == scaled.lambda_z
        assert huge.norm_sq == math.inf and not np.isnan(huge.margins).any()

    def test_numerically_zero_state_rejected(self, square50):
        pipeline = scan_certificate(square50, 0.5)
        with pytest.raises(DomainError):
            resolvent_check(square50, np.full(square50.size, 1e-301), [1.0], pipeline.spectral)

    def test_requires_spectral_kind(self, square50):
        weak = CoercivityCertificate(
            epsilon=Constant(0.5), psi=Constant(0.1), kind="weak_spectral"
        )
        with pytest.raises(DomainError):
            resolvent_check(square50, np.ones(square50.size), [1.0], weak)


class TestViolationSearch:
    def test_identity_gram_has_no_violations(self):
        sys_ = SpectralSystem(eigenvalues=[1.0, 2.0, 3.0, 4.0], gram=np.eye(4))
        cert = CoercivityCertificate(
            epsilon=Constant(0.5), psi=Constant(0.5), kind="spectral"
        )
        assert spectral_coercivity_violation_search(sys_, cert, 500, seed=1) is None

    def test_valid_pipeline_certificate_survives(self, square50):
        pipeline = scan_certificate(square50, 0.5)
        found = spectral_coercivity_violation_search(square50, pipeline.spectral, 300, seed=2)
        assert found is None

    def test_inflated_strength_is_caught_deterministically(self, square50):
        pipeline = scan_certificate(square50, 0.5)
        inflated = CoercivityCertificate(
            epsilon=pipeline.spectral.epsilon,
            psi=pipeline.spectral.psi.scaled(10.0),
            kind="spectral",
            provenance="inflated for testing",
        )
        found = spectral_coercivity_violation_search(square50, inflated, 0, seed=3)
        assert found is not None
        assert found.trial == -1
        assert found.origin == "cluster_min_vec"
        assert found.observed < found.required
        assert found.residual < found.epsilon_at

    def test_deterministic_given_seed(self, square50):
        pipeline = scan_certificate(square50, 0.5)
        inflated = CoercivityCertificate(
            epsilon=pipeline.spectral.epsilon,
            psi=pipeline.spectral.psi.scaled(10.0),
            kind="spectral",
        )
        a = spectral_coercivity_violation_search(square50, inflated, 200, seed=9)
        b = spectral_coercivity_violation_search(square50, inflated, 200, seed=9)
        assert a is not None and b is not None
        assert a.relative_margin == b.relative_margin
        assert a.trial == b.trial
        np.testing.assert_array_equal(a.coefficients, b.coefficients)

    def test_requires_spectral_kind(self, square50):
        weak = CoercivityCertificate(
            epsilon=Constant(0.5), psi=Constant(0.1), kind="weak_spectral"
        )
        with pytest.raises(DomainError):
            spectral_coercivity_violation_search(square50, weak, 10, seed=0)


class TestPipeline:
    def test_chain_consistency(self, square50):
        pipeline = scan_certificate(square50, 0.5)
        assert pipeline.scan_width == 0.5
        assert pipeline.admissibility_sq == estimate_admissibility(
            square50, 0.25, admissibility_breakpoints(square50, 0.25)
        )
        assert pipeline.weak.kind == "weak_spectral"
        assert pipeline.weak.epsilon.c == pytest.approx(0.25)
        assert pipeline.spectral.kind == "spectral"
        assert pipeline.admissibility == pytest.approx(
            math.sqrt(pipeline.admissibility_sq), rel=1e-15
        )
        env = pipeline.envelope
        half = 0.25
        for lam in [2.0, 10.0, 50.0]:
            expected_psi = env(lam + half) / 4.0
            # the shifted power law under-estimates psi(lam + half) slightly
            assert pipeline.spectral.psi(lam) <= expected_psi * (1.0 + 1e-12)
        width = pipeline.spectral.epsilon
        assert isinstance(width, TransformedWidth)
        assert width.base_width == pytest.approx(half)
        assert width.admissibility == pytest.approx(pipeline.admissibility)

    def test_sampling_half_width_eligibility(self, square50):
        # states drawn inside the search's own half-width satisfy the
        # residual constraint of the certificate they are tested against
        pipeline = scan_certificate(square50, 0.5)
        eps = pipeline.spectral.epsilon
        for center in [2.0, 25.0, 50.0]:
            beta = math.sqrt(float(eps(center)) / 2.0) * BETA_SAFETY
            idx = enumerate_cluster(square50, center, beta)
            if idx.size == 0:
                continue
            z = np.zeros(square50.size, dtype=complex)
            z[idx] = 1.0
            assert residual_shifted(z, square50) < float(eps(frequency(z, square50)))

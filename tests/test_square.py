"""Square-domain modes, boundary Gram matrices, and decay-constant fits."""

import functools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from obskit import (
    BoundaryPatch,
    DomainError,
    GammaSpec,
    Side,
    SpectralSystem,
    assumption_I_check,
    bottom_and_left,
    build_square_system,
    coercivity_scan,
    delta_gamma_fit,
    load_config,
    run_scenario,
    square_modes,
)
from obskit.square import CIRCLE_WIDTH, gram_factor

from oracles import (
    assert_same_scan,
    bottom_side_closed_form_n_mu,
    boundary_gram,
    coercivity_scan_by_cluster,
    generalized_minima_by_cluster,
    lattice_circle,
    sine_product_integral,
)

TWO_OVER_PI = 2.0 / math.pi


def as_pairs(modes):
    return [tuple(m) for m in modes.tolist()]


def eigenvalues_of(modes):
    return (modes**2).sum(axis=1)


class TestSide:
    def test_parse(self):
        assert Side.parse("bottom") is Side.BOTTOM
        assert Side.parse(" LEFT ") is Side.LEFT
        assert Side.parse("Top") is Side.TOP
        assert Side.parse("right") is Side.RIGHT

    def test_parse_rejects_unknown(self):
        with pytest.raises(DomainError, match="unknown side"):
            Side.parse("diagonal")


class TestPatchesAndGamma:
    def test_patch_defaults_to_full_side(self):
        patch = BoundaryPatch(Side.BOTTOM)
        assert patch.alpha == 0.0
        assert patch.beta == math.pi

    def test_patch_bounds_validated(self):
        with pytest.raises(DomainError):
            BoundaryPatch(Side.BOTTOM, -0.1, 1.0)
        with pytest.raises(DomainError):
            BoundaryPatch(Side.BOTTOM, 1.0, 1.0)
        with pytest.raises(DomainError):
            BoundaryPatch(Side.BOTTOM, 0.0, math.pi + 0.1)
        with pytest.raises(DomainError):
            BoundaryPatch("bottom", 0.0, 1.0)

    def test_gamma_rejects_empty_and_overlap(self):
        with pytest.raises(DomainError):
            GammaSpec(())
        with pytest.raises(DomainError, match="overlap"):
            GammaSpec(
                (
                    BoundaryPatch(Side.BOTTOM, 0.0, 1.5),
                    BoundaryPatch(Side.BOTTOM, 1.0, 2.0),
                )
            )

    def test_gamma_allows_touching_and_cross_side(self):
        spec = GammaSpec(
            (
                BoundaryPatch(Side.BOTTOM, 0.0, 1.0),
                BoundaryPatch(Side.BOTTOM, 1.0, 2.0),
                BoundaryPatch(Side.LEFT, 0.5, 1.5),
            )
        )
        assert spec.sides() == {Side.BOTTOM, Side.LEFT}
        assert GammaSpec.full_sides(Side.BOTTOM).sides() == {Side.BOTTOM}
        assert bottom_and_left().sides() == {Side.BOTTOM, Side.LEFT}


class TestLatticeCircle:
    def test_known_circles(self):
        assert as_pairs(lattice_circle(2)) == [(1, 1)]
        assert as_pairs(lattice_circle(3)) == []
        assert as_pairs(lattice_circle(25)) == [(3, 4), (4, 3)]
        assert as_pairs(lattice_circle(50)) == [(1, 7), (5, 5), (7, 1)]

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            lattice_circle(1)

    def test_matches_double_loop(self):
        n_max = 400
        counts = {}
        for p in range(1, math.isqrt(n_max) + 1):
            for q in range(1, math.isqrt(n_max) + 1):
                n = p * p + q * q
                if n <= n_max:
                    counts[n] = counts.get(n, 0) + 1
        for n in range(2, n_max + 1):
            modes = lattice_circle(n)
            assert len(modes) == counts.get(n, 0)
            assert (eigenvalues_of(modes) == n).all()


class TestSquareModes:
    def test_smallest_instance(self):
        assert as_pairs(square_modes(2)) == [(1, 1)]

    def test_ordering_and_bound(self):
        modes = square_modes(60)
        eigs = eigenvalues_of(modes).tolist()
        assert eigs == sorted(eigs)
        assert max(eigs) <= 60
        # within a circle, sorted by p
        assert as_pairs(modes[:4]) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_rejects_small_bound(self):
        with pytest.raises(DomainError):
            square_modes(1)

    @pytest.mark.parametrize("n_max", [2, 3, 5, 50, 325, 1000])
    def test_order_is_circle_by_circle(self, n_max):
        modes = square_modes(n_max)
        by_circle = np.concatenate([lattice_circle(n) for n in range(2, n_max + 1)])
        assert modes.shape == (len(by_circle), 2) and modes.dtype.kind == "i"
        assert as_pairs(modes) == as_pairs(by_circle)
        p, q = modes.T
        assert (build_square_system(n_max, GammaSpec.full_sides(Side.BOTTOM)).eigenvalues == p * p + q * q).all()


class TestSineProductIntegral:
    def test_full_interval_orthonormality(self):
        assert sine_product_integral(3, 3, 0.0, math.pi) == pytest.approx(
            math.pi / 2.0, rel=1e-15
        )
        assert sine_product_integral(1, 2, 0.0, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_half_interval_value(self):
        assert sine_product_integral(1, 2, 0.0, math.pi / 2.0) == pytest.approx(
            2.0 / 3.0, rel=1e-14
        )

    def test_against_quadrature(self):
        rng = np.random.default_rng(60)
        for _ in range(25):
            p = int(rng.integers(1, 12))
            pp = int(rng.integers(1, 12))
            a, b = np.sort(rng.uniform(0.0, math.pi, size=2))
            if not a < b:
                continue
            oracle, _ = quad(
                lambda x: math.sin(p * x) * math.sin(pp * x), a, b, epsabs=1e-14
            )
            assert sine_product_integral(p, pp, float(a), float(b)) == pytest.approx(
                oracle, abs=1e-12
            )

    @pytest.mark.parametrize(
        "alpha, beta",
        [(0.0, 1e-4), (1e-8, 2e-8), (7.5e-46, 1.17e-38), (0.0, 1e-3), (5e-4, 1e-3), (0.0, 0.04)],
    )
    def test_short_patch_at_the_first_corner_to_full_relative_accuracy(self, alpha, beta):
        # The antiderivative's two differences cancel here; the values are
        # checked entry by entry, none of them is rounding noise.
        for p in range(1, 11):
            for pp in range(1, 11):
                oracle = taylor_sine_product(p, pp, Fraction(alpha), Fraction(beta))
                assert sine_product_integral(p, pp, alpha, beta) == pytest.approx(oracle, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("near, far", [(0.0, 1e-6), (0.0, 1e-3), (5e-4, 1e-3)])
    def test_short_patch_at_the_second_corner_to_full_relative_accuracy(self, near, far):
        # x ↦ π − x maps the patch next to the first corner, with sign (−1)^(p+p′).
        alpha, beta = math.pi - far, math.pi - near
        lo = Fraction(math.pi) - Fraction(beta) + PI_MINUS_FLOAT_PI
        hi = Fraction(math.pi) - Fraction(alpha) + PI_MINUS_FLOAT_PI
        for p in range(1, 11):
            for pp in range(1, 11):
                oracle = (-1) ** (p + pp) * taylor_sine_product(p, pp, lo, hi)
                assert sine_product_integral(p, pp, alpha, beta) == pytest.approx(oracle, rel=1e-14, abs=0.0)


# π − fl(π), to 32 digits.
PI_MINUS_FLOAT_PI = Fraction("1.2246467991473531772260659322750e-16")


@functools.cache
def _power_difference(a, b, n):
    """b^n − a^n of rationals, exact, then rounded once."""
    return float(b**n - a**n)


def taylor_sine_product(p, pp, a, b, terms=9):
    """∫_a^b sin(px) sin(p′x) dx for rational a < b ≪ 1/max(p, p′): the
    Taylor series of the integrand integrated term by term, each bⁿ − aⁿ
    taken exactly, so no difference of nearly equal numbers is rounded."""
    total = 0.0
    for i in range(terms):
        for j in range(terms):
            n = 2 * i + 2 * j + 3
            coef = (-1) ** (i + j) * p ** (2 * i + 1) * pp ** (2 * j + 1)
            total += coef / (math.factorial(2 * i + 1) * math.factorial(2 * j + 1) * n) * _power_difference(a, b, n)
    return total


def trace_on_patch(mode, patch):
    """Normal-derivative trace of the unit eigenfunction of the (p, q) row ``mode``
    along one patch."""
    p, q = mode.tolist()
    n = float(p * p + q * q)
    if patch.side in (Side.BOTTOM, Side.TOP):
        freq, amp = p, (2.0 / math.pi) * q / math.sqrt(n)
        sign = 1.0 if patch.side is Side.BOTTOM else (-1.0) ** q
    else:
        freq, amp = q, (2.0 / math.pi) * p / math.sqrt(n)
        sign = 1.0 if patch.side is Side.LEFT else (-1.0) ** p
    return lambda x: sign * amp * math.sin(freq * x)


class TestBoundaryGram:
    def test_full_bottom_distinct_p_diagonal(self):
        modes = lattice_circle(50)
        gram = boundary_gram(modes, GammaSpec.full_sides(Side.BOTTOM))
        expected = np.diag(2.0 * modes[:, 1] ** 2 / (math.pi * 50.0))
        np.testing.assert_allclose(gram, expected, atol=1e-14)

    def test_shared_p_modes_couple(self):
        modes = np.array([[1, 1], [1, 2]])
        gram = boundary_gram(modes, GammaSpec.full_sides(Side.BOTTOM))
        expected = (2.0 / math.pi) * 2.0 / math.sqrt(10.0)
        assert gram[0, 1].real == pytest.approx(expected, rel=1e-14)

    def test_empty_mode_list(self):
        assert boundary_gram(lattice_circle(3), bottom_and_left()).shape == (0, 0)

    def test_half_bottom_fundamental_entry(self):
        gamma = GammaSpec((BoundaryPatch(Side.BOTTOM, 0.0, math.pi / 2.0),))
        gram = boundary_gram(np.array([[1, 1]]), gamma)
        assert gram[0, 0].real == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_against_brute_quadrature(self):
        rng = np.random.default_rng(61)
        gamma = GammaSpec(
            (
                BoundaryPatch(Side.BOTTOM, 0.3, 2.0),
                BoundaryPatch(Side.LEFT, 0.0, 1.2),
                BoundaryPatch(Side.TOP, 1.0, math.pi),
                BoundaryPatch(Side.RIGHT, 0.4, 2.9),
            )
        )
        modes = square_modes(30)
        gram = boundary_gram(modes, gamma)
        for _ in range(20):
            j = int(rng.integers(0, len(modes)))
            k = int(rng.integers(0, len(modes)))
            oracle = 0.0
            for patch in gamma.patches:
                tj = trace_on_patch(modes[j], patch)
                tk = trace_on_patch(modes[k], patch)
                val, _ = quad(
                    lambda x: tj(x) * tk(x), patch.alpha, patch.beta,
                    epsabs=1e-13, limit=200,
                )
                oracle += val
            assert gram[j, k].real == pytest.approx(oracle, abs=1e-10)

    def test_hermitian_and_psd(self):
        gamma = GammaSpec(
            (
                BoundaryPatch(Side.BOTTOM, 0.2, 1.7),
                BoundaryPatch(Side.RIGHT, 0.0, 2.0),
            )
        )
        gram = boundary_gram(square_modes(40), gamma)
        np.testing.assert_allclose(gram, gram.conj().T, atol=1e-14)
        assert float(np.linalg.eigvalsh(gram).min()) >= -1e-12

    def test_bottom_left_swap_symmetry(self):
        alpha, beta = 0.4, 2.1
        modes = square_modes(40)
        swapped = as_pairs(modes[:, ::-1])
        perm = [swapped.index(m) for m in as_pairs(modes)]
        g_bottom = boundary_gram(
            modes, GammaSpec((BoundaryPatch(Side.BOTTOM, alpha, beta),))
        )
        g_left = boundary_gram(
            modes, GammaSpec((BoundaryPatch(Side.LEFT, alpha, beta),))
        )
        np.testing.assert_allclose(
            g_left[np.ix_(perm, perm)], g_bottom, atol=1e-14
        )

    def test_two_full_sides_cluster_blocks_are_constant_diagonal(self):
        modes = square_modes(80)
        gram = boundary_gram(modes, bottom_and_left())
        np.testing.assert_allclose(
            np.diag(gram).real, TWO_OVER_PI, atol=1e-14
        )
        eigs = eigenvalues_of(modes)
        same_circle = eigs[:, None] == eigs[None, :]
        block = np.where(same_circle, gram, 0.0)
        np.testing.assert_allclose(
            block, TWO_OVER_PI * np.eye(len(modes)), atol=1e-12
        )


# Patch bounds: multiples of π/12 (where sines of integer multiples hit their
# exact zeros and extrema) or arbitrary points of [0, π].
BOUND = st.one_of(
    st.integers(0, 12).map(lambda k: k * math.pi / 12.0),
    st.floats(0.0, math.pi),
)


def draw_patches(draw, side, count):
    """``count`` disjoint patches on one side."""
    bounds = sorted(draw(st.lists(BOUND, min_size=2 * count, max_size=2 * count, unique=True)))
    return [BoundaryPatch(side, a, b) for a, b in zip(bounds[::2], bounds[1::2])]


@st.composite
def gammas(draw):
    """1–4 patches on mixed sides, pairwise disjoint within each side."""
    sides = draw(st.lists(st.sampled_from(list(Side)), min_size=1, max_size=4))
    patches = []
    for side in set(sides):
        patches += draw_patches(draw, side, sides.count(side))
    return GammaSpec(tuple(patches))


@st.composite
def one_side_gammas(draw):
    """1–3 disjoint patches, all on one side."""
    side = draw(st.sampled_from(list(Side)))
    return GammaSpec(tuple(draw_patches(draw, side, draw(st.integers(1, 3)))))


def full_side_examples(*n_maxes):
    """Hypothesis ``example`` cases (gamma, n_max): each full side at each of ``n_maxes``."""

    def decorate(test):
        for side in Side:
            for n_max in n_maxes:
                test = example(gamma=GammaSpec.full_sides(side), n_max=n_max)(test)
        return test

    return decorate


def dense_gram_oracle(modes, gamma):
    """G from the scalar sine-product integral, entry by entry (each distinct
    frequency pair is integrated once)."""
    gram = np.zeros((len(modes), len(modes)))
    for patch in gamma.patches:
        integral = functools.cache(sine_product_integral)
        traces = []
        for p, q in modes.tolist():
            n = float(p * p + q * q)
            if patch.side in (Side.BOTTOM, Side.TOP):
                freq, amp, parity = p, (2.0 / math.pi) * q / math.sqrt(n), q
            else:
                freq, amp, parity = q, (2.0 / math.pi) * p / math.sqrt(n), p
            flip = patch.side in (Side.TOP, Side.RIGHT) and parity % 2 == 1
            traces.append((freq, -amp if flip else amp))
        for j, (fj, aj) in enumerate(traces):
            for k, (fk, ak) in enumerate(traces):
                gram[j, k] += aj * ak * integral(fj, fk, patch.alpha, patch.beta)
    return gram


class TestGramFactor:
    @settings(max_examples=100)
    @given(gamma=gammas(), n_max=st.integers(2, 120))
    # A patch this short has a subnormal sine-product matrix.
    @example(
        gamma=GammaSpec(
            (
                BoundaryPatch(Side.BOTTOM, 0.0, 2.464320837304728e-106),
                BoundaryPatch(Side.BOTTOM, math.pi / 12.0, 1.0),
            )
        ),
        n_max=17,
    )
    def test_matches_scalar_oracle(self, gamma, n_max):
        modes = square_modes(n_max)
        factor, error = gram_factor(modes, gamma)
        distinct = sum(len(set(modes[:, 0 if p.side in (Side.BOTTOM, Side.TOP) else 1].tolist()))
                       for p in gamma.patches)
        assert factor.shape == (len(modes), distinct)
        assert factor.dtype == float and 0.0 <= error
        oracle = dense_gram_oracle(modes, gamma)
        scale = np.abs(oracle).max()
        assert np.abs(factor @ factor.T - oracle).max() <= 1e-13 * scale
        assert error <= 1e-13 * len(modes) * scale

    @pytest.mark.parametrize(
        "modes",
        [np.ones((3, 3), dtype=int), np.ones((3, 2)), np.array([[1, 1], [0, 2]])],
        ids=["wrong-shape", "float", "zero-index"],
    )
    def test_rejects_bad_mode_arrays(self, modes):
        with pytest.raises(DomainError, match="integer array"):
            gram_factor(modes, GammaSpec.full_sides(Side.BOTTOM))

    def test_indefinite_sine_matrix_is_rejected(self, monkeypatch):
        import obskit.square as square

        monkeypatch.setattr(square, "_sine_product_matrix", lambda f, a, b: np.diag(np.linspace(-1.0, 1.0, f.size)))
        with pytest.raises(DomainError, match="not positive semidefinite"):
            gram_factor(square_modes(10), GammaSpec.full_sides(Side.BOTTOM))

    def test_two_sides_at_n_max_2000_run_no_n_by_n_eigensolve(self, monkeypatch):
        orders = []

        def recording(solver):
            def wrapped(a, *args, **kwargs):
                orders.append(np.shape(a)[-1])  # a stacked solve's order, not its stack count
                return solver(a, *args, **kwargs)

            return wrapped

        for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (scipy.linalg, "eigh")):
            monkeypatch.setattr(owner, name, recording(getattr(owner, name)))
        sys_ = build_square_system(2000, bottom_and_left())
        scan = coercivity_scan(sys_, 0.5)
        assert sys_.size == 1529 and scan.centers.size == 591
        assert assumption_I_check(sys_).centers.size == 591
        bottom = build_square_system(2000, GammaSpec.full_sides(Side.BOTTOM))
        assert delta_gamma_fit(bottom)[1].centers.size == 591
        assert "gram" not in vars(sys_) and "gram" not in vars(bottom)
        assert orders and max(orders) == math.isqrt(2000 - 1)

    def test_weighted_solves_are_seen_through_numpy_linalg(self, monkeypatch):
        # The eigensolve counters patch numpy.linalg's attributes; a solver
        # bound by ``from numpy.linalg import eigvalsh`` would escape them.
        # Each call solves a (k, s, s) stack: k circles of s modes.
        orders = Counter()
        solver = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            orders[np.shape(a)[-1]] += int(np.prod(np.shape(a)[:-2]))
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        _, scan, _ = delta_gamma_fit(build_square_system(200, GammaSpec.full_sides(Side.BOTTOM)))
        assert orders == Counter(scan.sizes.tolist()) and max(orders) > 1
        orders.clear()
        assumption_I_check(build_square_system(200, bottom_and_left()))
        assert not orders


class TestBuildSquareSystem:
    def test_smallest_system(self):
        sys_ = build_square_system(2, GammaSpec.full_sides(Side.BOTTOM))
        assert sys_.size == 1
        assert sys_.eigenvalues[0] == 2.0
        assert "bottom" in sys_.label

    def test_rejects_non_gamma(self):
        with pytest.raises(DomainError):
            build_square_system(10, "bottom")

    def test_records_its_modes_and_gamma(self):
        gamma = GammaSpec((BoundaryPatch(Side.TOP, 0.5, 2.0),))
        sys_ = build_square_system(50, gamma)
        assert np.array_equal(sys_.modes, square_modes(50)) and not sys_.modes.flags.writeable
        assert sys_.gamma is gamma


class TestDecayFit:
    def test_full_bottom_closed_form_rows(self):
        delta_hat, scan, _ = delta_gamma_fit(build_square_system(200, GammaSpec.full_sides(Side.BOTTOM)))
        assert delta_hat == pytest.approx(TWO_OVER_PI, abs=1e-10)
        for center, min_eig in zip(scan.centers.tolist(), scan.min_eig.tolist()):
            assert center * min_eig == pytest.approx(bottom_side_closed_form_n_mu(int(center)), abs=1e-10)
        assert scan.centers.tolist() == sorted(scan.centers.tolist())

    def test_closed_form_values(self):
        assert bottom_side_closed_form_n_mu(50) == pytest.approx(TWO_OVER_PI)
        assert bottom_side_closed_form_n_mu(25) == pytest.approx(18.0 / math.pi)
        with pytest.raises(DomainError):
            bottom_side_closed_form_n_mu(3)

    def test_requires_single_side(self):
        with pytest.raises(DomainError, match="single side"):
            delta_gamma_fit(build_square_system(100, bottom_and_left()))

    def test_rejects_small_bound(self):
        with pytest.raises(DomainError):
            delta_gamma_fit(build_square_system(1, GammaSpec.full_sides(Side.BOTTOM)))

    @pytest.mark.parametrize(
        "eigenvalues",
        [
            [2.0, 5.0], [2.0, 5.0, 5.0, 8.5], [2.0, 5.0, 5.0, 7.0], [1.0, 1.5], [2.0, 5.0, 5.0, 1e300],
            [2.0, 5.0, 5.0],
        ],
    )
    def test_rejects_a_system_that_is_not_the_square_lattice(self, eigenvalues):
        # [2, 5] lacks one of square_modes(5)'s two modes at 5; [2, 5, 5, 8.5]
        # has the size of square_modes(8) but not its value 8; the next three
        # have the wrong size, lie below the lattice, or name one far past
        # their size.  [2, 5, 5] is square_modes(5)'s spectrum, but a system
        # not built by build_square_system records no modes and no Γ.
        system = SpectralSystem(eigenvalues=eigenvalues, factor=np.eye(len(eigenvalues)))
        with pytest.raises(DomainError, match="^the system is not build_square_system"):
            delta_gamma_fit(system)

    def test_weights_follow_the_side_the_system_was_built_on(self):
        # On the left side the trace amplitude index is p; weighting by the
        # bottom side's q instead read min_generalized 0.01299 here.
        _, _, generalized = delta_gamma_fit(build_square_system(50, GammaSpec((BoundaryPatch(Side.LEFT),))))
        assert generalized.min() == pytest.approx(TWO_OVER_PI, rel=1e-12)

    def test_left_and_right_sides_match_bottom_and_top(self):
        bundles = {}
        for side in Side:
            doc = {
                "scenario": "assumption-ii-iii",
                "system": {"type": "square", "n_max_eigenvalue": 200, "gamma": [{"side": side.value}]},
            }
            bundles[side] = run_scenario(load_config(json.dumps(doc)))
        for side, mirror in ((Side.LEFT, Side.BOTTOM), (Side.RIGHT, Side.TOP)):
            got, want = bundles[side], bundles[mirror]
            assert [v.name for v in got.verdicts] == ["decay-constant-positive", "q-weighted-restatement"]
            assert all(v.passed for v in got.verdicts + want.verdicts)
            for name in ("delta_hat", "min_generalized"):
                assert got.constants[name] == pytest.approx(want.constants[name], rel=1e-14)
            np.testing.assert_allclose(got.tables[0].rows, want.tables[0].rows, rtol=1e-13)

    def test_patch_weighted_restatement_bounds_scanned_constant(self):
        # For a strict sub-patch of one side the per-cluster minimum of the
        # q²-weighted generalized problem is claimed to bound the scanned
        # decay constant from above cluster by cluster; the weighted minima
        # measured here drop far below the scanned constant instead.
        gamma = GammaSpec((BoundaryPatch(Side.BOTTOM, math.pi / 4.0, math.pi / 2.0),))
        delta_hat, _, generalized = delta_gamma_fit(build_square_system(500, gamma))
        assert delta_hat > 0.0
        assert generalized.min() >= delta_hat - 1e-12


class TestOneCircleScan:
    @settings(max_examples=50)
    @given(gamma=one_side_gammas(), n_max=st.integers(2, 120))
    def test_delta_gamma_rows_are_lattice_circles(self, gamma, n_max):
        modes = square_modes(n_max)
        _, scan, _ = delta_gamma_fit(build_square_system(n_max, gamma))
        assert scan.centers.tolist() == sorted(set(eigenvalues_of(modes).tolist()))
        oracle = dense_gram_oracle(modes, gamma)
        scale = np.abs(oracle).max()
        columns = (scan.centers, scan.lo, scan.hi, scan.min_eig)
        for center, a, b, min_eig in zip(*(col.tolist() for col in columns)):
            assert b - a == len(lattice_circle(int(center)))
            block = oracle[a:b, a:b]
            assert abs(min_eig - np.linalg.eigvalsh(block)[0]) <= 1e-13 * scale

    @settings(max_examples=30)
    @given(gamma=one_side_gammas(), n_max=st.integers(2, 120))
    def test_generalized_minima_match_the_weighted_eigensolve(self, gamma, n_max):
        system = build_square_system(n_max, gamma)
        _, scan, generalized = delta_gamma_fit(system)
        by_row = gamma.patches[0].side in (Side.BOTTOM, Side.TOP)
        k_all = square_modes(n_max)[:, 1 if by_row else 0]
        columns = (scan.centers, scan.lo, scan.hi, generalized)
        for center, a, b, gen in zip(*(col.tolist() for col in columns)):
            block, k = system.gram_block(np.arange(a, b)), k_all[a:b]
            weights = np.diag(k * k / center)
            oracle = scipy.linalg.eigh(block, weights, eigvals_only=True, subset_by_index=(0, 0))[0]
            scale = np.abs(block).max() * center / float(k.min()) ** 2
            assert abs(gen - oracle) <= 1e-13 * scale


    @settings(max_examples=40)
    @given(gamma=one_side_gammas(), n_max=st.integers(2, 700))
    @full_side_examples(2, 120, 700)
    def test_stacked_generalized_minima_equal_the_per_circle_loop(self, gamma, n_max):
        # The scan it returns is coercivity_scan's at CIRCLE_WIDTH, bit for bit.
        system = build_square_system(n_max, gamma)
        _, scan, generalized = delta_gamma_fit(system)
        oracle = coercivity_scan_by_cluster(system, CIRCLE_WIDTH)
        by_row = gamma.patches[0].side in (Side.BOTTOM, Side.TOP)
        k_all = square_modes(n_max)[:, 1 if by_row else 0]
        assert generalized.tolist() == generalized_minima_by_cluster(system, oracle, k_all)
        assert_same_scan(scan, oracle)
        assert_same_scan(scan, coercivity_scan(system, CIRCLE_WIDTH))


class TestTwoSidesScan:
    @pytest.mark.parametrize("n_max", [2, 20, 200, 700])
    def test_every_cluster_minimum_is_constant(self, n_max):
        # The scan it returns is coercivity_scan's at CIRCLE_WIDTH, bit for bit.
        system = build_square_system(n_max, bottom_and_left())
        scan = assumption_I_check(system)
        assert_same_scan(scan, coercivity_scan(system, CIRCLE_WIDTH))
        assert np.abs(scan.min_eig - TWO_OVER_PI).max() <= 1e-10
        assert scan.min_eig.min() == pytest.approx(TWO_OVER_PI, abs=1e-10)

    def test_single_mode_circle_arithmetic(self):
        scan = assumption_I_check(build_square_system(2, bottom_and_left()))
        assert scan.centers.size == 1
        center, size, min_eig = scan.centers[0], scan.sizes[0], scan.min_eig[0]
        assert center == 2
        assert size == 1
        assert min_eig == pytest.approx(TWO_OVER_PI, abs=1e-14)
        assert center * min_eig == pytest.approx(2.0 * TWO_OVER_PI, abs=1e-13)

    def test_rejects_a_system_not_built_on_the_bottom_and_left_sides(self):
        reversed_sides = GammaSpec((BoundaryPatch(Side.LEFT), BoundaryPatch(Side.BOTTOM)))
        assert np.abs(assumption_I_check(build_square_system(20, reversed_sides)).min_eig - TWO_OVER_PI).max() <= 1e-10
        half_left = GammaSpec((BoundaryPatch(Side.BOTTOM), BoundaryPatch(Side.LEFT, 0.0, 1.0)))
        for gamma in (GammaSpec.full_sides(Side.BOTTOM), half_left):
            with pytest.raises(DomainError, match="full bottom and left sides"):
                assumption_I_check(build_square_system(20, gamma))
        with pytest.raises(DomainError, match="^the system is not build_square_system"):
            assumption_I_check(SpectralSystem(eigenvalues=[2.0, 5.0, 5.0], factor=np.eye(3)))

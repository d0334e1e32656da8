"""Generated-input properties of the frequency functional and its relatives,
of the observability kernel, and of config digests and report bytes.

Systems have up to 6 distinct eigenvalues in [1e-3, 1e4], each repeated up
to 3 times.  States mix exact zeros with entries spread over up to 300
decades, at an overall scale anywhere in 1e-290 … 1e290; some of them sit
on a single eigenvalue group, where rounding meets the spectral hull.
Kernel systems add ties, gaps |Δ| below 1e-12, gaps with |Δ|·T below 1e-4
and below 1e-2, and random low-rank Grams, given complex or held as a real
factor, at horizons over six decades;
the closed-form observability integral is compared with time quadrature on
small ones (eigenvalues up to 20, horizons 0.1 … 10).  On the same systems
the observability integral, the admissibility margin, the weak
observability check and the resolvent check are exactly homogeneous of
degree 2 under z → 2^k·z, k in [−500, 500], and G∘S_T equals its
(conjugate) transpose bit for bit, as do the per-row kernels, also on
integer spectra.  The pruned admissibility sup equals, bit for bit, the
loop that solves every grid point, and no point's computed top eigenvalue
exceeds the ceiling its pruning reads, at widths 1e-4 … 10 times the
spectrum's scale on breakpoint grids with extra points, first covering
point named alike: on those systems, on the square full sides, the
sub-patch and two sides, and on spectra scaled by 2^±505 with real and
complex factors of rank 1 to n, or factors whose FᴴF has repeated
eigenvalues, scaled from 2⁻¹⁰⁷⁰ to 2⁵⁰⁰.  The composite width
TransformedWidth(PowerLaw(c, p), M, ε₀) of the weak-to-spectral transform
stays in the admissible class for c in [1e-12, 1e3], p in {0, 1, 2},
M in [1e-6, 1e6] and ε₀ in [1e-6, 10].  The batched observation-time
solver returns, on λ₀ arrays with zeros and repeats over 1e-6 … 1e6, for
constant, power-law (any p in [0, 4]) and composite widths, each element's
own solve bit for bit, a root within 1e-12 of the scalar bisection it
replaced and one at which T·ε(θ₀(1/T+λ₀)) − θ₁ changes sign within 16 ulps,
and solving any
split of a λ₀ array gives the whole array's times bit for bit, for
constant and power-law (p ∈ {0, 1, 2}) widths and the composite width over
each.  Every per-state
function given a (k, n) block returns, row by row, exactly what it returns
for that row alone, on rows at scales 2^−996 … 2^1023 (past 2^512 their
degree-2 forms read ±inf), at one horizon or one per row; a zero row in the
block raises the single-row error, and a nan or ±inf entry, in either part,
raises the finite-coefficients error in every per-state function.  The
stacked cluster scan equals, bit for bit and index run for index run, one
mask and one ``eigh`` per cluster, on spectra at scales 1e-3 … 1e10 with
repeats and one-ulp neighbours, widths from 1e-9 to past the spectrum or on
a computed gap, and real, complex and given complex Grams.  The
long-double row sum equals ``math.fsum``, bit for bit and overflow for
overflow, on rows of 1 to 300 non-negative terms mixing zeros, subnormals,
powers of two, values near DBL_MAX and values over the whole float range,
also with the unit round-off of a long double that is plain double, and of
one that is no IEEE format (every row then takes ``math.fsum``).  A
block's quadratic forms u*Mu and squared norms, each taken by one stacked
matmul, equal the per-row loop bit for bit (``vdot`` for a complex matrix,
the (2, n) product of the row's parts for a real one), for n up to 200 and
up to 300 rows, with one shared or one per-row matrix, on
power-of-two-framed rows whose entries span 2^±40; the rows of a block
phased by diag(e^{i(λ_k−λ_1)t/2}) equal each row's own phasing bit for bit
on such rows, at one horizon or one per row.  The eigenvalues of the real
kernel G∘S_T stay within a stated Weyl bound of those of the complex
G∘K(T), on real-factor and complex given-Gram systems and on the 183-mode
sub-patch.  On integer spectra of up to 12 modes with repeats, spans up to
the guard L + 1 ≤ n² and eigenvalues up to 2⁵³ − 1, the gap table is 0…L
and its arithmetic index |off_j − off_k| finds every gap magnitude; on the
kernel systems' spectra it holds the pairwise magnitudes; and on both the
kernel at one horizon and at several equals the unique-and-inverse oracle
bit for bit.
The observed energy of rows with their own horizons, over four decades
around T or around 1/δ (δ the least nonzero gap), on kernel systems and
integer spectra, is the per-row kernel's bit for bit where t·δ < 1 and
within the closed form's stated bound 8u(n + 16 + L/δ)·t·Σ|G||z||z| where
t·δ ≥ 1; blocks whose horizons straddle 1/δ, so that their rows take both
paths, give each row's single-state values.
Custom system documents with Hermitian PSD Grams of up to 6 modes, written
as ints, floats, -0.0, bare numbers or ``[re, im]`` pairs, normalize to
their pairs as floats, build exactly that Gram and digest as those pairs;
an off-diagonal entry moved by 2·``HERMITIAN_ATOL`` is an invariant error
naming it, and one moved by half that tolerance loads.
"""

import functools
import hashlib
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from obskit import (
    CoercivityCertificate,
    ConfigError,
    DomainError,
    NumericError,
    PowerLaw,
    ShapeError,
    SpectralSystem,
    TransformedWidth,
    admissibility_breakpoints,
    admissibility_check,
    coercivity_scan,
    estimate_admissibility,
    frequency,
    frequency_report,
    kernel_psd_margin,
    load_config,
    observability_integral,
    observability_kernel,
    plancherel_lowerbound_check,
    resolvent_check,
    solve_observation_time,
    system_of,
    weak_observability_check,
    windowed_frequency,
)
from obskit import coercivity, spectral
from obskit.cli import main
from obskit.evolution import _energy, _gap_table, _phased
from obskit.spectral import HERMITIAN_ATOL, _moments, _power_of_two_frame, _row_forms, _row_fsum, observed_energy_sq
from obskit.square import BoundaryPatch, GammaSpec, Side, build_square_system
from obskit.window import THETA0, THETA1

from oracles import (
    admissibility_by_every_point,
    admissibility_tops,
    assert_same_scan,
    coercivity_scan_by_cluster,
    energy_by_row_kernel,
    key_identity_gap,
    observability_integral_by_quadrature,
    phase_kernel_by_unique_inverse,
    real_row_forms_by_row,
    row_forms_by_row,
    row_norms_sq_by_row,
    scalar_observation_time,
    sinc_kernel_by_unique_inverse,
)

U = np.finfo(float).eps


@st.composite
def systems(draw):
    values = draw(st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=6))
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(values), max_size=len(values)))
    lam = np.sort(np.repeat(values, repeats))
    return SpectralSystem(eigenvalues=lam, gram=np.eye(lam.size))


@st.composite
def states(draw, eigenvalues):
    size = eigenvalues.size
    scale = draw(st.integers(-290, 290))
    decades = draw(st.lists(st.one_of(st.none(), st.integers(-300, 0)), min_size=size, max_size=size))
    decades[draw(st.integers(0, size - 1))] = 0  # never the zero state
    if draw(st.booleans()):  # supported on one eigenvalue group only
        group = eigenvalues == eigenvalues[decades.index(0)]
        decades = [d if g else None for d, g in zip(decades, group)]
    z = np.zeros(size, dtype=complex)
    for k, d in enumerate(decades):
        if d is not None:
            r = draw(st.floats(0.5, 1.0))
            phase = draw(st.floats(0.0, 2.0 * math.pi))
            z[k] = r * 10.0 ** (scale + d) * complex(math.cos(phase), math.sin(phase))
    return z


@st.composite
def systems_and_states(draw):
    sys_ = draw(systems())
    return sys_, draw(states(sys_.eigenvalues))


@given(systems_and_states(), st.data())
def test_key_identity_gap_at_roundoff(pair, data):
    sys_, z = pair
    lam_z = frequency(z, sys_)
    lam = data.draw(
        st.one_of(
            st.floats(-1e4, 2e4),
            st.sampled_from(sys_.eigenvalues.tolist()),
            st.floats(-1e-6, 1e-6).map(lambda t: lam_z * (1.0 + t)),
        )
    )
    assert key_identity_gap(z, lam, sys_) <= 8 * U


@given(systems_and_states())
def test_frequency_in_spectral_hull(pair):
    sys_, z = pair
    assert sys_.lambda_min <= frequency(z, sys_) <= sys_.lambda_max


def moment_gap(z, sys_) -> float:
    """The oracle ‖Az‖²/‖z‖² − λ(z)², in the scale of max|z_k| = 1."""
    w = np.abs(z / np.abs(z).max()) ** 2
    total = math.fsum(w)
    mean = math.fsum(sys_.eigenvalues * w) / total
    return math.fsum(sys_.eigenvalues**2 * w) / total - mean * mean


@given(systems_and_states())
def test_residual_nonnegative_and_matches_moment_form(pair):
    sys_, z = pair
    value = frequency_report(z, sys_).residual
    assert value >= 0.0
    assert abs(value - moment_gap(z, sys_)) <= 8 * U * sys_.lambda_max**2


@given(systems_and_states(), st.floats(0.01, 100.0), st.floats(-100.0, 1.01e4))
def test_windowed_frequency_in_spectral_hull(pair, T, tau):
    sys_, z = pair
    assert sys_.lambda_min <= windowed_frequency(z, sys_, T, tau) <= sys_.lambda_max


@st.composite
def kernel_systems(draw, top=1e4, decades=3.0):
    """(system, T): clusters of exact ties, of gaps below 1e-12 and of gaps
    with |Δ|·T just inside and just above 1e-4, with a random PSD Gram given
    as a complex matrix or held as a real factor (so the kernel and the forms
    take their complex or their real path); eigenvalues up to about ``top``,
    T within ``decades`` decades of 1."""
    T = 10.0 ** draw(st.floats(-decades, decades))
    lam = []
    for value in draw(st.lists(st.floats(1e-3, top), min_size=1, max_size=5)):
        lam.append(value)
        for gap in draw(st.lists(st.sampled_from(("tie", "tiny", "small", "moderate")), max_size=3)):
            scale = {"tie": 0.0, "tiny": 1.0e-12, "small": 1.0e-4 / T,
                     "moderate": 100.0 * 1.0e-4 / T}[gap]
            lam.append(lam[-1] + scale * draw(st.floats(0.01, 0.99)))
    lam = np.sort(lam)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, lam.size))
    if draw(st.booleans()):
        return SpectralSystem(eigenvalues=lam, factor=rng.standard_normal((lam.size, rank))), T
    factor = rng.standard_normal((lam.size, rank)) + 1j * rng.standard_normal((lam.size, rank))
    gram = factor @ factor.conj().T
    return SpectralSystem(eigenvalues=lam, gram=(gram + gram.conj().T) / 2.0), T


@st.composite
def integer_spectra(draw):
    """(system, T): n ≤ 12 sorted integer eigenvalues, from 1 or from as high
    as 2⁵³ − 1 − L, with repeats (zero gaps off the diagonal) and a span L
    anywhere up to the guard L + 1 ≤ n², each end drawn; a random real
    factor or a complex given Gram; T over six decades."""
    n = draw(st.integers(1, 12))
    span = draw(st.integers(0, n * n - 1))
    base = draw(st.one_of(st.integers(1, 100), st.integers(1, 2**53 - 1 - span)))
    inner = draw(st.lists(st.integers(0, span), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    offsets = [0, *inner, span] if n > 1 else [0]
    lam = np.sort(np.array(offsets, dtype=float) + base)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        return SpectralSystem(eigenvalues=lam, factor=rng.standard_normal((n, 2))), T
    factor = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return SpectralSystem(eigenvalues=lam, gram=factor @ factor.conj().T), T


@settings(max_examples=200)
@given(kernel_systems())
def test_observability_kernel_positive_semidefinite(pair):
    sys_, T = pair
    low, high = kernel_psd_margin(observability_kernel(sys_, T))
    assert high > 0.0
    assert low >= -1e-10 * high


@settings(max_examples=100)
@given(kernel_systems(top=20.0, decades=1.0), st.integers(0, 2**32 - 1))
def test_observability_integral_matches_time_quadrature(pair, seed):
    sys_, T = pair
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(sys_.size) + 1j * rng.standard_normal(sys_.size)
    closed = observability_integral(z, sys_, T)
    quadrature = observability_integral_by_quadrature(z, sys_, T)
    scale = T * float(np.vdot(z, z).real) * np.linalg.eigvalsh(sys_.gram)[-1]
    assert abs(closed - quadrature) <= 1e-10 * (scale + 1.0)  # the quadrature's own tolerances


@functools.cache
def square_sup_system(i: int) -> SpectralSystem:
    """The full bottom side at n_max 50 and 100, the full left side at 60, the
    π/4–π/2 bottom sub-patch at 120, and the bottom and left sides at 40."""
    gamma, n_max = [
        (GammaSpec.full_sides(Side.BOTTOM), 50),
        (GammaSpec.full_sides(Side.BOTTOM), 100),
        (GammaSpec.full_sides(Side.LEFT), 60),
        (GammaSpec((BoundaryPatch(Side.BOTTOM, math.pi / 4.0, math.pi / 2.0),)), 120),
        (GammaSpec.full_sides(Side.BOTTOM, Side.LEFT), 40),
    ][i]
    return build_square_system(n_max, gamma)


@st.composite
def sup_systems(draw):
    """(system, scale): a ``kernel_systems`` system or a square one at scale 1,
    or a ``kernel_systems`` spectrum scaled by 2^e, e in [−505, 505], with a
    real or complex factor of rank 1 to n, or one with orthonormal columns
    scaled by one or two norms, so that FᴴF has one or two repeated
    eigenvalues (as on a full square side).  The factor's scale, from 2⁻¹⁰⁷⁰
    to 2⁵⁰⁰, reaches values that underflow and values near the float range."""
    kind = draw(st.sampled_from(("kernel", "square", "real", "complex", "degenerate")))
    if kind == "kernel":
        return draw(kernel_systems())[0], 1.0
    if kind == "square":
        return square_sup_system(draw(st.integers(0, 4))), 1.0
    e = draw(st.integers(-505, 505))
    scale = 2.0**e
    lam = draw(kernel_systems())[0].eigenvalues * scale
    n = lam.size
    rank = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = rng.standard_normal((n, rank))
    if kind == "complex":
        factor = factor + 1j * rng.standard_normal((n, rank))
    if kind == "degenerate":
        norms = rng.choice([1.0, draw(st.floats(0.5, 2.0))], rank)
        factor = np.linalg.qr(factor)[0] * norms
    factor *= 2.0 ** draw(st.integers(max(e - 550, -1070), min(e + 480, 500)))
    return SpectralSystem(eigenvalues=lam, factor=factor), scale


@settings(max_examples=300, deadline=None)
@given(
    sup_systems(),
    st.floats(-4.0, 1.0),
    st.lists(st.floats(-10.0, 2e4), max_size=6),
    st.lists(st.floats(-10.0, 2e4), max_size=6),
)
def test_pruned_admissibility_sup_equals_every_point_loop(pair, log_epsilon, before, after):
    # Extra points before and after the breakpoints: some sit inside a
    # cluster that covers every mode, and the first of those must be named.
    # Every point's computed top eigenvalue is at most its ceiling, the bound
    # the pruning rests on.
    sys_, scale = pair
    epsilon = 10.0**log_epsilon * scale
    lam = sys_.eigenvalues
    if not np.finfo(float).tiny <= epsilon**2 < math.inf or np.any((lam - epsilon == lam) | (lam + epsilon == lam)):
        with pytest.raises(DomainError, match="outside the float range"):
            estimate_admissibility(sys_, epsilon, admissibility_breakpoints(sys_, epsilon))
        return
    grid = np.concatenate([np.multiply(before, scale), admissibility_breakpoints(sys_, epsilon), np.multiply(after, scale)])
    try:
        expected = admissibility_by_every_point(sys_, epsilon, grid)
    except DomainError as exc:
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            estimate_admissibility(sys_, epsilon, grid)
        return
    assert estimate_admissibility(sys_, epsilon, grid) == expected
    trace, rho, _, _ = coercivity._trace_pass(sys_, epsilon, grid, coercivity._principal_rows(sys_.factor))
    gamma, sigma = coercivity._margins(*sys_.factor.shape, epsilon)
    ceilings = coercivity._ceiling(trace, rho, gamma, sigma)
    for point, top, ceiling in zip(grid, admissibility_tops(sys_, epsilon, grid), ceilings):
        assert not top > ceiling, (point, top, ceiling)


@st.composite
def scan_systems(draw):
    """A spectrum at a scale in 1e-3 … 1e10 with repeats, one-ulp neighbours
    and gaps from 1e-9 to 1 relative; a real or complex factor, or the given
    complex Gram of one."""
    scale = 10.0 ** draw(st.integers(-3, 10))
    lam = []
    for value in draw(st.lists(st.floats(1.0, 10.0), min_size=1, max_size=6)):
        lam.append(value * scale)
        for step in draw(st.lists(st.sampled_from(("repeat", "ulp", "gap")), max_size=3)):
            if step == "repeat":
                lam.append(lam[-1])
            elif step == "ulp":
                lam.append(float(np.nextafter(lam[-1], math.inf)))
            else:
                lam.append(lam[-1] * (1.0 + 10.0 ** draw(st.floats(-9.0, 0.0))))
    lam = np.sort(lam)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, lam.size + 1))
    kind = draw(st.sampled_from(("real", "complex", "given")))
    factor = rng.standard_normal((lam.size, rank))
    if kind != "real":
        factor = factor + 1j * rng.standard_normal((lam.size, rank))
    if kind == "given":
        gram = factor @ factor.conj().T
        return SpectralSystem(eigenvalues=lam, gram=(gram + gram.conj().T) / 2.0)
    return SpectralSystem(eigenvalues=lam, factor=factor)


@st.composite
def scan_widths(draw, eigenvalues):
    """From 1e-9 to past the spectrum's span, or a computed gap between two
    eigenvalues (where the strict test is decided by rounding), or one ulp off it."""
    kind = draw(st.sampled_from(("log", "gap", "gap-ulp")))
    if kind == "log":
        return 10.0 ** draw(st.floats(-9.0, math.log10(2.0 * eigenvalues[-1])))
    a, b = draw(st.integers(0, eigenvalues.size - 1)), draw(st.integers(0, eigenvalues.size - 1))
    gap = abs(float(eigenvalues[a] - eigenvalues[b])) or float(eigenvalues[0])
    if kind == "gap":
        return gap
    return float(np.nextafter(gap, draw(st.sampled_from((0.0, math.inf)))))


@settings(max_examples=300)
@given(scan_systems(), st.data())
def test_stacked_cluster_scan_equals_the_per_cluster_loop(sys_, data):
    # Three single widths, then one width per distinct eigenvalue, as the violation search uses.
    centers = sys_.distinct_eigenvalues()
    widths = [data.draw(scan_widths(sys_.eigenvalues)) for _ in range(3)]
    widths.append(np.array([data.draw(scan_widths(sys_.eigenvalues)) for _ in centers.tolist()]))
    for epsilon in widths:
        assert_same_scan(coercivity_scan(sys_, epsilon), coercivity_scan_by_cluster(sys_, epsilon))


SPECTRAL_CERT = CoercivityCertificate(
    epsilon=TransformedWidth(psi=PowerLaw(0.1, 1.0), admissibility=2.0, base_width=0.25),
    psi=PowerLaw(0.025, 1.0),
)


def degree_two_values(z, sys_, T):
    """Every value the four checks return that is homogeneous of degree 2 in z,
    then those that do not depend on the scale of z."""
    weak = weak_observability_check(z, sys_, T, PowerLaw(0.1, 1.0), 1.0)
    res = resolvent_check(sys_, z, SPECTRAL_CERT)
    adm = admissibility_check(z, sys_, T, observability_kernel(sys_, T), 3.0)
    scaled = [
        observability_integral(z, sys_, T),
        adm.margin, adm.norm_sq,
        weak.integral, weak.lhs, weak.margin, weak.norm_sq,
        res.inf_margin, res.norm_sq, res.observed_sq,
    ]
    return scaled, [weak.lambda_z0, weak.applicable, res.lambda_z, res.residual_over_epsilon, res.verdict]


@settings(max_examples=100)
@given(kernel_systems(), st.integers(0, 2**32 - 1), st.floats(-5.0, 5.0), st.integers(-500, 500))
def test_checks_homogeneous_of_degree_two_under_powers_of_two(pair, seed, decade, k):
    sys_, T = pair
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(sys_.size) + 1j * rng.standard_normal(sys_.size)) * 10.0**decade
    base, base_fixed = degree_two_values(z, sys_, T)
    for power in (k, -500, 500):  # the ends reach past the float range for large z
        scaled, fixed = degree_two_values(z * 2.0**power, sys_, T)
        with np.errstate(over="ignore"):
            expected = [float(np.ldexp(v, 2 * power)) for v in base]
        assert not any(math.isnan(v) for v in base + scaled)
        assert scaled == expected
        assert fixed == base_fixed


def linear_in_gram_values(z, sys_, T):
    """Every value the checks return that is linear in G at a fixed state."""
    values = [observed_energy_sq(z, sys_), observability_integral(z, sys_, T)]
    values.append(weak_observability_check(z, sys_, T, PowerLaw(0.1, 1.0), 1.0).integral)
    return values + [resolvent_check(sys_, z, SPECTRAL_CERT).observed_sq]


@settings(max_examples=100)
@given(kernel_systems(), st.integers(0, 2**32 - 1), st.floats(-5.0, 5.0), st.integers(-200, 510))
def test_checks_linear_in_the_gram_under_powers_of_two(pair, seed, decade, h):
    # The factor times 2^h makes the Gram exactly G·2^(2h), at h and at the
    # largest h that keeps every G_kk below 2¹⁰²² (so FFᴴ + (FFᴴ)ᴴ is
    # finite).  Each value linear in G, and the admissibility margin with
    # C_T·2^(2h), moves by exactly 2^(2h), reading inf only past the float
    # range: never nan, never a warning.
    sys_, T = pair
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(sys_.size) + 1j * rng.standard_normal(sys_.size)) * 10.0**decade
    base = SpectralSystem(sys_.eigenvalues, factor=sys_.factor)
    kernel = observability_kernel(base, T)
    C_T = 3.0 * base.gram.diagonal().real.max()  # C_T·2^(2h) stays in range with G
    adm = admissibility_check(z, base, T, kernel, C_T)
    values = linear_in_gram_values(z, base, T) + [adm.margin]
    top = (1022 - math.frexp(float(base.gram.diagonal().real.max()))[1]) // 2
    for power in (min(h, top), top):
        scaled = SpectralSystem(sys_.eigenvalues, factor=sys_.factor * 2.0**power)
        with np.errstate(over="ignore"):
            expected = [float(np.ldexp(v, 2 * power)) for v in values]
            kernel_in_range = np.isfinite(np.ldexp(np.abs(kernel.view(float)).max(), 2 * power))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linear_in_gram_values(z, scaled, T)
            if kernel_in_range:
                scaled_kernel = observability_kernel(scaled, T)
                got.append(admissibility_check(z, scaled, T, scaled_kernel, np.ldexp(C_T, 2 * power)).margin)
            else:
                with pytest.raises(NumericError, match="G∘S_T passes the float range at T = "):
                    observability_kernel(scaled, T)
        assert not any(math.isnan(v) for v in got)
        assert got == expected[: len(got)]


@settings(max_examples=500, derandomize=True)
@given(
    st.floats(1e-12, 1e3),
    st.sampled_from((0.0, 1.0, 2.0)),
    st.floats(1e-6, 1e6),
    st.floats(1e-6, 10.0),
    st.lists(st.floats(0.0, 1e6), max_size=16),
)
def test_transformed_width_in_admissible_class(c, p, M, eps0, lam):
    width = TransformedWidth(psi=PowerLaw(c, p), admissibility=M, base_width=eps0)
    values = width(np.sort(np.array([0.0, 1e6] + lam)))
    assert np.all(values > 0)
    assert np.all(np.diff(values) <= 0)


LAMBDA0 = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-6.0, 6.0).map(lambda d: 10.0**d))


@st.composite
def observation_time_inputs(draw):
    """λ₀ values (0, repeats, 1e-6 … 1e6) and a width."""
    lam = draw(st.lists(LAMBDA0, min_size=1, max_size=8))
    lam += draw(st.lists(st.sampled_from(lam), max_size=4))
    power = PowerLaw(
        draw(st.floats(1e-6, 1e3)),
        draw(st.one_of(st.sampled_from((0.0, 1.0, 2.0)), st.floats(0.0, 4.0))),
    )
    eps = draw(st.sampled_from((
        PowerLaw(draw(st.floats(1e-6, 1e6)), 0.0),
        power,
        TransformedWidth(psi=power, admissibility=draw(st.floats(1e-6, 1e6)),
                         base_width=draw(st.floats(1e-6, 10.0))),
    )))
    return np.array(lam), eps


@settings(max_examples=200, derandomize=True)
@given(observation_time_inputs())
def test_batched_observation_time_is_the_newton_root(inputs):
    lam, eps = inputs
    got = solve_observation_time(lam, eps)
    each = np.array([solve_observation_time(np.array([l]), eps)[0] for l in lam])
    assert got.shape == lam.shape
    assert np.array_equal(got.view(np.uint64), each.view(np.uint64))
    single = solve_observation_time(float(lam[0]), eps)
    assert type(single) is float
    assert np.float64(single).view(np.uint64) == got[:1].view(np.uint64)[0]
    want = np.array([scalar_observation_time(float(l), eps) for l in lam])
    assert np.all(np.abs(got - want) <= 1e-12 * want)

    def g(T):
        return T * eps(THETA0 * (1.0 / T + lam)) - THETA1

    # g changes sign within 16 ulps of T.
    assert np.all(g(got * (1.0 - 16.0 * U)) <= 0.0)
    assert np.all(g(got * (1.0 + 16.0 * U)) >= 0.0)


@st.composite
def widths(draw):
    """A constant PowerLaw(c, 0), a PowerLaw with p ∈ {0, 1, 2}, or a TransformedWidth over either."""
    base = draw(st.one_of(
        st.floats(1e-6, 1e6).map(lambda c: PowerLaw(c, 0.0)),
        st.builds(PowerLaw, st.floats(1e-6, 1e3), st.sampled_from((0.0, 1.0, 2.0))),
    ))
    if not draw(st.booleans()):
        return base
    return TransformedWidth(psi=base, admissibility=draw(st.floats(1e-6, 1e6)),
                            base_width=draw(st.floats(1e-6, 10.0)))


@settings(max_examples=200, derandomize=True)
@given(st.lists(LAMBDA0, min_size=1, max_size=40), widths(), st.data())
def test_observation_times_of_any_split_equal_the_whole_array(lam, eps, data):
    # weak-observability solves each block of states on its own.
    lam = np.array(lam)
    cuts = sorted(data.draw(st.lists(st.integers(0, lam.size), max_size=5)))
    whole = solve_observation_time(lam, eps)
    parts = np.concatenate([solve_observation_time(part, eps) for part in np.split(lam, cuts)])
    assert np.array_equal(parts.view(np.uint64), whole.view(np.uint64))


def _angle(value):
    return st.sampled_from((value, f"{round(value / math.pi * 4)}pi/4"))


@st.composite
def config_documents(draw):
    """A valid config document for a cheap scenario, keys in canonical order."""
    scenario = draw(st.sampled_from(("coercivity-scan", "resolvent-scan", "admissibility")))
    if draw(st.booleans()):
        sides = draw(st.lists(st.sampled_from(("bottom", "left", "top", "right")),
                              min_size=1, max_size=2, unique=True))
        gamma = [{"side": side, "alpha": draw(_angle(0.0)), "beta": draw(_angle(math.pi))}
                 for side in sides]
        system = {"type": "square", "n_max_eigenvalue": draw(st.integers(5, 40)), "gamma": gamma}
    else:
        n = draw(st.integers(2, 4))
        eig = sorted(draw(st.lists(st.integers(1, 60), min_size=n, max_size=n, unique=True)))
        gram = [[[float(n), 0.0] if j == k else [0.25, 0.125 * (k - j)] for k in range(n)]
                for j in range(n)]
        system = {"type": "custom", "eigenvalues": eig, "gram": gram}
    doc = {"scenario": scenario, "system": system}
    for key, values in (("epsilon_cluster", st.sampled_from((0.25, 0.5))),
                        ("trials", st.integers(1, 3)),
                        ("seed", st.integers(0, 10**6)),
                        ("T", st.sampled_from((0.5, 2.0)))):
        # only admissibility of these scenarios has a time horizon
        if (key != "T" or scenario == "admissibility") and draw(st.booleans()):
            doc[key] = draw(values)
    return doc


def _reordered(obj, data):
    """``obj`` with the keys of every JSON object in a drawn order."""
    if isinstance(obj, dict):
        keys = data.draw(st.permutations(list(obj)))
        return {key: _reordered(obj[key], data) for key in keys}
    if isinstance(obj, list):
        return [_reordered(item, data) for item in obj]
    return obj


@settings(max_examples=25)
@given(config_documents(), st.data())
def test_digest_and_report_bytes_ignore_key_order_and_output_path(doc, data):
    with tempfile.TemporaryDirectory() as tmp:
        reports = []
        for name in ("a", "b"):
            variant = dict(doc, output_path=str(Path(tmp) / name / "report.json"))
            if name == "b":
                variant = _reordered(variant, data)
            text = json.dumps(variant)
            assert load_config(text).digest() == load_config(json.dumps(doc)).digest()
            assert main([doc["scenario"], "--config", text]) in (0, 2)
            reports.append(Path(variant["output_path"]).read_bytes())
    assert reports[0] == reports[1]


def _written(draw, x: float):
    """``x`` as a document writes it: a float, an int when integral, or -0.0 for a zero."""
    return draw(st.sampled_from([x] + [int(x)] * (x == int(x)) + [-0.0] * (x == 0.0)))


@st.composite
def custom_documents(draw):
    """A custom system document whose Gram G = BBᴴ/4, B an n×r Gaussian-integer
    matrix with n ≤ 6, is Hermitian PSD and exact in binary, with its ``[re, im]``
    pairs as floats.  Entries are written as ints, floats, -0.0, bare numbers or
    pairs."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, n))
    b = [[complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3))) for _ in range(r)] for _ in range(n)]
    assume(any(any(row) for row in b))
    eig = sorted(draw(st.lists(st.integers(4, 240), min_size=n, max_size=n)))
    eig = [_written(draw, v / 4) for v in eig]
    gram = [[None] * n for _ in range(n)]
    pairs = [[None] * n for _ in range(n)]

    def entry(re, im):
        if im == 0 and draw(st.booleans()):
            return re, [float(re), 0.0]
        return [re, im], [float(re), float(im)]

    for j in range(n):
        for k in range(j, n):
            g = sum(b[j][i] * b[k][i].conjugate() for i in range(r)) / 4
            re = _written(draw, g.real)
            im = 0.0 if j == k else _written(draw, g.imag)
            gram[j][k], pairs[j][k] = entry(re, im)
            if k > j:
                gram[k][j], pairs[k][j] = entry(re, -im)
    return {"type": "custom", "eigenvalues": eig, "gram": gram}, pairs


@settings(max_examples=200, derandomize=True)
@given(custom_documents(), st.data())
def test_custom_gram_is_parsed_into_its_pairs_and_checked_once(drawn, data):
    system, pairs = drawn
    doc = {"scenario": "resolvent-scan", "system": system}
    cfg = load_config(json.dumps(doc))
    assert json.dumps(cfg.system["gram"]) == json.dumps(pairs)
    assert cfg.system["eigenvalues"] == [float(v) for v in system["eigenvalues"]]
    expected = np.array([[complex(re, im) for re, im in row] for row in pairs])
    # Equal under ==, so up to the sign of a zero: SpectralSystem keeps 0.5·(G + Gᴴ),
    # which is G itself, but numpy scales by 0.5 as the complex 0.5 + 0j.
    assert np.array_equal(system_of(cfg).gram, expected)
    canonical = dict(doc, system={**system, "eigenvalues": cfg.system["eigenvalues"], "gram": pairs},
                     epsilon_cluster=0.5, trials=100, seed=7, T=None)
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    assert cfg.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()

    n = len(pairs)
    if n == 1:
        return
    j = data.draw(st.integers(0, n - 2))
    k = data.draw(st.integers(j + 1, n - 1))
    part = data.draw(st.integers(0, 1))
    for shift, loads in ((2.0 * HERMITIAN_ATOL, False), (0.5 * HERMITIAN_ATOL, True)):
        moved = [row[:] for row in system["gram"]]
        moved[j][k] = list(pairs[j][k])
        moved[j][k][part] += shift
        text = json.dumps({"scenario": "resolvent-scan", "system": dict(system, gram=moved)})
        if loads:
            assert load_config(text).system["gram"][j][k] == moved[j][k]
            continue
        with pytest.raises(ConfigError, match=re.escape(f"G[{j}][{k}]")) as info:
            load_config(text)
        assert info.value.kind == "invariant"


@st.composite
def state_blocks(draw, size):
    """A (k, size) block whose rows have largest real or imaginary part 2^e,
    e in [−996, 1023]: from just above the zero floor to past the range
    where ‖z‖² is finite."""
    k = draw(st.integers(1, 6))
    exponents = draw(st.lists(st.integers(-996, 1023), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((k, size)) + 1j * rng.standard_normal((k, size))
    rows /= np.abs(rows.view(float)).max(axis=1)[:, None]
    return rows * np.ldexp(1.0, np.array(exponents))[:, None]


def same(block_value, row_value) -> bool:
    """Equal, and of the same Python type (float or bool) once taken out of the block."""
    value = block_value.item()
    return type(value) is type(row_value) and value == row_value


def block_results(rows, sys_, T, t_min):
    """Every per-state function on ``rows``: name -> (block value, [value of row i alone])."""
    out = {}

    def record(name, fn, *per_row):
        """One entry per function, or per field of the report it returns."""
        block = fn(rows, *(a for a, _ in per_row))
        singles = [fn(rows[i], *(b(i) for _, b in per_row)) for i in range(len(rows))]
        if isinstance(block, np.ndarray):
            out[name] = (block, singles)
            return
        for field in vars(block):
            out[f"{name}.{field}"] = (getattr(block, field), [getattr(r, field) for r in singles])

    def fixed(value):
        return value, lambda i: value

    def each(values):
        return values, lambda i: float(values[i])

    psi = PowerLaw(0.1, 1.0)
    record("frequency", lambda z: frequency(z, sys_))
    record("observed_energy_sq", lambda z: observed_energy_sq(z, sys_))
    for name, horizon in (("shared", fixed(float(T[0]))), ("per-row", each(T))):
        record(f"observability_integral {name}", lambda z, t: observability_integral(z, sys_, t), horizon)
        record(
            f"admissibility_check {name}",
            lambda z, t: admissibility_check(z, sys_, t, observability_kernel(sys_, t), 3.0),
            horizon,
        )
    record("frequency_report", lambda z: frequency_report(z, sys_))
    record("resolvent_check", lambda z: resolvent_check(sys_, z, SPECTRAL_CERT))
    record(
        "weak_observability_check",
        lambda z, t, tm: weak_observability_check(z, sys_, t, psi, tm), each(T), each(t_min),
    )
    return out


def least_gap(sys_: SpectralSystem) -> float:
    """δ, the least nonzero gap |λ_j − λ_k| of the spectrum, or inf without one."""
    gaps = np.diff(sys_.eigenvalues)
    return float(gaps[gaps > 0.0].min(initial=np.inf))


@settings(max_examples=200)
@given(st.one_of(kernel_systems(), integer_spectra()), st.data())
def test_block_rows_equal_single_row_calls(pair, data):
    # Horizons within a factor 2 of the drawn T, or of 1/δ, where a block's
    # rows straddle t·δ = 1 and take the kernel and the closed form.
    sys_, T0 = pair
    rows = data.draw(state_blocks(sys_.size))
    k = len(rows)
    if math.isfinite(least_gap(sys_)) and data.draw(st.booleans()):
        T0 = 1.0 / least_gap(sys_)
    T = T0 * np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k)))
    t_min = np.array(data.draw(st.lists(st.floats(0.01, 100.0), min_size=k, max_size=k)))
    for name, (block, singles) in block_results(rows, sys_, T, t_min).items():
        assert isinstance(block, np.ndarray) and block.shape == (k,), name
        for i, single in enumerate(singles):
            assert same(block[i], single), (name, i, block[i], single)

    framed, back = _power_of_two_frame(rows)
    values = np.ldexp(0.75, np.arange(k))
    for i, row in enumerate(rows):
        framed_row, back_row = _power_of_two_frame(row)
        assert np.array_equal(framed[i], framed_row[0])
        assert back(values)[i] == back_row(values[i : i + 1])
        for part, part_row in zip(_moments(rows, sys_), _moments(row, sys_)):
            assert np.array_equal(part[i], part_row[0])

    stack = observability_kernel(sys_, T)
    assert stack.flags.c_contiguous and stack.shape == (k, sys_.size, sys_.size)
    for i in range(k):
        assert np.array_equal(stack[i], observability_kernel(sys_, float(T[i])))

    wrong = np.full(data.draw(st.integers(1, 7).filter(lambda m: m != k)), float(T[0]))
    for call in (
        lambda: observability_integral(rows, sys_, wrong),
        lambda: admissibility_check(rows, sys_, wrong, observability_kernel(sys_, wrong), 3.0),
        lambda: weak_observability_check(rows, sys_, T, PowerLaw(0.1, 1.0), wrong),
    ):
        with pytest.raises(ShapeError):
            call()


@settings(max_examples=200)
@given(st.one_of(kernel_systems(), integer_spectra()), st.data())
def test_closed_form_energy_is_the_per_row_kernel_within_its_bound(pair, data):
    # Horizons over four decades around the drawn T or around 1/δ: a row with
    # t·δ ≥ 1 takes the closed form, within the bound of ``_energy``'s
    # docstring, 8u(n + 16 + L/δ)·t·Σ|G_jk||z_j||z_k|; every other row the
    # kernel, bit for bit.
    sys_, T = pair
    lam, delta = sys_.eigenvalues, least_gap(sys_)
    c, _ = _power_of_two_frame(data.draw(state_blocks(sys_.size)))
    base = 1.0 / delta if math.isfinite(delta) and data.draw(st.booleans()) else T
    t = base * 10.0 ** np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(c), max_size=len(c))))
    energy = _energy(c, sys_, t)[0]
    expected = energy_by_row_kernel(c, sys_, t)
    closed = t * delta >= 1.0
    spread = (lam[-1] - lam[0]) / delta if math.isfinite(delta) else 0.0
    scale = t * np.einsum("kj,jl,kl->k", np.abs(c), np.abs(sys_.gram), np.abs(c))
    bound = 8 * (U / 2) * (sys_.size + 16 + spread) * scale
    assert np.all(np.abs(energy - expected)[closed] <= bound[closed]), (energy, expected, bound)
    assert np.array_equal(energy[~closed], expected[~closed])


@settings(max_examples=30)
@given(kernel_systems(), st.data())
def test_zero_row_in_a_block_raises_the_single_row_error(pair, data):
    sys_, T = pair
    rows = data.draw(state_blocks(sys_.size))
    rows = np.insert(rows, data.draw(st.integers(0, len(rows))), 0.0, axis=0)
    calls = (
        lambda z: frequency(z, sys_),
        lambda z: frequency_report(z, sys_),
        lambda z: weak_observability_check(z, sys_, T, PowerLaw(0.1, 1.0), 1.0),
        lambda z: resolvent_check(sys_, z, SPECTRAL_CERT),
    )
    for call in calls:
        with pytest.raises(DomainError) as single:
            call(np.zeros(sys_.size))
        with pytest.raises(DomainError, match=re.escape(str(single.value))):
            call(rows)


@settings(max_examples=30)
@given(kernel_systems(), st.data())
def test_non_finite_entry_raises_the_finite_coefficients_error(pair, data):
    sys_, T = pair
    rows = data.draw(state_blocks(sys_.size))
    i, k = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, sys_.size - 1))
    value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    rows[i, k] = data.draw(st.sampled_from([complex(value, 0.0), complex(0.0, value), complex(1.0, value)]))
    kernel = observability_kernel(sys_, T)
    block_calls = (
        lambda z: frequency(z, sys_),
        lambda z: frequency_report(z, sys_),
        lambda z: observed_energy_sq(z, sys_),
        lambda z: observability_integral(z, sys_, T),
        lambda z: admissibility_check(z, sys_, T, kernel, 3.0),
        lambda z: weak_observability_check(z, sys_, T, PowerLaw(0.1, 1.0), 1.0),
        lambda z: resolvent_check(sys_, z, SPECTRAL_CERT),
        lambda z: windowed_frequency(z, sys_, T, 1.0),
    )
    state_calls = (lambda z: plancherel_lowerbound_check(z, sys_, T, 1.0e300),)
    for call in block_calls + state_calls:
        with pytest.raises(DomainError, match="coefficients must be finite"):
            call(rows[i])
    for call in block_calls:
        with pytest.raises(DomainError, match="coefficients must be finite"):
            call(rows)


DBL_MAX = np.finfo(float).max


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 200),
    st.integers(1, 300),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_stacked_row_forms_equal_the_per_row_vdots(n, k, stacked, complex_matrix, seed):
    rng = np.random.default_rng(seed)
    if stacked:  # a stack as large as one chunk of kernels, at least one row
        k = min(k, max(1, 2**18 // (n * n)))
    parts = rng.standard_normal((2, k, n)) * np.ldexp(1.0, rng.integers(-40, 41, (2, k, n)))
    parts[rng.random((2, k, n)) < 0.1] = 0.0
    c, _ = _power_of_two_frame(parts[0] + 1j * parts[1])
    shape = (k, n, n) if stacked else (n, n)
    m = rng.standard_normal(shape)
    if complex_matrix:
        m = m + 1j * rng.standard_normal(shape)
    # The vdot loop for a complex M, the per-row (2, n) product for a real one.
    oracle = row_forms_by_row if complex_matrix else real_row_forms_by_row
    forms = _row_forms(c, m)
    assert forms.dtype == m.dtype
    assert np.array_equal(forms.view(np.int64), oracle(c, m).view(np.int64))
    # _energy checks a complex M's forms real, so it gets the Hermitian
    # part, and takes the forms of the phased rows.
    h = 0.5 * (m + np.swapaxes(m, -1, -2).conj())
    t = np.ones(shape[:-2])
    lam = np.sort(rng.uniform(1.0, 100.0, n))
    value, norm_sq, s = _energy(c, SpectralSystem(lam, factor=np.ones((n, 1))), t, h)
    assert s == 0  # G = 11ᵀ at t = 1: the given kernel is used as it is
    assert np.array_equal(value.view(np.int64), oracle(_phased(c, lam, t), h).real.view(np.int64))
    assert np.array_equal(norm_sq.view(np.int64), row_norms_sq_by_row(c).view(np.int64))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 200),
    st.integers(1, 40),
    st.floats(-3.0, 4.0),
    st.floats(-3.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_phased_block_equals_each_rows_own_phasing(n, k, log_top, log_t, seed):
    # Spectra up to 1e4 with ties, horizons over six decades, framed rows
    # whose entries span 2^±40, one horizon for every row or one per row.
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.choice(rng.uniform(1e-3, 10.0**log_top, n), n))
    parts = rng.standard_normal((2, k, n)) * np.ldexp(1.0, rng.integers(-40, 41, (2, k, n)))
    parts[rng.random((2, k, n)) < 0.1] = 0.0
    c, _ = _power_of_two_frame(parts[0] + 1j * parts[1])
    per_row = 10.0**log_t * rng.uniform(0.5, 2.0, k)
    for t in (np.asarray(per_row[0]), per_row):
        block = _phased(c, lam, t)
        for i in range(k):
            row = _phased(c[i : i + 1], lam, t if t.ndim == 0 else t[i])
            assert np.array_equal(block[i].view(np.int64), row[0].view(np.int64)), (i, t)
        # each entry keeps its modulus, and the first mode its value
        np.testing.assert_allclose(np.abs(block), np.abs(c), rtol=8 * U, atol=0)
        assert np.array_equal(block[:, 0], c[:, 0])


@st.composite
def eigenvalue_systems(draw):
    """(system, T) as ``kernel_systems`` draws them, or the 183-mode π/4–π/2
    bottom sub-patch at n_max 250 at a horizon from 1e-3 to 2·10³."""
    if draw(st.integers(0, 3)):
        return draw(kernel_systems())
    return subpatch_183(), 10.0 ** draw(st.floats(-3.0, math.log10(2.0e3)))


@functools.cache
def subpatch_183():
    gamma = GammaSpec((BoundaryPatch(Side.BOTTOM, math.pi / 4.0, math.pi / 2.0),))
    return build_square_system(250, gamma)


@settings(max_examples=200)
@given(
    st.one_of(kernel_systems().map(lambda pair: (*pair, False)), integer_spectra().map(lambda pair: (*pair, True))),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
)
def test_integer_spectra_index_their_gaps_by_arithmetic(drawn, log_horizons):
    # Integer spectra index the table 0…L by arithmetic, |off_j − off_k|; other
    # spectra take their pairwise magnitudes.  Either way the kernels equal the
    # unique-and-inverse oracle bit for bit, at one horizon and at several.
    sys_, T, integer = drawn
    lam = sys_.eigenvalues
    gaps, where = _gap_table(lam)
    magnitudes = np.abs(np.subtract.outer(lam, lam))
    assert integer <= (where is not None)
    if where is None:
        assert np.array_equal(gaps, magnitudes)
    else:
        assert np.array_equal(gaps, np.arange(lam[-1] - lam[0] + 1.0)) and np.array_equal(gaps[where], magnitudes)
    for t in (T, 10.0 ** np.array(log_horizons)):
        kernel, expected = observability_kernel(sys_, t), sys_.gram * sinc_kernel_by_unique_inverse(lam, t)
        assert np.array_equal(kernel.view(np.int64), expected.view(np.int64))


@settings(max_examples=200)
@given(st.one_of(kernel_systems(), integer_spectra()), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_kernels_are_exactly_symmetric(pair, log_horizons):
    # (j, k) and (k, j) share one gap magnitude, gathered from the integer
    # table or as |fl(λ_j − λ_k)| = |fl(λ_k − λ_j)|: G∘S_T equals its transpose
    # bit for bit when G is real, and its conjugate transpose when G is
    # complex, at one horizon and at one horizon per row.
    sys_, T = pair
    for kernel in (observability_kernel(sys_, T), *observability_kernel(sys_, 10.0 ** np.array(log_horizons))):
        if np.iscomplexobj(kernel):
            assert np.array_equal(kernel, kernel.conj().T)
        else:
            assert np.array_equal(kernel.view(np.int64), kernel.T.view(np.int64))


WEYL_C = 64


@settings(max_examples=150, deadline=None)
@given(eigenvalue_systems())
def test_kernel_eigenvalues_match_the_complex_kernel_within_weyl_bound(pair):
    """``kernel_psd_margin`` of G∘S_T against ``eigvalsh`` of the complex G∘K(T)
    built by the oracle: both ends within c·n·u·‖G∘K‖₂, c = ``WEYL_C``.

    The exact matrices are unitarily similar, so Weyl's inequality bounds each
    eigenvalue gap by the two matrices' entry errors plus the two
    eigensolvers' backward errors.  With ĥ = h(1+θ), |θ| ≤ 2u, and sin and
    cos within one ulp, an entry of G∘S_T is off by at most about
    9u·T·|G_jk| and one of the oracle's G∘K(T) by about 18u·T·|G_jk| (its
    phase e^{iĥ} moves by |θh|, on entries of modulus T·|sin h|/|h|).  For a
    positive semidefinite G, ‖|G|‖₂ ≤ n·max|G_jk| ≤ n·max G_kk ≤ n·‖G∘K‖₂/T,
    so the entries give 27·n·u·‖G∘K‖₂.  The rest, 37·n·u·‖G∘K‖₂, is left for
    the eigensolvers' backward errors p(n)·u·‖A‖₂ (N. J. Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002), read as
    p(n) ≤ 18n.  Observed gaps stay below 4·n·u·‖G∘K‖₂.
    """
    sys_, T = pair
    low, high = kernel_psd_margin(observability_kernel(sys_, T))
    ref = np.linalg.eigvalsh(sys_.gram * phase_kernel_by_unique_inverse(sys_.eigenvalues, T))
    bound = WEYL_C * sys_.size * (U / 2) * ref[-1]
    assert abs(low - ref[0]) <= bound and abs(high - ref[-1]) <= bound, (low, high, ref[[0, -1]], bound)


@st.composite
def non_negative_rows(draw):
    """A (k, n) block of non-negative doubles, n in 1 … 300, from a mix of kinds."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(
        st.lists(
            st.sampled_from(["zero", "subnormal", "unit", "power", "near-max", "max/n", "any"]),
            min_size=1,
            max_size=4,
        )
    )
    values = {
        "zero": np.zeros((k, n)),
        "subnormal": np.ldexp(rng.integers(1, 2**52, (k, n)).astype(float), -1074),
        "unit": rng.random((k, n)),
        "power": np.ldexp(1.0, rng.integers(-60, 2, (k, n))),  # sums that land on midpoints
        "near-max": DBL_MAX * (1.0 - rng.random((k, n)) * 2.0**-20),
        "max/n": DBL_MAX * rng.uniform(0.5, 1.0, (k, n)) / n,  # sums at the overflow edge
        "any": np.ldexp(rng.random((k, n)), rng.integers(-1074, 1024, (k, n))),
    }
    pick = rng.integers(0, len(kinds), (k, n))
    return np.choose(pick, [values[kind] for kind in kinds])


def fsum_or_overflow(row):
    try:
        return np.array(math.fsum(row.tolist()))
    except OverflowError:
        return None


def assert_rows_match_fsum(block):
    expected = [fsum_or_overflow(row) for row in block]
    for row, want in zip(block, expected):
        if want is None:
            with pytest.raises(OverflowError):
                _row_fsum(row[None])
        else:
            assert _row_fsum(row[None]).view(np.int64)[0] == want.view(np.int64)
    if any(want is None for want in expected):
        with pytest.raises(OverflowError):
            _row_fsum(block)
    else:
        assert np.array_equal(_row_fsum(block).view(np.int64), np.array(expected).view(np.int64))


@settings(max_examples=300)
@given(non_negative_rows())
def test_long_double_row_sums_equal_fsum(block):
    assert_rows_match_fsum(block)


@pytest.mark.parametrize("unit_roundoff", [2.0**-53, 1.0], ids=["plain-double", "not-ieee"])
@settings(max_examples=100)
@given(block=non_negative_rows())
def test_row_sums_equal_fsum_at_a_coarser_unit_roundoff(unit_roundoff, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_LONG_UNIT_ROUNDOFF", unit_roundoff)
        assert_rows_match_fsum(block)


def counting_fsum(monkeypatch):
    calls = []
    fsum = math.fsum

    def counted(terms):
        calls.append(terms)
        return fsum(terms)

    monkeypatch.setattr(spectral.math, "fsum", counted)
    return calls


def test_row_sum_on_a_midpoint_falls_back_and_rounds_half_even(monkeypatch):
    calls = counting_fsum(monkeypatch)
    out = _row_fsum(np.array([[1.0, 2.0**-53]]))
    assert out.view(np.int64)[0] == np.array(1.0).view(np.int64)
    assert len(calls) == 1


def test_row_sum_widened_by_every_round_off_of_the_long_double_sum():
    # In the x87 long double (u = 2⁻⁶⁴), 1 + (2⁻⁵³ − 2⁻⁶²) is exact and each
    # later term, under half an ulp, is lost: ŝ sits 4u below the midpoint
    # 1 + 2⁻⁵³ while the exact sum is above it, so fsum rounds up.
    row = np.array([[1.0, 2.0**-53 - 2.0**-62] + [2.0**-64 - 2.0**-70] * 5])
    assert _row_fsum(row)[0] == math.fsum(row[0].tolist()) == 1.0 + 2.0**-52


def test_row_sum_past_the_float_range_raises_like_fsum():
    with pytest.raises(OverflowError):
        _row_fsum(np.array([[1e308, 1e308]]))


def test_row_sum_with_an_infinite_term_is_inf():
    assert _row_fsum(np.array([[1.0, np.inf, 2.0]]))[0] == np.inf


@pytest.mark.skipif(spectral._LONG_UNIT_ROUNDOFF >= 2.0**-53, reason="np.longdouble is plain double")
def test_long_double_serves_most_rows_without_fsum(monkeypatch):
    rows = np.random.default_rng(5).random((1000, 33)) ** 2
    calls = counting_fsum(monkeypatch)
    _row_fsum(rows)
    assert len(calls) < 100

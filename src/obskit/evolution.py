"""Observability integrals over the evolved trajectory.

For ż = iAz the trajectory is z(t) = Σ z_k e^{iλ_k t} φ_k, and the observed
energy over [0, T] has the exact closed form

    ∫₀ᵀ ‖Cz(t)‖² dt = Σ_{jk} G_{jk} z_j conj(z_k) K_{jk}(T),

with the phase kernel K_{jk}(T) = ∫₀ᵀ e^{i(λ_j−λ_k)t} dt = T·e^{ih}·sin(h)/h,
h = (λ_j−λ_k)T/2 (K = T where h = 0).  The kernel matrix G∘K is the Gram of
the evolved traces, hence positive semidefinite; its largest eigenvalue is
the sharp truncated admissibility constant (truncation-dependent).

Since e^{ih} = e^{iλ_jT/2}·e^{−iλ_kT/2}, G∘K(T) = D(G∘S_T)D* with the real
symmetric S_T = T·sin(h)/h and the diagonal unitary D = diag(e^{i(λ_k−λ_1)T/2})
(the common phase e^{iλ_1T/2} cancels).  So the code builds G∘S_T, which is
real whenever G is, and puts D on the states: the energy is the form of G∘S_T
at the phased coefficients z_k·e^{i(λ_k−λ_1)T/2}, and G∘S_T has the
eigenvalues of G∘K(T).

A horizon with T·δ ≥ 1, δ the least nonzero gap |λ_j − λ_k|, needs no
kernel, whether it serves every state or one state alone.  Off the ties,
K_jk(T) is the divided difference (e^{i(λ_j−λ_k)T} − 1)/(i(λ_j−λ_k)), so

    E(T) = T·Σ B_jk z_j z̄_k + Im Σ W_jk v_j v̄_k − Im Σ W_jk z_j z̄_k,

with B = G on the pairs λ_j = λ_k (0 elsewhere), W_jk = G_jk/(λ_j − λ_k) on
the others (0 on the ties) and v_k = z_k·e^{i(λ_k−λ_1)T}, the phasing D².
W is anti-Hermitian, so both W sums are imaginary; for a real G each is the
cross form −2aᵀWb of the parts a, b of z or v.  B and W are two fixed n×n
matrices per call, and each row then costs n phases and its forms.  The W
sums reach |G|/δ and cancel down to T·|G| (the divided difference tends
to T as T·δ → 0), so the form is used only where T·δ ≥ 1, where it is at
round-off (``_energy`` states the bound); below that its error grows as
1/(T·δ), and those rows take the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decay import DecayFunction
from .errors import DomainError, NumericError, ShapeError
from .spectral import SpectralSystem, _horizons, _moments, _per_row, _power_of_two_frame, _row_forms, _rows_within, _scaled_gram, coefficients_of
from .window import THETA0, THETA2


def _gap_table(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The gap magnitudes a call's kernels take sines of, and the (n, n) index into them.

    An integer spectrum below 2⁵³ (its gaps are exact integers) with span
    L = λ_max − λ_min and L + 1 ≤ n², as every square one, takes the floats
    0…L, gap g at index g, and the index |off_j − off_k|, off = λ − λ_min:
    no more sines than pairs, no sort, no search.  Any other spectrum takes
    its n² magnitudes |fl(λ_j − λ_k)| in pair order and no index.
    """
    span = lam[-1] - lam[0]
    if lam[-1] < 2.0**53 and np.array_equal(lam, np.floor(lam)) and span + 1 <= lam.size**2:
        off = (lam - lam[0]).astype(np.intp)
        index = np.subtract.outer(off, off)
        return np.arange(span + 1), np.abs(index, out=index)
    gaps = np.subtract.outer(lam, lam)
    return np.abs(gaps, out=gaps), None


def _gap_kernel(table: tuple[np.ndarray, np.ndarray | None], T) -> np.ndarray:
    """The real symmetric S_{jk}(T) = T·sin(h)/h, h = (λ_j−λ_k)T/2 (S = T where
    h = 0), over a ``_gap_table``: one (n, n) matrix for a scalar ``T``, a
    (k, n, n) stack for a 1-D array of k horizons.

    The phase kernel is K = D·S·D* (module docstring).  Each value is formed
    in place, the sine times T over h (T where h = 0), as fl(fl(T·sin h)/h).
    S is even in the gap, so (j, k) and (k, j) get one value: from one sine
    per table entry, gathered by ``np.take`` into a new C-contiguous array,
    or from |fl(λ_j − λ_k)| = |fl(λ_k − λ_j)|.
    """
    gaps, where = table
    t = np.asarray(T, dtype=float).reshape(np.shape(T) + (1,) * gaps.ndim)
    h = 0.5 * t * gaps
    values = np.sin(h)
    values *= t
    np.divide(values, h, out=values, where=h != 0.0)
    np.copyto(values, t, where=h == 0.0)
    return values if where is None else np.take(values, where, axis=-1)


def observability_kernel(system: SpectralSystem, T) -> np.ndarray:
    """G∘S_T, unitarily similar to G∘K(T): its form at the phased state is the observed energy.

    Real symmetric when the Gram is real (every square system), complex
    Hermitian only for a complex Gram.  One (n, n) matrix for a scalar
    ``T``, a (k, n, n) stack for k horizons, from the call's ``_gap_table``.
    It is taken at G itself, not at ``_scaled_gram``, so its eigenvalues are
    the constants they name; an entry past the float range raises
    ``NumericError`` naming the first horizon that has one.
    """
    t = _horizons(T, system)
    with np.errstate(over="ignore"):
        kernel = system.gram * _gap_kernel(_gap_table(system.eigenvalues), t)
    finite = np.isfinite(kernel).all(axis=(-2, -1))
    if not finite.all():
        raise NumericError(
            f"the observability kernel G∘S_T passes the float range at T = {float(t[~finite][0])!r}"
        )
    return kernel


def _phased(c: np.ndarray, lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The (k, n) rows of c times D_t = diag(e^{i(λ_k−λ_1)t/2}), ``t`` one horizon or one per row.

    Each angle is at most ½·t·(λ_max − λ_min): ``_horizons`` keeps that
    finite for a kernel's horizon T, and ``_closes`` for the closed form's
    2T.  The parts are formed with real ufuncs, re = cr·cos − ci·sin and
    im = cr·sin + ci·cos, one rounding per operation and element, so a
    block's rows are bit for bit each row's own phasing.  A complex multiply
    promises no such thing: numpy may run it through other loops for a
    broadcast (k, n)·(n,) operand than for one row.
    """
    angle = 0.5 * t[..., None] * (lam - lam[0])
    cos, sin = np.cos(angle), np.sin(angle)
    out = np.empty(c.shape, dtype=complex)
    re, im = out.real, out.imag  # written in place: one (k, n) temporary at a time
    np.multiply(c.real, cos, out=re)
    re -= c.imag * sin
    np.multiply(c.real, sin, out=im)
    im += c.imag * cos
    return out


def _norms_sq(c: np.ndarray) -> np.ndarray:
    """‖c‖² per row of the (k, n) block c: one stacked row·column product,
    one ``zdotu(conj(c), c)`` per row, which is bit for bit the per-row
    ``vdot(c, c)`` (``tests/oracles.py::row_norms_sq_by_row``)."""
    return np.matmul(c.conj()[:, None, :], c[:, :, None])[:, 0, 0].real


def _closes(system: SpectralSystem, t: np.ndarray) -> np.ndarray:
    """Whether the closed form serves each horizon in ``t``: t·δ ≥ 1, δ the
    least nonzero gap (none: every t), and the phase t·(λ_max − λ_min) of
    its v finite.  The gaps of the sorted spectrum next to each other hold δ,
    since rounded subtraction is monotone."""
    lam = system.eigenvalues
    gaps = np.diff(lam)
    least = gaps[gaps > 0.0].min(initial=np.inf)
    with np.errstate(over="ignore"):
        return (t * least >= 1.0) & np.isfinite(t * (lam[-1] - lam[0]))


def _divided_differences(lam: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B and W of the closed form (module docstring) for the Gram ``gram``, each (n, n) of its dtype.

    W_jk = G_jk/fl(λ_j − λ_k) is exactly anti-Hermitian, since
    fl(λ_k − λ_j) = −fl(λ_j − λ_k).  At ``_scaled_gram``, for horizons with
    t·δ ≥ 1, every entry is in the float range.
    """
    gaps = np.subtract.outer(lam, lam)
    ties = gaps == 0.0
    return np.where(ties, gram, 0.0), np.divide(gram, gaps, out=np.zeros_like(gram), where=~ties)


def _closed_energy(c: np.ndarray, lam: np.ndarray, t: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """E(t) per row of the (k, n) block c from the closed form, B = ``b`` and W = ``w``.

    The rows x of one state, its z and its v = ``_phased`` at 2t, take two
    stacked products per matrix, Y = x·M and P = Y·xᴴ, one ``gemm`` each and
    per state, so a block gives each row's own bits.  For a real G, x is the
    four rows of parts [a_z; b_z; a_v; b_v] and Im Σ W_jk x_j x̄_k = P_ba − P_ab;
    for a complex G, x is [z; v] and the sums are P's diagonal.
    """
    phased = _phased(c, lam, 2.0 * t)
    if np.iscomplexobj(w):
        x = np.stack((c, phased), axis=1)
        xh = x.conj().transpose(0, 2, 1)
        pw = np.matmul(np.matmul(x, w), xh)
        pb = np.matmul(np.matmul(x[:, :1], b), xh[:, :, :1])
        return t * pb[:, 0, 0].real + pw[:, 1, 1].imag - pw[:, 0, 0].imag
    x = np.empty((len(c), 4, c.shape[1]))
    x[:, 0], x[:, 1], x[:, 2], x[:, 3] = c.real, c.imag, phased.real, phased.imag
    xt = x.transpose(0, 2, 1)
    pw = np.matmul(np.matmul(x, w), xt)
    pb = np.matmul(np.matmul(x[:, :2], b), xt[:, :, :2])
    return t * (pb[:, 0, 0] + pb[:, 1, 1]) + (pw[:, 3, 2] - pw[:, 2, 3]) - (pw[:, 1, 0] - pw[:, 0, 1])


def _energy(c: np.ndarray, system: SpectralSystem, t: np.ndarray, kernel: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Per row of the (k, n) framed block c: the observed energy over [0, t] times 2^(−s) and ‖c‖²; and s.

    ``t`` comes from ``_horizons`` for the rows of c: one horizon or one per
    row.  A given ``kernel`` is ``observability_kernel`` at ``t``, and a
    kernel of another shape raises ``ShapeError``; the energy is then the
    ``_row_forms`` of the kernel at the ``_phased`` rows.  Without one, each
    row whose horizon ``_closes`` takes the closed form of the module
    docstring (``_closed_energy``), and every other row the kernel: one
    (n, n) kernel built here for one horizon, else a (k, n, n) stack built
    in chunks of ``_rows_within`` rows, at most ``spectral.BLOCK_BYTES`` (or
    one row), so the memory held does not grow with k; a row's kernel takes
    the Gram's itemsize per entry.  All of them take their sines over one
    ``_gap_table``.  The rows go in runs of ``_rows_within`` rows of 32n
    bytes, the four real rows of the closed form (248 rows at 33 modes, 44
    at 183), each run with its ‖c‖², phasing and forms.  Each row's value
    reads only its own data, so the runs and chunks give the same bits as
    the whole block.

    Scaling.  One ``_scaled_gram`` at the largest horizon gives s and
    G·2^(−s), and every form of the call is taken at that scale: the closed
    form's B and W, the kernels built here, and a given kernel times 2^(−s)
    when s > 0.  Under its bound no entry of W or of a kernel and no form at
    a framed row passes the float range, so a closed form is always finite
    and needs no kernel to fall back on.  The caller applies s with its
    frame's 2^(2e) in one exponent, so a tiny state's energy does not
    overflow in the frame.

    Error of the closed form.  With u = 2⁻⁵³, S = t·Σ|G_jk||z_j||z_k| and the
    span L = λ_max − λ_min, a row with t·δ ≥ 1 is within
    8u·(n + 16 + L/δ)·S (the last term 0 without a gap) of the kernel's
    value for the same row.  The forms round by about 2(n + 1)u·S in each
    evaluation, since every |W_jk| ≤ t·|G_jk|; both evaluations phase by
    the same rounded angles t·fl(λ_k − λ_1), which put each off-tie pair
    up to 5u·t·L from t·fl(λ_j − λ_k), and the two formulas, the kernel's
    sine and the closed form's difference quotient, turn that into at most
    5u·t·L·|G_jk||z_j||z_k|/|λ_j − λ_k|.

    A real kernel's forms are exactly real; a complex one's are checked
    real to 1e-10 of their scale (at least t·‖c‖²·2^(−s)), else
    ``NumericError`` names the first bad row.  Closed forms are real.
    """
    lam = system.eigenvalues
    gram, s = _scaled_gram(system, t)
    if kernel is not None:
        if kernel.shape[:-2] != t.shape:
            raise ShapeError(f"{t.shape} horizons do not fit a kernel of shape {kernel.shape}")
        norm_sq = _norms_sq(c)
        forms = _row_forms(_phased(c, lam, t), kernel * 2.0**-s if s else kernel)
    else:
        horizons, closes = np.broadcast_to(t, len(c)), np.broadcast_to(_closes(system, t), len(c))
        divided = _divided_differences(lam, gram) if closes.any() else None
        table = None if closes.all() else _gap_table(lam)
        shared = gram * _gap_kernel(table, t) if table is not None and t.ndim == 0 else None
        run = _rows_within(32 * system.size)
        step = len(c) if t.ndim == 0 else _rows_within(system.gram.itemsize * system.size * system.size)
        forms, norm_sq = np.empty(len(c), dtype=system.gram.dtype), np.empty(len(c))
        for start in range(0, len(c), run):
            part = slice(start, min(start + run, len(c)))
            norm_sq[part] = _norms_sq(c[part])
            if closes[part].any():
                rows = start + np.flatnonzero(closes[part])
                forms[rows] = _closed_energy(c[rows], lam, horizons[rows], *divided)
            kept = start + np.flatnonzero(~closes[part])
            if not len(kept):
                continue
            phased = _phased(c[kept], lam, horizons[kept])
            for first in range(0, len(kept), step):
                rows = kept[first : first + step]
                kernel = gram * _gap_kernel(table, t[rows]) if shared is None else shared
                forms[rows] = _row_forms(phased[first : first + step], kernel)
    if np.iscomplexobj(forms):
        scale = np.maximum(np.abs(forms.real), np.ldexp(t * norm_sq, -s))
        bad = np.abs(forms.imag) > 1.0e-10 * scale
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericError(
                f"observability integral came out non-real: imag {forms.imag[i]:.3e} vs scale {scale[i]:.3e}"
            )
    return forms.real, norm_sq, s


def observability_integral(z0, system: SpectralSystem, T):
    """Closed-form ∫₀ᵀ‖Cz(t)‖²dt; real and non-negative up to round-off.

    For a (k, n) block, one integral per row, with ``T`` one horizon or one
    per row; a row with T·δ ≥ 1 takes the closed form, any other its kernel,
    per-row kernels in chunks of at most ``spectral.BLOCK_BYTES``
    (``_energy``).  Evaluated in the power-of-two frame of each row at
    ``_energy``'s Gram scale 2^(−s) and scaled back in one exponent, so a
    finite state never yields nan: past the float range the integral reads
    inf.
    """
    c, back = _power_of_two_frame(coefficients_of(z0, system))
    energy, _, s = _energy(c, system, _horizons(T, system, len(c)))
    return back(energy, s)


def kernel_psd_margin(kernel: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of ``kernel`` = G∘S_T, which are those of G∘K(T).

    ``kernel`` is ``observability_kernel(system, T)``: one real ``eigvalsh``
    for a real Gram, a complex one for a complex Gram.  Nothing here checks
    the sign of the smallest; the ``admissibility`` scenario's
    ``kernel-positive-semidefinite`` verdict does.  The largest eigenvalue
    is the sharp admissibility constant of the truncated model only; it
    depends on the truncation level.  Anything but one (n, n) kernel, such
    as the stack of several horizons, raises ``ShapeError``.
    """
    shape = np.shape(kernel)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ShapeError(f"kernel_psd_margin takes one (n, n) kernel, got shape {shape}")
    vals = np.linalg.eigvalsh(kernel)
    return float(vals[0]), float(vals[-1])


@dataclass(frozen=True)
class AdmissibilityReport:
    """The margin C_T‖z0‖² − ∫₀ᵀ‖Cz‖² and ‖z0‖²: scalars for one state, or
    arrays with one entry per row when z0 is a (k, n) block."""

    margin: float
    norm_sq: float


def admissibility_check(z0, system: SpectralSystem, T, kernel: np.ndarray, C_T: float) -> AdmissibilityReport:
    """Margin C_T‖z0‖² − ∫₀ᵀ‖Cz‖², non-negative iff C_T is admissible for z0, and ‖z0‖².

    ``kernel`` is ``observability_kernel(system, T)``, built once per
    horizon by the caller; for a (k, n) block it serves every row, or is a
    (k, n, n) stack for k horizons.  Taken in the power-of-two frame of each
    row, like ``observability_integral``, with the energy at ``_energy``'s
    Gram scale 2^(−s) and C_T·2^(−s) beside it, so the margin is scaled back
    in one exponent; ‖z0‖² is the one the margin uses, scaled back.
    """
    if not C_T > 0:
        raise DomainError(f"admissibility constant must be positive, got {C_T}")
    c, back = _power_of_two_frame(coefficients_of(z0, system))
    energy, norm_sq, s = _energy(c, system, _horizons(T, system, len(c)), kernel)
    return AdmissibilityReport(margin=back(np.ldexp(C_T, -s) * norm_sq - energy, s), norm_sq=back(norm_sq))


@dataclass(frozen=True)
class ObservabilityReport:
    """One weak-observability inequality evaluation.

    ``lhs`` is θ₂·ψ(θ₀(1/T + λ(z0)))·‖z0‖², ``integral`` the observed
    energy, ``margin`` their difference, ``t_min`` the minimal horizon
    T(λ(z0)), and ``applicable`` whether T ≥ t_min so the inequality is
    actually claimed.  Each field is a scalar for one state, or an array
    with one entry per row when z0 is a (k, n) block.
    """

    T: float
    integral: float
    lhs: float
    t_min: float
    margin: float
    applicable: bool
    lambda_z0: float
    norm_sq: float


def weak_observability_check(
    z0, system: SpectralSystem, T, psi: DecayFunction, t_min
) -> ObservabilityReport:
    """Evaluate θ₂ψ(θ₀(1/T+λ(z0)))‖z0‖² ≤ ∫₀ᵀ‖Cz‖² for one state or a (k, n) block.

    ``t_min`` is the minimal horizon ``solve_observation_time(λ(z0), ε)``;
    ``T`` and ``t_min`` are scalars or one per row.  Both sides and their
    margin are taken in the power-of-two frame of each row, the integral and
    margin at ``_energy``'s Gram scale 2^(−s), and scaled back in one exponent,
    so a finite state never yields nan.  A block is checked in one pass:
    one ``_moments`` for every row and one ``_energy``, where each row with
    T·δ ≥ 1 takes the closed form and any other its kernel.
    """
    z = coefficients_of(z0, system)
    c, back = _power_of_two_frame(z)
    t, t_min = _horizons(T, system, len(c)), _horizons(t_min, system, len(c))
    lam0 = _moments(c, system)[3]
    integral, norm_sq, s = _energy(c, system, t)
    lhs = THETA2 * psi(THETA0 * (1.0 / t + lam0)) * norm_sq
    t, t_min = np.broadcast_to(t, len(c)), np.broadcast_to(t_min, len(c))
    return ObservabilityReport(
        T=_per_row(t, z),
        integral=back(integral, s),
        lhs=back(lhs),
        t_min=_per_row(t_min, z),
        margin=back(integral - np.ldexp(lhs, -s), s),
        applicable=_per_row(t >= t_min, z),
        lambda_z0=_per_row(lam0, z),
        norm_sq=back(norm_sq),
    )


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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decay import DecayFunction
from .errors import DomainError, NumericError, ShapeError
from .spectral import SpectralSystem, _gap_index, _horizons, _moments, _per_row, _power_of_two_frame, _row_forms, _rows_within, coefficients_of
from .window import THETA0, THETA2


def _gap_kernel(gaps: np.ndarray, where: np.ndarray, T) -> np.ndarray:
    """The real symmetric kernel S_{jk}(T) = T·sin(h)/h, h = (λ_j−λ_k)T/2 (S = T
    where h = 0), from the system's table of gap magnitudes ``gaps`` and the
    ``spectral._gap_index`` into it.

    The phase kernel is K = D·S·D* (module docstring).  A scalar ``T`` gives
    one (n, n) matrix; a 1-D array of k horizons gives a (k, n, n) stack.
    S is even in the gap, so one sin runs per table entry and horizon, and
    ``np.take`` gathers the values into a new C-contiguous array, which is
    exactly symmetric since |λ_j − λ_k| and |λ_k − λ_j| share an index.
    """
    t = np.asarray(T, dtype=float)[..., None]
    h = 0.5 * t * gaps
    values = np.broadcast_to(t, h.shape).copy()
    np.divide(t * np.sin(h), h, out=values, where=h != 0.0)
    return np.take(values, where, axis=-1)


def observability_kernel(system: SpectralSystem, T) -> np.ndarray:
    """G∘S_T, unitarily similar to G∘K(T): its form at the phased state is the observed energy.

    Real symmetric when the Gram is real (every square system), complex
    Hermitian only for a complex Gram.  One (n, n) matrix for a scalar
    ``T``, a (k, n, n) stack for k horizons.  The gap table is the system's
    cached ``phase_gaps``, found once per system.
    """
    return system.gram * _gap_kernel(system.phase_gaps, _gap_index(system), _horizons(T, system))


def _phased(c: np.ndarray, lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The (k, n) rows of c times D_t = diag(e^{i(λ_k−λ_1)t/2}), ``t`` one horizon or one per row.

    Each angle is at most ½·t·(λ_max − λ_min), which ``_horizons`` keeps
    finite.  The parts are formed with real ufuncs, re = cr·cos − ci·sin and
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


def _energy(c: np.ndarray, system: SpectralSystem, t: np.ndarray, kernel: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (k, n) block c: the observed energy over [0, t] and ‖c‖².

    ``t`` comes from ``_horizons`` for the rows of c: one horizon or one per
    row.  A given ``kernel`` is ``observability_kernel`` at ``t``, and a
    kernel of another shape raises ``ShapeError``; without one, one horizon
    shares one (n, n) kernel built here.  Either way the energy is the
    ``_row_forms`` of the kernel at the ``_phased`` rows.  Per-row horizons
    with no kernel phase the rows, and take their ‖c‖², in runs of
    ``_rows_within`` rows of 16n bytes (496 rows at 33 modes, 89 at 183);
    each run builds its (k, n, n) stack of kernels in chunks of
    ``_rows_within`` rows, at most ``spectral.BLOCK_BYTES`` (or one row), so
    the memory held does not grow with k; a row's kernel takes the Gram's
    itemsize per entry.  ``_phased`` gives each row of a run its own phasing
    bit for bit, and each row's form reads only its own kernel, so the runs
    and chunks give the same bits as the whole stack.  A real kernel's forms
    are exactly real; a complex one's are checked real to 1e-10 of their
    scale, else ``NumericError`` names the first bad row.
    """
    lam = system.eigenvalues
    if kernel is not None or t.ndim == 0:
        kernel = observability_kernel(system, t) if kernel is None else kernel
        if kernel.shape[:-2] != t.shape:
            raise ShapeError(f"{t.shape} horizons do not fit a kernel of shape {kernel.shape}")
        norm_sq = _norms_sq(c)
        forms = _row_forms(_phased(c, lam, t), kernel)
    else:
        gaps, where = system.phase_gaps, _gap_index(system)
        run = _rows_within(16 * system.size)
        step = _rows_within(system.gram.itemsize * system.size * system.size)
        forms, norm_sq = np.empty(len(c), dtype=system.gram.dtype), np.empty(len(c))
        for start in range(0, len(c), run):
            stop = min(start + run, len(c))
            phased, norm_sq[start:stop] = _phased(c[start:stop], lam, t[start:stop]), _norms_sq(c[start:stop])
            for first in range(start, stop, step):
                rows = slice(first, min(first + step, stop))
                kernel = system.gram * _gap_kernel(gaps, where, t[rows])
                forms[rows] = _row_forms(phased[rows.start - start : rows.stop - start], kernel)
    if np.iscomplexobj(forms):
        scale = np.maximum(np.abs(forms.real), t * norm_sq)
        bad = np.abs(forms.imag) > 1.0e-10 * scale
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericError(
                f"observability integral came out non-real: imag {forms.imag[i]:.3e} vs scale {scale[i]:.3e}"
            )
    return forms.real, norm_sq


def observability_integral(z0, system: SpectralSystem, T):
    """Closed-form ∫₀ᵀ‖Cz(t)‖²dt; real and non-negative up to round-off.

    For a (k, n) block, one integral per row, with ``T`` one horizon or one
    per row; per-row horizons take their kernels in chunks of at most
    ``spectral.BLOCK_BYTES``.  Evaluated in the power-of-two frame of each
    row, so a finite state never yields nan: past the float range the
    integral reads inf.
    """
    c, back = _power_of_two_frame(coefficients_of(z0, system))
    return back(_energy(c, system, _horizons(T, system, len(c)))[0])


def kernel_psd_margin(kernel: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of ``kernel`` = G∘S_T, which are those of G∘K(T).

    ``kernel`` is ``observability_kernel(system, T)``: one real ``eigvalsh``
    for a real Gram, a complex one for a complex Gram.  Nothing here checks
    the sign of the smallest; the ``admissibility`` scenario's
    ``kernel-positive-semidefinite`` verdict does.  The largest eigenvalue
    is the sharp admissibility constant of the truncated model only; it
    depends on the truncation level.
    """
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
    row, like ``observability_integral``; ‖z0‖² is the one the margin uses,
    scaled back.
    """
    if not C_T > 0:
        raise DomainError(f"admissibility constant must be positive, got {C_T}")
    c, back = _power_of_two_frame(coefficients_of(z0, system))
    energy, norm_sq = _energy(c, system, _horizons(T, system, len(c)), kernel)
    return AdmissibilityReport(margin=back(C_T * norm_sq - energy), norm_sq=back(norm_sq))


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
    margin are taken in the power-of-two frame of each row and scaled back,
    so a finite state never yields nan.  A block is checked in one pass:
    one ``_moments`` for every row and, for per-row horizons, the kernels
    built in chunks of at most ``spectral.BLOCK_BYTES``.
    """
    z = coefficients_of(z0, system)
    c, back = _power_of_two_frame(z)
    t, t_min = _horizons(T, system, len(c)), _horizons(t_min, system, len(c))
    lam0 = _moments(c, system)[3]
    integral, norm_sq = _energy(c, system, t)
    lhs = THETA2 * psi(THETA0 * (1.0 / t + lam0)) * norm_sq
    t, t_min = np.broadcast_to(t, len(c)), np.broadcast_to(t_min, len(c))
    return ObservabilityReport(
        T=_per_row(t, z),
        integral=back(integral),
        lhs=back(lhs),
        t_min=_per_row(t_min, z),
        margin=back(integral - lhs),
        applicable=_per_row(t >= t_min, z),
        lambda_z0=_per_row(lam0, z),
        norm_sq=back(norm_sq),
    )


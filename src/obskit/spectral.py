"""Spectrally represented systems and the frequency functional.

A system ż = iAz with observation y = Cz is encoded by its spectral data:
the eigenvalues of A and the Gram matrix G_{jk} = ⟨Cφ_j, Cφ_k⟩ of observed
eigenfunctions.  States are coefficient vectors in the (orthonormal)
eigenbasis.  The frequency functional λ(z) = ⟨Az,z⟩/‖z‖² and its residual
‖(A − λ(z))z‖²/‖z‖² drive everything downstream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ShapeError

HERMITIAN_ATOL = 1.0e-12
PSD_RTOL = 1.0e-10
# Eigenvalues of a given Gram at or below this fraction of the largest stay out of F.
GRAM_RANK_CUTOFF = 1.0e-13
# Coefficient vectors with max |entry| below this are treated as zero.
ZERO_NORM_FLOOR = 1.0e-300
# Unit round-off of np.longdouble, in which ``_row_fsum`` sums: 2⁻⁶⁴ for the
# x87 80-bit format, 2⁻¹¹³ for IEEE quad, 2⁻⁵³ where it is plain double.  Any
# other format (IBM double-double) is not rounded as IEEE formats are; 1.0
# sends every row to math.fsum there.
_LONG = np.finfo(np.longdouble)
_LONG_UNIT_ROUNDOFF = float(_LONG.eps) / 2 if _LONG.nmant in (52, 63, 112) else 1.0
# Bytes that one blocked pass may hold at once: a block of trial states, a
# chunk of per-row kernels G∘S_t, a stack of cluster Gram blocks, or a chunk
# of the admissibility trace pass.  ``_rows_within`` sizes each of them.
BLOCK_BYTES = 1 << 18


class SpectralSystem:
    """Eigenvalues of A plus the observation Gram G, held as G = FFᴴ + E.

    ``eigenvalues`` must be strictly positive and sorted non-decreasing
    (repeats are permitted).  Give exactly one of ``gram`` and ``factor``.
    A ``gram`` must be finite, Hermitian to 1e−12 absolute, with eigenvalues
    inside the float range, and positive semidefinite up to 1e−10 of its
    largest eigenvalue; one ``eigh`` checks this and yields F, the eigenpairs
    above ``GRAM_RANK_CUTOFF`` times the largest, and ``factor_error`` = ‖E‖,
    the largest dropped |eigenvalue|.
    A ``factor`` F comes with its own bound ``factor_error`` ≥ ‖E‖; ``gram``
    is then FFᴴ, formed on first read and cached.  F is kept in double
    precision, float64 or complex128, whatever its given dtype, since the
    round-off margins downstream assume it.
    """

    def __init__(self, eigenvalues, gram=None, label: str = "", *, factor=None, factor_error=0.0):
        eig = np.array(eigenvalues, dtype=float)
        if eig.ndim != 1 or eig.size == 0:
            raise ShapeError("eigenvalues must be a nonempty 1-D array")
        if not np.all(np.isfinite(eig)):
            raise DomainError("eigenvalues must be finite")
        if eig[0] <= 0:
            raise DomainError(f"eigenvalues must be strictly positive, got {eig.min()}")
        if np.any(np.diff(eig) < 0):
            raise DomainError("eigenvalues must be sorted non-decreasing")
        if (gram is None) == (factor is None):
            raise ShapeError("give exactly one of gram and factor")
        self._from_factor = factor is not None
        if self._from_factor:
            f, error = np.array(factor, dtype=complex if np.iscomplexobj(factor) else float), float(factor_error)
        else:
            f, error = self._factor_gram(gram, eig.size)
        if f.ndim != 2 or f.shape[0] != eig.size or not np.all(np.isfinite(f)):
            raise ShapeError(f"factor must be finite with {eig.size} rows, got shape {f.shape}")
        if not 0.0 <= error < math.inf:
            raise DomainError(f"factor_error must be non-negative and finite, got {error!r}")
        eig.setflags(write=False)
        f.setflags(write=False)
        self.eigenvalues, self.factor, self.factor_error, self.label = eig, f, error, label

    def _factor_gram(self, gram, n: int) -> tuple[np.ndarray, float]:
        """Check a given Gram, cache it as ``gram`` and factor it by one ``eigh``."""
        g = np.asarray(gram, dtype=complex)
        if g.ndim != 2 or g.shape != (n, n):
            raise ShapeError(f"gram must be {n}x{n} to match the eigenvalue list, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise DomainError("gram entries must be finite")
        with np.errstate(over="ignore"):
            dev = np.abs(g - g.conj().T)
        if dev.max() > HERMITIAN_ATOL:
            j, k = np.unravel_index(int(dev.argmax()), dev.shape)
            raise DomainError(
                f"gram is not Hermitian: |G[{j}][{k}] - conj(G[{k}][{j}])| = {dev[j, k]:.3e}"
            )
        g = 0.5 * g
        g = g + g.conj().T  # halved first, so no entry's sum overflows
        vals, vecs = np.linalg.eigh(g)
        if not np.all(np.isfinite(vals)):
            raise DomainError(
                f"gram eigenvalues pass the float range: they span {float(vals[0])!r} to {float(vals[-1])!r}"
            )
        if vals[0] < -PSD_RTOL * max(vals[-1], 0.0):
            raise DomainError(
                f"gram is not positive semidefinite: min eigenvalue {vals[0]:.3e} "
                f"vs max {vals[-1]:.3e}"
            )
        g.setflags(write=False)
        self.__dict__["gram"] = g
        kept = vals > GRAM_RANK_CUTOFF * vals[-1]
        return vecs[:, kept] * np.sqrt(vals[kept]), float(np.abs(vals[~kept]).max(initial=0.0))

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """G: the given matrix, or FFᴴ formed on first read."""
        g = self.factor @ self.factor.conj().T
        g = 0.5 * (g + g.conj().T)
        g.setflags(write=False)
        return g

    def gram_block(self, idx) -> np.ndarray:
        """G on the modes ``idx``: F_I·F_Iᴴ for a given factor, else the given Gram's block."""
        return self.gram_blocks(np.asarray(idx)[None])[0]

    def gram_blocks(self, rows) -> np.ndarray:
        """The (k, s, s) stack of ``gram_block`` over the rows of a (k, s) index array.

        A factor's rows are gathered twice, so each product is the one matmul
        makes of two distinct operands; a given Gram's blocks are read from it,
        never from FFᴴ.
        """
        rows = np.asarray(rows)
        if not self._from_factor:
            return self.gram[rows[:, :, None], rows[:, None, :]]
        return self.factor[rows] @ self.factor[rows].conj().transpose(0, 2, 1)

    @property
    def size(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    def distinct_eigenvalues(self) -> np.ndarray:
        """Sorted distinct eigenvalue values (exact-equality grouping)."""
        return np.unique(self.eigenvalues)


@dataclass(frozen=True)
class FrequencyReport:
    """Frequency, residual and squared norm of one state: floats, or arrays
    with one entry per row when the state is a (k, n) block."""

    lambda_z: float
    residual: float
    norm_sq: float


def coefficients_of(z, system: SpectralSystem) -> np.ndarray:
    """Coefficients of ``z`` matched to ``system``: a 1-D array, or a (k, n)
    block of coefficient rows, one state per row; every entry finite."""
    c = np.asarray(z, dtype=complex)
    if c.ndim not in (1, 2):
        raise ShapeError("state must be a 1-D coefficient vector or a (k, n) block of rows")
    if c.shape[-1] != system.size:
        raise ShapeError(
            f"state has {c.shape[-1]} coefficients but the system has {system.size} modes"
        )
    if not np.all(np.isfinite(c)):
        raise DomainError("coefficients must be finite")
    return c


def _horizons(T, system: SpectralSystem, rows: int | None = None) -> np.ndarray:
    """``T`` as a float array of horizons, each positive with a finite phase
    ½·T·(λ_max − λ_min), formed as ``evolution._gap_kernel`` forms
    ``0.5 * t * gaps`` and ``evolution._phased`` forms each mode's phase
    ½·T·(λ_k − λ_1), so that no gap's or mode's phase overflows; an infinite
    or nan T makes that phase inf or nan.  Given ``rows``, T is one horizon
    for every row or one per row; any other shape raises ``ShapeError``.
    """
    t = np.asarray(T, dtype=float)
    if rows is not None and t.shape not in ((), (rows,)):
        raise ShapeError(f"{t.shape} horizons do not fit {rows} state rows")
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 0.5 * t * (system.lambda_max - system.lambda_min)
    bad = ~((t > 0) & np.isfinite(phase))
    if bad.any():
        raise DomainError(
            f"time horizon must be positive and finite, with ½·T·(λ_max − λ_min) finite, "
            f"got {float(t[bad][0])!r}"
        )
    return t


def _rows_within(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` each fit in ``BLOCK_BYTES``; at least one."""
    return max(1, BLOCK_BYTES // row_bytes)


def _per_row(values: np.ndarray, c: np.ndarray):
    """``values``, one per row of ``c``: a Python scalar for a 1-D state, else the array."""
    return values.item() if c.ndim == 1 else values


def _row_fsum(a: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of non-negative terms, bit for bit, from one long-double sum.

    The result is exactly rounded, so blocks and single rows agree bit for
    bit.  Proof.  Let u = ``_LONG_UNIT_ROUNDOFF``, n the row length, S the
    exact sum and ŝ the sum of the terms in ``np.longdouble``, in any order.
    Each double is exact there, and for n non-negative terms
    |ŝ − S| ≤ γ·S with γ = (n−1)u/(1 − (n−1)u) (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., §4.2).  The factors
    1 − n·u and 1 + m·u, m the even one of n+1 and n+2, are exact (the
    spacing is u below 1 and 2u above it), and each end costs one more
    rounding, so
    low = fl(ŝ(1 − nu)) ≤ S·(1 − nu)(1 + u)/(1 − (n−1)u) ≤ S, and
    high = fl(ŝ(1 + mu)) ≥ S·(1 + (n+1)u)(1 − u)(1 − 2(n−1)u)/(1 − (n−1)u) ≥ S
    whenever 2n²u ≤ 1 (expand: the margin is u − (2n² − n + 1)u² + …).
    Rounding to double is monotone, so when low and high round to the same
    double, that double is the correctly rounded S, which ``math.fsum``
    returns.  Every other row takes ``math.fsum``: ends that differ (S near
    a midpoint), a high end at or past 2¹⁰²³ (so a sum that overflows, or an
    inf or nan term, gets fsum's inf, nan or ``OverflowError``; below it
    fsum's partial sums stay far from overflow), and every row when
    2n²u > 1.  Where ``np.longdouble`` is plain double, u = 2⁻⁵³ puts the
    ends at least an ulp apart, so every row falls back but a zero or
    subnormal sum (exact there): the same bits at ``math.fsum``'s speed.
    """
    n = a.shape[-1]
    u = np.longdouble(_LONG_UNIT_ROUNDOFF)
    with np.errstate(over="ignore", invalid="ignore"):
        s = a.sum(axis=-1, dtype=np.longdouble)
        out = (s * (1 - n * u)).astype(float)
        high = s * (1 + 2 * (n // 2 + 1) * u)
        sure = (high < 2.0**1023) & (out == high.astype(float)) & (2 * n * n * u <= 1)
    for i in np.flatnonzero(~sure).tolist():
        out[i] = math.fsum(a[i].tolist())
    return out


def _moments(c: np.ndarray, system: SpectralSystem, window=None) -> tuple[np.ndarray, ...]:
    """Per row: weights w = window·|c_k/amax|², the scale amax, Σw and the mean Σλ_k w_k/Σw.

    ``c`` is what ``coefficients_of`` returns.  Always a (k, n) block of
    weights and three length-k arrays; a 1-D state is the block of one row.
    Scaling by amax = max|c_k| keeps the weights in range for states of any
    magnitude; a row with amax ≤ ``ZERO_NORM_FLOOR`` is rejected as zero.
    The mean is clamped to [λ_min, λ_max], which rounding can leave by an ulp.
    """
    rows = c.reshape(-1, system.size)
    amax = np.abs(rows).max(axis=1)
    if not np.all(amax > ZERO_NORM_FLOOR):
        raise DomainError("state vector is numerically zero (max |coefficient| < 1e-300)")
    w = np.abs(rows / amax[:, None]) ** 2
    if window is not None:
        w = window * w
    total = _row_fsum(w)
    if not np.all(total > 0):
        raise NumericError("all weights underflowed to zero; the window misses the state")
    mean = _row_fsum(system.eigenvalues * w) / total
    return w, amax, total, np.clip(mean, system.lambda_min, system.lambda_max)


def _power_of_two_frame(c: np.ndarray):
    """The (k, n) block of rows c·2^(−e) and the map v ↦ v·2^(2e) back to the true scale.

    Per row, e is the exponent of the largest real or imaginary part, so
    that part of c·2^(−e) lies in [½, 1) and no form of degree 2 in it
    overflows.  Both scalings are by powers of two, hence exact: a degree-2
    form evaluated in the frame and mapped back is the true-scale value,
    rounded once, and reads ±inf past the float range.  A row whose parts
    are all at most ``ZERO_NORM_FLOOR`` is left as it is (e = 0), so
    callers treat it as before.  A 1-D ``c`` is the block of one row;
    ``back`` takes one value per row, and the exponent s of values held at
    2^(−s) (``_scaled_gram``), applied in one exponent 2e + s; it returns a
    float for a 1-D ``c``, else an array.
    """
    rows = np.ascontiguousarray(c).reshape(-1, c.shape[-1])
    amax = np.abs(rows.view(float)).max(axis=1)
    e = np.where(amax > ZERO_NORM_FLOOR, np.frexp(amax)[1], 0)

    def back(value: np.ndarray, s: int = 0):
        with np.errstate(over="ignore"):
            return _per_row(np.ldexp(value, 2 * e + s), c)

    return rows * np.ldexp(1.0, -e)[:, None], back


def _scaled_gram(system: SpectralSystem, t=1.0) -> tuple[np.ndarray, int]:
    """G·2^(−s) and s: the one scale of every quadratic form in G at framed rows, each of weight at most max ``t``.

    A form's weight is its horizon in an energy over [0, t], 1/ψ in a
    resolvent margin, 1 in ‖Cz‖².  s = 0 unless 16n²·max G_kk·max t
    reaches 2¹⁰²³, else the least s that puts it below.

    Proof that no value at G·2^(−s) passes the float range.  A row of
    ``_power_of_two_frame`` has parts below 1, so entries of modulus below
    √2, and a form Σ M_jk u_j ū_k there, with each of its partial sums, is
    below 2n²·max|M_jk|.  |G_jk| ≤ max G_kk for a positive semidefinite G
    and |S_jk| ≤ t, so a kernel G∘S_t and its forms stay below
    2n²·max G_kk·t, and a form in G of weight t ≥ 1 as well.  The closed
    form (``evolution``) is t times a form in B plus four cross forms in W,
    each below 2n²·max|W_jk|, and every |W_jk| ≤ max G_kk/δ ≤ max G_kk·t on
    the rows that take it (t·δ ≥ 1), so it stays below 10n²·max G_kk·t.
    16 over 10 leaves room for round-off.  Scaling by a power of two is
    exact away from the subnormal range, so a value taken at this scale and
    mapped back by ``back(value, s)`` has the bits of the same value taken
    at G whenever that one is finite and no step of it falls below 2⁻¹⁰²².
    """
    gram_exp, t_exp = np.frexp([system.gram.diagonal().real.max(), np.max(t)])[1].tolist()
    s = max(0, gram_exp + t_exp + (16 * system.size**2).bit_length() - 1023)
    return (system.gram * 2.0**-s if s else system.gram), s


def frequency(z, system: SpectralSystem):
    """The frequency λ(z) = Σ λ_k|z_k|² / Σ|z_k|², always in [λ_min, λ_max].

    A float for one state, an array of one frequency per row for a block.
    """
    c = coefficients_of(z, system)
    return _per_row(_moments(c, system)[3], c)


def _frequency_rows(c: np.ndarray, system: SpectralSystem) -> tuple[np.ndarray, ...]:
    """Per row of ``c``, as ``coefficients_of`` returns it: λ, the residual and ‖c‖²."""
    w, amax, total, mean = _moments(c, system)
    with np.errstate(over="ignore"):
        norm_sq = amax * amax * total
    return mean, _row_fsum((system.eigenvalues - mean[:, None]) ** 2 * w) / total, norm_sq


def frequency_report(z, system: SpectralSystem) -> FrequencyReport:
    """Frequency, residual, and true-scale squared norm in one pass, per row of a block."""
    c = coefficients_of(z, system)
    return FrequencyReport(*(_per_row(values, c) for values in _frequency_rows(c, system)))


def _row_forms(c: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """u*Mu per row of the (k, n) block ``c``, u = conj(row), with ``matrix`` one
    (n, n) M for every row or a (k, n, n) stack, one M per row.

    A complex M takes two stacked matmuls: M·u for every row, then the
    row·column product c·(M·u).  For blasable strides numpy runs them as one
    ``gemv`` and one ``zdotu`` per row, so each form is bit for bit the
    per-row ``vdot(u, M @ u)`` (``tests/oracles.py::row_forms_by_row``).
    A real M gives the real forms aᵀMa + bᵀMb, a and b the real and
    imaginary parts of a row, which is u*Mu for a symmetric M and its real
    part for any other.  The rows are viewed, not copied, as interleaved
    (n, 2) real arrays; X = [a; b] is the transposed view, and per row one
    ``gemm`` makes Y = X·M and two ``ddot`` give a·Y₀ and b·Y₁, summed
    (``tests/oracles.py::real_row_forms_by_row`` runs the same views one row
    at a time; a contiguous copy of X rounds differently).  Either way a
    block gives each row's single-state value.  Keep every M C-contiguous:
    a strided M takes another BLAS path and rounds differently.
    """
    m = matrix if matrix.ndim == 3 else matrix[None]
    if np.iscomplexobj(m):
        return np.matmul(c[:, None, :], np.matmul(m, c.conj()[:, :, None]))[:, 0, 0]
    k, n = c.shape
    x = np.ascontiguousarray(c).view(float).reshape(k, n, 2).transpose(0, 2, 1)
    parts = np.matmul(x[:, :, None, :], np.matmul(x, m)[:, :, :, None])[:, :, 0, 0]
    return parts[:, 0] + parts[:, 1]


def observed_energy_sq(z, system: SpectralSystem):
    """‖Cz‖² = Σ_{jk} G_{jk} z_j conj(z_k), real by Hermiticity; one per row of a block.

    Taken in the power-of-two frame of each row, at ``_scaled_gram`` with
    t = 1, and scaled back in one exponent, so a value in the float range
    reads finite whatever the sizes of z and G, and past it inf, never nan.
    """
    c, back = _power_of_two_frame(coefficients_of(z, system))
    gram, s = _scaled_gram(system)
    return back(_row_forms(c, gram).real, s)

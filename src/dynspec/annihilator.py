"""The annihilating-polynomial engine.

Given the restricted power sequence seq[l] = (restriction of B^l x), the
smallest monic polynomial annihilating the sequence is the smallest
degree r whose stacked block system

    seq[k + r] + sum_{l < r} alpha_l seq[k + l] = 0,   k = 0..rows-1

is consistent. Each block contributes one row per restricted coordinate,
so the scalar form is a plain Hankel system. Consistency is monotone in
r: the restricted Krylov space span{x, Bx, ..., B^(r-1) x} grows strictly
until r reaches the minimal degree r* and then stops growing, so the
system fails below r* and holds from r* on. The search therefore gallops
and bisects on r (see ``annihilator_from_samples``) instead of trying
every degree in turn; when the cap r_max does not fit, it refuses
without solving the degrees it skipped. A generic state has one root
per observable eigenvalue, so r* is almost surely the a-priori bound
r_max itself (d, or the sparsity). When the cap is the first degree
that fits, the search tries r_max - 1 before it bisects: at
r* = r_max = 96 it solves degrees 1, 2, 4, ..., 64, 96 and 95, 9 solves.

Extending the number of row blocks beyond the degree does not change the
solution set, which is why one solver serves both the generic engine
(rows = r_max) and the aliased per-class systems (rows = m).

A search builds the (rows * q) x (r_max + 1) block-Hankel matrix H once,
column l stacking seq[l], ..., seq[l + rows - 1]; degree r then solves
on the first r columns of H against minus column r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DimensionError, NoAnnihilator
from .numerics import least_squares, zero_threshold


@dataclass(frozen=True, eq=False)
class AnnihilatorPolynomial:
    """A computed monic annihilator, by its low-order coefficients (as
    ``poly_roots`` takes them), with the relative residual of its system."""

    poly: np.ndarray
    relative_residual: float

    @property
    def degree(self) -> int:
        return self.poly.size


def _block_hankel(terms: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """H[k * q + i, l] = terms[k + l, i] for a time-major (T, q) array,
    k < rows, l < cols; needs T >= rows + cols - 1.

    H is a read-only view of ``terms``, built by the ``np.ndarray``
    constructor over its buffer: about 1-2 us a call, against 5-8 us for
    ``as_strided`` and 20 us for ``sliding_window_view``, whose checks
    are a real share of a 3 x 4 search. A ``terms`` that is not
    C-contiguous is copied first; the search always passes a fresh
    contiguous product, so nothing is copied there. The view reads past
    the buffer if T is too small, hence the check."""
    T, q = terms.shape
    if T < rows + cols - 1:
        raise DimensionError(f"need at least rows + cols - 1 = {rows + cols - 1} time levels, got {T}")
    terms = np.ascontiguousarray(terms)
    step, coord = terms.strides
    windows = np.ndarray((rows, q, cols), terms.dtype, terms, strides=(step, coord, step))
    windows.flags.writeable = False
    return windows.reshape(rows * q, cols)


def annihilator_from_samples(seq, r_max: int, rows: int | None = None,
                             tol: float = config.TAU_SOLVE,
                             zero_scale: float | None = None) -> AnnihilatorPolynomial:
    """Smallest-degree monic annihilator of a restricted power sequence.

    ``seq`` is time-major: seq[l] is the restricted sample at time l (a
    vector, or a scalar for the scalar form). ``rows`` defaults to
    max(r_max, 1), which needs 2 * r_max terms (one when r_max = 0).
    Degree 0 (the constant polynomial 1) is returned only when the whole
    sequence is numerically zero: its peak modulus is at most
    ``zero_threshold(zero_scale)``. ``zero_scale``
    defaults to that peak itself, so only an all-zero sequence counts as
    zero, whatever the data's scale; the pipelines pass the largest
    sample of all their sequences. Otherwise the result is the smallest
    degree whose system reaches relative residual < tol, found by an
    exponential search: degrees 1, 2, 4, 8, ..., capped at r_max, are
    tried until one fits, then the range between the last degree that
    failed and the first that fit is bisected. When the first degree
    that fits is the cap r_max, which is the generic case (see the
    module docstring), degree r_max - 1 is tried first: if it fails,
    r_max is the degree, settled by one solve below the cap; if it fits,
    the range up to r_max - 1 is bisected. Over the degrees below the
    cap that costs at most one solve more than bisecting up to r_max
    (a single degree may take two more: r* = 12 under r_max = 14 takes
    9 solves against 7). Each tried degree is the same
    ``least_squares`` call that trying 1, 2, ..., r* in turn makes, so
    the accepted degree, its coefficients and its residual are
    bit-identical to that ascending search's. A search costs at most
    2 * ceil(log2(r*)) + 1 solves instead of r*, and
    ceil(log2(r_max)) + 2 at r* = r_max (9 at r_max = 96); it builds no
    system wider than 2 * r* unless r_max caps it. With r_max <= 3 it
    tries 1, 2, 3 in order, exactly as the ascending search does.

    The bisection relies on consistency being monotone in r, which holds
    for exact recurrences (see the module docstring). Data that break
    their recurrence only in their last terms are not monotone: the
    degree-(r+1) system reads one term more than the degree-r one, so a
    lower degree may fit where a higher one does not. On such data the
    gallop can settle on a larger degree than the ascending search, because
    it reads more of the data, or refuse where that search accepts a lower
    degree. No problem written by ``simulate`` is of that kind; telling
    such a degree apart is left to a degree certificate, which this
    search does not give.

    Raises NoAnnihilator when the cap r_max does not fit (r_max too
    small, or degenerate data): by monotonicity no lower degree fits
    either, so the degrees the gallop skipped are not solved, and a
    failing search costs no more solves than the gallop, at most
    ceil(log2(r_max)) + 1. The error carries the smallest residual among
    the degrees it solved, not over all of 1..r_max. With r_max = 0 no
    degree is tried and the best residual is inf.
    """
    terms = np.asarray(seq, dtype=np.complex128)
    if terms.ndim == 1:
        terms = terms[:, None]
    if terms.ndim != 2 or terms.shape[0] < 1 or terms.shape[1] < 1:
        raise DimensionError(f"sample sequence must be 1-D or 2-D time-major, got shape {terms.shape}")
    # One reduction serves the finiteness check (a NaN or inf makes the
    # peak non-finite) and the zero test below.
    peak = float(np.abs(terms).max())
    if not math.isfinite(peak):
        raise DimensionError("sample sequence contains non-finite values")
    if r_max < 0:
        raise DimensionError(f"r_max must be nonnegative, got {r_max}")
    rows = max(r_max, 1) if rows is None else rows
    if rows < 1:
        raise DimensionError(f"need at least one row block, got {rows}")
    if terms.shape[0] < rows + r_max:
        raise DimensionError(
            f"need at least rows + r_max = {rows + r_max} time levels, got {terms.shape[0]}")

    if peak <= zero_threshold(peak if zero_scale is None else zero_scale):
        return AnnihilatorPolynomial(np.zeros(0, dtype=np.complex128), 0.0)

    # Scale the peak into [0.5, 1) by a power of two, ``np.ldexp`` on the
    # float view: exact down to subnormals (a subnormal peak included), so
    # at ordinary scales every residual and coefficient keeps its bits, and
    # the degree is the same at any scale of the data.
    terms = np.ldexp(np.ascontiguousarray(terms).view(np.float64),
                     -math.frexp(peak)[1]).view(np.complex128)
    H = _block_hankel(terms, rows, r_max + 1)
    solved = {}

    def fits(r: int) -> bool:
        solved[r] = least_squares(H[:, :r], -H[:, r])
        return solved[r][1] < tol

    # Gallop: degrees 1, 2, 4, ... capped at r_max, until one fits; ``lo``
    # is the largest degree that failed, ``hi`` the first that fit.
    lo, hi = 0, min(1, r_max)
    while lo < r_max and not fits(hi):
        lo, hi = hi, min(2 * hi, r_max)
    if lo == r_max:
        # The cap did not fit, so by monotonicity no degree the gallop
        # skipped can.
        best = min((res for _, res in solved.values()), default=float("inf"))
        raise NoAnnihilator(
            f"no annihilator of degree <= {r_max} fits the sequence (best residual {best:.3e})", best)
    # The cap fit: it is the generic degree, so settle it by one solve
    # below it before bisecting.
    if hi == r_max and lo < r_max - 1:
        if fits(r_max - 1):
            hi = r_max - 1
        else:
            lo = r_max - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return AnnihilatorPolynomial(*solved[hi])


def scalar_annihilator(c, r_max: int, tol: float = config.TAU_SOLVE,
                       zero_scale: float | None = None) -> AnnihilatorPolynomial:
    """Scalar form of the engine, with the default max(r_max, 1) row
    blocks; the coefficient matrix is Hankel."""
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 1:
        raise DimensionError(f"expected a scalar sequence, got shape {c.shape}")
    return annihilator_from_samples(c[:, None], r_max, tol=tol, zero_scale=zero_scale)

"""The annihilating-polynomial engine.

Given the restricted power sequence seq[l] = (restriction of B^l x), the
smallest monic polynomial annihilating the sequence is found by an
ascending degree search: degree r is accepted as soon as the stacked
block system

    seq[k + r] + sum_{l < r} alpha_l seq[k + l] = 0,   k = 0..rows-1

is consistent, which guarantees minimality. Each block contributes one
row per restricted coordinate, so the scalar form is a plain Hankel
system. Extending the number of row blocks beyond the degree does not
change the solution set, which is why one solver serves both the generic
engine (rows = r_max) and the aliased per-class systems (rows = m).

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

    H is a read-only strided view of ``terms``, built by ``as_strided``
    (about 7 us) rather than ``sliding_window_view``, whose argument
    checks cost about 20 us per call, a real share of a 3 x 4 search. The
    view reads past ``terms`` if T is too small, hence the check."""
    T, q = terms.shape
    if T < rows + cols - 1:
        raise DimensionError(f"need at least rows + cols - 1 = {rows + cols - 1} time levels, got {T}")
    step, coord = terms.strides
    windows = np.lib.stride_tricks.as_strided(terms, (rows, q, cols), (step, coord, step),
                                              writeable=False)
    return windows.reshape(rows * q, cols)


def annihilator_from_samples(seq, r_max: int, rows: int | None = None,
                             tol: float = config.TAU_SOLVE,
                             zero_scale: float = 1.0) -> AnnihilatorPolynomial:
    """Smallest-degree monic annihilator of a restricted power sequence.

    ``seq`` is time-major: seq[l] is the restricted sample at time l (a
    vector, or a scalar for the scalar form). ``rows`` defaults to r_max,
    which needs 2 * r_max terms. Degree 0 (the constant polynomial 1) is
    returned only when the whole sequence is numerically zero; otherwise
    degrees 1..r_max are tried in ascending order and the first one whose
    system reaches relative residual < tol wins.

    Raises NoAnnihilator, carrying the best residual seen, when no degree
    up to r_max is consistent (r_max too small, or degenerate data).
    """
    terms = np.asarray(seq, dtype=np.complex128)
    if terms.ndim == 1:
        terms = terms[:, None]
    if terms.ndim != 2 or terms.shape[0] < 1 or terms.shape[1] < 1:
        raise DimensionError(f"sample sequence must be 1-D or 2-D time-major, got shape {terms.shape}")
    # One reduction serves the finiteness check (a NaN or inf makes the
    # peak non-finite) and the zero test below.
    peak = float(np.abs(terms).max())
    if not np.isfinite(peak):
        raise DimensionError("sample sequence contains non-finite values")
    if r_max < 0:
        raise DimensionError(f"r_max must be nonnegative, got {r_max}")
    rows = r_max if rows is None else rows
    if rows < 1:
        raise DimensionError(f"need at least one row block, got {rows}")
    if terms.shape[0] < rows + r_max:
        raise DimensionError(
            f"need at least rows + r_max = {rows + r_max} time levels, got {terms.shape[0]}")

    if peak <= zero_threshold(zero_scale):
        return AnnihilatorPolynomial(np.zeros(0, dtype=np.complex128), 0.0)

    # Scale the peak into [0.5, 1) by a power of two. That is exact, so at
    # ordinary scales every residual and coefficient keeps its bits, and
    # data near either end of the float range no longer underflows or
    # overflows in the solves.
    shift = -math.frexp(peak)[1]
    if shift > 1000:
        # a subnormal peak, whose 2**shift would overflow: lift the terms
        # into the normal range first, which is exact as well
        terms, shift = terms * 2.0 ** 64, shift - 64
    terms = terms * math.ldexp(1.0, shift)
    H = _block_hankel(terms, rows, r_max + 1)
    best = float("inf")
    for r in range(1, r_max + 1):
        alpha, residual = least_squares(H[:, :r], -H[:, r])
        if residual < tol:
            return AnnihilatorPolynomial(alpha, residual)
        best = min(best, residual)
    raise NoAnnihilator(
        f"no annihilator of degree <= {r_max} fits the sequence (best residual {best:.3e})", best)


def scalar_annihilator(c, r_max: int, rows: int | None = None,
                       tol: float = config.TAU_SOLVE,
                       zero_scale: float = 1.0) -> AnnihilatorPolynomial:
    """Scalar form of the engine; the coefficient matrix is Hankel."""
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 1:
        raise DimensionError(f"expected a scalar sequence, got shape {c.shape}")
    return annihilator_from_samples(c[:, None], r_max, rows=rows, tol=tol, zero_scale=zero_scale)

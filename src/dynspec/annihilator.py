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

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DimensionError, NoAnnihilator
from .numerics import MonicPolynomial, least_squares, zero_threshold


@dataclass(frozen=True)
class AnnihilatorPolynomial:
    """A computed annihilator with the relative residual of its system."""

    poly: MonicPolynomial
    relative_residual: float

    @property
    def degree(self) -> int:
        return self.poly.degree


def _block_hankel(terms: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """H[k * q + i, l] = terms[k + l, i] for a time-major (T, q) array,
    k < rows, l < cols; needs T >= rows + cols - 1."""
    windows = np.lib.stride_tricks.sliding_window_view(terms[:rows + cols - 1], rows, axis=0)
    return windows.transpose(2, 1, 0).reshape(rows * terms.shape[1], cols)


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
    if not np.all(np.isfinite(terms)):
        raise DimensionError("sample sequence contains non-finite values")
    if r_max < 0:
        raise DimensionError(f"r_max must be nonnegative, got {r_max}")
    rows = r_max if rows is None else rows
    if rows < 1:
        raise DimensionError(f"need at least one row block, got {rows}")
    if terms.shape[0] < rows + r_max:
        raise DimensionError(
            f"need at least rows + r_max = {rows + r_max} time levels, got {terms.shape[0]}")

    if float(np.max(np.abs(terms))) < zero_threshold(zero_scale):
        return AnnihilatorPolynomial(MonicPolynomial(np.zeros(0)), 0.0)

    H = _block_hankel(terms, rows, r_max + 1)
    best = float("inf")
    for r in range(1, r_max + 1):
        res = least_squares(H[:, :r], -H[:, r])
        if res.relative_residual < tol:
            return AnnihilatorPolynomial(MonicPolynomial(res.solution), res.relative_residual)
        best = min(best, res.relative_residual)
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

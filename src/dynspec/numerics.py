"""Dense complex linear-algebra kernels.

Everything here is a pure function of its inputs: the DFT in both
directions (numpy's pocketfft, any length, O(d log d)), rank-revealing
least squares, monic polynomials and their roots, and the shared zero
and separation tests. Vectors and matrices are plain complex ndarrays;
``as_vector`` and ``as_matrix`` check their shape and finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import config
from .errors import DimensionError

_RESIDUAL_FLOOR = float(np.finfo(np.float64).tiny)
_MATCH_BLOCK_ENTRIES = 1 << 16


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite, nonempty 1-D complex array."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"{name}: expected a nonempty 1-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name}: entries must be finite")
    return arr


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, nonempty 2-D complex array."""
    arr = np.asarray(M, dtype=np.complex128)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionError(f"{name}: expected a nonempty 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name}: entries must be finite")
    return arr


def zero_threshold(scale: float) -> float:
    """Magnitude below which a value counts as zero, for data of the
    given scale: an absolute floor plus a relative factor."""
    return max(config.ZERO_FLOOR, config.ZERO_REL * scale)


def min_pairwise_gap(values: np.ndarray) -> float:
    """Smallest |values[i] - values[j]| over i != j (needs two entries)."""
    dist = np.abs(values[:, None] - values[None, :])
    dist[np.diag_indices_from(dist)] = np.inf
    return float(dist.min())


def dft(v, inverse: bool = False) -> np.ndarray:
    """Discrete Fourier transform with kernel exp(-2*pi*i*k*l/d).

    The forward transform is unnormalized; the inverse carries the 1/d
    factor, so ``dft(dft(v), inverse=True)`` returns ``v`` to machine
    precision. Computed by numpy's pocketfft: any length, O(d log d),
    deterministic for identical inputs.
    """
    arr = as_vector(v, "dft input")
    return np.fft.ifft(arr) if inverse else np.fft.fft(arr)


@dataclass(frozen=True)
class LstSqResult:
    """Minimum-norm least-squares solution and its residual.

    ``relative_residual`` is measured against the right-hand-side norm with
    a tiny floor, so an exactly reproduced (or all-zero) rhs gives 0.
    """

    solution: np.ndarray
    relative_residual: float


def least_squares(M, rhs) -> LstSqResult:
    """Minimum-norm least squares via a column-pivoted orthogonal
    factorization (LAPACK gelsy), never normal equations.

    Deterministic for identical inputs. The stacked systems this solves
    can be ill-conditioned Hankel blocks, hence the rank-revealing driver.

    The residual is formed by numpy's own einsum loop, not the BLAS
    product ``A @ sol``: OpenBLAS runs a complex mat-vec multi-threaded
    once rows * cols >= 4096. On a 2-vCPU machine with two BLAS threads,
    such a product after a solve took about 4-7 ms, against about 4-13 us
    single-threaded; the einsum loop takes 20-60 us at 96 rows. Inputs
    are checked finite by ``as_matrix`` and ``as_vector``, so LAPACK's
    finiteness scan is skipped.
    """
    A = as_matrix(M, "coefficient matrix")
    b = as_vector(rhs, "right-hand side")
    if A.shape[0] != b.size:
        raise DimensionError(f"matrix has {A.shape[0]} rows but rhs has {b.size} entries")
    sol = scipy.linalg.lstsq(A, b, lapack_driver="gelsy", check_finite=False)[0]
    residual = float(np.linalg.norm(np.einsum("ij,j->i", A, sol) - b))
    rel = residual / max(float(np.linalg.norm(b)), _RESIDUAL_FLOOR)
    return LstSqResult(solution=sol, relative_residual=rel)


@dataclass(frozen=True)
class MonicPolynomial:
    """Monic polynomial stored by its low-order coefficients.

    ``low_coeffs[l]`` multiplies lambda^l; the leading coefficient is an
    implicit 1, so degree 0 is the constant polynomial 1.
    """

    low_coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.low_coeffs, dtype=np.complex128).ravel()
        if not np.all(np.isfinite(arr)):
            raise DimensionError("polynomial coefficients must be finite")
        object.__setattr__(self, "low_coeffs", arr)

    @property
    def degree(self) -> int:
        return self.low_coeffs.size

    def coeffs_desc(self) -> np.ndarray:
        """Coefficients from the leading 1 down to the constant term."""
        return np.concatenate(([1.0 + 0j], self.low_coeffs[::-1]))


def poly_roots(p: MonicPolynomial) -> np.ndarray:
    """All ``degree`` roots, with multiplicity, via the balanced
    companion-matrix eigensolve."""
    if p.degree == 0:
        return np.zeros(0, dtype=np.complex128)
    return np.roots(p.coeffs_desc())


def set_match_error(got, expected) -> float:
    """Symmetric worst-case nearest-neighbor distance between two point
    sets in the complex plane (inf when exactly one side is empty)."""
    a = np.asarray(got, dtype=np.complex128).ravel()
    b = np.asarray(expected, dtype=np.complex128).ravel()
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return float("inf")
    # Row blocks of at most _MATCH_BLOCK_ENTRIES distances, so memory stays
    # bounded; min and max are exact, so the result equals the dense one.
    step = max(1, _MATCH_BLOCK_ENTRIES // b.size)
    row_min = np.empty(a.size)
    col_min = np.full(b.size, np.inf)
    for start in range(0, a.size, step):
        dist = np.abs(a[start:start + step, None] - b[None, :])
        row_min[start:start + step] = dist.min(axis=1)
        np.minimum(col_min, dist.min(axis=0), out=col_min)
    return float(max(row_min.max(), col_min.max()))

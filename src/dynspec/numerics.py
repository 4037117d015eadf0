"""Dense complex linear-algebra kernels.

Everything here is a pure function of its inputs: the DFT in both
directions (numpy's pocketfft, any length, O(d log d)), rank-revealing
least squares, the roots of a monic polynomial given by its low-order
coefficients, and the shared zero and separation tests. Vectors and
matrices are plain complex ndarrays; ``as_vector`` and ``as_matrix``
check their shape and finiteness.

The degree search solves many tiny systems (the invariant pipeline
solves 3 x k systems, thousands per recovery), so least squares calls
LAPACK's zgelsy and the root finder numpy's eigenvalue routine directly.
On such systems ``scipy.linalg.lstsq`` spent several times the LAPACK
call on its generic checks, and ``np.roots`` a smaller share; the direct
calls pass the same arguments and give bit-identical results.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import zgelsy, zgelsy_lwork

from . import config
from .errors import DimensionError

_RESIDUAL_FLOOR = float(np.finfo(np.float64).tiny)
_EPS = float(np.finfo(np.float64).eps)
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


def least_squares(M, rhs) -> tuple[np.ndarray, float]:
    """Minimum-norm least squares via a column-pivoted orthogonal
    factorization (LAPACK gelsy), never normal equations. Returns
    (solution, relative_residual); the residual is relative to the
    right-hand-side norm with a tiny floor, so an exactly reproduced (or
    all-zero) rhs gives 0.

    Deterministic for identical inputs. The stacked systems this solves
    can be ill-conditioned Hankel blocks, hence the rank-revealing driver.

    zgelsy is called directly, with the arguments
    ``scipy.linalg.lstsq(..., lapack_driver="gelsy")`` passes: rank cutoff
    ``cond`` = machine epsilon, all columns free to pivot, and the rhs
    zero-padded to n entries when there are fewer rows than columns. On
    the 3 x k systems of the invariant pipeline the ``lstsq`` wrapper
    cost several times the LAPACK call (about 19 us against 5 us per
    solve on a 2-vCPU machine); the solutions are bit-identical. The workspace query costs
    under a microsecond, so it runs on every call. Inputs are checked
    finite by ``as_matrix`` and ``as_vector``, so no finiteness scan is
    repeated.

    The residual is formed by numpy's own einsum loop, not the BLAS
    product ``A @ sol``: OpenBLAS runs a complex mat-vec multi-threaded
    once rows * cols >= 4096. On a 2-vCPU machine with two BLAS threads,
    such a product after a solve took about 4-7 ms, against about 4-13 us
    single-threaded; the einsum loop takes 20-60 us at 96 rows.
    """
    A = as_matrix(M, "coefficient matrix")
    b = as_vector(rhs, "right-hand side")
    if A.shape[0] != b.size:
        raise DimensionError(f"matrix has {A.shape[0]} rows but rhs has {b.size} entries")
    m, n = A.shape
    work, _ = zgelsy_lwork(m, n, 1, _EPS)
    padded = b
    if m < n:
        padded = np.zeros(n, dtype=np.complex128)
        padded[:m] = b
    _, x, _, _, info = zgelsy(A, padded, np.zeros(n, dtype=np.int32), _EPS, int(work.real))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK zgelsy")
    sol = x[:n]
    residual = float(np.linalg.norm(np.einsum("ij,j->i", A, sol) - b))
    rel = residual / max(float(np.linalg.norm(b)), _RESIDUAL_FLOOR)
    return sol, rel


def poly_roots(low_coeffs) -> np.ndarray:
    """All roots, with multiplicity, of the monic polynomial lambda^r +
    sum_{l<r} low_coeffs[l] lambda^l, r = len(low_coeffs), as a complex128
    array (empty for r = 0).

    Follows ``np.roots`` step by step, without its generic checks: the
    exact-zero low-order coefficients low[0..z-1] give z trailing roots
    at 0, and the other roots are the eigenvalues (``np.linalg.eigvals``,
    balanced) of the companion matrix of the remaining polynomial, whose
    first row is -p[1:] / p[0] and whose subdiagonal is ones. The roots
    are bit-identical to ``np.roots``, except that a pure power lambda^r
    gives complex zeros where ``np.roots`` gives float ones.
    """
    low = np.asarray(low_coeffs, dtype=np.complex128).ravel()
    if not np.all(np.isfinite(low)):
        raise DimensionError("polynomial coefficients must be finite")
    nonzero = np.flatnonzero(low)
    zeros = int(nonzero[0]) if nonzero.size else low.size
    p = np.concatenate(([1.0 + 0j], low[zeros:][::-1]))
    n = p.size - 1
    if n == 0:
        return np.zeros(zeros, dtype=np.complex128)
    companion = np.eye(n, k=-1, dtype=np.complex128)
    # p[0] is 1, but dividing by it as np.roots does keeps the matrix
    # identical to np.roots' down to the sign of its zeros
    companion[0, :] = -p[1:] / p[0]
    return np.concatenate((np.linalg.eigvals(companion), np.zeros(zeros, dtype=np.complex128)))


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

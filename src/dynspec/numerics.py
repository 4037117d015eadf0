"""Dense complex linear-algebra kernels.

Everything here is a pure function of its inputs: the DFT in both
directions (numpy's pocketfft, any length, O(d log d)), rank-revealing
least squares, the roots of monic polynomials given by their low-order
coefficients, the distance between two point sets, the shared zero
test, and ``distinct_points``, the one sweep that both tests separation
and deduplicates roots. Vectors and matrices are plain complex ndarrays;
``as_vector`` and ``as_matrix`` check their shape and finiteness.

The degree search solves many tiny systems (the invariant pipeline
solves 3 x k systems, thousands per recovery), so least squares calls
LAPACK's zgelsy and the root finder numpy's eigenvalue routine directly.
On such systems ``scipy.linalg.lstsq`` spent several times the LAPACK
call on its generic checks, and ``np.roots`` a smaller share; the direct
calls pass the same arguments and give bit-identical results.

The work per source and per point is done over whole arrays. The
invariant pipeline has one residue class per d/m frequencies, 512 at
d = 1536: ``poly_roots`` takes the stack of all their polynomials and
runs one batched eigensolve per count of zero roots, and
``set_match_error`` compares two spectra through a window of each
point's real-order neighbours instead of a dense distance table. Both
give the bits the per-row and dense forms give. The degree search itself
still runs per source, one least-squares solve per tried degree, but it
gallops and bisects on the degree, so a search of degree r* tries about
2 log2(r*) degrees rather than r*. A batched screen across sources would
change the last bits of the coefficients and the per-search solve counts
that the benchmark's tests pin.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np
from scipy.linalg.lapack import zgelsy, zgelsy_lwork

from . import config
from .errors import DimensionError

_RESIDUAL_FLOOR = float(np.finfo(np.float64).tiny)
_EPS = float(np.finfo(np.float64).eps)
_MATCH_BLOCK_ENTRIES = 1 << 16
# Real-order neighbours on each side whose distance bounds a point's
# nearest-neighbour search in set_match_error.
_MATCH_NEIGHBOURS = 2


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite, nonempty 1-D complex array."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"{name}: expected a nonempty 1-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionError(f"{name}: entries must be finite")
    return arr


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, nonempty 2-D complex array."""
    arr = np.asarray(M, dtype=np.complex128)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionError(f"{name}: expected a nonempty 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionError(f"{name}: entries must be finite")
    return arr


def zero_threshold(scale: float) -> float:
    """Magnitude at or below which a value counts as zero, for data of the
    given scale: a fixed fraction of it, so only zero counts as zero at
    scale 0."""
    return config.ZERO_REL * scale


def distinct_points(points, tol: float) -> np.ndarray:
    """The points that survive a greedy sweep: visited in ascending
    (real, imag) order, a point is dropped when it lies within ``tol`` of
    an earlier survivor. Survivors are input points, come out in that
    order, and are pairwise more than ``tol`` apart.

    A point is dropped exactly when some pair of points is within
    ``tol``, so ``distinct_points(v, tol).size == v.size`` tests that
    every pairwise distance exceeds ``tol``: one sweep serves both that
    separation test and root deduplication. Since survivors are in
    ascending real order, only the trailing ones whose real part lies
    within ``tol`` of a point can be its duplicate: a sweep line,
    quadratic only when every real part is that close, with no dense
    distance table.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    order = np.lexsort((pts.imag, pts.real))
    reps: list[complex] = []
    for z in pts[order].tolist():
        if _is_new(z, reps, tol):
            reps.append(z)
    return np.array(reps, dtype=np.complex128)


def _is_new(z: complex, reps: list, tol: float) -> bool:
    """Whether z is farther than tol from every survivor in reps, which
    are in ascending real order with real parts at most z.real."""
    for rep in reversed(reps):
        if z.real - rep.real > tol:
            return True
        if not abs(z - rep) > tol:
            return False
    return True


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
    single-threaded; the einsum loop takes 20-60 us at 96 rows. Both
    norms are ``np.linalg.norm``'s, computed by ``_norm``.
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
    residual = _norm(np.einsum("ij,j->i", A, sol) - b)
    rel = residual / max(_norm(b), _RESIDUAL_FLOOR)
    return sol, rel


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a complex vector, bit for bit, by the steps
    it takes: a ``ravel(order="K")`` (a contiguous copy of a strided
    vector, so the dot products below see the same strides), then
    sqrt(re . re + im . im). The degree search forms two norms per solve,
    and the generic function's dispatch cost more than the arithmetic."""
    flat = v.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def poly_roots(low_coeffs) -> np.ndarray:
    """All roots, with multiplicity, of the monic polynomial lambda^r +
    sum_{l<r} low_coeffs[l] lambda^l, r = len(low_coeffs), as a complex128
    array (empty for r = 0). A (k, r) array is a stack of k such
    polynomials and gives the (k, r) array of their roots, row by row.

    Follows ``np.roots`` step by step, without its generic checks: the
    exact-zero low-order coefficients low[0..z-1] give z trailing roots
    at 0, and the other roots are the eigenvalues (``np.linalg.eigvals``,
    balanced) of the companion matrix of the remaining polynomial, whose
    first row is -p[1:] / p[0] and whose subdiagonal is ones. The roots
    are bit-identical to ``np.roots``, except that a pure power lambda^r
    gives complex zeros where ``np.roots`` gives float ones.

    The rows of a stack that share z go through one batched eigensolve,
    which runs the same LAPACK routine on the same matrices, so each row
    has the bits that row alone would give; a vector is a stack of one.
    Pass a whole stack in one call: each call has a fixed cost, so 512
    degree-3 rows take several times longer one call per row than as
    one stack.
    """
    low = np.asarray(low_coeffs, dtype=np.complex128)
    if low.ndim < 2:
        return poly_roots(low.reshape(1, low.size))[0]
    if low.ndim > 2:
        raise DimensionError(f"expected coefficients of shape (r,) or (k, r), got {low.shape}")
    if not np.isfinite(low).all():
        raise DimensionError("polynomial coefficients must be finite")
    k, r = low.shape
    # the count of leading exact zeros (-0.0 included) of each row
    zeros = np.logical_and.accumulate(low == 0, axis=1).sum(axis=1)
    roots = np.zeros((k, r), dtype=np.complex128)
    for z in np.unique(zeros[zeros < r]).tolist():
        rows = np.flatnonzero(zeros == z)
        n = r - z
        companion = np.zeros((rows.size, n, n), dtype=np.complex128)
        companion[:, 1:, :-1] = np.eye(n - 1, dtype=np.complex128)
        # p[0] is 1, but dividing by it as np.roots does keeps the matrix
        # identical to np.roots' down to the sign of its zeros
        companion[:, 0, :] = -low[rows, z:][:, ::-1] / (1 + 0j)
        roots[rows, :n] = np.linalg.eigvals(companion)
    return roots


def set_match_error(got, expected) -> float:
    """Symmetric worst-case nearest-neighbor distance between two point
    sets in the complex plane (inf when exactly one side is empty).

    Equals the dense formula, the max over both sides of each point's
    smallest ``np.abs`` distance to the other side, bit for bit, NaN and
    inf entries included, without forming the dense table: each point is
    compared only with the candidates ``_match_candidates`` yields, which
    hold its nearest neighbour, and min and max are exact.
    """
    a = np.asarray(got, dtype=np.complex128).ravel()
    b = np.asarray(expected, dtype=np.complex128).ravel()
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return float("inf")
    row_min = np.full(a.size, np.inf)
    col_min = np.full(b.size, np.inf)
    # every pair's distance counts for both of its points; np.minimum
    # flags a NaN it propagates as invalid, which the dense min does not
    with np.errstate(invalid="ignore"):
        for i, j in chain(_match_candidates(a, b), (ji[::-1] for ji in _match_candidates(b, a))):
            dist = np.abs(a[i] - b[j])
            np.minimum.at(row_min, i, dist)
            np.minimum.at(col_min, j, dist)
    return float(max(row_min.max(), col_min.max()))


def _match_candidates(queries: np.ndarray, targets: np.ndarray):
    """(query index, target index) pairs, in chunks of at most
    ``_MATCH_BLOCK_ENTRIES``, that hold every query's nearest target.

    A finite query's candidates are the finite targets whose real part is
    within u of its own, where u is its distance to the
    ``_MATCH_NEIGHBOURS`` finite targets on each side of it in real
    order: a target nearer than u is that close in real part. u is
    widened by a few ulps of the real parts, so rounding in the distances
    and the bounds cannot drop one. A non-finite query's candidates are
    all targets; the non-finite targets of a finite query are its
    candidates in the other direction, whose queries they are.
    """
    # candidate ranges index ``perm``: the finite targets in real order,
    # then the others (keyed +inf)
    finite_t = np.isfinite(targets)
    key = np.where(finite_t, targets.real, np.inf)
    perm = key.argsort(kind="stable")
    n_finite = int(np.count_nonzero(finite_t))
    keys = key[perm[:n_finite]]
    lo = np.zeros(queries.size, dtype=np.intp)
    hi = np.full(queries.size, targets.size, dtype=np.intp)
    q = np.nonzero(np.isfinite(queries))[0]
    hi[q] = 0
    if n_finite and q.size:
        re = queries.real[q]
        pos = keys.searchsorted(re)[:, None] + np.arange(-_MATCH_NEIGHBOURS, _MATCH_NEIGHBOURS)
        near = perm[np.minimum(np.maximum(pos, 0), n_finite - 1)]
        u = np.abs(queries[q, None] - targets[near]).min(axis=1)
        reach = (u + np.abs(re)) * (4 * _EPS) + u
        lo[q] = keys.searchsorted(re - reach, "left")
        hi[q] = keys.searchsorted(re + reach, "right")
    ends = (hi - lo).cumsum()
    total = int(ends[-1])
    for start in range(0, total, _MATCH_BLOCK_ENTRIES):
        flat = np.arange(start, min(start + _MATCH_BLOCK_ENTRIES, total))
        query = ends.searchsorted(flat, "right")
        yield query, perm[hi[query] - (ends[query] - flat)]

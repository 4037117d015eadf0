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
calls pass the same solver arguments and give bit-identical solutions.
scipy is imported at the first solve, so the commands that never solve
(``simulate`` and ``verify``) do not load it, which takes about 0.3 s
off each of them.

A solve's residual is the one the paper's Krylov step asks for: the
distance of the rhs from the span of the columns, read from the
orthogonal factorization gelsy already made (the entries of Q^H b past
column n) rather than from a product formed again. It is exactly 0 for a
square system of full rank. Only a system that gelsy finds
rank-deficient still forms the einsum product M x - b.

Inputs are checked for finiteness once, where they enter: a degree
search's sequence is proved finite as a whole by
``annihilator_from_samples``, so ``least_squares`` does not rescan every
slice of it. It keeps its O(1) shape and row-count checks and, after the
solve, tests only that its residual and its solution are finite, which
a NaN or inf anywhere in its inputs always breaks; only then does it
scan them, to raise the checks' own message. On a 2-vCPU machine with
one BLAS thread, a solve of the invariant pipeline (3 x 1 to 3 x 3)
costs about 8-9 us: 3-4 us in zgelsy, 2-3 us for the two norms and the
solution's finiteness test, and 2 us of conversion, workspace query and
slicing. The product that every solve used to form took another 4 us,
and scanning both inputs for finiteness would add 4-5 us.

The work per source and per point is done over whole arrays. The
invariant pipeline has one residue class per d/m frequencies, 512 at
d = 1536: ``poly_roots`` takes the stack of all their polynomials and
runs one batched eigensolve per count of zero roots, and
``set_match_error`` compares two spectra through a window of each
point's real-order neighbours instead of a dense distance table. Both
give the bits the per-row and dense forms give. The degree search itself
still runs per source, one least-squares solve per tried degree, but it
gallops and bisects on the degree, so a search of degree r* tries at
most 2 ceil(log2(r*)) + 1 degrees rather than r*. A generic state's
degree is the a-priori bound itself, one root per observable eigenvalue,
and a search that fits at that cap is settled by one solve just below
it: ceil(log2(r_max)) + 2 solves, 9 at r_max = 96. A batched screen
across sources would change the last bits of the coefficients and the
per-search solve counts that the benchmark's tests pin.
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import chain

import numpy as np

from . import config
from .errors import DimensionError

_RESIDUAL_FLOOR = float(np.finfo(np.float64).tiny)
_EPS = float(np.finfo(np.float64).eps)
# zgelsy leaves an rhs unscaled when its largest entry is within
# [tiny/eps, eps/tiny]; a norm inside these bounds (the lower one times
# sqrt(rows)) proves that, with a factor 2 for the norm's rounding.
_GELSY_SMALL = 2 * _RESIDUAL_FLOOR / _EPS
_GELSY_BIG = _EPS / _RESIDUAL_FLOOR / 2
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
    (solution, relative_residual): the distance of the rhs from the span
    of the columns gelsy kept, relative to the rhs norm with a tiny
    floor, so an exactly reproduced (or all-zero) rhs gives 0, and so
    does every square system of full rank.

    Deterministic for identical inputs. The stacked systems this solves
    can be ill-conditioned Hankel blocks, hence the rank-revealing driver.

    zgelsy is called directly, with the arguments
    ``scipy.linalg.lstsq(..., lapack_driver="gelsy")`` passes: rank cutoff
    ``cond`` = machine epsilon, all columns free to pivot, and the rhs
    zero-padded to n entries when there are fewer rows than columns. On
    the 3 x k systems of the invariant pipeline the ``lstsq`` wrapper
    cost several times the LAPACK call; the solutions are bit-identical.
    The workspace query costs under a microsecond, so it runs on every
    call. scipy is imported at the first solve (``_gelsy``), not with
    the package: ``simulate`` and ``verify`` never solve.

    gelsy factors A P = Q R and overwrites the rhs with Q^H b before it
    solves. When it finds full rank (``rank == n``), entries n..m-1 of
    that vector are the part of b outside the column span, so their norm
    is the residual, with no product formed: empty, so exactly 0, for a
    square system. gelsy scales an rhs whose largest entry lies outside
    [tiny/eps, eps/tiny] and unscales only the solution rows, so an rhs
    whose norm does not place it inside that range (``_GELSY_SMALL``,
    ``_GELSY_BIG``) takes the product instead, as does every system that
    gelsy finds rank-deficient. The two residuals agree to rounding
    except where gelsy misjudges the rank, since its cutoff is machine
    epsilon: the product of random complex 96 x 41 and 41 x 43 factors,
    of rank 41, is reported as rank 43 and solved with a solution of
    norm 3e13 to 1e14, and against a random rhs the tail reads 0.70 to
    0.79 where the product reads 0.72 to 0.84 (six seeds), both far
    above ``config.TAU_SOLVE``. Exactly repeated columns are missed as
    well on some draws; a square system then reads 0 where the product
    reads rounding noise times the solution's norm.

    Inputs are not scanned for finiteness up front: ``M`` must be a
    nonempty 2-D array and ``rhs`` a 1-D array with one entry per row,
    which costs O(1) to check. A NaN or inf anywhere in either always
    makes the product's residual non-finite; on the tail path it makes
    the tail or the solution non-finite (a NaN in A with zeros below it
    leaves gelsy's reflector the identity and reaches only the
    solution), so the sum of the solution's squared entries is tested
    too. Only when a test fails are the inputs scanned by ``as_matrix``
    and ``as_vector``, which raise DimensionError with the message a
    scan before the solve would give ("coefficient matrix: entries must
    be finite", or the right-hand side's). Finite data so large that the
    norms overflow passes the scans, and its non-finite residual is
    returned. A 3 x 3 solve costs about 8-9 us (see the
    module docstring); scanning both inputs would add 4-5 us.

    The product, where it is still formed, is numpy's own einsum loop,
    not the BLAS product ``A @ sol``: OpenBLAS runs a complex mat-vec
    multi-threaded once rows * cols >= 4096. On a 2-vCPU machine with
    two BLAS threads, such a product after a solve took about 4-7 ms,
    against about 4-13 us single-threaded; the einsum loop takes 20-60 us
    at 96 rows. Every norm is ``np.linalg.norm``'s, computed by
    ``_norm``.
    """
    A = np.asarray(M, dtype=np.complex128)
    b = np.asarray(rhs, dtype=np.complex128)
    if A.ndim != 2 or A.size == 0 or b.ndim != 1 or A.shape[0] != b.size:
        _check_inputs(A, b)
        raise DimensionError(f"matrix has {A.shape[0]} rows but rhs has {b.size} entries")
    m, n = A.shape
    zgelsy, zgelsy_lwork = _gelsy()
    work, _ = zgelsy_lwork(m, n, 1, _EPS)
    padded = b
    if m < n:
        padded = np.zeros(n, dtype=np.complex128)
        padded[:m] = b
    _, x, _, rank, info = zgelsy(A, padded, np.zeros(n, dtype=np.int32), _EPS, int(work.real))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK zgelsy")
    sol = x[:n]
    b_norm = _norm(b)
    if rank == n and _GELSY_SMALL * math.sqrt(m) <= b_norm <= _GELSY_BIG:
        rel = _norm(x[n:]) / b_norm
        finite = math.isfinite(rel) and cmath.isfinite(sol.dot(sol))
    else:
        rel = _norm(np.einsum("ij,j->i", A, sol) - b) / max(b_norm, _RESIDUAL_FLOOR)
        finite = math.isfinite(rel)
    if not finite:
        # a non-finite entry anywhere in A or b lands here; finite data
        # whose norms overflow passes the scans
        _check_inputs(A, b)
    return sol, rel


@functools.cache
def _gelsy():
    """scipy's zgelsy and its workspace query, imported once, at the first
    solve: scipy.linalg is most of the package's import time."""
    from scipy.linalg.lapack import zgelsy, zgelsy_lwork
    return zgelsy, zgelsy_lwork


def _check_inputs(A: np.ndarray, b: np.ndarray) -> None:
    """Raise the first of ``least_squares``' shape and finiteness errors,
    in the order ``as_matrix`` and ``as_vector`` find them."""
    as_matrix(A, "coefficient matrix")
    as_vector(b, "right-hand side")


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
    one stack. From n = 76 on, LAPACK's zhseqr takes its multishift path,
    where a companion matrix costs more than a random one of its size:
    on one BLAS thread its eigensolve took about 3-4 ms at n = 75, 9 ms
    at n = 76 and 14-18 ms at n = 96, the largest layer of a deep general
    recovery.
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

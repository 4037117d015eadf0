"""Dense complex linear-algebra kernels.

Everything here is a pure function of its inputs: the DFT in both
directions (numpy's pocketfft, any length, O(d log d)), rank-revealing
least squares, the scale-free norm ratio ``relative_norm``, the roots
of monic polynomials given by their low-order coefficients, the distance
between two point sets, the shared zero test, and ``distinct_points``,
the one sweep that both tests separation and deduplicates roots.
Vectors and matrices are plain complex ndarrays; ``as_vector`` and
``as_matrix`` check their shape and finiteness.

The degree search solves many tiny systems, about log2(r_max) per
search, a refused search included (the invariant pipeline solves 3 x k
systems, thousands per recovery), so least squares calls LAPACK's
zgelsy directly. On such systems ``scipy.linalg.lstsq`` spent several
times the LAPACK call on its generic checks; the direct call passes the
same solver arguments and gives bit-identical solutions. scipy is
loaded at the first solve, so the commands that never solve
(``simulate`` and ``verify``) do not load it, and ``recover`` loads only
scipy's top-level package and its compiled LAPACK extension, never
``scipy.linalg`` (see ``_gelsy``). On a 2-vCPU machine that load took
about 12 ms, 4 MiB of RSS and 600 tracked objects, against 0.15 s,
28 MiB and 17,500 for ``scipy.linalg.lapack``. A cold ``recover --mode
general`` of the d = 96 shift, import included, on one BLAS thread, took
0.14 s instead of 0.30 s, at a peak RSS of 38 MiB instead of 61 MiB.

That load runs scipy's LAPACK, and the OpenBLAS bundled with it, on one
thread, whatever ``OPENBLAS_NUM_THREADS`` says (see ``_gelsy``). At the
degree search's sizes thread wake-ups cost more than the arithmetic: on
a 2-vCPU machine, best of 40 in process, a 96 x 95 solve took 0.55 ms on
one thread against 1.19-1.24 ms on two, and a two-coordinate search of
the d = 96 shift 3.6 ms against 6.7-7.4 ms. zgelsy's bits change with
the thread count from n of about 96, so on one thread its solutions,
and the reports built on them, no longer depend on it. The limits:
- two threads win on random dense systems from about 768 x 768
  (155-167 ms against 182-194 ms), while general recovery of the d = 384
  and d = 512 shifts took the same time under both (2.3-3.2 s and
  4.8-5.4 s, cold);
- numpy's OpenBLAS is a separate library, loaded with numpy, and keeps
  the caller's thread count for the eigensolve fallback of
  ``poly_roots`` and every matrix product;
- an extension that ``scipy.linalg`` loaded before the first solve is
  reused with its threads, and a ``scipy.linalg`` imported after it
  shares the one-thread library;
- a BLAS that ignores ``OPENBLAS_NUM_THREADS`` keeps its own count.

A solve's residual is the one the paper's Krylov step asks for: the
distance of the rhs from the span of the columns, read from the
orthogonal factorization gelsy already made (the entries of Q^H b past
column n) rather than from a product formed again. It is exactly 0 for a
square system of full rank. Only a system that gelsy finds
rank-deficient, or whose rhs norm lies outside [2**-450, 2**450], still
forms the einsum product M x - b.

Every consistency decision compares a ratio of norms with a tolerance,
and none of them depends on the overall scale of the data. The degree
search scales each sequence by a power of two before it solves, and
every other ratio, the product's residual in ``least_squares`` and the
held-out miss of ``spectral.window_recurrence``, is ``relative_norm``'s,
which scales both norms by one power of two first. Such a scaling is
exact, so at ordinary scales no bit changes, and near either end of the
float range no norm overflows or underflows. Only the tail path of
``least_squares``, the hot one, takes plain norms, and only in the band
where they are exact.

Inputs are checked for finiteness once, where they enter: a degree
search's sequence is proved finite as a whole by
``annihilator_from_samples``, so ``least_squares`` does not rescan every
slice of it. It keeps its O(1) shape and row-count checks and, after the
solve, tests only that its residual and its solution are finite, which
a NaN or inf anywhere in its inputs always breaks; only then does it
scan them, to raise the checks' own message. On a 2-vCPU machine with
one BLAS thread, a solve of the invariant pipeline (3 x 1 to 3 x 3)
costs about 8 us: 3-4 us in zgelsy, 2-3 us for the two norms and the
solution's finiteness test, and about 1.5 us of conversion and slicing.
zgelsy's workspace size is a function of the shape, queried once per
(rows, cols) and kept. Scanning both inputs for finiteness would add
4-5 us.

The work per source and per point is done over whole arrays. The
invariant pipeline has one residue class per d/m frequencies, 512 at
d = 1536: ``poly_roots`` takes the stack of all their polynomials and,
per count of zero roots, roots every row by one simultaneous Aberth
iteration, vectorized over rows; only the rows whose roots Smith's
inclusion discs do not isolate go through one batched companion-matrix
eigensolve, with np.roots' bits. ``set_match_error`` compares two
spectra through a window of each point's real-order neighbours instead
of a dense distance table, with the dense form's bits. The degree
search itself still runs per source, one least-squares solve per tried
degree, but it gallops and bisects on the degree, so a search of degree
r* tries at most 2 ceil(log2(r*)) + 1 degrees rather than r*. A generic state's
degree is the a-priori bound itself, one root per observable eigenvalue,
and a search that fits at that cap is settled by one solve just below
it: ceil(log2(r_max)) + 2 solves, 9 at r_max = 96. A batched screen
across sources would change the last bits of the coefficients and the
per-search solve counts that the benchmark's tests pin.
"""

from __future__ import annotations

import cmath
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from itertools import chain

import numpy as np

from . import config
from .errors import DimensionError

_RESIDUAL_FLOOR = float(np.finfo(np.float64).tiny)
_EPS = float(np.finfo(np.float64).eps)
# Products at or above this magnitude lose no relative accuracy to
# underflow in their parts: _aberth_step's separation guard.
_NORMAL_FLOOR = _RESIDUAL_FLOOR / _EPS
# Entries of one block of set_match_error's candidate pairs and of
# _aberth's pairwise differences.
_BLOCK_ENTRIES = 1 << 16
# Aberth steps before a row of poly_roots falls back to the eigensolve.
# Over the test census's 3,070 stack rows the most taken was 40, the
# median 8.
_ABERTH_CAP = 64
# Angle of the first starting point: off the real axis, so the start of
# a real polynomial is not symmetric about it.
_ABERTH_OFFSET = 0.4
# Shapes whose zgelsy workspace size is kept: a degree search of cap
# r_max solves at most about 2 log2(r_max) + 2 shapes, and the pipelines
# share them.
_LWORK_SHAPES = 256
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

    The sweep is a Python loop, about 0.5 us a point, and merged spectra
    are usually separated already: no two of invariant-wide's 1,536 roots
    are within ``tol``. So for finite points and a finite ``tol >= 0`` a
    whole-array certificate (``_separated``) goes first: when it proves
    that no point would be dropped, the sorted points are the answer.
    Otherwise the sweep runs, unchanged; a merge where roots coincide
    always takes it.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    if 0 <= tol < math.inf and np.isfinite(pts).all():
        ordered = np.sort(pts)
        if _separated(ordered, tol):
            return ordered
    reps: list[complex] = []
    for z in pts[np.lexsort((pts.imag, pts.real))].tolist():
        if _is_new(z, reps, tol):
            reps.append(z)
    return np.array(reps, dtype=np.complex128)


def _separated(ordered: np.ndarray, tol: float) -> bool:
    """Whether the sweep of ``distinct_points`` keeps every one of the
    finite points ``ordered``, sorted by (real, imag), at a finite
    ``tol >= 0``; False also when that is not proved.

    If no point is dropped, every earlier point is a survivor, and the
    sweep compares a point z with the earlier points back to the first
    whose real part ``rep`` has ``z.real - rep.real > tol``: a contiguous
    run, since the rounded difference grows as ``rep`` falls. The run
    here starts at the ``searchsorted`` position of z.real - tol, widened
    by a few ulps, so it holds all of the sweep's run; each of its pairs
    is tested with the sweep's test, ``not abs(z - rep) > tol``, against
    ``tol`` raised by a few ulps, so a pair the sweep finds close, at
    exactly ``tol`` included, is never missed to a different rounding of
    the distance. If no pair is flagged, no point is dropped. Pairs are
    tested in chunks (``_ranges``), and the first flagged one ends the
    test. Separated points are distinct, since ``tol >= 0``, so the order
    of ``np.sort`` (by real part, then imaginary) is the sweep's
    ``lexsort`` order, with no ties for stability to settle.
    """
    re = ordered.real
    lo = re.searchsorted(re - (tol + (np.abs(re) + tol) * (4 * _EPS)), "left")
    above = tol * (1 + 4 * _EPS)
    for i, j in _ranges(lo, np.arange(ordered.size)):
        if not (np.abs(ordered[i] - ordered[j]) > above).all():
            return False
    return True


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
    does every square system of full rank. The residual does not depend
    on the scale of the rhs: times any power of two that keeps its
    entries normal and the product M x finite, it is the same to
    rounding.

    Deterministic for identical inputs. The stacked systems this solves
    can be ill-conditioned Hankel blocks, hence the rank-revealing driver.

    zgelsy is called directly, with the arguments
    ``scipy.linalg.lstsq(..., lapack_driver="gelsy")`` passes: rank cutoff
    ``cond`` = machine epsilon, all columns free to pivot, and the rhs
    zero-padded to n entries when there are fewer rows than columns. On
    the 3 x k systems of the invariant pipeline the ``lstsq`` wrapper
    cost several times the LAPACK call; the solutions are bit-identical.
    The workspace size gelsy asks for depends only on (m, n), so
    ``_gelsy_lwork`` queries it once per shape: the query took about
    0.5 us, the cached lookup takes 0.1 us, and invariant-wide's 1,536
    solves per job have three shapes. Both routines are loaded at the
    first solve (``_gelsy``), not with the package, from scipy's LAPACK
    extension alone: ``simulate`` and ``verify`` never solve, and
    ``recover`` never imports ``scipy.linalg``, whose import was most of
    its cold start (see the module docstring).

    gelsy factors A P = Q R and overwrites the rhs with Q^H b before it
    solves. When it finds full rank (``rank == n``), entries n..m-1 of
    that vector are the part of b outside the column span, so their norm
    is the residual, with no product formed: empty, so exactly 0, for a
    square system. That tail is kept only for an rhs whose plain norm
    lies in [2**-450, 2**450]: there its squares are normal, so both
    plain norms are exact, and its largest entry is far inside [tiny/eps,
    eps/tiny], outside which gelsy scales the rhs and unscales only the
    solution rows. Any other rhs, and every system that gelsy finds
    rank-deficient, takes the product M x - b, whose norm over the rhs's
    is ``relative_norm``'s, scaled by a power of two, so it neither
    overflows nor underflows. The two residuals agree to rounding
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
    be finite", or the right-hand side's). Finite data passes the scans:
    its residual is finite unless the solution or the product M x - b
    itself overflows, near the top of the float range, and a non-finite
    one is returned as it is. The rhs's plain norm, taken first, overflows
    for entries past about 1e154, which numpy reports as a RuntimeWarning;
    the callers that solve on raw data (``invariant.recover_signal``,
    ``prony.prony_values``) silence it, while the degree search solves on
    data scaled into [0.5, 1) and never meets it. A 3 x 3 solve costs
    about 8 us (see the module docstring); scanning both inputs would add
    4-5 us, and ``np.errstate`` about 1 us.

    The product, where it is still formed, is numpy's own einsum loop,
    not the BLAS product ``A @ sol``: OpenBLAS runs a complex mat-vec
    multi-threaded once rows * cols >= 4096. On a 2-vCPU machine with
    two BLAS threads, such a product after a solve took about 4-7 ms,
    against about 4-13 us single-threaded; the einsum loop takes 20-60 us
    at 96 rows. Every norm is ``np.linalg.norm``'s, computed by
    ``_norm``, so at ordinary scales both paths keep the bits of plain
    norms.
    """
    A = np.asarray(M, dtype=np.complex128)
    b = np.asarray(rhs, dtype=np.complex128)
    if A.ndim != 2 or A.size == 0 or b.ndim != 1 or A.shape[0] != b.size:
        _check_inputs(A, b)
        raise DimensionError(f"matrix has {A.shape[0]} rows but rhs has {b.size} entries")
    m, n = A.shape
    padded = b
    if m < n:
        padded = np.zeros(n, dtype=np.complex128)
        padded[:m] = b
    lwork = _gelsy_lwork(m, n)
    _, x, _, rank, info = _gelsy()[0](A, padded, np.zeros(n, dtype=np.int32), _EPS, lwork)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK zgelsy")
    sol = x[:n]
    b_norm = _norm(b)
    # inside this band the plain norms are sums of normal squares and
    # zgelsy leaves the rhs unscaled, so the tail is exact
    if rank == n and 2.0 ** -450 <= b_norm <= 2.0 ** 450:
        rel = _norm(x[n:]) / b_norm
        finite = math.isfinite(rel) and cmath.isfinite(sol.dot(sol))
    else:
        rel = relative_norm(np.einsum("ij,j->i", A, sol) - b, b)
        finite = math.isfinite(rel)
    if not finite:
        # a non-finite entry anywhere in A or b lands here
        _check_inputs(A, b)
    return sol, rel


@functools.cache
def _gelsy():
    """scipy's zgelsy and its workspace query, loaded once, at the first
    solve, from scipy's compiled LAPACK extension ``_flapack`` alone.

    These are the wrappers ``scipy.linalg.lapack`` re-exports, with the
    same bits. ``import scipy`` runs only the top-level package, with
    scipy's own library-path set-up; the extension is then found in
    ``scipy/linalg`` and executed without ``scipy/linalg/__init__.py``.
    The whole load took about 12 ms and 4 MiB of RSS, where importing
    ``scipy.linalg.lapack`` took 0.15 s and 28 MiB (2-vCPU machine,
    scipy 1.17). An extension that ``scipy.linalg`` has already loaded is
    reused; a missing one raises ImportError naming the directories
    searched.

    ``module_from_spec`` dlopens the extension and, with it, the OpenBLAS
    that scipy bundles, which reads ``OPENBLAS_NUM_THREADS`` once, as it
    loads; around ``exec_module`` the variable had no effect. It is set
    to 1 around that call alone and restored, to its old value or to
    unset, also when the load raises. One thread is faster at the degree
    search's sizes (a 96 x 95 solve: 0.55 ms against 1.19-1.24 ms on two
    threads, 2-vCPU machine) and makes zgelsy's bits independent of the
    thread count; the module docstring gives the limits.
    """
    module = sys.modules.get("scipy.linalg._flapack")
    if module is None:
        import scipy
        where = [os.path.join(path, "linalg") for path in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec("_flapack", where)
        if spec is None:
            raise ImportError(f"scipy's LAPACK extension _flapack not found in {where}")
        # scipy's OpenBLAS reads its thread count as this dlopens it
        old_threads = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            module = importlib.util.module_from_spec(spec)
        finally:
            if old_threads is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = old_threads
        spec.loader.exec_module(module)
    return module.zgelsy, module.zgelsy_lwork


@functools.lru_cache(maxsize=_LWORK_SHAPES)
def _gelsy_lwork(m: int, n: int) -> int:
    """zgelsy's workspace size for an m x n system with one rhs: a
    function of the shape alone, queried once per shape."""
    work, _ = _gelsy()[1](m, n, 1, _EPS)
    return int(work.real)


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


def relative_norm(num, den) -> float:
    """||num|| / ||den|| of two complex arrays, with a zero ``den`` floored
    at the smallest normal float (so a zero ``num`` gives 0), free of the
    data's scale.

    Both arrays are first multiplied by the one power of two that puts
    the largest real or imaginary part of either in [0.5, 1), by
    ``np.ldexp`` on their float views: exact for every part that stays
    normal, so neither norm overflows or underflows, and where the plain
    norms are exact (ordinary scales) the ratio keeps their bits. Each
    norm is ``_norm``'s, so the ratio has the bits of
    ``np.linalg.norm(num) / np.linalg.norm(den)`` there (LAPACK's zlascl
    scales the same way inside zgelsy; Higham, Accuracy and Stability of
    Numerical Algorithms, 27).
    """
    parts = [np.ascontiguousarray(v, dtype=np.complex128).view(np.float64) for v in (num, den)]
    shift = -math.frexp(max(float(np.abs(p).max()) for p in parts))[1]
    top, bottom = (_norm(np.ldexp(p, shift).view(np.complex128)) for p in parts)
    return top / max(bottom, _RESIDUAL_FLOOR)


def poly_roots(low_coeffs) -> np.ndarray:
    """All roots, with multiplicity, of the monic polynomial lambda^r +
    sum_{l<r} low_coeffs[l] lambda^l, r = len(low_coeffs), as a complex128
    array (empty for r = 0). A (k, r) array is a stack of k such
    polynomials and gives the (k, r) array of their roots, row by row.

    The exact-zero low-order coefficients low[0..z-1] give z trailing
    roots at 0, as in ``np.roots``. The rows that share z are rooted
    together by a simultaneous Aberth-Ehrlich iteration (``_aberth``) on
    the remaining degree-n polynomials. A row whose points it accepts,
    by Smith's inclusion discs, as isolated roots converged as far as
    the arithmetic resolves them, keeps those points. The rows it does
    not accept within ``_ABERTH_CAP`` steps (repeated or tightly
    clustered roots, or products that overflow or underflow) go through
    one batched eigensolve of their companion matrices, which follows
    ``np.roots`` step by step: such a row has np.roots' bits, except that
    a pure power lambda^r gives complex zeros where np.roots gives float
    ones.

    From n = 76 on, LAPACK's zhseqr takes its multishift path, where a
    companion matrix costs more than a random one of its size: on one
    BLAS thread its eigensolve took 10-18 ms at n = 96, the largest layer
    of a deep general recovery. The iteration costs O(n^2) a step, in
    whole-array operations, and no LAPACK call. On a 2-vCPU machine, one
    BLAS thread, the d = 96 shift's (2, 96) stack took about 3.5 ms
    instead of 13-17 ms, and the d = 1536 shift's 512 degree-3 residue
    classes about 2.6 ms instead of 4 ms; every row was accepted, within
    6.4e-15 of the eigensolve's roots. A single degree-8 row (a Prony
    support) costs about 0.6 ms instead of 0.1 ms: each step is a few
    dozen calls of fixed cost. Pass a whole stack in one call: 512
    degree-3 rows take many times longer one call per row than as one
    stack.
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
    for z in sorted(set(zeros[zeros < r].tolist())):
        rows = np.flatnonzero(zeros == z)
        found, accepted = _aberth(low[rows, z:])
        roots[rows[accepted], :r - z] = found[accepted]
        rest = rows[~accepted]
        if rest.size:
            roots[rest, :r - z] = _companion_eigvals(low[rest, z:])
    return roots


def _companion_eigvals(low: np.ndarray) -> np.ndarray:
    """The (k, n) eigenvalues, row by row, of the companion matrices of
    the monic polynomials whose low-order coefficients are the rows of
    ``low``, (k, n) with n >= 1: one batched eigensolve, which runs the
    same LAPACK routine on the same matrices as one call per row would."""
    k, n = low.shape
    companion = np.zeros((k, n, n), dtype=np.complex128)
    companion[:, 1:, :-1] = np.eye(n - 1, dtype=np.complex128)
    # p[0] is 1, but dividing by it as np.roots does keeps the matrix
    # identical to np.roots' down to the sign of its zeros
    companion[:, 0, :] = -low[:, ::-1] / (1 + 0j)
    return np.linalg.eigvals(companion)


def _aberth(low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(roots, accepted): for each row of ``low``, (k, n) with n >= 1 and
    a_0 != 0, the points of a simultaneous Aberth-Ehrlich iteration (Bini,
    Numer. Algorithms 13, 1996) on the monic polynomial with those
    low-order coefficients, and whether ``_aberth_step`` accepted them.

    A row starts from n points on the circle of radius |a_0|^(1/n), the
    geometric mean of its root moduli, at angles 2 pi i / n +
    ``_ABERTH_OFFSET``, and steps until its points are accepted, at most
    ``_ABERTH_CAP`` times; an accepted row stops stepping, and the
    others' points are meaningless. Rows step together in blocks of at
    most ``_BLOCK_ENTRIES`` entries of their (rows, n, n) pairwise
    differences.
    """
    k, n = low.shape
    roots = np.empty((k, n), dtype=np.complex128)
    accepted = np.zeros(k, dtype=bool)
    circle = np.exp(1j * (2 * np.pi * np.arange(n) / n + _ABERTH_OFFSET))
    size = max(1, _BLOCK_ENTRIES // (n * n))
    for start in range(0, k, size):
        rows = np.arange(start, min(start + size, k))
        z = np.abs(low[rows, :1]) ** (1 / n) * circle
        for _ in range(_ABERTH_CAP):
            stepped, _, done = _aberth_step(z, low[rows])
            roots[rows[done]] = z[done]
            accepted[rows[done]] = True
            rows, z = rows[~done], stepped[~done]
            if not rows.size:
                break
    return roots, accepted


def _aberth_step(z: np.ndarray, low: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(stepped, radius, accepted): for each row of ``low``, (k, n), the
    low-order coefficients a_0..a_{n-1} of a monic degree-n polynomial p,
    and its points, the row of ``z``, (k, n): the points after one
    Aberth-Ehrlich step, z_i - N_i / (1 - N_i sum_{j != i} 1 / (z_i -
    z_j)) with N_i = p(z_i) / p'(z_i); Smith's inclusion radius R_i of
    each point; and whether the row is accepted, its points then being
    its roots to within R_i each.

    Smith's theorem (B. T. Smith, J. ACM 17, 1970): with the Weierstrass
    corrections W_i = p(z_i) / prod_{j != i} (z_i - z_j), the n discs
    |lambda - z_i| <= n |W_i| hold all roots of p, and a disc disjoint
    from the others holds exactly one. p(z_i) and p'(z_i) are evaluated
    by Horner's rule, whose rounding error in p(z_i) is at most gamma
    sum_l |a_l| |z_i|^l, a_n = 1 (Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1); gamma is gamma_{4n} of the unit roundoff
    eps / 2, since a complex product errs by up to sqrt(2) gamma_2
    (Higham 3.6). So, to first order in eps, the radii R_i = n (|W_i| +
    gamma sum_l |a_l| |z_i|^l / |prod_{j != i} (z_i - z_j)|) bound n
    |W_i| of the exact values. A row is accepted when all of these hold:

    - every |p(z_i)| is at most its rounding bound gamma sum_l |a_l|
      |z_i|^l, so the points are converged as far as the arithmetic
      resolves them, and R_i is at most 2 n gamma sum_l |a_l| |z_i|^l /
      |prod_{j != i} (z_i - z_j)|;
    - twice the largest R_i is below the smallest separation of the
      points: the discs are disjoint, so each holds exactly one root;
    - the products are finite, so free of overflow, and free of
      underflow by the separation: each partial product of at most n - 1
      differences is at least min(1, sep)^(n-1), which must be at least
      tiny / eps.

    Repeated or non-finite points fail the separation test. The work is
    O(k n^2), with (k, n, n) temporaries.
    """
    k, n = low.shape
    with np.errstate(all="ignore"):
        value = np.ones((k, n), dtype=np.complex128)
        slope = np.zeros((k, n), dtype=np.complex128)
        bound = np.ones((k, n))
        modulus = np.abs(z)
        # p(z_i), p'(z_i) and, by the same rule on the moduli,
        # sum_l |a_l| |z_i|^l
        for a, size in zip(low.T[::-1, :, None], np.abs(low).T[::-1, :, None]):
            slope *= z
            slope += value
            value *= z
            value += a
            bound *= modulus
            bound += size
        diff = z[:, :, None] - z[:, None, :]
        diagonal = np.arange(n)
        diff[:, diagonal, diagonal] = 1
        denom = np.abs(diff.prod(axis=2))
        gaps = np.abs(diff)
        gaps[:, diagonal, diagonal] = np.inf
        sep = gaps.min(axis=(1, 2))
        noise = 2 * n * _EPS / (1 - 2 * n * _EPS) * bound
        radius = n * (np.abs(value) + noise) / denom
        accepted = ((np.abs(value) <= noise).all(axis=1) & (2 * radius.max(axis=1) < sep)
                    & np.isfinite(denom).all(axis=1)
                    & (np.minimum(1.0, sep) ** (n - 1) >= _NORMAL_FLOOR))
        recip = 1 / diff
        recip[:, diagonal, diagonal] = 0
        newton = value / slope
        stepped = z - newton / (1 - newton * recip.sum(axis=2))
    return stepped, radius, accepted


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
    ``_BLOCK_ENTRIES``, that hold every query's nearest target.

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
    for query, pos in _ranges(lo, hi):
        yield query, perm[pos]


def _ranges(lo: np.ndarray, hi: np.ndarray):
    """(row, position) index pairs, in chunks of at most
    ``_BLOCK_ENTRIES``: every position in ``range(lo[k], hi[k])``
    paired with row k, rows in order."""
    ends = (hi - lo).cumsum()
    total = int(ends[-1]) if ends.size else 0
    for start in range(0, total, _BLOCK_ENTRIES):
        flat = np.arange(start, min(start + _BLOCK_ENTRIES, total))
        row = ends.searchsorted(flat, "right")
        yield row, hi[row] - (ends[row] - flat)

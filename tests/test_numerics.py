import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynspec import numerics, spectral
from dynspec.errors import DimensionError
from dynspec.invariant import recover_operator
from dynspec.model import IndexSet, Uniform, random_signal, shift_operator, simulate
from dynspec.numerics import (as_matrix, dft, distinct_points, least_squares,
                              poly_roots, set_match_error)
from dynspec.spectral import recover_observable_spectrum
from helpers import assert_sets_close, coeffs_desc, division_remainder


# ---------------------------------------------------------------- dft

def test_dft_impulse_is_flat():
    assert np.allclose(dft([1, 0, 0, 0]), np.ones(4), atol=1e-14)


def test_dft_constant_concentrates_at_zero():
    assert np.allclose(dft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-13)


def test_dft_inverse_of_forward_is_identity():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert np.max(np.abs(dft(dft(v), inverse=True) - v)) < 1e-12


def test_dft_empty_vector_rejected():
    with pytest.raises(DimensionError):
        dft([])


@pytest.mark.parametrize("d", [2, 3, 8, 12, 17, 31])
def test_dft_unitarity_up_to_scale(d):
    rng = np.random.default_rng(d)
    u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    lhs = np.vdot(dft(u), dft(v))
    rhs = d * np.vdot(u, v)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


@pytest.mark.parametrize("d", [4, 9, 16, 30, 64])
@pytest.mark.parametrize("inverse", [False, True])
def test_dft_fast_path_agrees_with_direct(d, inverse):
    rng = np.random.default_rng(d + 100 * inverse)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    # direct O(d^2) sum with the documented kernel exp(-+2*pi*i*k*l/d)
    k = np.arange(d)
    sign = 1 if inverse else -1
    direct = np.exp(sign * 2j * np.pi * np.outer(k, k) / d) @ v
    if inverse:
        direct /= d
    fast = dft(v, inverse=inverse)
    assert np.max(np.abs(direct - fast)) < 1e-12 * max(1.0, np.max(np.abs(direct)))


# ------------------------------------------------------- least_squares

def test_lstsq_consistent_tall_system():
    solution, residual = least_squares([[1], [0]], [2, 0])
    assert np.allclose(solution, [2])
    assert residual == 0.0


def test_lstsq_pure_residual():
    solution, residual = least_squares([[1], [0]], [0, 1])
    assert np.allclose(solution, [0])
    assert residual == pytest.approx(1.0)


def test_lstsq_recovers_constructed_solution():
    # oracle: build rhs from a known solution
    rng = np.random.default_rng(3)
    M = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    solution, residual = least_squares(M, M @ w)
    assert np.max(np.abs(solution - w)) < 1e-10
    assert residual < 1e-12


@pytest.mark.parametrize("value", [np.ones(3), np.ones((2, 2, 2)), np.zeros((0, 3)), 1.0],
                         ids=["1-d", "3-d", "empty", "scalar"])
def test_as_matrix_needs_a_nonempty_2d_array(value):
    with pytest.raises(DimensionError) as info:
        as_matrix(value, "samples")
    assert str(info.value) == f"samples: expected a nonempty 2-D array, got shape {np.shape(value)}"


def test_lstsq_dimension_mismatch():
    with pytest.raises(DimensionError):
        least_squares([[1, 2], [3, 4]], [1, 2, 3])


@pytest.mark.parametrize("seed", range(10))
def test_lstsq_consistent_systems_property(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(3, 12))
    cols = int(rng.integers(1, rows + 1))
    M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    w = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
    solution, residual = least_squares(M, M @ w)
    assert residual < 1e-12
    assert np.max(np.abs(solution - w)) < 1e-9


@pytest.mark.parametrize("shape", [(8, 4), (96, 43), (96, 96), (40, 60)])
@pytest.mark.parametrize("repeated", [0, 2])
def test_lstsq_residual_matches_blas_product(shape, repeated):
    # full-rank systems, and rank-deficient ones whose last columns repeat
    # the first; the rhs is inconsistent, and the 96-row shapes are past
    # the size where BLAS threads the product
    rows, cols = shape
    rng = np.random.default_rng(rows * cols + repeated)
    M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    M[:, cols - repeated:] = M[:, :repeated]
    rhs = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    solution, rel = least_squares(M, rhs)
    expected = np.linalg.norm(M @ solution - rhs)
    residual = rel * np.linalg.norm(rhs)
    assert abs(residual - expected) <= 1e-13 * np.linalg.norm(rhs)


def _same_bits(got, expected):
    return (got.dtype == expected.dtype and got.shape == expected.shape
            and got.tobytes() == expected.tobytes())


def _system(rows, cols, repeated, seed):
    """A random complex system; its last ``repeated`` columns (at most half
    of them) repeat the first, which makes it rank-deficient."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    repeated = min(repeated, cols // 2)
    M[:, cols - repeated:] = M[:, :repeated]
    return M, rng.standard_normal(rows) + 1j * rng.standard_normal(rows)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), repeated=st.integers(0, 2),
       seed=st.integers(0, 2**16))
def test_lstsq_matches_scipy_gelsy_bit_for_bit(rows, cols, repeated, seed):
    # reference: the scipy wrapper that least_squares used to go through;
    # the direct zgelsy call passes the arguments it passed. Covers rows <
    # cols (rhs padding) and rank-deficient systems whose last columns
    # repeat the first.
    M, rhs = _system(rows, cols, repeated, seed)
    expected = scipy.linalg.lstsq(M, rhs, lapack_driver="gelsy")[0]
    solution, _ = least_squares(M, rhs)
    assert _same_bits(solution, expected)


_NONFINITE = [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1)]


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8), repeated=st.integers(0, 2),
       seed=st.integers(0, 2**16), bad=st.sampled_from(_NONFINITE),
       where=st.sampled_from(["matrix", "rhs", "both"]), at=st.integers(0, 63),
       extra_row=st.booleans())
@pytest.mark.filterwarnings("error")
def test_lstsq_nonfinite_input_raises_the_checks_message(rows, cols, repeated, seed, bad,
                                                          where, at, extra_row):
    # the message is the first one the shape and finiteness checks give,
    # in their order: the matrix's entries, the rhs's, then the row count
    # (``extra_row`` gives the rhs one entry too many). Covers rows < cols
    # (the padded rhs) and rank-deficient matrices; no warning escapes.
    M, rhs = _system(rows, cols, repeated, seed)
    if extra_row:
        rhs = np.append(rhs, 1.0)
    if where != "rhs":
        M.flat[at % M.size] = bad
    if where != "matrix":
        rhs[at % rhs.size] = bad
    name = "coefficient matrix" if where != "rhs" else "right-hand side"
    with pytest.raises(DimensionError, match=f"^{name}: entries must be finite$"):
        least_squares(M, rhs)


def _stated_residual(M, rhs):
    """The relative residual ``least_squares`` states, from a reference
    gelsy call: at full rank, with an rhs whose norm lies in [2**-450,
    2**450] (its plain norms are exact there and gelsy does not scale
    it), the norm of the transformed rhs past row n (Q^H b's part outside
    the column span) over ``np.linalg.norm(rhs)``; otherwise the norm of
    the einsum product's residual over the rhs's, both taken after
    scaling by the power of two that puts their largest real or imaginary
    part in [0.5, 1), the rhs's floored at the smallest normal float."""
    rows, cols = M.shape
    tiny, eps = np.finfo(np.float64).tiny, np.finfo(np.float64).eps
    padded = np.zeros(max(rows, cols), dtype=np.complex128)
    padded[:rows] = rhs
    lwork, _ = scipy.linalg.lapack.zgelsy_lwork(rows, cols, 1, eps)
    _, x, _, rank, _ = scipy.linalg.lapack.zgelsy(M, padded, np.zeros(cols, dtype=np.int32),
                                                  eps, int(lwork.real))
    b_norm = float(np.linalg.norm(rhs))
    if rank == cols and 2.0 ** -450 <= b_norm <= 2.0 ** 450:
        return float(np.linalg.norm(x[cols:])) / b_norm
    parts = [v.view(np.float64) for v in (np.einsum("ij,j->i", M, x[:cols]) - rhs, rhs)]
    shift = -math.frexp(max(float(np.abs(p).max()) for p in parts))[1]
    residual, b_norm = (float(np.linalg.norm(np.ldexp(p, shift).view(np.complex128)))
                        for p in parts)
    return residual / max(b_norm, tiny)


def _rounding(M, solution, rhs):
    """A bound on the rounding of a relative residual: 1e-13 (1 +
    ||M|| ||solution|| / ||rhs||), the scale of the error in forming
    M x - rhs, within which the tail and the product agree."""
    return 1e-13 * (1 + np.linalg.norm(M) * np.linalg.norm(solution) / np.linalg.norm(rhs))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8), repeated=st.integers(0, 2),
       seed=st.integers(0, 2**16), huge=st.sampled_from([1.5e308, -1.5e308, 1.5e308j,
                                                          complex(1.5e308, 1.5e308)]),
       where=st.sampled_from(["matrix", "rhs", "both"]), at=st.integers(0, 63))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lstsq_huge_finite_input_is_solved_unchecked(rows, cols, repeated, seed, huge, where,
                                                      at):
    # finite entries whose plain norms overflow are not refused: the
    # solution is gelsy's and the relative residual is the stated formula's.
    # A huge rhs no longer makes it inf or NaN through its norms: wherever
    # the solution and the product's residual M x - rhs are finite, it is
    # finite and matches the same system with the rhs scaled down by
    # 2**-600, to rounding
    M, rhs = _system(rows, cols, repeated, seed)
    if where != "rhs":
        M.flat[at % M.size] = huge
    if where != "matrix":
        rhs[at % rhs.size] = huge
    solution, rel = least_squares(M, rhs)
    expected = scipy.linalg.lstsq(M, rhs, lapack_driver="gelsy")[0]
    assert _same_bits(solution, expected)
    assert type(rel) is float and repr(rel) == repr(_stated_residual(M, rhs))
    if where == "rhs" and np.isfinite(np.einsum("ij,j->i", M, solution) - rhs).all():
        smaller = rhs * 2.0 ** -600
        small_solution, small_rel = least_squares(M, smaller)
        assert math.isfinite(rel)
        assert abs(rel - small_rel) <= _rounding(M, small_solution, smaller)


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2**16),
       k=st.integers(-1000, 1000))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lstsq_residual_does_not_depend_on_the_scale(rows, cols, seed, k):
    # the rhs times 2**k, its entries normal and the product M x finite at
    # that scale: the relative residual is finite and equals the one at
    # scale 1 to within 1e-13 (1 + ||M|| ||x|| / ||rhs||) (``_rounding``).
    # Through plain norms it read NaN at 2**600 (they overflow) and 0.0 at
    # 2**-520 (they underflow)
    M, rhs = _system(rows, cols, 0, seed)
    solution, rel = least_squares(M, rhs)
    parts = np.abs(rhs.view(np.float64))
    reach = max(float(parts.max()), float(np.abs(M).sum(axis=1).max() * np.abs(solution).max()))
    # exponents: 2**-1022 is the smallest normal float
    assume(math.frexp(parts.min())[1] + k >= -1021 and math.frexp(reach)[1] + k <= 1020)
    _, scaled = least_squares(M, np.ldexp(rhs.view(np.float64), k).view(np.complex128))
    assert math.isfinite(scaled)
    assert abs(scaled - rel) <= _rounding(M, solution, rhs)


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(2, 96), cols=st.integers(1, 96), seed=st.integers(0, 2**16),
       kind=st.sampled_from(["tall", "square", "zero column", "repeated"]))
def test_lstsq_residual_is_the_distance_from_the_kept_span(rows, cols, seed, kind):
    # full rank: the transformed rhs past row n is the distance of rhs from
    # the column span, so it matches the product to rounding, and a square
    # system has none. A zero column is always found, and its system keeps
    # the product, bit for bit. Repeated columns are found only sometimes
    # (gelsy's cutoff is machine epsilon), so they give the stated residual.
    cols = {"tall": min(cols, rows - 1), "square": rows}.get(kind, max(cols, 2))
    M, rhs = _system(rows, cols, 1 if kind == "repeated" else 0, seed)
    if kind == "zero column":
        M[:, seed % cols] = 0
    solution, rel = least_squares(M, rhs)
    b_norm = np.linalg.norm(rhs)
    product = np.linalg.norm(np.einsum("ij,j->i", M, solution) - rhs)
    if kind == "tall":
        assert abs(rel * b_norm - product) <= 1e-13 * b_norm
    elif kind == "square":
        assert rel == 0.0
    elif kind == "zero column":
        assert rel == product / b_norm
    else:
        assert rel == _stated_residual(M, rhs)


@pytest.mark.parametrize("M, rhs, name", [
    ([[np.nan], [0.0]], [1.0, 1.0], "coefficient matrix"),
    ([[np.inf], [0.0]], [1.0, 1.0], "coefficient matrix"),
    ([[1.0, 0.0], [0.0, np.nan], [0.0, 0.0]], [1.0, 1.0, 1.0], "coefficient matrix"),
    ([[1.0], [0.0]], [np.nan, 1.0], "right-hand side"),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, complex(0, np.inf)], "right-hand side"),
])
@pytest.mark.filterwarnings("error")
def test_lstsq_nonfinite_entry_that_misses_the_tail_raises(M, rhs, name):
    # over zeros gelsy's reflectors are the identity, so a NaN or inf stays
    # in the rows it sits in: it may miss the rows past n that give the
    # residual (the first case reaches only the solution), and the solution
    # test must find it
    with pytest.raises(DimensionError, match=f"^{name}: entries must be finite$"):
        least_squares(np.array(M, dtype=np.complex128), np.array(rhs, dtype=np.complex128))


def test_lstsq_workspace_is_the_one_of_each_shape(monkeypatch):
    # zgelsy's workspace size is queried once per (rows, cols); shapes in
    # alternating order, each with its transpose, must each get their own
    # and keep scipy's bits, so a cache key that drops or swaps a
    # dimension fails
    zgelsy, zgelsy_lwork = numerics._gelsy()
    passed = []

    def spy(A, b, jpvt, cond, lwork):
        passed.append((A.shape, lwork))
        return zgelsy(A, b, jpvt, cond, lwork)

    monkeypatch.setattr(numerics, "_gelsy", lambda: (spy, zgelsy_lwork))
    numerics._gelsy_lwork.cache_clear()
    shapes = [(3, 1), (1, 3), (3, 2), (2, 3), (12, 5), (5, 12), (3, 3), (40, 1), (1, 40),
              (2, 3), (3, 1), (5, 12), (1, 3), (12, 5), (3, 2), (40, 1), (1, 40)]
    for seed, (rows, cols) in enumerate(shapes):
        M, rhs = _system(rows, cols, seed % 2, seed)
        expected = scipy.linalg.lstsq(M, rhs, lapack_driver="gelsy")[0]
        assert _same_bits(least_squares(M, rhs)[0], expected), (rows, cols)
    numerics._gelsy_lwork.cache_clear()
    assert [shape for shape, _ in passed] == shapes
    for shape, lwork in passed:
        assert lwork == int(zgelsy_lwork(*shape, 1, np.finfo(float).eps)[0].real), shape


_LOAD_ORDER_SCRIPT = """
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.linalg
from dynspec import numerics
eps = np.finfo(np.float64).eps
rng = np.random.default_rng(0)
systems = []
for rows, cols, repeated in [(3, 1, 0), (3, 3, 0), (2, 5, 0), (12, 5, 1), (40, 7, 2)]:
    M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    M[:, cols - repeated:] = M[:, :repeated]
    systems.append((M, rng.standard_normal(rows) + 1j * rng.standard_normal(rows)))
got = [numerics.least_squares(M, rhs) for M, rhs in systems]
linalg_at_solve = "scipy.linalg" in sys.modules
import scipy.linalg.lapack as lapack
for (M, rhs), (solution, residual) in zip(systems, got):
    rows, cols = M.shape
    padded = np.zeros(max(rows, cols), dtype=np.complex128)
    padded[:rows] = rhs
    lwork, _ = lapack.zgelsy_lwork(rows, cols, 1, eps)
    _, x, _, _, _ = lapack.zgelsy(M, padded, np.zeros(cols, dtype=np.int32), eps,
                                  int(lwork.real))
    assert x[:cols].tobytes() == solution.tobytes(), (rows, cols)
    again = numerics.least_squares(M, rhs)
    assert again[0].tobytes() == solution.tobytes() and again[1] == residual, (rows, cols)
print(linalg_at_solve, numerics._gelsy()[0] is lapack.zgelsy)
"""


@pytest.mark.parametrize("order,printed", [("after", "False False"), ("before", "True True")])
def test_lstsq_gives_zgelsy_bits_in_either_load_order(order, printed):
    # in a fresh interpreter: the first solve loads scipy's LAPACK extension
    # without scipy.linalg, or reuses the one scipy.linalg loaded, and the
    # solutions are the bits of scipy.linalg.lapack.zgelsy either way
    env = dict(os.environ, PYTHONPATH=str(Path(numerics.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _LOAD_ORDER_SCRIPT, order], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == printed


def test_lstsq_missing_lapack_extension_names_the_directory(monkeypatch, tmp_path):
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    where = re.escape(str([str(tmp_path / "linalg")]))
    with pytest.raises(ImportError, match=f"^scipy's LAPACK extension _flapack not found in "
                                          f"{where}$"):
        numerics._gelsy.__wrapped__()


def test_lstsq_illegal_lapack_argument_raises():
    failed = (None, np.zeros(1, dtype=np.complex128), None, 0, -3)
    gelsy = (mock.Mock(return_value=failed), numerics._gelsy()[1])
    with mock.patch.object(numerics, "_gelsy", return_value=gelsy):
        with pytest.raises(ValueError, match="illegal value in argument 3 of LAPACK zgelsy"):
            least_squares([[1.0]], [1.0])


# ----------------------------------------------------------- poly ops

def test_roots_of_quadratic():
    assert_sets_close(poly_roots([-1, 0]), [1, -1], 1e-12)


@pytest.mark.parametrize("c", [0.5, -2.0, 1j, 0.3 - 0.7j])
def test_roots_of_linear(c):
    assert_sets_close(poly_roots([-c]), [c], 1e-12)


def test_roots_degree_zero_is_empty():
    assert poly_roots([]).size == 0


@pytest.mark.parametrize("low", [[np.nan], [1.0, np.inf]], ids=["nan", "inf"])
def test_roots_reject_nonfinite_coefficients(low):
    with pytest.raises(DimensionError, match="^polynomial coefficients must be finite$"):
        poly_roots(low)


@pytest.mark.parametrize("low", [[], [0], [0, 0, 0], [-0.0, 0j], [2, 0], [0, 1], [1j]],
                         ids=repr)
def test_roots_are_complex128(low):
    # a pure power lambda^r has only zero roots, which np.roots gives as floats
    assert poly_roots(low).dtype == np.complex128


_SIGNED_ZEROS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]


def _eigensolved_rows(monkeypatch):
    """Patch poly_roots' eigensolve to record the coefficient rows it
    takes, one (k, n) array per call."""
    calls = []
    real = numerics._companion_eigvals

    def spy(low):
        calls.append(low.copy())
        return real(low)

    monkeypatch.setattr(numerics, "_companion_eigvals", spy)
    return calls


def _np_roots(low):
    return np.roots(np.concatenate(([1.0 + 0j], low[::-1]))).astype(np.complex128)


def _mp_root(coeffs, z):
    """The root of the polynomial with descending mpmath coefficients
    that Newton's method reaches from z, at 50 digits; fails when it does
    not settle, as near a repeated root. A step below 1e-25 leaves an
    error of the order of its square, near a simple root."""
    for _ in range(100):
        value, slope = mpmath.polyval(coeffs, z, derivative=True)
        step = value / slope
        z -= step
        if abs(step) <= mpmath.mpf(10) ** -25 * max(1, abs(z)):
            return z
    raise AssertionError(f"Newton's method did not settle near {z}")


def _assert_isolated(points, low):
    """Each accepted point z_i lies within its rounding-level Smith radius
    r_i = 2 n gamma sum_l |a_l| |z_i|^l / |prod_{j != i} (z_i - z_j)|, the
    largest radius ``_aberth_step``'s acceptance admits, of a root of the
    polynomial with low-order coefficients ``low`` computed to 50 digits,
    and its disc holds no other root. The roots are reached by Newton's
    method from the points; one root in each of the n discs makes them n
    distinct roots, so all of them. The radii, a tolerance, and the
    distances, from each root's offset to its own point rounded to
    complex128, are taken in floating point."""
    n = low.size
    gamma = 2 * n * np.finfo(float).eps / (1 - 2 * n * np.finfo(float).eps)
    diff = points[:, None] - points
    np.fill_diagonal(diff, 1)
    bound = np.abs(points) ** n + (np.abs(low) * np.abs(points[:, None]) ** np.arange(n)).sum(axis=1)
    radius = 2 * n * gamma * bound / np.abs(diff.prod(axis=1))
    with mpmath.workdps(50):
        coeffs = [mpmath.mpc(1)] + [mpmath.mpc(complex(a)) for a in low[::-1]]
        offsets = np.array([complex(_mp_root(coeffs, mpmath.mpc(complex(z))) - mpmath.mpc(complex(z)))
                            for z in points])
    # root j is points[j] + offsets[j]; its distance to point i
    inside = np.abs(points[None, :] + offsets[None, :] - points[:, None]) <= radius[:, None]
    np.fill_diagonal(inside, np.abs(offsets) <= radius)
    assert inside.diagonal().all() and (inside.sum(axis=1) == 1).all(), (radius, offsets)


def _check_rows(monkeypatch, stack):
    """poly_roots of a stack, checked row by row: a row that went through
    the eigensolve has np.roots' bits, and every other row's nonzero
    roots are isolated (``_assert_isolated``). Returns the roots and
    whether each row was eigensolved."""
    calls = _eigensolved_rows(monkeypatch)
    got = poly_roots(stack)
    eigensolved, checked = [], set()
    for low, roots in zip(stack, got):
        z = int(np.logical_and.accumulate(low == 0).sum())
        solved = any((c == low[z:]).all(axis=1).any() for c in calls if c.shape[1] == low.size - z)
        eigensolved.append(solved)
        if solved:
            assert _same_bits(roots, _np_roots(low))
        elif z < low.size and low.tobytes() not in checked:
            _assert_isolated(roots[:low.size - z], low[z:])
            checked.add(low.tobytes())
    return got, eigensolved


@settings(max_examples=300, deadline=None)
@given(degree=st.integers(1, 10), zeros=st.integers(0, 10), hole=st.integers(0, 10),
       zero=st.sampled_from(_SIGNED_ZEROS), seed=st.integers(0, 2**16))
def test_roots_are_np_roots_or_isolated_roots(degree, zeros, hole, zero, seed):
    # exact-zero (and -0.0) low-order coefficients are roots at 0 that
    # poly_roots strips first, and a signed zero further up is part of the
    # polynomial it roots; a row that falls back to the eigensolve keeps
    # np.roots' bits, and an accepted row's roots are isolated
    rng = np.random.default_rng(seed)
    low = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    low[:min(zeros, degree)] = zero
    if hole < degree:
        low[hole] = zero
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, _ = _check_rows(monkeypatch, low[None])
    nonzero = degree - min(zeros, degree)
    assert got.shape == (1, degree) and not got[0, nonzero:].any()


@settings(max_examples=300, deadline=None)
@given(r=st.integers(0, 6),
       rows=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.sampled_from(_SIGNED_ZEROS)),
                     min_size=1, max_size=8),
       seed=st.integers(0, 2**16), block=st.integers(1, 80))
def test_stacked_roots_match_each_row_bit_for_bit(r, rows, seed, block):
    # rows of one stack with different counts of leading (signed) zeros,
    # up to all-zero rows, and degree 0 when r is 0, iterated in blocks of
    # at most ``block`` pairwise differences (one row when a row has more);
    # every row keeps the bits of its own call, and a row that call
    # eigensolves keeps np.roots'
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((len(rows), r)) + 1j * rng.standard_normal((len(rows), r))
    for row, (zeros, hole, zero) in zip(stack, rows):
        row[:min(zeros, r)] = zero
        if hole < r:
            row[hole] = zero
    with mock.patch.object(numerics, "_BLOCK_ENTRIES", block):
        got = poly_roots(stack)
    assert got.shape == stack.shape and got.dtype == np.complex128
    for low, roots in zip(stack, got):
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _eigensolved_rows(monkeypatch)
            assert _same_bits(roots, poly_roots(low))
        if calls:
            assert _same_bits(roots, _np_roots(low))


@pytest.mark.parametrize("degree,jitter", [(3, 0.25), (12, 0.25), (40, 0.25), (96, 0.0)])
@pytest.mark.parametrize("seed", range(16))
def test_stacked_roots_certify_rows_that_share_the_first_rows_roots(monkeypatch, degree, jitter,
                                                                     seed):
    # copies of a polynomial with well-separated roots, and copies whose
    # coefficients are moved by a few ulps of the largest: no row is
    # eigensolved, copies keep the same bits, and each row's roots lie
    # within 1e-12 of the roots' scale of its own eigensolve's. Below
    # degree 96 each distinct row's roots are isolated, to 50 digits;
    # degree 96 is the spectrum of the d = 96 shift, rotated, lambda^96 - c
    # with |c| = 1, whose 50-digit check on the shift's own stack is
    # test_benchmark_stacks_are_rooted_without_an_eigensolve
    rng = np.random.default_rng(seed)
    if jitter:
        roots = (0.9 + 0.2 * rng.random(degree)) * np.exp(
            2j * np.pi * (np.arange(degree) + jitter * rng.random(degree)) / degree)
        low = np.poly(roots)[1:][::-1]
    else:
        low = np.zeros(degree, dtype=np.complex128)
        low[0] = -np.exp(2j * np.pi * rng.random())
    noise = rng.integers(-4, 5, (5, degree)) + 1j * rng.integers(-4, 5, (5, degree))
    stack = np.vstack([low, low, low + np.finfo(float).eps * np.abs(low).max() * noise])
    if degree < 96:
        got, eigensolved = _check_rows(monkeypatch, stack)
    else:
        calls = _eigensolved_rows(monkeypatch)
        got, eigensolved = poly_roots(stack), []
        assert calls == []
    assert not any(eigensolved)
    assert _same_bits(got[0], got[1])
    for found, row in zip(got, stack):
        expected = _np_roots(row)
        assert set_match_error(found, expected) < 1e-12 * np.abs(expected).max()


def test_stacked_roots_refuse_unconverged_steps_around_separated_roots(monkeypatch):
    # lambda^3 - omega^{3j}, omega = exp(2 pi i / 1536): row j's roots are
    # omega^j times the cube roots of unity. At the cube roots the discs of
    # rows j >= 1 are disjoint, but the points are not converged, so only
    # the convergence test refuses them; row 0's points are its roots.
    # Iterated from the circle, every row is accepted, with no eigensolve
    omega = np.exp(2j * np.pi / 1536)
    stack = np.zeros((6, 3), dtype=np.complex128)
    stack[:, 0] = -omega ** (3 * np.arange(6))
    cube = np.exp(2j * np.pi * np.arange(3) / 3)
    _, radius, accepted = numerics._aberth_step(np.tile(cube, (6, 1)), stack)
    assert accepted.tolist() == [True] + [False] * 5
    assert (2 * radius.max(axis=1) < np.sqrt(3)).all()
    assert (radius[1:].max(axis=1) > 1e-6).all()
    _, eigensolved = _check_rows(monkeypatch, stack)
    assert not any(eigensolved)


def test_stacked_roots_with_a_repeated_reference_root_fall_back(monkeypatch):
    # (lambda - 1)^2 (lambda + 1), twice, and two perturbations that split
    # its double root by about 3e-8, far inside what the arithmetic
    # resolves: those four rows take one batched eigensolve and keep
    # np.roots' bits; a row with separated roots among them is accepted
    low = np.array([1, -1, -1], dtype=np.complex128)
    separated = np.array([-6, 11, -6], dtype=np.complex128)
    stack = np.vstack([low, separated, low, low + [0, 1e-15, 0], low * (1 + 1e-15j)])
    calls = _eigensolved_rows(monkeypatch)
    _, eigensolved = _check_rows(monkeypatch, stack)
    assert eigensolved == [True, False, True, True, True]
    assert [c.shape for c in calls] == [(4, 3)]


def _pipeline_stacks(monkeypatch, run):
    """The stacks the pipeline ``run`` passes to poly_roots."""
    stacks = []
    real = spectral.poly_roots
    monkeypatch.setattr(spectral, "poly_roots", lambda low: (stacks.append(low), real(low))[1])
    run()
    monkeypatch.setattr(spectral, "poly_roots", real)
    return stacks


@pytest.mark.parametrize("case", ["general-96", "invariant-1536", "different-roots"])
def test_benchmark_stacks_are_rooted_without_an_eigensolve(monkeypatch, case):
    # the d = 96 shift's two coordinates, (2, 96), and the d = 1536 shift's
    # residue classes, (512, 3), whose rows' roots differ by a rotation;
    # and rows whose roots have nothing in common
    if case == "general-96":
        samples = simulate(shift_operator(96), random_signal(96, np.random.default_rng(1)),
                           IndexSet((3, 50)), 192)
        stack, = _pipeline_stacks(monkeypatch, lambda: recover_observable_spectrum(samples))
    elif case == "invariant-1536":
        samples = simulate(shift_operator(1536), random_signal(1536, np.random.default_rng(1)),
                           Uniform(3), 6)
        stack, = _pipeline_stacks(monkeypatch, lambda: recover_operator(samples))
    else:
        rng = np.random.default_rng(5)
        stack = np.array([np.poly(rng.uniform(0.3, 1.2, 24) * np.exp(2j * np.pi * rng.random(24)))
                          [1:][::-1] for _ in range(6)])
    assert stack.shape == {"general-96": (2, 96), "invariant-1536": (512, 3)}.get(case, (6, 24))
    _, eigensolved = _check_rows(monkeypatch, stack)
    assert not any(eigensolved)


def test_roots_reject_deeper_stacks():
    with pytest.raises(DimensionError, match=r"shape \(r,\) or \(k, r\)"):
        poly_roots(np.ones((2, 2, 2)))


def test_roots_match_construction_degree_5():
    # oracle: the polynomial is built from known roots
    rng = np.random.default_rng(11)
    roots = rng.uniform(0.2, 0.9, 5) * np.exp(2j * np.pi * rng.random(5))
    got = poly_roots(np.poly(roots)[1:][::-1])
    assert_sets_close(got, roots, 1e-9)


@pytest.mark.parametrize("degree", range(1, 13))
def test_roots_roundtrip_property(degree):
    rng = np.random.default_rng(degree)
    # well separated draws: moduli spread plus rejection on close pairs
    while True:
        roots = rng.uniform(0.3, 1.2, degree) * np.exp(2j * np.pi * rng.random(degree))
        diffs = np.abs(roots[:, None] - roots[None, :])
        diffs[np.diag_indices_from(diffs)] = np.inf
        if degree == 1 or diffs.min() > 0.05:
            break
    got = poly_roots(np.poly(roots)[1:][::-1])
    assert_sets_close(got, roots, 1e-9)


def test_roots_backward_error():
    rng = np.random.default_rng(21)
    low = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for root in poly_roots(low):
        assert abs(np.polyval(coeffs_desc(low), root)) / (1 + abs(root) ** low.size) < 1e-8


# The divisibility checks (criterion 7, the divisibility chain) read this
# remainder; these pin that it is zero exactly for divisors.

def test_divide_exact():
    assert division_remainder([-1, 0], [-1]) < 1e-14


def test_divide_constant_remainder():
    rem = division_remainder([1, 0], [-1])
    assert rem == pytest.approx(2.0)


def test_divide_by_degree_zero_is_trivial():
    assert division_remainder([3, 2, 1], []) == 0.0


def test_divide_smaller_by_larger_gives_zero_quotient():
    p = [1]
    rem = division_remainder(p, [1, 2, 3])
    assert rem == pytest.approx(np.linalg.norm(coeffs_desc(p)))


@pytest.mark.parametrize("seed", range(8))
def test_divide_product_has_tiny_remainder(seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    prod_desc = np.polymul(coeffs_desc(q), coeffs_desc(g))
    p = prod_desc[1:][::-1]
    assert division_remainder(p, q) < 1e-12 * np.linalg.norm(prod_desc)


def test_set_match_error_handles_empty_sides():
    assert set_match_error([], []) == 0.0
    assert set_match_error([1.0], []) == float("inf")


def _set_match_error_dense(got, expected):
    """The one-shot formula over the full |got| x |expected| distance matrix."""
    a = np.asarray(got, dtype=np.complex128).ravel()
    b = np.asarray(expected, dtype=np.complex128).ravel()
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return float("inf")
    dist = np.abs(a[:, None] - b[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


_point = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(got=st.lists(_point, max_size=30), expected=st.lists(_point, max_size=30),
       block=st.integers(1, 70))
def test_set_match_error_blocks_match_dense_formula(got, expected, block):
    with mock.patch.object(numerics, "_BLOCK_ENTRIES", block):
        assert set_match_error(got, expected) == _set_match_error_dense(got, expected)


_NONFINITE = [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0), complex(-np.inf, 1),
              complex(2, np.inf), complex(np.inf, -np.inf), complex(np.nan, np.inf)]


@st.composite
def _point_set(draw):
    """Point sets that stress a search ordered by real part: one shared real
    part, exact duplicates from a small pool, and near-ties a few ulps
    apart, with optional NaN and infinite entries."""
    n = draw(st.integers(0, 25))
    kind = draw(st.sampled_from(["plane", "line", "pool", "ties"]))
    if kind == "plane":
        points = draw(st.lists(_point, min_size=n, max_size=n))
    elif kind == "line":
        re = draw(st.sampled_from([0.0, -0.0, 1.0, -3.5]))
        points = [complex(re, im) for im in draw(st.lists(st.floats(-1e3, 1e3), min_size=n,
                                                          max_size=n))]
    elif kind == "pool":
        points = draw(st.lists(st.sampled_from([0j, 1 + 1j, 1 - 1j, -0.5j, 1 + 0j]),
                               min_size=n, max_size=n))
    else:
        base = draw(st.sampled_from([1.0, -1.0, 1e-300, 3e5]))
        steps = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                              min_size=n, max_size=n))
        ulp = float(np.spacing(base))
        points = [complex(base + k * ulp, base + j * ulp) for k, j in steps]
    extra = draw(st.lists(st.sampled_from(_NONFINITE), max_size=2))
    return draw(st.permutations(points + extra))


@settings(max_examples=400, deadline=None)
@given(got=_point_set(), expected=_point_set(), block=st.integers(1, 70))
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_set_match_error_matches_dense_formula_on_hard_sets(got, expected, block):
    # NaN compares as NaN: both sides must give it
    with mock.patch.object(numerics, "_BLOCK_ENTRIES", block):
        got_err = set_match_error(got, expected)
    dense = _set_match_error_dense(got, expected)
    assert got_err == dense or (np.isnan(got_err) and np.isnan(dense))


def test_set_match_error_unit_circle_against_perturbed_permutation():
    # the invariant-wide spectra: 1536 roots of unity, conjugate pairs
    # sharing each real part, against a shuffled copy moved by 1e-13
    d = 1536
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    rng = np.random.default_rng(1536)
    moved = rng.permutation(roots) + 1e-13 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    err = set_match_error(moved, roots)
    assert err == _set_match_error_dense(moved, roots) and 0 < err < 1e-12
    with mock.patch.object(numerics, "_BLOCK_ENTRIES", 97):
        assert set_match_error(roots, moved) == err


@pytest.mark.parametrize("sizes", [(1536, 1536), (300, 301), (3, 70001), (70001, 2)])
def test_set_match_error_blocks_at_module_block_size(sizes):
    # sizes that are not multiples of the block, and a side longer than it
    rng = np.random.default_rng(sum(sizes))
    got, expected = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in sizes)
    assert set_match_error(got, expected) == _set_match_error_dense(got, expected)


# ------------------------------------------------------ distinct points

def _min_pairwise_gap_dense(points):
    """Smallest |p - q| over pairs of distinct indices, from the full
    distance table (inf with fewer than two points)."""
    v = np.asarray(points, dtype=np.complex128).ravel()
    if v.size < 2:
        return float("inf")
    dist = np.abs(v[:, None] - v[None, :])
    dist[np.diag_indices_from(dist)] = np.inf
    return float(dist.min())


# Integer grid points scaled by a power of two: real parts tie, points
# repeat, and distances such as |3 + 4i| = 5 land exactly on the tolerance.
_grid_point = st.builds(complex, st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=400, deadline=None)
@given(points=st.lists(_grid_point, max_size=40), tol=st.sampled_from([1, 2, 5]),
       scale=st.sampled_from([1.0, 0.25]))
def test_distinct_points_keeps_all_exactly_when_dense_gap_exceeds_tol(points, tol, scale):
    v = np.array(points, dtype=np.complex128) * scale
    kept = distinct_points(v, tol * scale)
    assert (kept.size == v.size) == (_min_pairwise_gap_dense(v) > tol * scale)


@settings(max_examples=300, deadline=None)
@given(points=_point_set(), tol=st.sampled_from([0.0, 1e-300, 1e-12, 1e-3, 1.0, 50.0]))
def test_distinct_points_separation_matches_dense_gap_on_hard_sets(points, tol):
    v = np.array([z for z in points if np.isfinite(z)], dtype=np.complex128)
    kept = distinct_points(v, tol)
    assert (kept.size == v.size) == (_min_pairwise_gap_dense(v) > tol)
    # survivors are input points, in (real, imag) order, pairwise farther than tol
    assert set(kept.tolist()) <= set(v.tolist())
    assert list(kept) == sorted(kept.tolist(), key=lambda z: (z.real, z.imag))
    assert _min_pairwise_gap_dense(kept) > tol


def test_distinct_points_of_nothing_is_empty():
    kept = distinct_points([], 1.0)
    assert kept.shape == (0,) and kept.dtype == np.complex128

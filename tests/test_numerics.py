from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynspec import numerics
from dynspec.errors import DimensionError
from dynspec.numerics import (MonicPolynomial, dft, least_squares, poly_roots,
                              set_match_error)
from helpers import assert_sets_close, division_remainder


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
    res = least_squares([[1], [0]], [2, 0])
    assert np.allclose(res.solution, [2])
    assert res.relative_residual == 0.0


def test_lstsq_pure_residual():
    res = least_squares([[1], [0]], [0, 1])
    assert np.allclose(res.solution, [0])
    assert res.relative_residual == pytest.approx(1.0)


def test_lstsq_recovers_constructed_solution():
    # oracle: build rhs from a known solution
    rng = np.random.default_rng(3)
    M = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    res = least_squares(M, M @ w)
    assert np.max(np.abs(res.solution - w)) < 1e-10
    assert res.relative_residual < 1e-12


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
    res = least_squares(M, M @ w)
    assert res.relative_residual < 1e-12
    assert np.max(np.abs(res.solution - w)) < 1e-9


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
    res = least_squares(M, rhs)
    expected = np.linalg.norm(M @ res.solution - rhs)
    residual = res.relative_residual * np.linalg.norm(rhs)
    assert abs(residual - expected) <= 1e-13 * np.linalg.norm(rhs)


# ----------------------------------------------------------- poly ops

def test_roots_of_quadratic():
    assert_sets_close(poly_roots(MonicPolynomial([-1, 0])), [1, -1], 1e-12)


@pytest.mark.parametrize("c", [0.5, -2.0, 1j, 0.3 - 0.7j])
def test_roots_of_linear(c):
    assert_sets_close(poly_roots(MonicPolynomial([-c])), [c], 1e-12)


def test_roots_degree_zero_is_empty():
    assert poly_roots(MonicPolynomial([])).size == 0


def test_roots_match_construction_degree_5():
    # oracle: the polynomial is built from known roots
    rng = np.random.default_rng(11)
    roots = rng.uniform(0.2, 0.9, 5) * np.exp(2j * np.pi * rng.random(5))
    got = poly_roots(MonicPolynomial(np.poly(roots)[1:][::-1]))
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
    got = poly_roots(MonicPolynomial(np.poly(roots)[1:][::-1]))
    assert_sets_close(got, roots, 1e-9)


def test_roots_backward_error():
    rng = np.random.default_rng(21)
    low = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = MonicPolynomial(low)
    for root in poly_roots(p):
        assert abs(np.polyval(p.coeffs_desc(), root)) / (1 + abs(root) ** p.degree) < 1e-8


# The divisibility checks (criterion 7, the divisibility chain) read this
# remainder; these pin that it is zero exactly for divisors.

def test_divide_exact():
    assert division_remainder(MonicPolynomial([-1, 0]), MonicPolynomial([-1])) < 1e-14


def test_divide_constant_remainder():
    rem = division_remainder(MonicPolynomial([1, 0]), MonicPolynomial([-1]))
    assert rem == pytest.approx(2.0)


def test_divide_by_degree_zero_is_trivial():
    assert division_remainder(MonicPolynomial([3, 2, 1]), MonicPolynomial([])) == 0.0


def test_divide_smaller_by_larger_gives_zero_quotient():
    p = MonicPolynomial([1])
    rem = division_remainder(p, MonicPolynomial([1, 2, 3]))
    assert rem == pytest.approx(np.linalg.norm(p.coeffs_desc()))


@pytest.mark.parametrize("seed", range(8))
def test_divide_product_has_tiny_remainder(seed):
    rng = np.random.default_rng(seed)
    q = MonicPolynomial(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    g = MonicPolynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    prod_desc = np.polymul(q.coeffs_desc(), g.coeffs_desc())
    p = MonicPolynomial(prod_desc[1:][::-1])
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
    with mock.patch.object(numerics, "_MATCH_BLOCK_ENTRIES", block):
        assert set_match_error(got, expected) == _set_match_error_dense(got, expected)


@pytest.mark.parametrize("sizes", [(1536, 1536), (300, 301), (3, 70001), (70001, 2)])
def test_set_match_error_blocks_at_module_block_size(sizes):
    # sizes that are not multiples of the block, and a side longer than it
    rng = np.random.default_rng(sum(sizes))
    got, expected = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in sizes)
    assert set_match_error(got, expected) == _set_match_error_dense(got, expected)

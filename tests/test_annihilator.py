import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dynspec import config
from dynspec.annihilator import (_block_hankel, annihilator_from_samples,
                                 scalar_annihilator)
from dynspec.errors import DimensionError, NoAnnihilator
from dynspec.model import (Circulant, Diagonalizable, IndexSet,
                           random_circulant, random_diagonalizable,
                           random_signal, shift_operator, simulate)
from dynspec.numerics import least_squares, poly_roots
from dynspec.spectral import window_recurrence
from helpers import assert_sets_close, coeffs_desc, division_remainder, roots_contained
from oracles import (altered_minimal_polynomial_oracle,
                     minimal_polynomial_oracle, observable_spectrum_oracle)


def _partially_observable(d, seed, hidden):
    """Random diagonalizable operator with the given eigencolumns hidden
    from coordinate 0 (zeros in row 0 of the eigenbasis)."""
    B = random_diagonalizable(d, seed)
    U = B.U.copy()
    for j in hidden:
        U[0, j] = 0.0
    return Diagonalizable(U, B.eigs)


# --------------------------------------------------------- vector form

def test_identity_operator_gives_lambda_minus_one():
    taps = np.zeros(5)
    taps[0] = 1
    x = random_signal(5, 0)
    seq = simulate(Circulant(taps), x, IndexSet((0,)), 6).samples
    ann = annihilator_from_samples(seq, 3)
    assert ann.degree == 1
    assert np.allclose(ann.poly, [-1], atol=1e-12)


def test_zero_operator_gives_lambda():
    x = random_signal(4, 1)
    seq = simulate(Circulant(np.zeros(4)), x, IndexSet((0, 1, 2, 3)), 4).samples
    ann = annihilator_from_samples(seq, 2)
    assert ann.degree == 1
    assert np.allclose(ann.poly, [0], atol=1e-12)


def test_degree_matches_observable_count():
    # oracle: eigendecomposition + observability through coordinate 0
    B = _partially_observable(6, 2, hidden=(2, 4))
    oracle = observable_spectrum_oracle(B, (0,))
    assert oracle.size == 4
    x = random_signal(6, 3)
    seq = simulate(B, x, IndexSet((0,)), 12).samples
    ann = annihilator_from_samples(seq, 6)
    assert ann.degree == oracle.size
    assert roots_contained(poly_roots(ann.poly), B.eigs, 1e-8)


def test_too_few_terms_rejected():
    with pytest.raises(DimensionError):
        annihilator_from_samples(np.ones((5, 2)), 3)


# --------------------------------------------------------- scalar form

def test_constant_sequence():
    ann = scalar_annihilator(np.ones(6), 3)
    assert ann.degree == 1
    assert np.allclose(ann.poly, [-1], atol=1e-12)


def test_two_exponential_sequence():
    # oracle construction: c_l = 2^l + 3^l has modes exactly {2, 3}
    c = np.array([2.0 ** l + 3.0 ** l for l in range(4)])
    ann = scalar_annihilator(c, 2)
    assert ann.degree == 2
    assert_sets_close(poly_roots(ann.poly), [2, 3], 1e-9)


@pytest.mark.parametrize("value", [0.0, 1e-301, 1e-307, 1e-320, 5e-324])
def test_zero_test_is_relative_to_zero_scale(value):
    # only exact zeros count as zero at zero_scale 0; subnormal data are
    # lifted exactly into the normal range before the search
    ann = scalar_annihilator(np.full(6, value), 3, zero_scale=value)
    assert ann.degree == (1 if value else 0)
    assert np.allclose(ann.poly, [-1][:ann.degree], atol=1e-12)


_SCALED_SEQUENCES = {
    "zero": (np.zeros(6), 0),
    "constant": (np.ones(6), 1),
    "two modes": (np.array([2.0 ** l + 3.0 ** l for l in range(6)]), 2),
    "three modes": (np.array([1 + (-0.5) ** l + (0.5j) ** l for l in range(6)]), 3),
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_SCALED_SEQUENCES)), k=st.integers(-300, 300))
def test_default_zero_scale_follows_the_data(name, k):
    # the default zero scale is the sequence's own peak, so a direct call
    # finds the same degree at any scale; 1e-13 * ones once counted as zero
    seq, degree = _SCALED_SEQUENCES[name]
    assert scalar_annihilator(seq * 10.0 ** k, 3).degree == degree


def test_all_zero_sequence_is_trivial():
    ann = scalar_annihilator(np.zeros(8), 4)
    assert ann.degree == 0
    assert ann.relative_residual == 0.0
    assert poly_roots(ann.poly).size == 0


def test_no_annihilator_when_r_max_too_small():
    # three modes, degree search capped at 2; the extra row blocks make the
    # shortfall visible (with rows == r_max the top-degree system is square
    # and 2*r_max terms can never refute it)
    c = np.array([1.0 + 2.0 ** l + 3.0 ** l for l in range(6)])
    with pytest.raises(NoAnnihilator) as info:
        scalar_annihilator(c, 2, rows=4)
    assert info.value.best_residual > 1e-8


@pytest.mark.parametrize("degree, rows, extra", [(1, 1, 0), (3, 5, 2), (7, 2, 0), (16, 16, 3)])
def test_hankel_system_matches_scipy_hankel(degree, rows, extra):
    rng = np.random.default_rng(degree * 100 + rows)
    c = rng.standard_normal(rows + degree + extra) + 1j * rng.standard_normal(rows + degree + extra)
    # columns :degree hold the degree system, column degree minus its rhs
    H = _block_hankel(c[:, None], rows, degree + 1)
    assert np.array_equal(H, scipy.linalg.hankel(c[:rows], c[rows - 1:rows + degree]))


@settings(max_examples=100, deadline=None)
@given(q=st.integers(1, 3), rows=st.integers(1, 8), cols=st.integers(1, 9),
       extra=st.integers(0, 2), layout=st.sampled_from(["contiguous", "column", "reversed"]),
       seed=st.integers(0, 2**16))
def test_block_hankel_matches_sliding_window_view(q, rows, cols, extra, layout, seed):
    # reference: the sliding_window_view construction _block_hankel
    # replaced. A C-contiguous input gives the same strides, so the solvers
    # downstream see the same input; the others are read through a
    # contiguous copy, with the same entries. Every H is read-only.
    rng = np.random.default_rng(seed)
    T = rows + cols - 1 + extra
    wide = rng.standard_normal((T, q + 1)) + 1j * rng.standard_normal((T, q + 1))
    terms = {"contiguous": np.ascontiguousarray(wide[:, :q]), "column": wide[:, 1:],
             "reversed": wide[::-1, :q]}[layout]
    windows = np.lib.stride_tricks.sliding_window_view(terms[:rows + cols - 1], rows, axis=0)
    expected = windows.transpose(2, 1, 0).reshape(rows * q, cols)
    H = _block_hankel(terms, rows, cols)
    assert np.array_equal(H, expected)
    assert not H.flags.writeable
    if layout == "contiguous":
        assert H.strides == expected.strides


def test_block_hankel_rejects_too_few_levels():
    with pytest.raises(DimensionError, match=r"^need at least rows \+ cols - 1 = 7 time levels, got 6$"):
        _block_hankel(np.zeros((6, 1), dtype=np.complex128), 3, 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1),
                                 complex(1.5e308, 1.5e308)], ids=repr)
@pytest.mark.filterwarnings("ignore:overflow encountered in absolute:RuntimeWarning")
def test_nonfinite_sequence_rejected(bad):
    # the check reads the peak modulus, so finite parts whose modulus
    # overflows count as non-finite too
    seq = np.ones(8, dtype=np.complex128)
    seq[5] = bad
    with pytest.raises(DimensionError, match="^sample sequence contains non-finite values$"):
        scalar_annihilator(seq, 4)


# ------------------------------------------ per-degree reference search

def _annihilator_per_degree(seq, r_max, rows):
    """The ascending search with each degree's system stacked on its own.
    Its residual is the one ``least_squares`` states: at the full rank
    gelsy reports, the distance of the rhs from the column span, formed
    here from numpy's QR of the system; otherwise the BLAS product.
    Returns (degree, low_coeffs, relative residual) or raises
    NoAnnihilator. The zero test is relative to the sequence's own peak,
    the default zero scale."""
    terms = np.asarray(seq, dtype=np.complex128)
    if terms.ndim == 1:
        terms = terms[:, None]
    peak = float(np.max(np.abs(terms)))
    if peak <= config.ZERO_REL * peak:
        return 0, np.zeros(0, dtype=np.complex128), 0.0
    best = float("inf")
    for r in range(1, r_max + 1):
        M = np.column_stack([terms[l:l + rows].ravel() for l in range(r)])
        rhs = -terms[r:r + rows].ravel()
        sol, _, rank, _ = scipy.linalg.lstsq(M, rhs, lapack_driver="gelsy")
        if rank == r:
            Q = np.linalg.qr(M)[0]
            residual = np.linalg.norm(rhs - Q @ (Q.conj().T @ rhs))
        else:
            residual = np.linalg.norm(M @ sol - rhs)
        rel = residual / max(np.linalg.norm(rhs), np.finfo(float).tiny)
        if rel < config.TAU_SOLVE:
            return r, sol, rel
        best = min(best, rel)
    raise NoAnnihilator("no annihilator", best)


_ratio = st.builds(complex, st.integers(-8, 8), st.integers(-8, 8)).map(lambda z: z / 8)


@settings(max_examples=200, deadline=None)
@given(ratios=st.lists(_ratio, max_size=10), width=st.sampled_from([0, 1, 3]),
       r_max=st.integers(1, 8), extra_rows=st.integers(-3, 3),
       kind=st.sampled_from(["modes", "noise", "zero"]), seed=st.integers(0, 2**16))
def test_search_matches_per_degree_reference(ratios, width, r_max, extra_rows, kind, seed):
    # width 0 is a scalar sequence, otherwise a (time, width) block sequence
    rows = max(1, r_max + extra_rows)
    levels = rows + r_max
    rng = np.random.default_rng(seed)
    shape = (levels,) if width == 0 else (levels, width)
    if kind == "zero":
        seq = np.zeros(shape, dtype=np.complex128)
    elif kind == "noise":
        seq = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    else:
        powers = np.array(ratios, dtype=np.complex128)[None, :] ** np.arange(levels)[:, None]
        amps = rng.standard_normal((len(ratios), max(width, 1))) + 1j
        seq = (powers @ amps).reshape(shape)
    try:
        expected = _annihilator_per_degree(seq, r_max, rows)
    except NoAnnihilator as err:
        with pytest.raises(NoAnnihilator) as info:
            annihilator_from_samples(seq, r_max, rows=rows)
        assert abs(info.value.best_residual - err.best_residual) <= 1e-12
        return
    got = annihilator_from_samples(seq, r_max, rows=rows)
    degree, low_coeffs, residual = expected
    assert got.degree == degree
    assert np.array_equal(got.poly, low_coeffs)
    assert abs(got.relative_residual - residual) <= 1e-12


_unit_root = st.integers(0, 47).map(lambda k: complex(np.exp(2j * np.pi * k / 48)))


@settings(max_examples=100, deadline=None)
@given(ratios=st.lists(st.one_of(_ratio, _unit_root), max_size=30),
       width=st.sampled_from([0, 1, 3]), r_max=st.integers(1, 40),
       extra_rows=st.integers(-3, 3), kind=st.sampled_from(["modes", "noise", "zero"]),
       seed=st.integers(0, 2**16))
def test_deep_search_matches_per_degree_reference(ratios, width, r_max, extra_rows, kind, seed):
    # r_max up to 40, so the gallop overshoots and the bisection runs
    # several steps before it settles on the reference's degree
    rows = max(1, r_max + extra_rows)
    levels = rows + r_max
    rng = np.random.default_rng(seed)
    shape = (levels,) if width == 0 else (levels, width)
    if kind == "zero":
        seq = np.zeros(shape, dtype=np.complex128)
    elif kind == "noise":
        seq = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    else:
        powers = np.array(ratios, dtype=np.complex128)[None, :] ** np.arange(levels)[:, None]
        amps = rng.standard_normal((len(ratios), max(width, 1))) + 1j
        seq = (powers @ amps).reshape(shape)
    try:
        expected = _annihilator_per_degree(seq, r_max, rows)
    except NoAnnihilator as err:
        with pytest.raises(NoAnnihilator) as info:
            annihilator_from_samples(seq, r_max, rows=rows)
        assert abs(info.value.best_residual - err.best_residual) <= 1e-12
        return
    got = annihilator_from_samples(seq, r_max, rows=rows)
    degree, low_coeffs, residual = expected
    assert got.degree == degree
    assert np.array_equal(got.poly, low_coeffs)
    assert abs(got.relative_residual - residual) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(r_max=st.integers(3, 40), deficit=st.integers(0, 2), width=st.sampled_from([0, 1, 3]),
       extra_rows=st.integers(-1, 1), seed=st.integers(0, 2**16))
def test_search_at_the_cap_matches_per_degree_reference(r_max, deficit, width, extra_rows, seed):
    # r_max, r_max - 1 or r_max - 2 distinct modes: the cap, the first
    # degree the gallop tries that fits, is the degree or just above it,
    # which the deep property above seldom draws
    rows = r_max + extra_rows
    levels = rows + r_max
    rng = np.random.default_rng(seed)
    ratios = np.exp(2j * np.pi * rng.choice(48, r_max - deficit, replace=False) / 48)
    amps = rng.standard_normal((ratios.size, max(width, 1))) + 1j
    seq = (ratios[None, :] ** np.arange(levels)[:, None]) @ amps
    seq = seq[:, 0] if width == 0 else seq
    degree, low_coeffs, residual = _annihilator_per_degree(seq, r_max, rows)
    got = annihilator_from_samples(seq, r_max, rows=rows)
    assert got.degree == degree
    assert np.array_equal(got.poly, low_coeffs)
    assert abs(got.relative_residual - residual) <= 1e-12


# ------------------------------------------------------ solves per search

@pytest.fixture
def solve_widths(monkeypatch):
    """Column counts of the systems the degree search solves, in order."""
    widths = []

    def counted(M, rhs):
        widths.append(M.shape[1])
        return least_squares(M, rhs)

    monkeypatch.setattr("dynspec.annihilator.least_squares", counted)
    return widths


def _modes(count, levels, order=7):
    """Sum of ``count`` distinct ``order``-th roots of unity raised to
    0..levels-1."""
    ratios = np.exp(2j * np.pi * np.arange(count) / order)
    return (ratios[None, :] ** np.arange(levels)[:, None]).sum(axis=1)


@pytest.mark.parametrize("r_max", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_shallow_search_tries_every_degree(solve_widths, degree, r_max):
    # with r_max <= 3 the gallop tries 1, 2, 3 in order, the solves of an
    # ascending search; the benchmark's pin on solves per search rests on this
    rows = 4
    c = _modes(degree, rows + r_max)
    if degree > r_max:
        with pytest.raises(NoAnnihilator):
            scalar_annihilator(c, r_max, rows=rows)
    else:
        assert scalar_annihilator(c, r_max, rows=rows).degree == degree
    assert solve_widths == list(range(1, min(degree, r_max) + 1))


# the gallop to the cap r_max = 96, then the one solve below it
_DEEP_SHIFT_WIDTHS = [1, 2, 4, 8, 16, 32, 64, 96, 95]


@pytest.mark.parametrize("omega", [(3,), (3, 50)])
def test_deep_shift_search_solves_logarithmically(solve_widths, omega):
    # the shift on C^96 has all 96 roots of unity as eigenvalues, so a
    # coordinate's search runs to r_max = rows = 96: 9 solves, not 96
    seq = simulate(shift_operator(96), random_signal(96, 5), IndexSet(omega), 192).samples
    ann = annihilator_from_samples(seq, 96)
    assert ann.degree == 96
    assert solve_widths == _DEEP_SHIFT_WIDTHS
    degree, low_coeffs, _ = _annihilator_per_degree(seq, 96, 96)
    assert degree == 96 and np.array_equal(ann.poly, low_coeffs)


def test_deep_shift_window_recurrence_settles_at_the_cap(solve_widths):
    # extrapolate mode's shared recurrence: Omega = {3, 50} and L = 64 give
    # r_max = min(2 * 64, 96) = 96 over 64 row blocks, the same 9 solves
    samples = simulate(shift_operator(96), random_signal(96, 5), IndexSet((3, 50)), 192)
    ann, _ = window_recurrence(samples, 64)
    assert ann.degree == 96
    assert solve_widths == _DEEP_SHIFT_WIDTHS


def test_search_below_a_fitting_cap_bisects(solve_widths):
    # 12 modes under r_max = rows = 15: the square degree-15 system fits, so
    # does degree 14, and the bisection runs on [8, 14] instead of [8, 15]
    c = _modes(12, 30, order=13)
    ann = scalar_annihilator(c, 15)
    assert solve_widths == [1, 2, 4, 8, 15, 14, 11, 12]
    degree, low_coeffs, _ = _annihilator_per_degree(c, 15, 15)
    assert ann.degree == degree == 12 and np.array_equal(ann.poly, low_coeffs)
    bisection_on_8_to_15 = [1, 2, 4, 8, 15, 11, 13, 12]
    assert len(solve_widths) <= len(bisection_on_8_to_15) + 1


def test_shallow_sequence_never_builds_wide_systems(solve_widths):
    # a degree-5 sequence under r_max = 96: the gallop stops at 8
    ann = scalar_annihilator(_modes(5, 192), 96)
    assert ann.degree == 5
    assert max(solve_widths) <= 8


def test_zero_degree_bound_finds_no_annihilator(solve_widths):
    # r_max = 0 tries no degree at all: NoAnnihilator with best residual
    # inf, not an error from reducing over an empty set of degrees
    with pytest.raises(NoAnnihilator, match=r"^no annihilator of degree <= 0 fits the sequence "
                                            r"\(best residual inf\)$") as info:
        scalar_annihilator(np.ones(4), 0, rows=2)
    assert info.value.best_residual == float("inf")
    # with rows omitted too: the default row count is never 0
    with pytest.raises(NoAnnihilator, match=r"\(best residual inf\)$") as info:
        scalar_annihilator(np.ones(4), 0)
    assert info.value.best_residual == float("inf")
    with pytest.raises(NoAnnihilator, match=r"\(best residual inf\)$"):
        annihilator_from_samples(np.ones((1, 2)), 0)
    assert scalar_annihilator(np.zeros(4), 0).degree == 0
    assert solve_widths == []


# ------------------------------------------------------------- oracles

def test_minimal_polynomial_identity():
    taps = np.zeros(5)
    taps[0] = 1
    ann = minimal_polynomial_oracle(Circulant(taps))
    assert ann.degree == 1
    assert np.allclose(ann.poly, [-1], atol=1e-10)


def test_minimal_polynomial_circulant_distinct():
    op = random_circulant(3, 5)
    ann = minimal_polynomial_oracle(op)
    assert ann.degree == 3
    assert_sets_close(poly_roots(ann.poly), op.transfer(), 1e-8)


def test_minimal_polynomial_repeated_eigenvalue_collapses():
    B = Diagonalizable(np.eye(3), [1, 1, 2])
    ann = minimal_polynomial_oracle(B)
    assert ann.degree == 2
    assert np.allclose(ann.poly, [2, -3], atol=1e-12)  # (l-1)(l-2)


# ---------------------------------------------------------- properties

@pytest.mark.parametrize("seed", range(12))
def test_divisibility_chain(seed):
    rng = np.random.default_rng(seed)
    hidden = tuple(rng.choice(6, size=int(rng.integers(0, 3)), replace=False))
    B = _partially_observable(6, seed + 100, hidden)
    x = random_signal(6, seed + 200)
    seq = simulate(B, x, IndexSet((0,)), 12).samples
    computed = annihilator_from_samples(seq, 6)
    p_full = minimal_polynomial_oracle(B)
    p_altered = altered_minimal_polynomial_oracle(B, (0,))
    for big in (p_full, p_altered):
        rem = division_remainder(big.poly, computed.poly)
        assert rem < 1e-7 * np.linalg.norm(coeffs_desc(big.poly))
    rem = division_remainder(p_full.poly, p_altered.poly)
    assert rem < 1e-7 * np.linalg.norm(coeffs_desc(p_full.poly))


@pytest.mark.parametrize("seed", range(12))
def test_root_containment(seed):
    B = random_diagonalizable(5, seed)
    x = random_signal(5, seed + 31)
    seq = simulate(B, x, IndexSet((0, 2)), 10).samples
    ann = annihilator_from_samples(seq, 5)
    assert roots_contained(poly_roots(ann.poly), B.eigs, 1e-8)


def test_genericity_100_draws():
    # fixed operator, 100 signals: the degree always equals the oracle's
    B = _partially_observable(5, 77, hidden=(1,))
    expected = observable_spectrum_oracle(B, (0,)).size
    failures = 0
    for seed in range(100):
        x = random_signal(5, 1000 + seed)
        seq = simulate(B, x, IndexSet((0,)), 10).samples
        if annihilator_from_samples(seq, 5).degree != expected:
            failures += 1
    assert failures == 0


def test_row_extension_does_not_change_annihilator():
    B = _partially_observable(6, 5, hidden=(3,))
    x = random_signal(6, 6)
    seq = simulate(B, x, IndexSet((0,)), 12).samples
    full = annihilator_from_samples(seq, 6)  # r_max row blocks
    r = full.degree
    short = annihilator_from_samples(seq[:2 * r], r, rows=r)
    assert short.degree == r
    assert np.max(np.abs(short.poly - full.poly)) < 1e-8


def test_sample_count_sharpness():
    # exactly 2r terms suffice: truncation reproduces the same polynomial
    B = random_diagonalizable(5, 9)
    x = random_signal(5, 10)
    seq = simulate(B, x, IndexSet((0,)), 10).samples
    full = annihilator_from_samples(seq, 5)
    r = full.degree
    truncated = annihilator_from_samples(seq[:2 * r], r)
    assert truncated.degree == r
    assert np.max(np.abs(truncated.poly - full.poly)) < 1e-8

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynspec.annihilator import _block_hankel, scalar_annihilator
from dynspec.errors import DimensionError, NotShiftSpectrum, RecoveryError
from dynspec.model import IndexSet, shift_operator, simulate
from dynspec.numerics import dft, poly_roots
from dynspec.prony import prony_support, prony_values, random_sparse_signal, snap_support
from helpers import one_coordinate


def _entries(x, start, count):
    d = x.size
    return np.array([x[(start + l) % d] for l in range(count)])


# ------------------------------------------------------------- support

def test_support_constant_signal():
    assert prony_support(one_coordinate([3.0, 3.0], 8), 1).support == (0,)


def test_support_two_modes_d8():
    # oracle construction: known support and values, signal via inverse DFT
    rng = np.random.default_rng(0)
    x_hat = np.zeros(8, dtype=complex)
    x_hat[1] = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random())
    x_hat[3] = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random())
    x = dft(x_hat, inverse=True)
    assert prony_support(one_coordinate(_entries(x, 0, 4), 8), 2).support == (1, 3)


def test_support_rejects_excess_sparsity():
    with pytest.raises(ValueError):
        prony_support(one_coordinate(np.ones(8), 8), 4)  # s >= d/2


def test_support_sparser_than_declared():
    # one true mode declared as two: degree search stops at 1
    x_hat = np.zeros(9, dtype=complex)
    x_hat[4] = 2.0
    x = dft(x_hat, inverse=True)
    assert prony_support(one_coordinate(_entries(x, 2, 4), 9, 2), 2).support == (4,)


@pytest.mark.parametrize("k", [-200, -13, -6, 6, 13, 200])
def test_support_is_scale_invariant(k):
    x, x_hat = random_sparse_signal(32, 4, 62)
    support = tuple(np.flatnonzero(x_hat))
    entries = _entries(x, 5, 8)
    assert prony_support(one_coordinate(entries, 32, 5), 4).support == support
    assert prony_support(one_coordinate(entries * 10.0 ** k, 32, 5), 4).support == support


def test_support_rejects_non_shift_data():
    c = np.array([1.0, 3.0, 9.0, 27.0])  # geometric ratio 3, off the unit circle
    with pytest.raises(NotShiftSpectrum):
        prony_support(one_coordinate(c, 8), 2)


def _refusal(roots, d: int) -> str:
    with pytest.raises(NotShiftSpectrum) as info:
        snap_support(roots, d)
    return str(info.value)


_GRID = np.exp(2j * np.pi * np.arange(16) / 16)
# three roots on the grid and three 0.01, 0.03 and 0.2 off it
_SNAP_ROOTS = np.concatenate([_GRID[[1, 5, 9]], _GRID[[2, 7, 12]] * np.array([1.01, 0.97, 1.2])])
# four roots at distance 1 from the grid, a tie that -2 wins by its real part
_TIED_ROOTS = np.array([2.0, 2j, -2j, -2.0])


@settings(max_examples=60, deadline=None)
@given(perm=st.permutations(range(6)), tied=st.permutations(range(4)))
def test_snap_refusal_names_the_farthest_root_in_any_order(perm, tied):
    message = _refusal(_SNAP_ROOTS[list(perm)], 16)
    assert message == _refusal(_SNAP_ROOTS, 16)
    assert message.startswith(f"root {_SNAP_ROOTS[5]:.6f} is 2.000e-01 from ")
    assert message.endswith("exp(2*pi*i*12/16); data does not fit the shift model")
    message = _refusal(_TIED_ROOTS[list(tied)], 8)
    assert message.startswith("root -2.000000+0.000000j is 1.000e+00 from the nearest grid "
                              "point exp(2*pi*i*4/8)")


def test_snap_support_of_grid_roots_in_any_order():
    roots = _GRID[[9, 1, 5, 1]] * (1 + 1e-9)
    assert snap_support(roots, 16) == snap_support(roots[::-1], 16) == (1, 5, 9)
    assert snap_support(np.zeros(0, dtype=complex), 16) == ()


# -------------------------------------------------------------- values

def test_values_constant_signal():
    got = prony_values([3.0, 3.0], 0, (0,), 8)
    assert abs(got[0] - 24.0) < 1e-12  # d * c


def test_values_match_construction():
    x, x_hat = random_sparse_signal(8, 2, 1)
    support = tuple(np.flatnonzero(x_hat))
    got = prony_values(_entries(x, 0, 4), 0, support, 8)
    for n in support:
        assert abs(got[n] - x_hat[n]) < 1e-9


def test_values_wrong_support_is_inconsistent():
    x, x_hat = random_sparse_signal(8, 2, 2)
    wrong = tuple((n + 1) % 8 for n in np.flatnonzero(x_hat))
    with pytest.raises(RecoveryError):
        prony_values(_entries(x, 0, 4), 0, wrong, 8)


def test_values_wrong_support_is_inconsistent_past_the_range_of_the_norms():
    # entries times 1e200 or 1e-200: taken by plain norms the residual read
    # NaN (they overflow) or 0.0 (they underflow, which accepted the wrong
    # support); it must refuse like any residual at or above tol
    x, x_hat = random_sparse_signal(8, 2, 2)
    wrong = tuple((n + 1) % 8 for n in np.flatnonzero(x_hat))
    for scale in (1e200, 1e-200):
        with pytest.raises(RecoveryError, match="cannot reproduce the entries"):
            with np.errstate(over="ignore", invalid="ignore"):
                prony_values(_entries(x, 0, 4) * scale, 0, wrong, 8)


# --------------------------------------------------------- reconstruct

def test_values_reject_a_support_larger_than_the_entries():
    with pytest.raises(DimensionError, match="^support size 3 exceeds the 2 entries supplied$"):
        prony_values([1.0, 2.0], 0, (1, 2, 3), 8)


def test_reconstruct_empty_support_is_zero():
    assert np.max(np.abs(dft(prony_values([3.0, 3.0], 0, (), 8), inverse=True))) == 0.0


def test_reconstruct_single_mode_formula():
    v = 2.0 - 1.5j
    x_hat = np.zeros(8, dtype=complex)
    x_hat[3] = v
    x = dft(x_hat, inverse=True)
    expected = v / 8 * np.exp(2j * np.pi * 3 * np.arange(8) / 8)
    assert np.max(np.abs(x - expected)) < 1e-12


def test_end_to_end_d64():
    x, x_hat = random_sparse_signal(64, 5, 3)
    start = 17
    entries = _entries(x, start, 10)
    support = prony_support(one_coordinate(entries, 64, start), 5).support
    assert support == tuple(np.flatnonzero(x_hat))
    got = dft(prony_values(entries, start, support, 64), inverse=True)
    assert np.max(np.abs(got - x)) < 1e-8


# ----------------------------------------------------------- properties

@pytest.mark.parametrize("start", [0, 3, 17, 40, 63])
def test_start_index_invariance(start):
    x, x_hat = random_sparse_signal(64, 4, 5)
    samples = one_coordinate(_entries(x, start, 8), 64, start)
    assert prony_support(samples, 4).support == tuple(np.flatnonzero(x_hat))


def test_equivalence_with_general_engine():
    # the same recovery through the sampled-evolution route: advance shift,
    # one sampled coordinate, roots snapped to the grid
    d, s = 16, 3
    x, x_hat = random_sparse_signal(d, s, 6)
    start = 5
    samples = simulate(shift_operator(d), x, IndexSet((start,)), 2 * s)
    roots = poly_roots(scalar_annihilator(samples.samples[:, 0], s).poly)
    via_engine = tuple(sorted(int(np.round(np.angle(r) * d / (2 * np.pi))) % d for r in roots))
    from_entries = one_coordinate(_entries(x, start, 2 * s), d, start)
    assert via_engine == prony_support(from_entries, s).support
    assert via_engine == tuple(np.flatnonzero(x_hat))


def test_sharpness_one_sample_short_is_underdetermined():
    # with 2s - 1 entries the degree-s block has rank < s: no unique solution
    d, s = 16, 3
    x, _ = random_sparse_signal(d, s, 7)
    entries = _entries(x, 0, 2 * s - 1)
    M = _block_hankel(entries[:, None], s - 1, s + 1)[:, :s]
    assert M.shape == (s - 1, s)
    assert np.linalg.matrix_rank(M) < s


@pytest.mark.parametrize("s", [0, -1, 8, 9])
def test_sparse_signal_needs_a_sparsity_inside_the_dimension(s):
    with pytest.raises(DimensionError, match=f"^need 0 < s < d, got s={s}, d=8$"):
        random_sparse_signal(8, s, 1)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(8, 64), s=st.integers(1, 4), start=st.integers(0, 63),
       extra=st.integers(0, 4), shift=st.integers(0, 2), seed=st.integers(0, 2**16),
       k=st.integers(-600, 600))
def test_values_refuse_the_same_supports_at_any_scale(d, s, start, extra, shift, seed, k):
    # entries of a sparse signal and its support, moved by ``shift`` (0:
    # the true one): times 2**k, prony_values' residual refuses exactly the
    # supports it refuses at scale 1
    x, x_hat = random_sparse_signal(d, s, seed)
    support = tuple((n + shift) % d for n in np.flatnonzero(x_hat))
    c = _entries(x, start % d, s + extra)
    parts = np.abs(c.view(np.float64))
    exponents = np.frexp(parts[parts > 0])[1]
    assume(exponents.min() + k >= -1020 and exponents.max() + k <= 1000)
    scaled = np.ldexp(c.view(np.float64), k).view(np.complex128)

    def refused(values):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                prony_values(values, start % d, support, d)
        except RecoveryError:
            return True
        return False

    assert refused(scaled) == refused(c)

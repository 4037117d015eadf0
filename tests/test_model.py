import numpy as np
import pytest

from dynspec.errors import ConditioningError, DimensionError
from dynspec.model import (Circulant, Diagonalizable, IndexSet, SampleSet,
                           Uniform, make_diffusion_filter, random_circulant,
                           random_diagonalizable, random_signal,
                           shift_operator, simulate)
from dynspec.numerics import dft
from helpers import assert_sets_close
from oracles import (as_diagonalizable, group_eigenvalues,
                     observable_spectrum_oracle, spectral_projectors)


def _rand_vec(d, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def _circulant_matrix(op):
    d = op.dim
    return op.taps[(np.arange(d)[:, None] - np.arange(d)[None, :]) % d]


# ------------------------------------------------------------- apply

def test_identity_filter_is_identity():
    taps = np.zeros(7)
    taps[0] = 1
    x = _rand_vec(7, 0)
    assert np.max(np.abs(Circulant(taps).apply(x) - x)) < 1e-12


def test_delay_filter_shifts_cyclically():
    # taps = delta_1 delays: (Bx)(n) = x(n-1)
    taps = np.zeros(5)
    taps[1] = 1
    x = _rand_vec(5, 1)
    assert np.max(np.abs(Circulant(taps).apply(x) - np.roll(x, 1))) < 1e-12


def test_shift_operator_advances():
    x = _rand_vec(6, 2)
    assert np.max(np.abs(shift_operator(6).apply(x) - np.roll(x, -1))) < 1e-12


def test_diagonalizable_matches_dense_expansion():
    B = random_diagonalizable(6, 3)
    x = _rand_vec(6, 4)
    M = (B.U * B.eigs) @ np.linalg.inv(B.U)
    assert np.max(np.abs(B.apply(x) - M @ x)) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_all_representations_agree(seed):
    op = random_circulant(8, seed)
    x = _rand_vec(8, seed + 50)
    direct = op.apply(x)
    assert np.max(np.abs(_circulant_matrix(op) @ x - direct)) < 1e-10
    assert np.max(np.abs(as_diagonalizable(op).apply(x) - direct)) < 1e-10


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionError):
        shift_operator(4).apply([1, 2, 3])


# ----------------------------------------------------------- simulate

def test_simulate_identity_repeats():
    taps = np.zeros(5)
    taps[0] = 1
    x = _rand_vec(5, 5)
    out = simulate(Circulant(taps), x, IndexSet((0, 2)), 3)
    assert out.samples.shape == (3, 2)
    for level in out.samples:
        assert np.max(np.abs(level - x[[0, 2]])) < 1e-12


def test_simulate_zero_operator():
    x = _rand_vec(4, 6)
    out = simulate(Circulant(np.zeros(4)), x, IndexSet((0, 1, 2, 3)), 2)
    assert np.max(np.abs(out.samples[0] - x)) < 1e-14
    assert np.max(np.abs(out.samples[1])) == 0.0


@pytest.mark.parametrize("d,sampler", [
    (6, IndexSet((0, 1, 2, 3, 4, 5))),
    (255, Uniform(3)),
    (255, IndexSet((0, 17, 128, 254))),
], ids=["d6-all", "d255-uniform3", "d255-indices"])
def test_simulate_matches_dense_power_oracle(d, sampler):
    op = random_circulant(d, 7)
    x = _rand_vec(d, 8)
    out = simulate(op, x, sampler, 4)
    M = _circulant_matrix(op)
    idx = sampler.indices(d)
    for ell in range(4):
        expected = np.linalg.matrix_power(M, ell) @ x
        assert np.max(np.abs(out.samples[ell] - expected[idx])) < 1e-10


@pytest.mark.parametrize("d,seed", [(8, 0), (17, 1), (32, 2)])
def test_simulate_power_consistency_property(d, seed):
    B = random_diagonalizable(d, seed, modulus=(0.5, 1.1))
    x = _rand_vec(d, seed + 10)
    omega = IndexSet((0, d // 2, d - 1))
    out = simulate(B, x, omega, 20)
    M = (B.U * B.eigs) @ np.linalg.inv(B.U)
    scale = np.max(np.abs(out.samples))
    for ell in range(20):
        expected = (np.linalg.matrix_power(M, ell) @ x)[[0, d // 2, d - 1]]
        assert np.max(np.abs(out.samples[ell] - expected)) < 1e-9 * max(1.0, scale)


def test_simulate_needs_positive_horizon():
    with pytest.raises(DimensionError):
        simulate(shift_operator(4), _rand_vec(4, 0), Uniform(2), 0)


def test_uniform_sampler_requires_divisor():
    with pytest.raises(DimensionError):
        simulate(shift_operator(15), _rand_vec(15, 0), Uniform(4), 2)


# ------------------------------------------------- observable spectrum

def test_observable_coordinate_basis():
    B = Diagonalizable(np.eye(3), [1, 2, 3])
    assert_sets_close(observable_spectrum_oracle(B, (0,)), [1], 1e-12)


@pytest.mark.parametrize("i", [0, 3, 6])
def test_observable_circulant_sees_everything(i):
    op = random_circulant(7, 13)
    got = observable_spectrum_oracle(op, (i,))
    assert_sets_close(got, op.transfer(), 1e-9)


def test_observable_zero_pattern_hides_eigenvalue():
    # oracle construction: row 0 of U orthogonal to the second eigencolumn
    B = random_diagonalizable(5, 17)
    U = B.U.copy()
    U[0, 2] = 0.0
    B2 = Diagonalizable(U, B.eigs)
    got = observable_spectrum_oracle(B2, (0,))
    assert got.size == 4
    expected = np.delete(B.eigs, 2)
    assert_sets_close(got, expected, 1e-9)


def test_observable_singular_basis_rejected():
    U = np.eye(4)
    U[3, 3] = 0.0
    with pytest.raises(ConditioningError):
        observable_spectrum_oracle(Diagonalizable(U + 0j, [1, 2, 3, 4]), (0,))


# ------------------------------------------------- spectral projectors

@pytest.mark.parametrize("seed", range(5))
def test_projector_identities(seed):
    B = random_diagonalizable(7, seed)
    ps = spectral_projectors(B)
    d = B.dim
    total = np.zeros((d, d), dtype=complex)
    for a, Pa in enumerate(ps.projectors):
        total += Pa
        for b, Pb in enumerate(ps.projectors):
            target = Pb if a == b else np.zeros((d, d))
            assert np.max(np.abs(Pa @ Pb - target)) < 1e-10
    assert np.max(np.abs(total - np.eye(d))) < 1e-10


def test_grouping_merges_repeated_eigenvalues():
    values, groups = group_eigenvalues([1.0, 1.0 + 1e-12, 2.0])
    assert len(values) == 2
    assert sorted(len(g) for g in groups) == [1, 2]


# ------------------------------------------------------ random signal

def test_random_signal_deterministic():
    assert np.array_equal(random_signal(8, 42), random_signal(8, 42))


def test_random_signal_seeds_differ():
    assert np.any(random_signal(8, 1) != random_signal(8, 2))


def test_random_signal_nonzero_entries():
    x = random_signal(15, 1)
    assert np.all(np.abs(x) > 0)


# ---------------------------------------------------- diffusion filter

def test_diffusion_d3_shape():
    a_hat = make_diffusion_filter(3, 0.4).transfer()
    assert abs(a_hat[0] - 1) < 1e-12
    assert abs(a_hat[1] - a_hat[2]) < 1e-12
    assert 0 < a_hat[1].real < 1


def test_diffusion_symmetric_and_decreasing():
    a_hat = make_diffusion_filter(15, 0.1).transfer().real
    head = a_hat[:8]
    assert np.all(np.diff(head) < 0)
    for k in range(1, 8):
        assert abs(a_hat[k] - a_hat[15 - k]) < 1e-12


def test_diffusion_taps_are_real():
    taps = make_diffusion_filter(15, 0.1).taps
    assert np.max(np.abs(taps.imag)) < 1e-12


def test_diffusion_underflow_rejected():
    # exp(-0.1 * k^2) reaches 0 well before k = 511
    with pytest.raises(ValueError, match=r"d=1023, decay=0\.1"):
        make_diffusion_filter(1023, 0.1)


def test_circulant_transfer_is_a_copy():
    op = random_circulant(8, 3)
    x = _rand_vec(8, 4)
    before = op.apply(x)
    op.transfer()[:] = 0
    assert np.array_equal(op.apply(x), before)
    assert np.array_equal(op.transfer(), dft(op.taps))


def test_diffusion_rejects_even_dimension():
    with pytest.raises(DimensionError):
        make_diffusion_filter(8, 0.1)


# ------------------------------------------------------------ samplers

def test_index_set_validation():
    with pytest.raises(DimensionError):
        IndexSet(())
    with pytest.raises(DimensionError):
        IndexSet((1, 1))
    with pytest.raises(DimensionError):
        IndexSet((-1,))
    with pytest.raises(DimensionError):
        IndexSet((0, 9)).indices(5)


def test_sample_set_shape_validation():
    with pytest.raises(DimensionError):
        SampleSet(6, Uniform(2), np.zeros((2, 4)))

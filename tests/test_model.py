import re
import tracemalloc

import numpy as np
import pytest

from dynspec import model
from dynspec.errors import ConditioningError, DimensionError
from dynspec.model import (Circulant, Diagonalizable, IndexSet, SampleSet,
                           Uniform, make_diffusion_filter, random_circulant,
                           random_diagonalizable, random_signal,
                           shift_operator, simulate)
from dynspec.numerics import dft, distinct_points
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


_FACTORIZATIONS = ("cholesky", "det", "eig", "eigh", "eigvals", "inv", "lstsq", "pinv", "qr",
                   "slogdet", "solve", "svd")


@pytest.mark.parametrize("seed", range(3))
def test_random_diagonalizable_factorizes_nothing(monkeypatch, seed):
    # LAPACK factorizations give different bits under different BLAS thread
    # counts; FFTs and matrix products do not, so the factory and simulate
    # use only those
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg factorization called")

    with monkeypatch.context() as patched:
        for name in _FACTORIZATIONS:
            patched.setattr(np.linalg, name, refuse)
        B = random_diagonalizable(64, seed)
        simulate(B, random_signal(64, seed + 10), IndexSet((0, 3, 7)), 128)
    assert abs(np.linalg.cond(B.U) - 2.0) < 1e-12
    assert np.max(np.abs(B.U @ B.U_inv - np.eye(64))) < 1e-12


def _assert_separated(spectrum, bound):
    # distinct_points tests the gap without a d x d table (268 MB at d = 4095)
    gap = bound * np.sin(np.pi / (2 * spectrum.size))
    assert distinct_points(spectrum, gap).size == spectrum.size


@pytest.mark.parametrize("d", [2, 3, 8, 64, 255, 1024])
def test_random_diagonalizable_eigenvalues_are_separated_by_construction(d):
    # phases at least pi/d apart and moduli at least 0.9 put any two
    # eigenvalues 1.8 sin(pi/2d) apart, so the one draw needs no rejection
    for seed in range(5):
        _assert_separated(random_diagonalizable(d, seed).eigs, 1.8)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64, 255, 1024, 1536, 4095])
def test_random_circulant_transfer_values_are_separated_by_construction(d):
    # the same spectrum as the diagonalizable draw, permuted and divided by
    # its largest modulus, at most 1.1
    for seed in range(5):
        a_hat = random_circulant(d, seed).transfer()
        assert abs(np.max(np.abs(a_hat)) - 1) < 1e-12
        _assert_separated(a_hat, 1.8 / 1.1)


@pytest.mark.parametrize("d", [8, 255])
def test_random_circulant_transfer_values_are_not_in_phase_order(d):
    # in grid order every residue class would hold equispaced phases and the
    # filter would be a jittered shift; the draw permutes them
    for seed in range(5):
        order = np.argsort(np.angle(random_circulant(d, seed).transfer()))
        rotations = [np.roll(np.arange(d), k) for k in range(d)]
        assert not any(np.array_equal(order, r) for r in rotations)


def test_random_circulant_builds_no_distance_table():
    # a dense 1023 x 1023 gap table alone takes 16 MiB
    tracemalloc.start()
    try:
        random_circulant(1023, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_diagonalizable_keeps_the_inverse_it_is_given():
    B = random_diagonalizable(5, 1)
    given = Diagonalizable(B.U, B.eigs, B.U_inv)
    assert given.U_inv is B.U_inv
    x = _rand_vec(5, 2)
    assert np.array_equal(given.apply(x), B.U @ (B.eigs * (B.U_inv @ x)))
    inverted = Diagonalizable(B.U, B.eigs)
    assert np.max(np.abs(inverted.U_inv - B.U_inv)) < 1e-12


def test_diagonalizable_singular_basis_rejected_at_construction():
    U = np.eye(3)
    U[2, 2] = 0.0
    with pytest.raises(ConditioningError, match="eigenbasis is singular"):
        Diagonalizable(U, [1, 2, 3])


def test_diagonalizable_inverse_shape_checked():
    with pytest.raises(DimensionError, match="inverse eigenbasis"):
        Diagonalizable(np.eye(3), [1, 2, 3], np.eye(2))


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


@pytest.mark.parametrize("d,seed,levels", [
    pytest.param(8, 0, 20, id="8-0"), pytest.param(17, 1, 20, id="17-1"),
    pytest.param(32, 2, 20, id="32-2"), pytest.param(32, 3, 64, id="32-3-2d-levels"),
])
def test_simulate_power_consistency_property(d, seed, levels):
    B = random_diagonalizable(d, seed)
    x = _rand_vec(d, seed + 10)
    omega = IndexSet((0, d // 2, d - 1))
    out = simulate(B, x, omega, levels)
    M = (B.U * B.eigs) @ np.linalg.inv(B.U)
    scale = np.max(np.abs(out.samples))
    for ell in range(levels):
        expected = (np.linalg.matrix_power(M, ell) @ x)[[0, d // 2, d - 1]]
        assert np.max(np.abs(out.samples[ell] - expected)) < 1e-9 * max(1.0, scale)


@pytest.mark.parametrize("d,levels,sampler", [
    (96, 192, IndexSet((3, 50))),
    (3072, 16, IndexSet((7,))),
    (1536, 6, Uniform(3)),
], ids=["general-deep", "prony-long", "invariant-wide"])
def test_simulate_shift_matches_exact_oracle(d, levels, sampler):
    # (B^l x)(i) = x((i + l) mod d) exactly, at any level count
    x = random_signal(d, 4)
    idx = sampler.indices(d)
    out = simulate(shift_operator(d), x, sampler, levels).samples
    expected = x[(idx[None, :] + np.arange(levels)[:, None]) % d]
    assert np.max(np.abs(out - expected)) < 1e-13 * np.max(np.abs(x))


def _unit_spectrum(B):
    """B with its eigenvalues moved to the unit circle, so long runs stay finite."""
    return Diagonalizable(B.U, B.eigs / np.abs(B.eigs), B.U_inv)


_BLOCK_CASES = {
    "random-circulant": (random_circulant(255, 3), Uniform(5), 700),
    "shift": (shift_operator(96), IndexSet((3, 50)), 400),
    "diagonalizable-1": (random_diagonalizable(64, 2), IndexSet((5,)), 3000),
    "diagonalizable-3": (random_diagonalizable(65, 2), IndexSet((0, 5, 9)), 3000),
}


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_simulate_levels_do_not_depend_on_their_block(case, monkeypatch):
    op, sampler, levels = _BLOCK_CASES[case]
    x = random_signal(op.dim, 4)
    full = simulate(op, x, sampler, levels).samples
    # a shorter run is a prefix, bit for bit, though its blocks end elsewhere
    for shorter in (1, 37, levels - 37):
        assert np.array_equal(simulate(op, x, sampler, shorter).samples, full[:shorter])
    monkeypatch.setattr(model, "_SIMULATE_BLOCK_ENTRIES", 1)
    assert np.array_equal(simulate(op, x, sampler, levels).samples, full)


@pytest.mark.parametrize("op", [random_circulant(512, 1),
                                _unit_spectrum(random_diagonalizable(512, 1))],
                         ids=["circulant", "diagonalizable"])
def test_simulate_memory_does_not_grow_with_the_level_count(op):
    # every level's state at once would take 8192 * 512 * 16 B = 64 MiB
    x = random_signal(512, 2)
    tracemalloc.start()
    try:
        out = simulate(op, x, IndexSet((3, 200)), 8192)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.samples.shape == (8192, 2)
    assert peak < 8 << 20


def _gain(B, gain):
    """B with every eigenvalue of modulus ``gain``."""
    B = _unit_spectrum(B)
    return Diagonalizable(B.U, gain * B.eigs, B.U_inv)


@pytest.mark.parametrize("op, rho", [(Circulant([0, 2, 0, 0, 0]), "2"),
                                     (_gain(random_diagonalizable(64, 3), 8), "8")],
                         ids=["circulant-gain-2", "diagonalizable-gain-8"])
def test_simulate_overflow_names_the_level_and_the_largest_eigenvalue(op, rho):
    # the named level is the first a run cannot reach: one level fewer is
    # finite, and the message does not depend on the run's length
    x = random_signal(op.dim, 1)
    with pytest.raises(DimensionError) as info:
        simulate(op, x, IndexSet((0,)), 1200)
    match = re.fullmatch(r"the state overflows at level (\d+), the first with a non-finite sample; "
                         r"the operator's largest eigenvalue modulus is (\S+)", str(info.value))
    assert match and match[2] == rho
    level = int(match[1])
    assert np.isfinite(simulate(op, x, IndexSet((0,)), level).samples).all()
    with pytest.raises(DimensionError, match=f"at level {level},"):
        simulate(op, x, IndexSet((0,)), level + 1)


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


@pytest.mark.parametrize("d, decay, cause", [
    (15, 1e-20, "rounds to 1, or to one value near 1, at neighbouring frequencies; "
                "use a larger decay"),
    (1023, 0.1, "underflows before the folding index; use a smaller decay"),
], ids=["rounds-to-1", "underflows"])
def test_diffusion_names_why_it_is_not_decreasing(d, decay, cause):
    # exp(-1e-20 * k^2) is 1.0 in double precision for every k up to 7
    with pytest.raises(ValueError, match=f"d={d}, decay={decay} is not strictly decreasing: "
                                         rf"exp\(-decay\*k\^2\) {cause}$"):
        make_diffusion_filter(d, decay)


@pytest.mark.parametrize("decay", [float("nan"), float("inf"), 0.0, -1.0])
def test_diffusion_rejects_nonfinite_or_nonpositive_decay(decay):
    with pytest.raises(ValueError, match="^decay must be finite and positive, got "):
        make_diffusion_filter(15, decay)


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


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("factory", [
    shift_operator, lambda d: random_circulant(d, 1), lambda d: random_diagonalizable(d, 1),
    lambda d: make_diffusion_filter(d, 0.1), lambda d: random_signal(d, 1),
], ids=["shift", "random-circulant", "random-diagonalizable", "diffusion", "signal"])
def test_factories_reject_nonpositive_dimension(factory, d):
    # the text the CLI prints for simulate --d 0
    with pytest.raises(DimensionError, match=f"^d must be positive, got {d}$"):
        factory(d)


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

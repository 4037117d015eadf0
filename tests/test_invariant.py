import numpy as np
import pytest

from dynspec.annihilator import _block_hankel
from dynspec.errors import (AmbiguousOrdering, DimensionError,
                            InsufficientDataError, NotSymmetricReal,
                            UnderDetermined)
from dynspec.invariant import (fourier_classes, order_symmetric_decreasing,
                               recover_operator, recover_signal,
                               recover_spectrum_invariant)
from dynspec.model import (Circulant, IndexSet, Uniform, make_diffusion_filter,
                           random_circulant, random_signal, shift_operator,
                           simulate)
from dynspec.numerics import dft
from dynspec.prony import random_sparse_signal
from dynspec.spectral import SpectrumEstimate
from helpers import assert_sets_close, roots_contained
from oracles import projection_check


def _identity_filter(d):
    taps = np.zeros(d)
    taps[0] = 1
    return Circulant(taps)


# ------------------------------------------------------ fourier_classes

def test_classes_full_sampling_is_plain_dft():
    op = random_circulant(6, 0)
    x = random_signal(6, 1)
    samples = simulate(op, x, Uniform(1), 2)
    classes = fourier_classes(samples)
    assert classes.shape[1] == 6
    for ell in range(2):
        level_hat = dft(samples.samples[ell])
        for j in range(6):
            assert abs(classes[ell, j] - level_hat[j]) < 1e-10


def test_classes_constant_signal_occupies_zero_class_only():
    op = random_circulant(9, 2)
    x = np.ones(9, dtype=complex)
    classes = fourier_classes(simulate(op, x, Uniform(3), 6))
    scale = np.max(np.abs(classes[:, 0]))
    assert scale > 0.1
    for j in range(1, classes.shape[1]):
        assert np.max(np.abs(classes[:, j])) < 1e-10 * scale


def test_classes_match_forward_identity():
    # oracle: series_l(j) = (1/m) sum_i transfer(j+iJ)^l xhat(j+iJ)
    d, m = 9, 3
    op = random_circulant(d, 3)
    x = random_signal(d, 4)
    a_hat, x_hat = op.transfer(), dft(x)
    classes = fourier_classes(simulate(op, x, Uniform(m), 2 * m))
    J = d // m
    for j in range(J):
        freqs = np.arange(j, d, J)
        for ell in range(2 * m):
            expected = np.mean(a_hat[freqs] ** ell * x_hat[freqs])
            assert abs(classes[ell, j] - expected) < 1e-10 * max(1, abs(expected))


@pytest.mark.parametrize("d,m", [(1023, 3), (255, 3), (255, 15)])
def test_classes_match_zero_embed_definition(d, m):
    # oracle: embed each level at the kept coordinates, transform at
    # length d, and average the result over each residue class
    samples = simulate(random_circulant(d, d + m), random_signal(d, m), Uniform(m), 2 * m)
    J = d // m
    expected = np.empty((2 * m, J), dtype=complex)
    for ell in range(2 * m):
        z = np.zeros(d, dtype=complex)
        z[::m] = samples.samples[ell]
        z_hat = dft(z)
        expected[ell] = [z_hat[j::J].mean() for j in range(J)]
    got = fourier_classes(samples)
    assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_classes_require_uniform_sampler():
    samples = simulate(random_circulant(6, 5), random_signal(6, 6), IndexSet((0, 3)), 6)
    with pytest.raises(TypeError):
        fourier_classes(samples)


def test_classes_require_enough_levels():
    samples = simulate(random_circulant(6, 7), random_signal(6, 8), Uniform(3), 4)
    with pytest.raises(InsufficientDataError):
        fourier_classes(samples)  # needs 2m = 6


# ----------------------------------------------------- projection_check

def test_projection_full_sampling_gives_coordinate_projections():
    out = projection_check(1, 5, random_signal(5, 9))
    assert out["idempotence_error"] < 1e-12
    assert out["resolution_error"] < 1e-12


def test_projection_constant_probe_gives_class_averages():
    z = np.full(12, 2.5 + 1j)
    out = projection_check(3, 12, z)
    assert np.max(np.abs(out["class_values"] - (2.5 + 1j))) < 1e-12


def test_projection_identities_random():
    out = projection_check(3, 15, random_signal(15, 10))
    assert out["idempotence_error"] < 1e-10
    assert out["resolution_error"] < 1e-10


# --------------------------------------------- recover_spectrum_invariant

def test_invariant_full_sampling_roots_are_transfer_ratios():
    d = 6
    op = random_circulant(d, 11)
    x = random_signal(d, 12)
    samples = simulate(op, x, Uniform(1), 2)
    est = recover_spectrum_invariant(samples)
    a_hat = op.transfer()
    for j in range(d):
        assert len(est.per_source[j]) == 1
        assert abs(est.per_source[j][0] - a_hat[j]) < 1e-8
    assert_sets_close(est.merged, a_hat, 1e-8)


def test_invariant_identity_filter_collapses_to_one():
    x = random_signal(9, 13)
    est = recover_spectrum_invariant(simulate(_identity_filter(9), x, Uniform(3), 6))
    assert_sets_close(est.merged, [1], 1e-8)


def test_invariant_random_filter_matches_transfer_oracle():
    d, m = 15, 3
    op = random_circulant(d, 14)
    x = random_signal(d, 15)
    est = recover_spectrum_invariant(simulate(op, x, Uniform(m), 2 * m))
    assert est.merged.size == d
    assert_sets_close(est.merged, op.transfer(), 1e-8)


@pytest.mark.parametrize("d,m", [(9, 3), (15, 5), (12, 4), (16, 2)])
def test_invariant_degree_bound_and_root_locality(d, m):
    op = random_circulant(d, d + m)
    x = random_signal(d, d - m)
    est = recover_spectrum_invariant(simulate(op, x, Uniform(m), 2 * m))
    a_hat = op.transfer()
    J = d // m
    for j, roots in est.per_source.items():
        assert len(roots) <= m
        assert roots_contained(roots, a_hat[np.arange(j, d, J)], 1e-8)
    assert_sets_close(est.merged, a_hat, 1e-8)


def test_invariant_zero_class_contributes_nothing():
    # signal with no content on class 1 frequencies: series is zero there
    d, m = 9, 3
    op = random_circulant(d, 16)
    x_hat = np.zeros(d, dtype=complex)
    for k in (0, 2, 3, 5, 6, 8):  # leave out class 1 = {1, 4, 7}
        x_hat[k] = 1 + 1j
    x = dft(x_hat, inverse=True)
    est = recover_spectrum_invariant(simulate(op, x, Uniform(m), 2 * m))
    assert len(est.per_source[1]) == 0
    assert est.merged.size == 6


# ----------------------------------------------- order_symmetric_decreasing

def _estimate_from_values(values):
    vals = np.asarray(values, dtype=complex)
    return SpectrumEstimate({0: vals}, vals, 1e-6)


def test_ordering_mirrors_tail():
    a_hat = order_symmetric_decreasing(_estimate_from_values([5, 3, 1]), 5)
    assert np.allclose(a_hat.real, [5, 3, 1, 1, 3])
    assert np.max(np.abs(a_hat.imag)) == 0.0


def test_ordering_rejects_degenerate_count():
    with pytest.raises(AmbiguousOrdering):
        order_symmetric_decreasing(_estimate_from_values([1]), 5)


def test_ordering_rejects_complex_values():
    with pytest.raises(NotSymmetricReal):
        order_symmetric_decreasing(_estimate_from_values([5, 3 + 0.1j, 1]), 5)


def test_ordering_rejects_even_dimension():
    with pytest.raises(DimensionError):
        order_symmetric_decreasing(_estimate_from_values([2, 1]), 4)


def test_ordering_recovers_diffusion_transfer():
    d, m = 15, 3
    op = make_diffusion_filter(d, 0.1)
    x = random_signal(d, 17)
    est = recover_spectrum_invariant(simulate(op, x, Uniform(m), 2 * m))
    a_hat = order_symmetric_decreasing(est, d)
    assert np.max(np.abs(a_hat - op.transfer())) < 1e-8


# -------------------------------------------------------- recover_signal

def test_signal_full_sampling_is_time_zero():
    op = random_circulant(7, 18)
    x = random_signal(7, 19)
    samples = simulate(op, x, Uniform(1), 1)
    got = recover_signal(samples, op.transfer())
    assert np.max(np.abs(got - x)) < 1e-12


def test_signal_generic_filter_roundtrip():
    d, m = 9, 3
    op = random_circulant(d, 20)
    x = random_signal(d, 21)
    samples = simulate(op, x, Uniform(m), m)
    got = recover_signal(samples, op.transfer())
    assert np.max(np.abs(got - x)) < 1e-8


def test_signal_symmetric_filter_underdetermined():
    d, m = 15, 3
    op = make_diffusion_filter(d, 0.1)
    x = random_signal(d, 22)
    samples = simulate(op, x, Uniform(m), 2 * m)
    with pytest.raises(UnderDetermined) as info:
        recover_signal(samples, op.transfer())
    assert info.value.class_id == 0


# ------------------------------------------------------ recover_operator

def test_operator_full_sampling_needs_no_assumption():
    op = random_circulant(8, 23)
    x = random_signal(8, 24)
    recovered, est = recover_operator(simulate(op, x, Uniform(1), 2))
    assert recovered is not None
    assert np.max(np.abs(recovered.taps - op.taps)) < 1e-8


def test_operator_diffusion_with_assumption():
    d, m = 15, 3
    op = make_diffusion_filter(d, 0.1)
    x = random_signal(d, 25)
    recovered, est = recover_operator(simulate(op, x, Uniform(m), 2 * m),
                                      assume_symmetric_decreasing=True)
    assert np.max(np.abs(recovered.matrix if hasattr(recovered, 'matrix') else recovered.taps
                         - op.taps)) < 1e-8


def test_operator_asymmetric_filter_rejected_under_assumption():
    d, m = 15, 3
    op = random_circulant(d, 26)
    x = random_signal(d, 27)
    with pytest.raises(NotSymmetricReal):
        recover_operator(simulate(op, x, Uniform(m), 2 * m),
                         assume_symmetric_decreasing=True)


def test_operator_without_assumption_returns_spectrum_only():
    d, m = 15, 3
    op = random_circulant(d, 28)
    x = random_signal(d, 29)
    recovered, est = recover_operator(simulate(op, x, Uniform(m), 2 * m))
    assert recovered is None
    assert_sets_close(est.merged, op.transfer(), 1e-8)


# ----------------------------------------------------------- properties

def test_diffusion_degree_pattern():
    d, m = 15, 3
    J = d // m
    op = make_diffusion_filter(d, 0.1)
    for seed in range(5):
        x = random_signal(d, 100 + seed)
        est = recover_spectrum_invariant(simulate(op, x, Uniform(m), 2 * m))
        degrees = sorted(len(r) for r in est.per_source.values())
        assert degrees == sorted([m] * (J - 1) + [(m + 1) // 2])
        assert len(est.per_source[0]) == (m + 1) // 2


def test_round_trip_resimulation():
    d, m = 15, 3
    op = make_diffusion_filter(d, 0.1)
    x = random_signal(d, 31)
    samples = simulate(op, x, Uniform(m), 2 * m)
    recovered, _ = recover_operator(samples, assume_symmetric_decreasing=True)
    again = simulate(recovered, x, Uniform(m), 2 * m)
    scale = np.max(np.abs(samples.samples))
    assert np.max(np.abs(again.samples - samples.samples)) < 1e-7 * scale


def test_shift_full_subsampling_matches_consecutive_entries():
    # with the shift operator and m = d the single class series walks the
    # signal entries, so the per-class system is the classical one built
    # from consecutive samples
    d, s = 16, 3
    x, _ = random_sparse_signal(d, s, 4242)
    samples = simulate(shift_operator(d), x, Uniform(d), 2 * d)
    series = fourier_classes(samples)[:, 0]
    entries = np.array([x[l % d] for l in range(2 * d)])
    assert np.max(np.abs(series - entries)) < 1e-12
    H1 = _block_hankel(series[:2 * s, None], s, s + 1)
    H2 = _block_hankel(entries[:2 * s, None], s, s + 1)
    assert np.max(np.abs(H1 - H2)) < 1e-12

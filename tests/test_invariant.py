import numpy as np
import pytest

from dynspec.annihilator import _block_hankel
from dynspec.errors import (AmbiguousOrdering, DimensionError,
                            InsufficientDataError, NotSymmetricReal,
                            RecoveryError, UnderDetermined)
from dynspec.invariant import (fourier_classes, order_symmetric_decreasing,
                               recover_operator, recover_signal,
                               recover_spectrum_invariant)
from dynspec.model import (Circulant, IndexSet, SampleSet, Uniform,
                           make_diffusion_filter, random_circulant, random_signal,
                           shift_operator, simulate)
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


@pytest.mark.parametrize("k", [-290, -200, 200, 290])
def test_invariant_recovery_is_scale_invariant(k):
    # unnormalized, 1e-200 data gave degree 1 per class, 5 of 15 values
    # and no error, and 1e+200 data found no annihilator
    d, m = 15, 3
    samples = simulate(random_circulant(d, 5), random_signal(d, 6), Uniform(m), 2 * m)
    scaled = SampleSet(d, samples.sampler, samples.samples * 10.0 ** k)
    ref = recover_spectrum_invariant(samples)
    got = recover_spectrum_invariant(scaled)
    assert ({j: r.size for j, r in got.per_source.items()}
            == {j: r.size for j, r in ref.per_source.items()})
    assert got.merged.size == ref.merged.size == d
    assert_sets_close(got.merged, ref.merged, 1e-8)


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


@pytest.mark.parametrize("values, message", [
    ([], "^no spectral values to order$"),
    # distinct values whose real parts tie: kept apart by a dedup tolerance
    # below _REAL_TOL, so the projection to the real axis cannot order them
    ([5, 3 + 1e-10j, 3 - 1e-10j], "^spectral values are not strictly decreasing after "
                                  "projection to the real axis$"),
], ids=["no-values", "tied-real-parts"])
def test_ordering_rejects_unorderable_values(values, message):
    with pytest.raises(AmbiguousOrdering, match=message):
        order_symmetric_decreasing(_estimate_from_values(values), 5)


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


def test_signal_rejects_a_filter_of_the_wrong_length():
    op = random_circulant(9, 20)
    samples = simulate(op, random_signal(9, 21), Uniform(3), 3)
    with pytest.raises(DimensionError, match="^filter length 8 does not match d=9$"):
        recover_signal(samples, op.transfer()[:8])


@pytest.mark.parametrize("seed,scale", [(0, 1.0), (1, 1.0), (2, 1.0), (1, 1e200), (0, 1e-165),
                                        (2, 1e-200)],
                         ids=["0", "1", "2", "1-times-1e200", "0-times-1e-165", "2-times-1e-200"])
def test_signal_refuses_a_filter_that_does_not_generate_the_data(seed, scale):
    # every class's m x m system on the first m levels is square and of
    # full rank, so its residual is 0 for any filter with distinct nodes;
    # the levels after the m-th expose the wrong filter. Taken by plain
    # norms the residual read NaN at 1e200 (they overflow) and 0.0 at
    # 1e-165 and 1e-200 (they underflow), which accepted the filter there
    d, m = 45, 3
    samples = simulate(make_diffusion_filter(d, 0.1), random_signal(d, 1), Uniform(m), 2 * m)
    samples = SampleSet(d, samples.sampler, samples.samples * scale)
    with pytest.raises(RecoveryError,
                       match="alias system is inconsistent with the supplied filter"):
        with np.errstate(over="ignore", invalid="ignore"):
            recover_signal(samples, random_circulant(d, seed).transfer())


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
    est = recover_operator(simulate(op, x, Uniform(1), 2))
    assert est.taps is not None
    assert np.max(np.abs(est.taps - op.taps)) < 1e-8


def test_operator_diffusion_with_assumption():
    d, m = 15, 3
    op = make_diffusion_filter(d, 0.1)
    x = random_signal(d, 25)
    est = recover_operator(simulate(op, x, Uniform(m), 2 * m),
                           assume_symmetric_decreasing=True)
    assert np.max(np.abs(est.taps - op.taps)) < 1e-8


def test_operator_asymmetric_filter_rejected_under_assumption():
    d, m = 15, 3
    op = random_circulant(d, 26)
    x = random_signal(d, 27)
    with pytest.raises(NotSymmetricReal):
        recover_operator(simulate(op, x, Uniform(m), 2 * m),
                         assume_symmetric_decreasing=True)


def test_operator_m1_vanishing_frequency_keeps_partial():
    # m = 1 with a sparse transform: the classes off the support carry no root
    d = 16
    x, x_hat = random_sparse_signal(d, 3, 1)
    with pytest.raises(RecoveryError, match="unrecoverable") as info:
        recover_operator(simulate(shift_operator(d), x, Uniform(1), 2))
    partial = info.value.partial
    assert sorted(partial.per_source) == list(range(d))
    assert_sets_close(partial.merged, np.exp(2j * np.pi * np.flatnonzero(x_hat) / d), 1e-8)


def test_operator_without_assumption_returns_spectrum_only():
    d, m = 15, 3
    op = random_circulant(d, 28)
    x = random_signal(d, 29)
    est = recover_operator(simulate(op, x, Uniform(m), 2 * m))
    assert est.taps is None
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
    est = recover_operator(samples, assume_symmetric_decreasing=True)
    again = simulate(Circulant(est.taps), x, Uniform(m), 2 * m)
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

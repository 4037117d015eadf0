import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynspec import config
from dynspec.annihilator import scalar_annihilator
from dynspec.errors import DimensionError, RecoveryError, SpanConditionViolated
from dynspec.model import (Circulant, Diagonalizable, IndexSet, SampleSet,
                           random_circulant, random_diagonalizable,
                           random_signal, shift_operator, simulate)
from dynspec.numerics import distinct_points, poly_roots
from dynspec.prony import prony_support, random_sparse_signal
from dynspec.spectral import (fit_extrapolation, merge_roots,
                              recover_observable_spectrum,
                              recover_spectrum_via_extrapolation, search_sources,
                              window_recurrence)
from helpers import assert_sets_close, roots_contained
from oracles import observable_spectrum_oracle


def _identity(d):
    taps = np.zeros(d)
    taps[0] = 1
    return Circulant(taps)


# --------------------------------------------------- per-index recovery

def test_index_recovery_identity_operator():
    assert_sets_close(poly_roots(scalar_annihilator(np.ones(6), 3).poly), [1], 1e-10)


def test_index_recovery_circulant_full_spectrum():
    # oracle: the transfer function of the filter
    op = random_circulant(5, 1)
    x = random_signal(5, 2)
    samples = simulate(op, x, IndexSet((0,)), 10)
    roots = poly_roots(scalar_annihilator(samples.samples[:, 0], 5).poly)
    assert_sets_close(roots, op.transfer(), 1e-8)


def test_index_recovery_coordinate_basis():
    B = Diagonalizable(np.eye(3), [1, 2, 3])
    x = random_signal(3, 3)
    samples = simulate(B, x, IndexSet((0,)), 6)
    assert_sets_close(poly_roots(scalar_annihilator(samples.samples[:, 0], 3).poly), [1], 1e-9)


# ------------------------------------------------- observable spectrum

def test_observable_recovery_dedups_across_sources():
    x = random_signal(6, 4)
    samples = simulate(_identity(6), x, IndexSet((1, 4)), 12)
    est = recover_observable_spectrum(samples)
    assert_sets_close(est.merged, [1], 1e-9)
    assert set(est.per_source) == {1, 4}


def test_observable_recovery_coordinate_union():
    B = Diagonalizable(np.eye(3), [1, 2, 3])
    x = random_signal(3, 5)
    samples = simulate(B, x, IndexSet((0, 2)), 6)
    est = recover_observable_spectrum(samples)
    assert_sets_close(est.merged, [1, 3], 1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_observable_recovery_matches_oracle(seed):
    d = 8
    B = random_diagonalizable(d, seed)
    rng = np.random.default_rng(seed + 900)
    omega = tuple(sorted(int(i) for i in rng.choice(d, size=int(rng.integers(1, 4)), replace=False)))
    x = random_signal(d, seed + 400)
    samples = simulate(B, x, IndexSet(omega), 2 * d)
    est = recover_observable_spectrum(samples)
    oracle = observable_spectrum_oracle(B, omega)
    assert est.merged.size == oracle.size
    assert_sets_close(est.merged, oracle, 1e-8)


def test_monotone_in_sampling_set():
    B = random_diagonalizable(8, 33)
    x = random_signal(8, 34)
    small = recover_observable_spectrum(simulate(B, x, IndexSet((1,)), 16))
    large = recover_observable_spectrum(simulate(B, x, IndexSet((1, 5)), 16))
    assert roots_contained(small.merged, large.merged, 1e-8)


@pytest.mark.parametrize("k", [-305, -301, -290, -200, -13, -6, 6, 13, 200, 290])
def test_observable_recovery_is_scale_invariant(k):
    B = random_diagonalizable(8, 60)
    x = random_signal(8, 61)
    samples = simulate(B, x, IndexSet((0, 3)), 16)
    scaled = SampleSet(samples.d, samples.sampler, samples.samples * 10.0 ** k)
    ref = recover_observable_spectrum(samples)
    got = recover_observable_spectrum(scaled)
    assert ({i: r.size for i, r in got.per_source.items()}
            == {i: r.size for i, r in ref.per_source.items()})
    assert_sets_close(got.merged, ref.merged, 1e-8)


def test_merge_roots_invariants():
    merged, tol = merge_roots([[1.0, 1.0 + 1e-9], [2.0, 1.0]], dedup_rel=1e-6)
    assert merged.size == 2
    assert np.min(np.abs(merged[:, None] - merged[None, :]) + np.eye(2) * 10) > tol


def _merge_roots_quadratic(root_lists, dedup_tol):
    """Reference greedy: each root, in (real, imag) order, is compared
    against every survivor."""
    roots = np.concatenate([np.zeros(0, dtype=complex)]
                           + [np.asarray(r, dtype=complex).ravel() for r in root_lists])
    reps = []
    for z in roots[np.lexsort((roots.imag, roots.real))]:
        if all(abs(z - rep) > dedup_tol for rep in reps):
            reps.append(complex(z))
    return np.array(reps, dtype=complex)


# Integer grid points scaled by a power of two: real parts tie, conjugate
# pairs occur, and distances such as |3 + 4i| = 5 land exactly on the tolerance.
_grid_root = st.builds(complex, st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=300, deadline=None)
@given(lists=st.lists(st.lists(_grid_root, max_size=12), max_size=4),
       conjugate=st.booleans(), tol=st.sampled_from([1, 2, 5]),
       scale=st.sampled_from([1.0, 0.25]))
def test_merge_roots_matches_quadratic_greedy(lists, conjugate, tol, scale):
    if conjugate:
        lists = lists + [[z.conjugate() for z in chunk] for chunk in lists]
    lists = [[z * scale for z in chunk] for chunk in lists]
    roots = np.array([z for chunk in lists for z in chunk], dtype=np.complex128)
    assert np.array_equal(distinct_points(roots, tol * scale),
                          _merge_roots_quadratic(lists, tol * scale))
    merged, tol_used = merge_roots(lists, dedup_rel=tol / 8)
    assert np.array_equal(merged, _merge_roots_quadratic(lists, tol_used))


def _conjugate_roots_of_unity(n):
    """The 2n-th roots of unity other than 1 and -1, in conjugate pairs
    whose real parts are exactly equal; neighbours are 2 sin(pi / 2n)
    apart."""
    w = np.exp(2j * np.pi * np.arange(1, n) / (2 * n))
    return np.concatenate([w, w.conj()])


def _sweep_reference(points, tol):
    """The greedy sweep that distinct_points once ran as a Python loop:
    each point, in (real, imag) order, is compared with the survivors
    back to the first that lies more than tol below it in real part."""
    pts = np.asarray(points, dtype=complex).ravel()
    reps = []
    for z in pts[np.lexsort((pts.imag, pts.real))].tolist():
        for rep in reversed(reps):
            if z.real - rep.real > tol:
                reps.append(z)
                break
            if not abs(z - rep) > tol:
                break
        else:
            reps.append(z)
    return np.array(reps, dtype=complex)


@pytest.mark.parametrize("tol, separated", [(0.0, True), (1e-3, True), (6.1e-3, True),
                                            (6.2e-3, False), (0.05, False)])
def test_distinct_points_on_conjugate_pairs_with_equal_real_parts(tol, separated):
    # 1,022 points whose real parts tie in pairs; neighbours on the circle
    # are 2 sin(pi / 1024) ~ 6.136e-3 apart, so the first three tolerances
    # keep them all
    roots = _conjugate_roots_of_unity(512)
    assert roots.size > 1000 and np.unique(roots.real).size == roots.size // 2
    kept = distinct_points(roots, tol)
    assert np.array_equal(kept, _merge_roots_quadratic([roots], tol))
    assert (kept.size == roots.size) == separated
    merged, tol_used = merge_roots([roots[::2], roots[1::2]], dedup_rel=tol)
    assert np.array_equal(merged, _merge_roots_quadratic([roots], tol_used))


def test_distinct_points_drops_a_pair_exactly_tol_apart():
    # |(3 + 4i) w| = 5 w exactly for a power of two w; every other pair of
    # the set is farther apart
    roots = _conjugate_roots_of_unity(16) * 64
    for w in (1.0, 0.25, 2.0 ** -40):
        points = np.concatenate([roots * w, [0.0, (3 + 4j) * w]])
        tol = 5 * w
        assert distinct_points(points[:-1], tol).size == points.size - 1
        kept = distinct_points(points, tol)
        assert kept.size == points.size - 1
        assert np.array_equal(kept, _merge_roots_quadratic([points], tol))


@pytest.mark.parametrize("seed", range(10))
def test_distinct_points_decides_a_pair_at_tol_by_the_scalar_distance(seed):
    # tol is one pair's distance as Python's complex abs gives it; numpy's
    # vectorized complex abs differs from that in the last bit on about 2
    # in 5 random points, which can decide such a pair the other way
    rng = np.random.default_rng(seed)
    points = rng.normal(size=40) + 1j * rng.normal(size=40)
    for i, j in rng.integers(0, points.size, size=(20, 2)):
        tol = abs(complex(points[i] - points[j]))
        assert np.array_equal(distinct_points(points, tol), _merge_roots_quadratic([points], tol))


@pytest.mark.parametrize("chain, survivors", [
    ([0.0, 0.6, 1.2], [0.0, 1.2]),
    ([0.0, 0.6, 1.2, 1.8], [0.0, 1.2]),
    ([0.0, 0.6j, 0.5 + 0.9j, 1.1 + 0.9j], [0.0, 0.5 + 0.9j]),
    ([0.0, 0.9, 1.8, 2.7, 3.6], [0.0, 1.8, 3.6]),
])
def test_distinct_points_chain_survivors_depend_on_the_order(chain, survivors):
    # a sweep over a chain of near points keeps every other point: each
    # is dropped by its surviving predecessor, not by the one before it
    far = _conjugate_roots_of_unity(256) * 100
    points = np.concatenate([far, chain])
    kept = distinct_points(points, 1.0)
    assert np.array_equal(kept, _merge_roots_quadratic([points], 1.0))
    assert np.array_equal(kept[np.abs(kept) < 10], np.array(survivors, dtype=np.complex128))


_special_root = st.sampled_from([complex("nan"), complex("inf"), complex("-inf"),
                                 complex(0, float("inf")), complex(float("nan"), 1),
                                 complex(1, float("-inf"))])
# finite real part, NaN imaginary part: NaN distances to every point
_nan_imag_root = st.builds(complex, st.integers(-6, 6), st.just(float("nan")))


@settings(max_examples=300, deadline=None)
@given(lists=st.lists(st.lists(_grid_root | _special_root | _nan_imag_root, max_size=12),
                     max_size=4),
       tol=st.sampled_from([0.0, 1, 2, 5]), spread=st.sampled_from([1.0, 1e-3]))
def test_distinct_points_with_nonfinite_entries_matches_quadratic_greedy(lists, tol, spread):
    # scaled part by part, so each special entry keeps its NaN and inf parts
    lists = [[complex(z.real * spread, z.imag * spread) for z in chunk] for chunk in lists]
    roots = np.array([z for chunk in lists for z in chunk], dtype=np.complex128)
    kept = distinct_points(roots, tol * spread)
    assert np.array_equal(kept, _sweep_reference(roots, tol * spread), equal_nan=True)
    # a NaN distance counts only within tol in real part, so the quadratic
    # greedy, which compares every pair, decides otherwise once a finite
    # real part comes with a NaN imaginary one
    if not (np.isfinite(roots.real) & np.isnan(roots.imag)).any():
        with np.errstate(invalid="ignore"):
            expected = _merge_roots_quadratic(lists, tol * spread)
        assert np.array_equal(kept, expected, equal_nan=True)


def test_distinct_points_compares_a_nan_distance_only_within_tol_in_real_part():
    # complex(3, nan) is a NaN distance from every point: close to those
    # within tol = 1 of it in real part, on either side, and to no other
    nan_point = complex(3, float("nan"))
    for other, close in ((2.5, True), (1.5, False), (3.5, True), (4.5, False)):
        points = sorted([other, nan_point], key=lambda z: z.real)
        kept = distinct_points(points, 1.0)
        assert np.array_equal(kept, points[:1] if close else points, equal_nan=True)
        assert np.array_equal(kept, _sweep_reference(points, 1.0), equal_nan=True)


# -------------------------------------------------------- extrapolation

def test_extrapolation_constant_sequences():
    x = random_signal(5, 6)
    samples = simulate(_identity(5), x, IndexSet((1, 3)), 10)
    for k in (0, 1, 5, 17):
        assert np.max(np.abs(fit_extrapolation(samples, 1, k + 1)[k] - x[[1, 3]])) < 1e-10


def test_extrapolation_seed_window_verbatim():
    B = random_diagonalizable(6, 7)
    x = random_signal(6, 8)
    samples = simulate(B, x, IndexSet((0, 3)), 18)
    for k in range(6):
        assert np.array_equal(fit_extrapolation(samples, 6, k + 1)[k], samples.samples[k])


def test_extrapolation_full_window_always_fits():
    B = random_diagonalizable(6, 9)
    x = random_signal(6, 10)
    samples = simulate(B, x, IndexSet((2, 5)), 18)
    fit_extrapolation(samples, 6, 18)  # d-length window cannot fail


def test_extrapolation_tracks_simulation():
    # oracle: direct simulation out to k = 40
    op = random_circulant(9, 11)
    x = random_signal(9, 12)
    omega = IndexSet((0, 1, 2))
    samples = simulate(op, x, omega, 36)
    direct = simulate(op, x, omega, 41).samples
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(fit_extrapolation(samples, 9, 41) - direct)) < 1e-7 * scale


def test_extrapolation_reproduces_training_data():
    B = random_diagonalizable(7, 13)
    x = random_signal(7, 14)
    samples = simulate(B, x, IndexSet((1, 4)), 21)
    got = fit_extrapolation(samples, 7, 21)
    scale = np.max(np.abs(samples.samples))
    assert np.max(np.abs(got - samples.samples)) < 1e-8 * scale


def test_span_condition_violation_detected():
    # x(0) = 0 makes the one-row system inconsistent for L = 1
    U = np.array([[1, 1], [1, -1]]) / np.sqrt(2) + 0j
    B = Diagonalizable(U, [2.0, 3.0])
    x = np.array([0.0, 1.0 + 0j])
    samples = simulate(B, x, IndexSet((0,)), 2)
    with pytest.raises(SpanConditionViolated):
        fit_extrapolation(samples, 1, 2)


def test_window_no_degree_fits_is_a_span_condition_violation():
    # two coordinates of noise under d = 3: a length-2 window stacks 4 rows,
    # more than the degree bound 3 can fit, so no degree is consistent
    rng = np.random.default_rng(5)
    noise = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    samples = SampleSet(3, IndexSet((0, 1)), noise)
    with pytest.raises(SpanConditionViolated, match=r"^no length-2 recurrence reproduces the "
                                                    r"samples \(residual .*\); retry with a "
                                                    r"larger window$"):
        window_recurrence(samples, 2)


@pytest.mark.parametrize("L", [4, 5])
def test_extrapolation_refuses_a_miss_on_held_out_levels(L):
    # one coordinate of a d = 9 circulant: every window solves its square
    # systems, so only the levels after the first 2L tell a short window
    # from the full one
    op = random_circulant(9, 16)
    samples = simulate(op, random_signal(9, 17), IndexSet((0,)), 27)
    with pytest.raises(SpanConditionViolated, match=f"misses the {27 - 2 * L} held-out levels"):
        fit_extrapolation(samples, L, 18)
    direct = simulate(op, random_signal(9, 17), IndexSet((0,)), 30).samples
    got = fit_extrapolation(samples, 9, 30)
    assert np.max(np.abs(got - direct)) < 1e-7 * np.max(np.abs(direct))


@pytest.mark.parametrize("levels", [0, -1])
def test_extrapolation_needs_a_positive_level_count(levels):
    # slicing to a count below 1 wraps around: -1 returned all rows but one
    B = random_diagonalizable(6, 7)
    samples = simulate(B, random_signal(6, 8), IndexSet((0, 3)), 18)
    with pytest.raises(DimensionError, match="need at least one time level"):
        fit_extrapolation(samples, 6, levels)


# ---------------------------------------- recovery via extrapolation

def test_via_extrapolation_identity():
    x = random_signal(4, 15)
    samples = simulate(_identity(4), x, IndexSet((0,)), 8)
    est = recover_spectrum_via_extrapolation(samples, 4)
    assert_sets_close(est.merged, [1], 1e-9)


def test_via_extrapolation_circulant_full_spectrum():
    op = random_circulant(9, 16)
    x = random_signal(9, 17)
    samples = simulate(op, x, IndexSet((0,)), 18)
    est = recover_spectrum_via_extrapolation(samples, 9)
    assert_sets_close(est.merged, op.transfer(), 1e-7)


@pytest.mark.parametrize("seed", range(8))
def test_via_extrapolation_matches_oracle(seed):
    d = 10
    B = random_diagonalizable(d, seed + 70)
    rng = np.random.default_rng(seed + 80)
    omega = tuple(sorted(int(i) for i in rng.choice(d, size=2, replace=False)))
    x = random_signal(d, seed + 90)
    samples = simulate(B, x, IndexSet(omega), 3 * d)
    est = recover_spectrum_via_extrapolation(samples, d)
    oracle = observable_spectrum_oracle(B, omega)
    assert est.merged.size == oracle.size
    assert_sets_close(est.merged, oracle, 1e-7)


@pytest.mark.parametrize("seed", [1, 5])
def test_via_extrapolation_recovers_a_wide_diagonalizable_spectrum(seed):
    # d = 96 from three coordinates over 2d levels, window 32: the block
    # recurrence is fitted on the first 128 levels and checked on the other
    # 64, and its roots are all 96 eigenvalues with none to merge away
    d = 96
    rng = np.random.default_rng(seed)
    B = random_diagonalizable(d, rng)
    samples = simulate(B, random_signal(d, rng), IndexSet((0, 3, 7)), 2 * d)
    assert_sets_close(recover_spectrum_via_extrapolation(samples, 32).merged, B.eigs, 1e-8)


def test_via_extrapolation_runs_one_degree_search(monkeypatch):
    # one search over the block sequence of all sampled coordinates, and
    # one source in the estimate, keyed by those coordinates
    import dynspec.annihilator as annihilator_mod
    import dynspec.numerics as numerics_mod
    import dynspec.spectral as spectral_mod

    calls = dict.fromkeys(["annihilator_from_samples", "scalar_annihilator", "least_squares"], 0)

    def counted(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    engine = counted("annihilator_from_samples", annihilator_mod.annihilator_from_samples)
    monkeypatch.setattr(annihilator_mod, "annihilator_from_samples", engine)
    monkeypatch.setattr(spectral_mod, "annihilator_from_samples", engine, raising=False)
    monkeypatch.setattr(spectral_mod, "scalar_annihilator",
                        counted("scalar_annihilator", spectral_mod.scalar_annihilator))
    monkeypatch.setattr(spectral_mod, "least_squares",
                        counted("least_squares", numerics_mod.least_squares), raising=False)
    B = random_diagonalizable(10, 71)
    samples = simulate(B, random_signal(10, 91), IndexSet((0, 3)), 30)
    est = recover_spectrum_via_extrapolation(samples, 10)
    assert calls == {"annihilator_from_samples": 1, "scalar_annihilator": 0, "least_squares": 0}
    assert list(est.per_source) == ["0,3"] and list(est.residuals) == ["0,3"]
    assert_sets_close(est.merged, observable_spectrum_oracle(B, (0, 3)), 1e-8)


# ---------------------------------------------------- pipeline defaults

@pytest.mark.parametrize("pipeline,omega,levels,spied,expected", [
    (recover_observable_spectrum, (0, 3), 12, "scalar_annihilator", 6),  # min(d, levels // 2)
    (recover_spectrum_via_extrapolation, (0, 3), 13, "window_recurrence", 4),  # 13 // (2 + 1)
    (prony_support, (5,), 10, "scalar_annihilator", 5),  # levels // 2
], ids=["general-r_max", "extrapolate-window", "prony-sparsity"])
def test_pipeline_defaults_from_samples_alone(monkeypatch, pipeline, omega, levels, spied,
                                              expected):
    import dynspec.spectral as spectral_mod

    d = 32
    x, x_hat = random_sparse_signal(d, 3, 64)
    samples = simulate(shift_operator(d), x, IndexSet(omega), levels)
    real = getattr(spectral_mod, spied)
    seen = []

    def spy(first, bound, **kwargs):
        seen.append(bound)
        return real(first, bound, **kwargs)

    monkeypatch.setattr(spectral_mod, spied, spy)
    est = pipeline(samples)
    assert seen[0] == expected
    assert_sets_close(est.merged, np.exp(2j * np.pi * np.flatnonzero(x_hat) / d), 1e-8)


# ------------------------------------------------- per-degree roots

@settings(max_examples=100, deadline=None)
@given(degrees=st.lists(st.integers(0, 3), min_size=1, max_size=12),
       noisy=st.integers(0, 12), seed=st.integers(0, 2**16))
def test_search_sources_roots_match_per_source_calls(degrees, noisy, seed):
    # sources of mixed degree, zero series (degree 0) among them, under
    # shuffled ids, one of them noise that only the square system fits (a
    # failure, since 8 levels cap the search at degree 4, below the bound
    # d): the roots found per degree stack keep each source's bits, and
    # per_source its insertion order
    rng = np.random.default_rng(seed)
    series = np.zeros((8, len(degrees)), dtype=np.complex128)
    for pos, degree in enumerate(degrees):
        ratios = (1 + np.arange(degree)) * np.exp(2j * np.pi * rng.random(degree))
        series[:, pos] = (ratios ** np.arange(8)[:, None]) @ (1 + rng.random(degree))
    if noisy < len(degrees):
        series[:, noisy] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ids = rng.permutation(100)[:len(degrees)].tolist()
    samples = SampleSet(100, IndexSet(tuple(range(len(degrees)))), series)
    zero_scale = float(np.max(np.abs(series)))
    expected = {}
    for src, seq in zip(ids, series.T):
        ann = scalar_annihilator(seq, 4, zero_scale=zero_scale)
        if ann.degree < 4:
            expected[src] = poly_roots(ann.poly)
    estimate, _worst = search_sources(samples, ids, series, samples.d, config.DEDUP_REL,
                                      config.TAU_SOLVE)
    assert list(estimate.per_source) == list(expected)
    assert set(estimate.failures) == set(ids) - set(expected)
    for src, roots in expected.items():
        got = estimate.per_source[src]
        assert got.dtype == roots.dtype and got.tobytes() == roots.tobytes()
    # merging the per-degree stacks gives what merging each source gives
    merged, tol_used = merge_roots(list(expected.values()))
    assert estimate.merged.tobytes() == merged.tobytes() and estimate.dedup_tol == tol_used


def test_merge_reads_one_root_stack_per_degree(monkeypatch):
    # sources of degrees 2, 1, 2 and 0: the merge gets the stacks that
    # poly_roots returns, one per degree in order of first appearance, and
    # the window recurrence's one polynomial goes through the same tail
    import dynspec.spectral as spectral_mod

    shapes = []
    real = spectral_mod.merge_roots

    def spy(root_lists, dedup_rel):
        shapes.append([np.shape(roots) for roots in root_lists])
        return real(root_lists, dedup_rel)

    monkeypatch.setattr(spectral_mod, "merge_roots", spy)
    ratios = [(0.5, 2.0), (3.0,), (-1.0, 1j), ()]
    levels = np.arange(6)[:, None]
    series = np.stack([(np.array(r, dtype=complex) ** levels).sum(axis=1) for r in ratios], axis=1)
    samples = SampleSet(8, IndexSet((0, 1, 2, 3)), series)
    estimate, _worst = search_sources(samples, [0, 1, 2, 3], series, 3, config.DEDUP_REL,
                                      config.TAU_SOLVE)
    assert shapes == [[(2, 2), (1, 1), (1, 0)]]
    assert [roots.size for roots in estimate.per_source.values()] == [2, 1, 2, 0]
    assert_sets_close(estimate.merged, [0.5, 2.0, 3.0, -1.0, 1j], 1e-9)
    shapes.clear()
    B = random_diagonalizable(6, 3)
    recover_spectrum_via_extrapolation(simulate(B, random_signal(6, 4), IndexSet((0, 2)), 18), 6)
    assert shapes == [[(1, 6)]]


@settings(max_examples=80, deadline=None)
@given(d=st.integers(6, 16), n=st.integers(1, 2), diagonalizable=st.booleans(),
       data=st.data(), seed=st.integers(0, 2**16))
def test_recovery_accepts_a_degree_at_its_cap_only_at_the_bound_or_checked(
        d, n, diagonalizable, data, seed):
    # a degree at the search cap solves a square system, which fits any
    # data: with fewer than 2d levels, general and extrapolate recovery may
    # return it only when the cap is the bound d or levels held out of the
    # fit checked it
    rng = np.random.default_rng(seed)
    levels = data.draw(st.integers(n + 1, 2 * d - 1), label="levels")
    window = data.draw(st.integers(1, levels // (n + 1)), label="window")
    op = random_diagonalizable(d, rng) if diagonalizable else random_circulant(d, rng)
    omega = IndexSet(tuple(sorted(rng.choice(d, n, replace=False).tolist())))
    samples = simulate(op, random_signal(d, rng), omega, levels)
    runs = ((recover_observable_spectrum, (), min(d, levels // 2), False),
            (recover_spectrum_via_extrapolation, (window,), min(n * window, d),
             levels > (n + 1) * window))
    for pipeline, args, cap, held_out in runs:
        try:
            estimate = pipeline(samples, *args)
        except RecoveryError:
            continue
        for roots in estimate.per_source.values():
            assert roots.size < cap or cap == d or held_out, (pipeline.__name__, roots.size)


# ------------------------------------------------- failure accounting

def test_per_index_failures_are_recorded(monkeypatch):
    import dynspec.spectral as spectral_mod
    from dynspec.errors import NoAnnihilator

    B = random_diagonalizable(6, 50)
    x = random_signal(6, 51)
    samples = simulate(B, x, IndexSet((0, 3)), 12)
    real = spectral_mod.scalar_annihilator
    calls = []

    def flaky(c, r_max, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise NoAnnihilator("synthetic failure", 0.5)
        return real(c, r_max, **kwargs)

    monkeypatch.setattr(spectral_mod, "scalar_annihilator", flaky)
    est = recover_observable_spectrum(samples)
    assert 0 in est.failures and "synthetic" in est.failures[0]
    assert list(est.per_source) == [3]
    assert est.merged.size > 0


def test_all_indices_failing_raises(monkeypatch):
    import dynspec.spectral as spectral_mod
    from dynspec.errors import NoAnnihilator

    B = random_diagonalizable(5, 52)
    x = random_signal(5, 53)
    samples = simulate(B, x, IndexSet((1, 2)), 10)

    def always_fail(c, r_max, **kwargs):
        raise NoAnnihilator("synthetic failure", 0.9)

    monkeypatch.setattr(spectral_mod, "scalar_annihilator", always_fail)
    with pytest.raises(NoAnnihilator):
        recover_observable_spectrum(samples)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(3, 10), coords=st.integers(1, 2), L=st.integers(1, 10),
       held=st.integers(1, 10), miss=st.sampled_from([0.0, 1e-3]), seed=st.integers(0, 2**16),
       k=st.integers(-600, 600))
def test_held_out_check_refuses_the_same_windows_at_any_scale(d, coords, L, held, miss, seed, k):
    # a window of a random circulant's samples, its last held-out sample
    # moved or not: times 2**k, window_recurrence refuses exactly the
    # windows it refuses at scale 1
    L = min(L, d)
    rng = np.random.default_rng(seed)
    omega = IndexSet(tuple(sorted(rng.choice(d, size=min(coords, d), replace=False).tolist())))
    levels = (len(omega.omega) + 1) * L + held
    samples = simulate(random_circulant(d, rng), random_signal(d, rng), omega, levels).samples
    samples[-1, -1] += miss * np.abs(samples).max() * (1 + 1j)
    parts = np.abs(samples.view(np.float64))
    exponents = np.frexp(parts[parts > 0])[1]
    assume(exponents.min() + k >= -1020 and exponents.max() + k <= 1000)
    scaled = np.ldexp(samples.view(np.float64), k).view(np.complex128)

    def refused(values):
        try:
            window_recurrence(SampleSet(d, omega, values), L)
        except SpanConditionViolated:
            return True
        return False

    assert refused(scaled) == refused(samples)

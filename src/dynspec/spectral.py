"""Spectrum recovery for diagonalizable operators from sampled coordinates.

Each sampled coordinate i yields a scalar time series whose annihilator
roots are exactly the eigenvalues observable at i; the observable spectrum
of a sampling set is the deduplicated union over its coordinates. The
same per-source loop, ``search_sources``, serves the residue classes of
the invariant pipeline. When samples are scarce, a window recurrence
fitted to the first (|omega|+1)*L levels extrapolates the series to any
horizon first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config
from .annihilator import _block_hankel, scalar_annihilator
from .errors import (InsufficientDataError, NoAnnihilator, RecoveryError,
                     SpanConditionViolated)
from .model import SampleSet
from .numerics import least_squares, poly_roots


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Recovered eigenvalues, per source and merged.

    ``per_source`` maps a source id (a sampled coordinate, or a residue
    class id for the aliased pipeline) to its recovered root list; every
    merged value is one of those roots, and merged values are pairwise
    separated by more than ``dedup_tol`` (None for Prony, whose merged
    values are grid points). ``residuals`` holds the per-source
    annihilator residuals, ``failures`` the messages of failed sources
    (by id) and later steps (by name). ``support``, ``taps`` and
    ``signal`` are the Prony support, filter and signal, when recovered.
    """

    per_source: dict
    merged: np.ndarray
    dedup_tol: float | None
    residuals: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    support: tuple | None = None
    taps: np.ndarray | None = None
    signal: np.ndarray | None = None


def merge_roots(root_lists, dedup_rel: float = config.DEDUP_REL,
                dedup_tol: float | None = None):
    """Deduplicate roots across sources.

    Greedy in a deterministic order; survivors are actual roots, and any
    two survivors are separated by more than the tolerance (``dedup_rel``
    times the largest modulus unless an absolute ``dedup_tol`` is given).
    Returns (merged, tolerance_used).

    Roots are visited in ascending (real, imag) order, so survivors come
    out in ascending real order and only the trailing ones whose real
    part lies within the tolerance of a root can be its duplicate: a
    sweep line, quadratic only when every real part is that close.
    """
    chunks = [np.asarray(r, dtype=np.complex128).ravel() for r in root_lists]
    roots = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.complex128)
    if dedup_tol is None:
        scale = float(np.max(np.abs(roots))) if roots.size else 0.0
        dedup_tol = dedup_rel * (scale if scale > 0 else 1.0)
    if roots.size == 0:
        return roots, dedup_tol
    order = np.lexsort((roots.imag, roots.real))
    reps: list[complex] = []
    for z in roots[order].tolist():
        if _is_new(z, reps, dedup_tol):
            reps.append(z)
    return np.array(reps, dtype=np.complex128), dedup_tol


def _is_new(z: complex, reps: list, tol: float) -> bool:
    """Whether z is farther than tol from every survivor in reps, which
    are in ascending real order with real parts at most z.real."""
    for rep in reversed(reps):
        if z.real - rep.real > tol:
            return True
        if not abs(z - rep) > tol:
            return False
    return True


def search_sources(samples: SampleSet, sources, r_max: int, dedup_rel: float,
                   tol: float, bounded: bool = True) -> tuple[SpectrumEstimate, float]:
    """Run the degree search on each (source id, sequence) pair drawn from
    ``samples`` and merge the roots; zero tests are relative to the
    largest sample, so rescaling the data leaves every degree unchanged.

    A source whose search finds no annihilator is recorded in
    ``failures``; the others contribute their roots and residuals.
    ``bounded`` False says that r_max is no a-priori bound on the degree:
    degree r_max then solves a square system, which fits any data, so a
    source that reaches it is recorded as a failure too. Returns the
    estimate and the best residual of the worst failing source (0.0 when
    none failed); each caller decides which failures are fatal. A
    merged spectrum with more than d values cannot belong to a d x d
    operator, so it raises RecoveryError with the estimate attached.
    """
    zero_scale = float(np.max(np.abs(samples.samples)))
    polys: dict = {}
    residuals: dict = {}
    failures: dict = {}
    worst = 0.0
    for src, seq in sources:
        try:
            ann = scalar_annihilator(seq, r_max, tol=tol, zero_scale=zero_scale)
            if not bounded and ann.degree == r_max:
                raise NoAnnihilator(f"degree {r_max} fills a square system, which fits any "
                                    "data; 2d levels would bound it", ann.relative_residual)
        except NoAnnihilator as exc:
            failures[src] = str(exc)
            worst = max(worst, exc.best_residual)
            continue
        polys[src] = ann.poly
        residuals[src] = ann.relative_residual
    # one root-finding call per degree, over the stack of its polynomials
    per_source = dict.fromkeys(polys)
    for degree in {poly.size for poly in polys.values()}:
        same = [src for src, poly in polys.items() if poly.size == degree]
        per_source.update(zip(same, poly_roots(np.stack([polys[src] for src in same]))))
    merged, tol_used = merge_roots(per_source.values(), dedup_rel)
    estimate = SpectrumEstimate(per_source, merged, tol_used, residuals, failures)
    if merged.size > samples.d:
        raise RecoveryError(
            f"merged spectrum has {merged.size} values, more than d = {samples.d}", estimate)
    return estimate, worst


def recover_observable_spectrum(samples: SampleSet, r_max: int | None = None,
                                dedup_rel: float = config.DEDUP_REL,
                                tol: float = config.TAU_SOLVE) -> SpectrumEstimate:
    """Observable spectrum of the sampling set: per-coordinate roots,
    merged with dedup.

    ``r_max`` is an a-priori degree bound, needing 2 * r_max levels; None
    means min(d, L_total // 2), which below d bounds nothing, so a
    coordinate reaching it fails. The call fails only when every
    coordinate fails, with the estimate attached.
    """
    if samples.L_total < 2:
        raise InsufficientDataError("need at least 2 time levels for spectral recovery")
    bounded = r_max is not None or samples.L_total >= 2 * samples.d
    r_max = min(samples.d, samples.L_total // 2) if r_max is None else r_max
    need = 2 * r_max
    if samples.L_total < need:
        raise InsufficientDataError(
            f"r_max={r_max} needs {need} time levels, have {samples.L_total}")
    sources = ((int(i), samples.samples[:need, pos]) for pos, i in enumerate(samples.omega))
    estimate, worst = search_sources(samples, sources, r_max, dedup_rel, tol, bounded)
    if not estimate.per_source:
        raise NoAnnihilator(
            f"all {samples.omega.size} sampled coordinates failed the degree search", worst,
            estimate)
    return estimate


def fit_extrapolation(samples: SampleSet, L: int, levels: int,
                      tol: float = config.TAU_SOLVE) -> np.ndarray:
    """Fit the length-L recurrence from the first (|omega|+1)*L levels and
    run it out to ``levels``; returns the (levels, |omega|) array whose
    first L rows are the samples verbatim.

    The restricted sample at time k >= L is a fixed linear combination of
    the L preceding ones. For each coordinate the square system over row
    offsets k = 0..|omega|*L-1 is solved (minimum-norm when degenerate);
    a relative residual at or above ``tol`` means no length-L recurrence
    reproduces that coordinate, reported as SpanConditionViolated.
    Retrying with a larger window helps; L = d always fits.
    """
    omega = samples.omega
    n = omega.size
    if L < 1:
        raise InsufficientDataError(
            f"no usable window: {samples.L_total} levels for {n} sampled coordinates")
    need = (n + 1) * L
    if samples.L_total < need:
        raise InsufficientDataError(
            f"window L={L} with {n} coordinates needs {need} time levels, have {samples.L_total}")
    S = samples.samples
    nL = n * L
    M = _block_hankel(S, L, nL).T
    # weights[i, l, j] multiplies coordinate omega[j] at lag L - l in the
    # recurrence of coordinate omega[i]
    weights = np.empty((n, L, n), dtype=np.complex128)
    for pos in range(n):
        solution, residual = least_squares(M, S[L:L + nL, pos])
        if residual >= tol:
            raise SpanConditionViolated(
                f"no length-{L} recurrence reproduces coordinate {omega[pos]} "
                f"(residual {residual:.3e}); retry with a larger window")
        weights[pos] = solution.reshape(L, n)
    out = np.empty((max(levels, L), n), dtype=np.complex128)
    out[:L] = S[:L]
    for t in range(L, levels):
        out[t] = np.einsum("ilj,lj->i", weights, out[t - L:t])
    return out[:levels]


def recover_spectrum_via_extrapolation(samples: SampleSet, L: int | None = None,
                                       dedup_rel: float = config.DEDUP_REL,
                                       tol: float = config.TAU_SOLVE) -> SpectrumEstimate:
    """Fit the window recurrence (L None: the largest that fits), extrapolate
    each coordinate out to 2d levels, then recover the observable spectrum
    with degree bound d."""
    L = samples.L_total // (samples.omega.size + 1) if L is None else L
    extended = SampleSet(samples.d, samples.sampler,
                         fit_extrapolation(samples, L, levels=2 * samples.d, tol=tol))
    return recover_observable_spectrum(extended, r_max=samples.d, dedup_rel=dedup_rel, tol=tol)

"""Spectrum recovery for diagonalizable operators from sampled coordinates.

Each sampled coordinate i yields a scalar time series whose annihilator
roots are exactly the eigenvalues observable at i; the observable spectrum
of a sampling set is the deduplicated union over its coordinates. The
same search, ``search_sources``, takes the coordinates' series or the
invariant pipeline's residue classes as the columns of one array. When
samples are scarce, the block sequence {B^l x(i) : i in omega} is taken
as one: its minimal annihilator, the lcm of the per-coordinate ones, is
one recurrence fitted on the first (|omega|+1)*L levels and checked on
the rest. Its roots are the observable spectrum, and running it forward
extrapolates the samples.

Every estimate is built in one place, ``_estimate``, the tail of
``search_sources``, which the window recurrence's one polynomial also
goes through: one root-finding call per degree over the stack of that
degree's polynomials, and one merge that reads those stacks as they
are. The Prony and invariant pipelines add their fields to that
estimate with ``dataclasses.replace``.

One square-fit rule holds for every degree search: at its cap the
system is square and fits any data (a scalar search capped at r reads
2r levels; the block search over L row blocks, capped at |omega|*L,
reads (|omega|+1)*L). Reaching the cap is evidence only when the cap is
the a-priori bound (d, or m per residue class) or when levels held out
of the fit check it; otherwise the source, or the window, is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .annihilator import annihilator_from_samples, scalar_annihilator
from .errors import (DimensionError, InsufficientDataError, NoAnnihilator,
                     RecoveryError, SpanConditionViolated)
from .model import SampleSet
from .numerics import distinct_points, poly_roots


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Recovered eigenvalues, per source and merged.

    ``per_source`` maps a source id (a sampled coordinate, a residue
    class id for the aliased pipeline, or the comma-joined sampled
    coordinates for extrapolation) to its recovered root list; every
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


def merge_roots(root_lists, dedup_rel: float = config.DEDUP_REL):
    """Deduplicate roots across sources with ``numerics.distinct_points``
    at the tolerance ``dedup_rel`` times the largest modulus (times 1 when
    every root is zero). ``root_lists`` holds arrays of roots of any
    shape, each read in row-major order: the pipelines pass the (k, r)
    stacks of ``poly_roots``, one per degree. Survivors are actual roots,
    in ascending (real, imag) order, and any two are separated by more
    than the tolerance. Returns (merged, tolerance_used).
    """
    roots = np.concatenate([np.zeros(0, dtype=np.complex128)]
                           + [np.asarray(r, dtype=np.complex128).ravel() for r in root_lists])
    scale = float(np.max(np.abs(roots), initial=0.0))
    tol = dedup_rel * (scale if scale > 0 else 1.0)
    return distinct_points(roots, tol), tol


def search_sources(samples: SampleSet, ids, series: np.ndarray, bound: int, dedup_rel: float,
                   tol: float) -> tuple[SpectrumEstimate, float]:
    """Run the degree search on each column of ``series``, a (levels, k)
    array whose column j is the sequence of source ``ids[j]``, and build
    the estimate from the accepted annihilators (``_estimate``); zero
    tests are relative to the largest sample of ``samples``, so rescaling
    the data leaves every degree unchanged.

    ``bound`` is the a-priori degree bound. The search cap is
    r_max = min(bound, levels // 2), read from the first 2 * r_max
    levels. A degree-r_max system is square and fits any data, so a
    source that reaches r_max < bound is refused like one whose search
    finds no annihilator: both are recorded in ``failures``, and the
    others contribute their roots and residuals. Returns the estimate and
    the best residual of the worst failing source (0.0 when none failed);
    each caller decides which failures are fatal. A merged spectrum with
    more than d values cannot belong to a d x d operator, so it raises
    RecoveryError with the estimate attached.
    """
    r_max = min(bound, series.shape[0] // 2)
    zero_scale = float(np.max(np.abs(samples.samples)))
    polys, residuals, failures, worst = {}, {}, {}, 0.0
    for src, seq in zip(ids, series[:2 * r_max].T):
        try:
            ann = scalar_annihilator(seq, r_max, tol=tol, zero_scale=zero_scale)
            if ann.degree == r_max < bound:
                raise NoAnnihilator(f"degree {r_max} fills a square system, which fits any "
                                    "data; 2d levels would bound it", ann.relative_residual)
        except NoAnnihilator as exc:
            failures[src] = str(exc)
            worst = max(worst, exc.best_residual)
            continue
        polys[src], residuals[src] = ann.poly, ann.relative_residual
    return _estimate(samples, polys, residuals, failures, dedup_rel), worst


def _estimate(samples: SampleSet, polys, residuals, failures, dedup_rel: float) -> SpectrumEstimate:
    """The estimate of the accepted annihilators ``polys`` (by source id),
    the one place an estimate is built: one ``poly_roots`` call per
    degree, in order of first appearance, over the stack of that degree's
    polynomials, whose rows become the ``per_source`` root lists, then
    one ``merge_roots`` over those stacks. A merged spectrum with more
    than d values cannot belong to a d x d operator, so it raises
    RecoveryError with the estimate attached.
    """
    per_source, stacks = dict.fromkeys(polys), []
    for degree in dict.fromkeys(poly.size for poly in polys.values()):
        same = [src for src, poly in polys.items() if poly.size == degree]
        stacks.append(poly_roots(np.stack([polys[src] for src in same])))
        per_source.update(zip(same, stacks[-1]))
    merged, tol_used = merge_roots(stacks, dedup_rel)
    estimate = SpectrumEstimate(per_source, merged, tol_used, residuals, failures)
    if merged.size > samples.d:
        raise RecoveryError(
            f"merged spectrum has {merged.size} values, more than d = {samples.d}", estimate)
    return estimate


def recover_observable_spectrum(samples: SampleSet, r_max: int | None = None,
                                dedup_rel: float = config.DEDUP_REL,
                                tol: float = config.TAU_SOLVE) -> SpectrumEstimate:
    """Observable spectrum of the sampling set: per-coordinate roots,
    merged with dedup.

    ``r_max`` is an a-priori degree bound (None: d), which
    ``search_sources`` caps at L_total // 2, so with fewer than 2 * r_max
    levels a coordinate reaching the cap fails. The call fails only when
    every coordinate fails, with the estimate attached.
    """
    if samples.L_total < 2:
        raise InsufficientDataError("need at least 2 time levels for spectral recovery")
    estimate, worst = search_sources(samples, samples.omega.tolist(), samples.samples,
                                     samples.d if r_max is None else r_max, dedup_rel, tol)
    if not estimate.per_source:
        raise NoAnnihilator(
            f"all {samples.omega.size} sampled coordinates failed the degree search", worst,
            estimate)
    return estimate


def window_recurrence(samples: SampleSet, L: int, levels: int = 0,
                      tol: float = config.TAU_SOLVE):
    """Fit one recurrence, shared by all sampled coordinates, on the first
    (|omega|+1)*L levels, check it on the rest, and run it out; returns
    the annihilator and the (max(levels, L_total), |omega|) array whose
    first ``degree`` rows are the samples verbatim.

    The recurrence is the minimal annihilator of the block sequence
    {B^l x(i) : i in omega}: the degree search over L row blocks with
    degree bound min(|omega|*L, d), which reads exactly the first
    (|omega|+1)*L levels. A search that no degree fits is reported as
    SpanConditionViolated. At degree |omega|*L the system is square and
    fits any data, so, by the module's square-fit rule, a degree
    |omega|*L < d with no level after the first (|omega|+1)*L is refused
    as SpanConditionViolated too. Levels after those are held out: the
    recurrence, run from its first ``degree`` levels, must reproduce them
    to a relative residual below ``tol``, at any scale of the data, or
    SpanConditionViolated is raised (a NaN residual too). Retrying with a
    larger window helps; L = d fits exact data, but a mode that decays
    below ``tol`` within the fitted levels can still make the held-out
    levels miss.
    """
    n = samples.omega.size
    if L < 1:
        raise ValueError(f"window must be positive, got {L}")
    need = (n + 1) * L
    if samples.L_total < need:
        raise InsufficientDataError(
            f"window L={L} with {n} coordinates needs {need} time levels, have {samples.L_total}")
    S = samples.samples
    try:
        ann = annihilator_from_samples(S[:need], min(n * L, samples.d), rows=L, tol=tol,
                                       zero_scale=float(np.max(np.abs(S))))
    except NoAnnihilator as exc:
        raise SpanConditionViolated(f"no length-{L} recurrence reproduces the samples (residual "
                                    f"{exc.best_residual:.3e}); retry with a larger window") from exc
    held = S[need:]
    if not held.size and ann.degree == n * L < samples.d:
        raise SpanConditionViolated(f"degree {ann.degree} fills a square system, which fits any "
                                    f"data; a level after the first {need} would check it")
    out = np.empty((max(levels, samples.L_total), n), dtype=np.complex128)
    out[:ann.degree] = S[:ann.degree]
    for t in range(ann.degree, out.shape[0]):
        out[t] = -(ann.poly @ out[t - ann.degree:t])
    if held.size:
        # both norms taken at the held-out peak scaled into [0.5, 1) by a
        # power of two, which is exact, so the miss keeps its bits at
        # ordinary scales and neither norm overflows or underflows at the
        # ends of the float range (a subnormal peak's factor stops at 2**1023)
        scale = math.ldexp(1.0, min(-math.frexp(float(np.max(np.abs(held))))[1], 1023))
        miss = (np.linalg.norm((out[need:samples.L_total] - held) * scale)
                / max(np.linalg.norm(held * scale), np.finfo(float).tiny))
        if not miss < tol:
            raise SpanConditionViolated(
                f"the length-{L} recurrence misses the {held.shape[0]} held-out levels "
                f"(held-out residual {miss:.3e}); retry with a larger window")
    return ann, out


def fit_extrapolation(samples: SampleSet, L: int, levels: int,
                      tol: float = config.TAU_SOLVE) -> np.ndarray:
    """The samples run out to ``levels`` by ``window_recurrence``: the
    (levels, |omega|) array whose first rows are the samples verbatim."""
    if levels < 1:
        raise DimensionError("need at least one time level")
    return window_recurrence(samples, L, levels=levels, tol=tol)[1][:levels]


def recover_spectrum_via_extrapolation(samples: SampleSet, L: int | None = None,
                                       dedup_rel: float = config.DEDUP_REL,
                                       tol: float = config.TAU_SOLVE) -> SpectrumEstimate:
    """The window recurrence (L None: the largest window that fits) as one
    source, keyed by the comma-joined sampled coordinates, whose
    polynomial goes through the same estimate tail as ``search_sources``:
    its roots, deduplicated by ``merge_roots``."""
    if L is None:
        L = samples.L_total // (samples.omega.size + 1)
        if L < 1:
            raise InsufficientDataError(f"no usable window: {samples.L_total} levels for "
                                        f"{samples.omega.size} sampled coordinates")
    ann, _ = window_recurrence(samples, L, tol=tol)
    key = ",".join(str(int(i)) for i in samples.omega)
    return _estimate(samples, {key: ann.poly}, {key: ann.relative_residual}, {}, dedup_rel)

"""Spectrum recovery for diagonalizable operators from sampled coordinates.

Each sampled coordinate i yields a scalar time series whose annihilator
roots are exactly the eigenvalues observable at i; the observable spectrum
of a sampling set is the deduplicated union over its coordinates. The
same per-source loop, ``search_sources``, serves the residue classes of
the invariant pipeline. When samples are scarce, the block sequence
{B^l x(i) : i in omega} is taken as one: its minimal annihilator, the lcm
of the per-coordinate ones, is one recurrence fitted on the first
(|omega|+1)*L levels and checked on the rest. Its roots are the observable
spectrum, and running it forward extrapolates the samples.
"""

from __future__ import annotations

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
    every root is zero). Survivors are actual roots, in ascending
    (real, imag) order, and any two are separated by more than the
    tolerance. Returns (merged, tolerance_used).
    """
    roots = np.concatenate([np.zeros(0, dtype=np.complex128)]
                           + [np.asarray(r, dtype=np.complex128).ravel() for r in root_lists])
    scale = float(np.max(np.abs(roots), initial=0.0))
    tol = dedup_rel * (scale if scale > 0 else 1.0)
    return distinct_points(roots, tol), tol


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
    fits any data, so the levels after the first (|omega|+1)*L are held
    out: the recurrence, run from its first ``degree`` levels, must
    reproduce them to a relative residual below ``tol``, or
    SpanConditionViolated is raised too. Retrying with a larger window
    helps; L = d fits exact data, but a mode that decays below ``tol``
    within the fitted levels can still make the held-out levels miss.
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
    out = np.empty((max(levels, samples.L_total), n), dtype=np.complex128)
    out[:ann.degree] = S[:ann.degree]
    for t in range(ann.degree, out.shape[0]):
        out[t] = -(ann.poly @ out[t - ann.degree:t])
    held = S[need:]
    if held.size:
        miss = (np.linalg.norm(out[need:samples.L_total] - held)
                / max(np.linalg.norm(held), np.finfo(float).tiny))
        if miss >= tol:
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
    """The roots of the window recurrence (L None: the largest window that
    fits), deduplicated by ``merge_roots``: one source, keyed by the
    comma-joined sampled coordinates."""
    if L is None:
        L = samples.L_total // (samples.omega.size + 1)
        if L < 1:
            raise InsufficientDataError(f"no usable window: {samples.L_total} levels for "
                                        f"{samples.omega.size} sampled coordinates")
    ann, _ = window_recurrence(samples, L, tol=tol)
    roots = poly_roots(ann.poly)
    key = ",".join(str(int(i)) for i in samples.omega)
    return SpectrumEstimate({key: roots}, *merge_roots([roots], dedup_rel),
                            {key: ann.relative_residual})

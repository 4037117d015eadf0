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
from .errors import (DimensionError, InsufficientDataError, NoAnnihilator,
                     RecoveryError, SpanConditionViolated)
from .model import SampleSet
from .numerics import least_squares, poly_roots


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Recovered eigenvalues, per source and merged.

    ``per_source`` maps a source id (a sampled coordinate, or a residue
    class id for the aliased pipeline) to its recovered root list; every
    merged value is one of those roots, and merged values are pairwise
    separated by more than ``dedup_tol``. ``residuals`` holds the
    per-source annihilator residuals, ``failures`` the per-source error
    messages for sources that produced no annihilator.
    """

    per_source: dict
    merged: np.ndarray
    dedup_tol: float
    residuals: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)


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
                   tol: float) -> tuple[SpectrumEstimate, float]:
    """Run the degree search on each (source id, sequence) pair drawn from
    ``samples`` and merge the roots; zero tests are relative to the
    largest sample, so rescaling the data leaves every degree unchanged.

    A source whose search finds no annihilator is recorded in
    ``failures``; the others contribute their roots and residuals. Returns
    the estimate and the best residual of the worst failing source (0.0
    when none failed); each caller decides which failures are fatal. A
    merged spectrum with more than d values cannot belong to a d x d
    operator, so it raises RecoveryError with the estimate attached.
    """
    zero_scale = float(np.max(np.abs(samples.samples)))
    per_source: dict = {}
    residuals: dict = {}
    failures: dict = {}
    worst = 0.0
    for src, seq in sources:
        try:
            ann = scalar_annihilator(seq, r_max, tol=tol, zero_scale=zero_scale)
        except NoAnnihilator as exc:
            failures[src] = str(exc)
            worst = max(worst, exc.best_residual)
            continue
        per_source[src] = poly_roots(ann.poly)
        residuals[src] = ann.relative_residual
    merged, tol_used = merge_roots(per_source.values(), dedup_rel)
    estimate = SpectrumEstimate(per_source, merged, tol_used, residuals, failures)
    if merged.size > samples.d:
        err = RecoveryError(
            f"merged spectrum has {merged.size} values, more than d = {samples.d}")
        err.partial = estimate
        raise err
    return estimate, worst


def recover_observable_spectrum(samples: SampleSet, r_max: int | None = None,
                                dedup_rel: float = config.DEDUP_REL,
                                tol: float = config.TAU_SOLVE) -> SpectrumEstimate:
    """Observable spectrum of the sampling set: per-coordinate roots,
    merged with dedup.

    ``r_max`` bounds the per-coordinate degree search; None means the
    safe upper bound d, which needs 2d time levels. Per-coordinate failures
    are recorded; the call fails only when every coordinate fails.
    """
    r_max = samples.d if r_max is None else r_max
    need = 2 * r_max
    if samples.L_total < need:
        raise InsufficientDataError(
            f"r_max={r_max} needs {need} time levels, have {samples.L_total}")
    sources = ((int(i), samples.samples[:need, pos]) for pos, i in enumerate(samples.omega))
    estimate, worst = search_sources(samples, sources, r_max, dedup_rel, tol)
    if not estimate.per_source:
        raise NoAnnihilator(
            f"all {samples.omega.size} sampled coordinates failed the degree search", worst)
    return estimate


@dataclass(frozen=True, eq=False)
class ExtrapolationModel:
    """Length-L vector recurrence over the sampled coordinates.

    The restricted sample at time k >= L is a fixed linear combination of
    the L preceding restricted samples: weights[i, l, j] multiplies the
    value at coordinate omega[j], lag L - l. The first L training levels
    are kept as the seed window.
    """

    omega: tuple[int, ...]
    L: int
    weights: np.ndarray
    seed_window: np.ndarray

    def extend(self, L_total: int) -> np.ndarray:
        """Run the recurrence forward; rows 0..L-1 are the seed verbatim."""
        n = len(self.omega)
        out = np.empty((max(L_total, self.L), n), dtype=np.complex128)
        out[:self.L] = self.seed_window
        for t in range(self.L, L_total):
            out[t] = np.einsum("ilj,lj->i", self.weights, out[t - self.L:t])
        return out[:L_total]


def fit_extrapolation(samples: SampleSet, L: int,
                      tol: float = config.TAU_SOLVE) -> ExtrapolationModel:
    """Fit the length-L recurrence from the first (|omega|+1)*L levels.

    For each coordinate the square system over row offsets k =
    0..|omega|*L-1 is solved (minimum-norm when degenerate); a relative
    residual at or above ``tol`` means no length-L recurrence reproduces
    that coordinate, reported as SpanConditionViolated. Retrying with a
    larger window helps; L = d always fits.
    """
    if L < 1:
        raise DimensionError(f"window length must be positive, got {L}")
    omega = samples.omega
    n = omega.size
    need = (n + 1) * L
    if samples.L_total < need:
        raise InsufficientDataError(
            f"window L={L} with {n} coordinates needs {need} time levels, have {samples.L_total}")
    S = samples.samples
    nL = n * L
    M = _block_hankel(S, L, nL).T
    weights = np.empty((n, L, n), dtype=np.complex128)
    for pos in range(n):
        res = least_squares(M, S[L:L + nL, pos])
        if res.relative_residual >= tol:
            raise SpanConditionViolated(
                f"no length-{L} recurrence reproduces coordinate {omega[pos]} "
                f"(residual {res.relative_residual:.3e}); retry with a larger window")
        weights[pos] = res.solution.reshape(L, n)
    return ExtrapolationModel(tuple(int(i) for i in omega), L, weights, S[:L].copy())


def recover_spectrum_via_extrapolation(samples: SampleSet, L: int,
                                       dedup_rel: float = config.DEDUP_REL,
                                       tol: float = config.TAU_SOLVE) -> SpectrumEstimate:
    """Fit the window recurrence, extrapolate each coordinate out to 2d
    levels, then recover the observable spectrum with degree bound d."""
    model = fit_extrapolation(samples, L, tol=tol)
    extended = SampleSet(samples.d, samples.sampler, model.extend(2 * samples.d))
    return recover_observable_spectrum(extended, dedup_rel=dedup_rel, tol=tol)

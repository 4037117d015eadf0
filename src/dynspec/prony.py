"""Prony's method: recover a signal with an s-sparse Fourier transform
from 2s consecutive entries.

One coordinate sampled under the cyclic shift reads consecutive entries,
a sum of s geometric modes with ratios on the grid exp(2*pi*i*n/d); so
Prony is the general pipeline on that coordinate with degree bound s,
and snapping its roots to the grid is principled, not heuristic.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import config
from .errors import (DimensionError, InsufficientDataError, NotShiftSpectrum,
                     RecoveryError)
from .model import IndexSet, SampleSet
from .numerics import as_vector, dft, least_squares, zero_threshold
from .spectral import SpectrumEstimate, recover_observable_spectrum


def prony_support(samples: SampleSet, s: int | None = None,
                  tol: float = config.TAU_SOLVE) -> SpectrumEstimate:
    """The general pipeline on one shifted coordinate with degree bound
    1 <= s < d/2 (None: L_total // 2), then grid snapping. The estimate
    adds the support, smaller when the signal is sparser than declared,
    whose grid points replace the merged roots, and the signal. A root
    farther than ``config.TAU_ROOT`` from the grid, or a support that
    cannot reproduce the samples, raises with the estimate attached.
    """
    if not isinstance(samples.sampler, IndexSet) or samples.omega.size != 1:
        raise TypeError("prony mode requires an index sampler with exactly one coordinate")
    d = samples.d
    s = samples.L_total // 2 if s is None else s
    if s < 1 or 2 * s >= d:
        raise ValueError(f"sparsity must satisfy 1 <= s < d/2, got s={s}, d={d}")
    if samples.L_total < 2 * s:
        raise InsufficientDataError(f"need 2s = {2 * s} time levels, have {samples.L_total}")
    estimate = recover_observable_spectrum(samples, r_max=s, tol=tol)
    start = int(samples.omega[0])
    try:
        support = snap_support(estimate.per_source[start], d)
        x_hat = prony_values(samples.samples[:2 * s, 0], start, support, d, tol=tol)
    except RecoveryError as exc:
        exc.partial = estimate
        raise
    grid = np.exp(2j * np.pi * np.array(support, dtype=float) / d)
    return replace(estimate, merged=grid, dedup_tol=None, support=support,
                   signal=dft(x_hat, inverse=True))


def snap_support(roots, d: int) -> tuple[int, ...]:
    """Frequencies n whose grid points exp(2*pi*i*n/d) the roots snap to.

    A root farther than ``config.TAU_ROOT`` from every grid point raises
    NotShiftSpectrum.
    """
    support = set()
    for root in roots:
        n = int(np.round(np.angle(root) * d / (2 * np.pi))) % d
        gap = abs(root - np.exp(2j * np.pi * n / d))
        if gap > config.TAU_ROOT:
            raise NotShiftSpectrum(
                f"root {root:.6f} is {gap:.3e} from the nearest grid point "
                f"exp(2*pi*i*{n}/{d}); data does not fit the shift model")
        support.add(n)
    return tuple(sorted(support))


def prony_values(c, start: int, support, d: int,
                 tol: float = config.TAU_SOLVE) -> np.ndarray:
    """Transform values on a known support, fitted to the same entries;
    returns the length-d transform, zero off the support.

    Uses all supplied entries (overdetermined), so a wrong support shows
    up as an inconsistent system at no extra sample cost: a residual that
    reaches ``tol``, or is NaN, raises RecoveryError. Values that come
    out numerically zero are set to zero, keeping the support honest.
    """
    supp = tuple(sorted(set(int(n) for n in support)))
    c = as_vector(c, "signal entries")
    x_hat = np.zeros(d, dtype=np.complex128)
    if len(supp) == 0:
        return x_hat
    if len(supp) > c.size:
        raise DimensionError(f"support size {len(supp)} exceeds the {c.size} entries supplied")
    positions = start + np.arange(c.size)
    modes = np.exp(2j * np.pi * np.outer(positions, supp) / d) / d
    # past about 1e154 the rhs's plain norm overflows, as least_squares
    # expects, and its residual comes from the scaled norms
    with np.errstate(over="ignore"):
        values, residual = least_squares(modes, c)
    if not residual < tol:
        raise RecoveryError(
            f"support {supp} cannot reproduce the entries "
            f"(residual {residual:.3e}); support/sample mismatch")
    vmax = float(np.max(np.abs(values)))
    keep = np.abs(values) > zero_threshold(vmax)
    x_hat[np.array(supp)[keep]] = values[keep]
    return x_hat


def random_sparse_signal(d: int, s: int, seed):
    """Seeded signal with an s-sparse Fourier transform.

    Support is drawn without replacement; values have moduli in [0.5, 1.5]
    so no mode is numerically invisible. Returns (signal, x_hat), x_hat
    the length-d transform.
    """
    if not 0 < s < d:
        raise DimensionError(f"need 0 < s < d, got s={s}, d={d}")
    rng = np.random.default_rng(seed)
    x_hat = np.zeros(d, dtype=np.complex128)
    for n in np.sort(rng.choice(d, size=s, replace=False)):
        x_hat[n] = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random())
    return dft(x_hat, inverse=True), x_hat

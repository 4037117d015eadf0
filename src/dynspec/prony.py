"""Prony's method: recover a signal with an s-sparse Fourier transform
from 2s consecutive entries.

Consecutive entries of such a signal form a sum of s geometric modes
whose ratios sit on the unit-circle grid exp(2*pi*i*n/d), so the generic
scalar annihilator applied to the entries recovers the spectral support
exactly; snapping to the grid is principled, not heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .annihilator import scalar_annihilator
from .errors import DimensionError, NotShiftSpectrum, RecoveryError
from .numerics import as_vector, dft, least_squares, poly_roots, zero_threshold


@dataclass(frozen=True, eq=False)
class SparseSpectrum:
    """Support and values of a sparse Fourier transform."""

    d: int
    support: tuple[int, ...]
    values: dict

    def __post_init__(self):
        supp = tuple(sorted(int(n) for n in self.support))
        if len(set(supp)) != len(supp):
            raise DimensionError(f"support frequencies must be distinct, got {supp}")
        if supp and (supp[0] < 0 or supp[-1] >= self.d):
            raise DimensionError(f"support {supp} out of range for d={self.d}")
        object.__setattr__(self, "support", supp)
        object.__setattr__(self, "values", {int(n): complex(v) for n, v in self.values.items()})
        if set(self.values) != set(supp):
            raise DimensionError("values must cover exactly the support frequencies")


def prony_support(c, d: int, s: int, tol: float = config.TAU_SOLVE) -> tuple[int, ...]:
    """Spectral support from 2s consecutive signal entries.

    Requires s < d/2. The annihilator degree can come out below s when the
    signal is sparser than declared; the (smaller) support is returned.
    A root farther than ``config.TAU_ROOT`` from every grid point means the
    data was not produced by a cyclic shift of a sparse-spectrum signal.
    """
    if s < 1:
        raise ValueError(f"sparsity must be positive, got {s}")
    if not 2 * s < d:
        raise ValueError(f"sparsity must satisfy s < d/2, got s={s}, d={d}")
    c = as_vector(c, "signal entries")
    if c.size < 2 * s:
        raise DimensionError(f"need 2s = {2 * s} consecutive entries, got {c.size}")
    # Relative to its own largest entry, c is zero only below the absolute floor.
    ann = scalar_annihilator(c[:2 * s], s, tol=tol, zero_scale=0.0)
    return snap_support(poly_roots(ann.poly), d)


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
                 tol: float = config.TAU_SOLVE) -> SparseSpectrum:
    """Transform values on a known support, fitted to the same entries.

    Uses all supplied entries (overdetermined), so a wrong support shows
    up as an inconsistent system at no extra sample cost. Values that come
    out numerically zero are dropped, keeping the support honest.
    """
    supp = tuple(sorted(set(int(n) for n in support)))
    c = as_vector(c, "signal entries")
    if len(supp) == 0:
        return SparseSpectrum(d, (), {})
    if len(supp) > c.size:
        raise DimensionError(f"support size {len(supp)} exceeds the {c.size} entries supplied")
    positions = start + np.arange(c.size)
    modes = np.exp(2j * np.pi * np.outer(positions, supp) / d) / d
    res = least_squares(modes, c)
    if res.relative_residual >= tol:
        raise RecoveryError(
            f"support {supp} cannot reproduce the entries "
            f"(residual {res.relative_residual:.3e}); support/sample mismatch")
    vmax = float(np.max(np.abs(res.solution)))
    keep = {n: complex(v) for n, v in zip(supp, res.solution)
            if abs(v) > zero_threshold(vmax)}
    return SparseSpectrum(d, tuple(sorted(keep)), keep)


def prony_reconstruct(spectrum: SparseSpectrum) -> np.ndarray:
    """Full signal from a sparse spectrum (inverse transform)."""
    x_hat = np.zeros(spectrum.d, dtype=np.complex128)
    for n, v in spectrum.values.items():
        x_hat[n] = v
    return dft(x_hat, inverse=True)


def random_sparse_signal(d: int, s: int, seed):
    """Seeded signal with an s-sparse Fourier transform.

    Support is drawn without replacement; values have moduli in [0.5, 1.5]
    so no mode is numerically invisible. Returns (signal, SparseSpectrum).
    """
    if not 0 < s < d:
        raise DimensionError(f"need 0 < s < d, got s={s}, d={d}")
    rng = np.random.default_rng(seed)
    support = tuple(sorted(int(n) for n in rng.choice(d, size=s, replace=False)))
    values = {n: complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random()))
              for n in support}
    spectrum = SparseSpectrum(d, support, values)
    return prony_reconstruct(spectrum), spectrum

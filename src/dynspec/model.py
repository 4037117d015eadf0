"""Signals, evolution operators, samplers, and forward simulation.

A signal is a 1-D complex ndarray of length d. Evolution operators come in
two representations: a circulant filter, applied by FFT, and a
diagonalizable factorization U diag(eigs) U^{-1}. Only the forward
direction lives here: the recovery pipelines read samples, never the
operator.

Conventions, fixed once for the whole library: the cyclic convolution is
(a * x)(n) = sum_k a(k) x(n - k), and the "shift" operator advances the
signal, (Bx)(n) = x(n + 1 mod d), which is the circulant with filter
delta_{d-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, DimensionError
from .numerics import as_matrix, as_vector, dft, min_pairwise_gap

# Random operators: smallest accepted gap between two eigenvalues, draws
# tried before giving up, and the eigenbasis condition number.
_MIN_GAP = 1e-3
_MAX_TRIES = 200
_COND = 2.0


def _check_signal(x, d: int) -> np.ndarray:
    arr = as_vector(x, "signal")
    if arr.size != d:
        raise DimensionError(f"signal length {arr.size} does not match operator dimension {d}")
    return arr


@dataclass(frozen=True, eq=False)
class Circulant:
    """Cyclic convolution by a fixed filter: x -> taps * x."""

    taps: np.ndarray
    _a_hat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        taps = as_vector(self.taps, "filter taps")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "_a_hat", dft(taps))

    @property
    def dim(self) -> int:
        return self.taps.size

    def transfer(self) -> np.ndarray:
        """The filter's DFT; these are the operator's eigenvalues."""
        return self._a_hat.copy()

    def apply(self, x) -> np.ndarray:
        x = _check_signal(x, self.dim)
        return dft(self._a_hat * dft(x), inverse=True)


@dataclass(frozen=True, eq=False)
class Diagonalizable:
    """Operator given by its eigenbasis: U diag(eigs) U^{-1}."""

    U: np.ndarray
    eigs: np.ndarray

    def __post_init__(self):
        U = as_matrix(self.U, "eigenbasis")
        eigs = as_vector(self.eigs, "eigenvalues")
        if U.shape[0] != U.shape[1] or U.shape[0] != eigs.size:
            raise DimensionError(f"eigenbasis must be square of size {eigs.size}, got {U.shape}")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "eigs", eigs)

    @property
    def dim(self) -> int:
        return self.eigs.size

    def apply(self, x) -> np.ndarray:
        x = _check_signal(x, self.dim)
        try:
            coords = np.linalg.solve(self.U, x)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(f"eigenbasis is singular: {exc}") from exc
        return self.U @ (self.eigs * coords)


EvolutionOperator = Circulant | Diagonalizable


def shift_operator(d: int) -> Circulant:
    """The advancing cyclic shift (Bx)(n) = x(n + 1 mod d)."""
    taps = np.zeros(d, dtype=np.complex128)
    taps[d - 1] = 1.0
    return Circulant(taps)


@dataclass(frozen=True)
class IndexSet:
    """Ideal sampler keeping an explicit set of coordinates."""

    omega: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.omega)
        if len(idx) == 0:
            raise DimensionError("sampling set must be nonempty")
        if len(set(idx)) != len(idx):
            raise DimensionError(f"sampling indices must be distinct, got {idx}")
        if min(idx) < 0:
            raise DimensionError(f"sampling indices must be nonnegative, got {idx}")
        object.__setattr__(self, "omega", tuple(sorted(idx)))

    def indices(self, d: int) -> np.ndarray:
        if self.omega[-1] >= d:
            raise DimensionError(f"sampling indices {self.omega} out of range for d={d}")
        return np.array(self.omega, dtype=int)


@dataclass(frozen=True)
class Uniform:
    """Ideal sampler keeping every m-th coordinate; m must divide d."""

    m: int

    def __post_init__(self):
        if int(self.m) < 1:
            raise DimensionError(f"subsampling step must be positive, got {self.m}")
        object.__setattr__(self, "m", int(self.m))

    def indices(self, d: int) -> np.ndarray:
        if d % self.m:
            raise DimensionError(f"subsampling step {self.m} does not divide d={d}")
        return np.arange(0, d, self.m)


Sampler = IndexSet | Uniform


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Restricted dynamical samples on a fixed sampler.

    ``samples[l]`` holds the state at time l at the sampled positions only,
    so the array is (L_total, |omega|), time-major with no gaps.
    """

    d: int
    sampler: Sampler
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DimensionError(f"samples must be a (L_total, |omega|) array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DimensionError("samples contain non-finite values")
        idx = self.sampler.indices(self.d)
        if arr.shape[1] != idx.size:
            raise DimensionError(f"{arr.shape[1]} values per time level, expected {idx.size}")
        object.__setattr__(self, "samples", arr)

    @property
    def L_total(self) -> int:
        return int(self.samples.shape[0])

    @property
    def omega(self) -> np.ndarray:
        return self.sampler.indices(self.d)


def simulate(op: EvolutionOperator, x, sampler: Sampler, L_total: int) -> SampleSet:
    """Generate dynamical samples by iterated application of the operator,
    restricted to the sampler. No operator powers are formed."""
    if L_total < 1:
        raise DimensionError("need at least one time level")
    state = _check_signal(x, op.dim)
    idx = sampler.indices(op.dim)
    out = np.empty((L_total, idx.size), dtype=np.complex128)
    for ell in range(L_total):
        out[ell] = state[idx]
        if ell + 1 < L_total:
            state = op.apply(state)
    return SampleSet(op.dim, sampler, out)


def random_signal(d: int, seed) -> np.ndarray:
    """Seeded i.i.d. complex standard normal signal.

    ``seed`` may be an integer or a numpy Generator; identical seeds give
    identical signals.
    """
    if d < 1:
        raise DimensionError("d must be positive")
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2)


def make_diffusion_filter(d: int, decay: float) -> Circulant:
    """Circulant operator whose transfer function is real, symmetric about
    frequency 0, and strictly decreasing out to the folding index.

    Built as exp(-decay * k^2) on frequencies 0..(d-1)/2 and mirrored onto
    the conjugate half; d must be odd so the mirroring is unambiguous.
    """
    if d < 1 or d % 2 == 0:
        raise DimensionError(f"diffusion filter requires odd d, got {d}")
    if decay <= 0:
        raise ValueError(f"decay must be positive, got {decay}")
    half = (d - 1) // 2
    head = np.exp(-decay * np.arange(half + 1, dtype=float) ** 2)
    if not np.all(np.diff(head) < 0):
        raise ValueError(
            f"diffusion filter with d={d}, decay={decay} is not strictly decreasing: "
            "exp(-decay*k^2) underflows before the folding index; use a smaller decay")
    a_hat = np.concatenate([head, head[1:][::-1]]).astype(np.complex128)
    return Circulant(dft(a_hat, inverse=True))


def random_circulant(d: int, seed) -> Circulant:
    """Random complex filter with pairwise-distinct transfer values,
    normalized so the largest transfer modulus is 1."""
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_TRIES):
        a_hat = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2)
        a_hat /= np.max(np.abs(a_hat))
        if d == 1 or min_pairwise_gap(a_hat) > _MIN_GAP:
            return Circulant(dft(a_hat, inverse=True))
    raise ConditioningError(f"could not draw a filter with transfer gaps above {_MIN_GAP}")


def _random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_diagonalizable(d: int, seed,
                          modulus: tuple[float, float] = (0.9, 1.1)) -> Diagonalizable:
    """Random diagonalizable operator with controlled conditioning.

    The eigenbasis has condition number exactly ``_COND`` = 2. Eigenvalue
    moduli are uniform in ``modulus``; phases are jittered around the
    equispaced grid and rotated by a random angle, which keeps pairwise
    gaps near 1/d. Eigenvalues packed much tighter than that are not
    resolvable from the 2d-sample horizon the recovery pipelines use, so
    a uniform-phase draw would routinely produce instances no method
    could handle at the default consistency threshold. ``_MIN_GAP`` is
    still enforced by rejection as an absolute floor.
    """
    rng = np.random.default_rng(seed)
    U = _random_unitary(rng, d) @ np.diag(np.geomspace(1.0, _COND, d)) @ _random_unitary(rng, d)
    for _ in range(_MAX_TRIES):
        phases = (np.arange(d) + rng.uniform(-0.25, 0.25, d)) * 2 * np.pi / d
        eigs = rng.uniform(*modulus, d) * np.exp(1j * (phases + rng.uniform(0, 2 * np.pi)))
        if d == 1 or min_pairwise_gap(eigs) > _MIN_GAP:
            return Diagonalizable(U, eigs)
    raise ConditioningError(f"could not draw eigenvalues with gaps above {_MIN_GAP}")

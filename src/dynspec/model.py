"""Signals, evolution operators, samplers, and forward simulation.

A signal is a 1-D complex ndarray of length d. Evolution operators come in
two representations: a circulant filter, whose eigenbasis is the Fourier
basis, and a diagonalizable factorization U diag(eigs) U^{-1} that holds
U^{-1}. Both advance a state the same way: analysis into eigenbasis
coordinates (an FFT, or the product with U^{-1}), an elementwise product
with the eigenvalues, and synthesis (an inverse FFT, or the product with
U). ``apply`` is one level of that; ``simulate`` analyses the initial
state once, steps the coordinates level by level, and synthesizes only
the sampled rows. Only the forward direction lives here: the recovery
pipelines read samples, never the operator.

The random factories use no LAPACK factorization, and ``simulate`` none
either: only FFTs, elementwise arithmetic and matrix-vector products,
whose bits do not depend on the BLAS thread count; so identical seeds
give identical operators and samples under any thread count. (One
sampled coordinate makes each synthesis product a dot product, which
OpenBLAS splits across threads above about 10000 entries: d = 4096 gave
the same bits under one and two threads, d = 12000 did not. U and U^{-1}
alone take 3.2 GB at d = 10000.) Both draw their eigenvalues from one
``_separated_spectrum``, which separates them by construction, so each
factory draws once and cannot fail, at any d.

Conventions, fixed once for the whole library: the cyclic convolution is
(a * x)(n) = sum_k a(k) x(n - k), and the "shift" operator advances the
signal, (Bx)(n) = x(n + 1 mod d), which is the circulant with filter
delta_{d-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, DimensionError
from .numerics import as_matrix, as_vector, dft

# Condition number of the random diagonalizable eigenbasis.
_COND = 2.0
# Entries of the block of eigenbasis coordinates ``simulate`` synthesizes
# at once; its working memory does not grow with the level count.
_SIMULATE_BLOCK_ENTRIES = 1 << 16


def _check_dimension(d: int) -> None:
    if d < 1:
        raise DimensionError(f"d must be positive, got {d}")


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
        return self._synthesize(self._a_hat * self._analyze(_check_signal(x, self.dim)))

    def _analyze(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of a checked signal in the Fourier basis."""
        return np.fft.fft(x)

    def _synthesize(self, z: np.ndarray, idx=slice(None)) -> np.ndarray:
        """Entries ``idx`` of the signal with Fourier coordinates ``z``, or
        of each row of a (levels, d) block of them: one inverse FFT per
        row, the same bits row by row as ``dft(row, inverse=True)``."""
        return np.fft.ifft(z)[..., idx]


@dataclass(frozen=True, eq=False)
class Diagonalizable:
    """Operator given by its eigenbasis: U diag(eigs) U^{-1}.

    ``U_inv`` is not an independent setting: it must equal U^{-1}. A
    factory that builds U from factors already holds its inverse and
    passes it in; when it is omitted, U is inverted once here. ``apply``
    then costs two matrix-vector products and no factorization;
    ``simulate`` takes the product with U^{-1} once and then, per level,
    an elementwise product and the product with the sampled rows of U.
    """

    U: np.ndarray
    eigs: np.ndarray
    U_inv: np.ndarray | None = None

    def __post_init__(self):
        U = as_matrix(self.U, "eigenbasis")
        eigs = as_vector(self.eigs, "eigenvalues")
        if U.shape[0] != U.shape[1] or U.shape[0] != eigs.size:
            raise DimensionError(f"eigenbasis must be square of size {eigs.size}, got {U.shape}")
        if self.U_inv is None:
            try:
                U_inv = np.linalg.inv(U)
            except np.linalg.LinAlgError as exc:
                raise ConditioningError(f"eigenbasis is singular: {exc}") from exc
        else:
            U_inv = as_matrix(self.U_inv, "inverse eigenbasis")
            if U_inv.shape != U.shape:
                raise DimensionError(f"inverse eigenbasis must be of shape {U.shape}, "
                                     f"got {U_inv.shape}")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "eigs", eigs)
        object.__setattr__(self, "U_inv", U_inv)

    @property
    def dim(self) -> int:
        return self.eigs.size

    def apply(self, x) -> np.ndarray:
        return self._synthesize(self.eigs * self._analyze(_check_signal(x, self.dim)))

    def _analyze(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of a checked signal in the eigenbasis."""
        return self.U_inv @ x

    def _synthesize(self, z: np.ndarray, idx=slice(None)) -> np.ndarray:
        """Entries ``idx`` of the signal with eigenbasis coordinates ``z``,
        or of each row of a (levels, d) block of them: the product of rows
        ``idx`` of U with each level's column, one matrix-vector product
        per level, so a level's bits do not depend on the block around it
        (one matrix-matrix product would: BLAS kernels treat edge columns
        apart)."""
        return (self.U[idx] @ z[..., None])[..., 0]


EvolutionOperator = Circulant | Diagonalizable


def shift_operator(d: int) -> Circulant:
    """The advancing cyclic shift (Bx)(n) = x(n + 1 mod d)."""
    _check_dimension(d)
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
        if self.d < 1:
            raise DimensionError(f"d must be positive, got d={self.d}")
        arr = as_matrix(self.samples, "samples")
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
    """Generate the dynamical samples (B^l x)[omega], l < L_total, in the
    operator's eigenbasis: B^l x = U (eigs^l * U^{-1} x), with U the
    Fourier basis for a circulant.

    The initial state is analysed once. The coordinates of each level are
    the previous level's times the eigenvalues, one elementwise product,
    so every entry has the same bits however the levels are grouped. They
    are synthesized a block of levels at a time, at the sampled rows only
    for a diagonalizable operator (O(|omega| d) per level against O(d^2)
    for advancing the whole state), and by one inverse FFT per level for
    a circulant. A block holds at most ``_SIMULATE_BLOCK_ENTRIES``
    coordinates, so working memory does not grow with ``L_total``. No
    operator powers are formed. A state that overflows raises
    DimensionError naming the first level with a non-finite sample and
    the operator's largest eigenvalue modulus.
    """
    if L_total < 1:
        raise DimensionError("need at least one time level")
    x = _check_signal(x, op.dim)
    idx = sampler.indices(op.dim)
    z = op._analyze(x)
    eigs = op.transfer() if isinstance(op, Circulant) else op.eigs
    rows = min(L_total, max(1, _SIMULATE_BLOCK_ENTRIES // op.dim))
    block = np.empty((rows, op.dim), dtype=np.complex128)
    out = np.empty((L_total, idx.size), dtype=np.complex128)
    # a state that overflows gives non-finite samples, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, L_total, rows):
            n = min(rows, L_total - start)
            block[0] = z
            for j in range(1, n):
                np.multiply(eigs, block[j - 1], out=block[j])
            out[start:start + n] = op._synthesize(block[:n], idx)
            z = eigs * block[n - 1]
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise DimensionError(
            f"the state overflows at level {int(np.argmin(finite))}, the first with a "
            f"non-finite sample; the operator's largest eigenvalue modulus is "
            f"{float(np.max(np.abs(eigs))):.6g}")
    return SampleSet(op.dim, sampler, out)


def random_signal(d: int, seed) -> np.ndarray:
    """Seeded i.i.d. complex standard normal signal.

    ``seed`` may be an integer or a numpy Generator; identical seeds give
    identical signals.
    """
    _check_dimension(d)
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2)


def make_diffusion_filter(d: int, decay: float) -> Circulant:
    """Circulant operator whose transfer function is real, symmetric about
    frequency 0, and strictly decreasing out to the folding index.

    Built as exp(-decay * k^2) on frequencies 0..(d-1)/2 and mirrored onto
    the conjugate half; d must be odd so the mirroring is unambiguous.
    """
    _check_dimension(d)
    if d % 2 == 0:
        raise DimensionError(f"diffusion filter requires odd d, got {d}")
    if not 0 < decay < float("inf"):
        raise ValueError(f"decay must be finite and positive, got {decay}")
    half = (d - 1) // 2
    head = np.exp(-decay * np.arange(half + 1, dtype=float) ** 2)
    stalls = np.flatnonzero(np.diff(head) >= 0)
    if stalls.size:
        # a tiny decay leaves neighbouring values equal near 1, a large one
        # takes them to 0
        cause = ("rounds to 1, or to one value near 1, at neighbouring frequencies; "
                 "use a larger decay" if head[stalls[0]] > 0.5 else
                 "underflows before the folding index; use a smaller decay")
        raise ValueError(f"diffusion filter with d={d}, decay={decay} is not strictly "
                         f"decreasing: exp(-decay*k^2) {cause}")
    a_hat = np.concatenate([head, head[1:][::-1]]).astype(np.complex128)
    return Circulant(dft(a_hat, inverse=True))


def _separated_spectrum(rng, d: int) -> np.ndarray:
    """d values with moduli uniform in [0.9, 1.1] and phases jittered by at
    most a quarter step around the equispaced grid, rotated by a random
    angle. Any two phases are at least pi/d apart, so any two values are
    at least 2 * 0.9 * sin(pi/2d) apart: no rejection is needed."""
    phases = (np.arange(d) + rng.uniform(-0.25, 0.25, d)) * 2 * np.pi / d
    return rng.uniform(0.9, 1.1, d) * np.exp(1j * (phases + rng.uniform(0, 2 * np.pi)))


def random_circulant(d: int, seed) -> Circulant:
    """Random complex filter whose transfer values are a ``_separated_spectrum``
    in random order, normalized so the largest modulus is 1.

    Any two transfer values are at least (1.8 / 1.1) * sin(pi/2d) apart,
    so the one draw cannot fail, at any d. The permutation matters: in
    grid order each residue class mod m would hold m equispaced phases,
    and the filter would be a jittered shift.
    """
    _check_dimension(d)
    rng = np.random.default_rng(seed)
    a_hat = rng.permutation(_separated_spectrum(rng, d))
    return Circulant(dft(a_hat / np.max(np.abs(a_hat)), inverse=True))


def _random_unitary(rng, d: int) -> np.ndarray:
    """diag(a) F diag(b) for random phases a, b and the unitary DFT F,
    built by FFT, so no LAPACK routine touches it."""
    a, b = np.exp(2j * np.pi * rng.random((2, d)))
    return a[:, None] * np.fft.fft(np.diag(b), axis=0, norm="ortho")


def random_diagonalizable(d: int, seed) -> Diagonalizable:
    """Random diagonalizable operator with controlled conditioning.

    The eigenbasis is U = Q1 diag(s) Q2 with s = geomspace(1, ``_COND``, d)
    and Q1, Q2 random-phase unitary DFTs (``_random_unitary``), so its
    condition number is exactly ``_COND`` = 2 and its inverse
    Q2^H diag(1/s) Q1^H is exact; the operator carries that inverse, and
    neither building nor applying it factorizes a matrix. The
    eigenvalues are a ``_separated_spectrum``: eigenvalues packed much
    tighter than 1/d are not resolvable from the 2d-sample horizon the
    recovery pipelines use, so a uniform-phase draw would routinely
    produce instances no method could handle at the default consistency
    threshold.
    """
    _check_dimension(d)
    rng = np.random.default_rng(seed)
    q1, q2, s = _random_unitary(rng, d), _random_unitary(rng, d), np.geomspace(1.0, _COND, d)
    U = (q1 * s) @ q2
    U_inv = (q2.conj().T / s) @ q1.conj().T
    return Diagonalizable(U, _separated_spectrum(rng, d), U_inv)

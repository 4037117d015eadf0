"""Reference constructions that only the tests need.

The recovery pipelines read samples only. The oracles here read the
operator itself (its factorization), or materialize dense matrices:
eigenvalue grouping, spectral projectors, the observable spectrum, the
minimal and altered minimal polynomials, and the class-averaging
projections of the invariant pipeline.
"""

from dataclasses import dataclass

import numpy as np

from dynspec.annihilator import AnnihilatorPolynomial
from dynspec.errors import ConditioningError, DimensionError
from dynspec.model import Circulant, Diagonalizable, IndexSet, Uniform
from dynspec.numerics import MonicPolynomial, as_vector

# Relative gap under which two eigenvalues are grouped as one.
TAU_EIG = 1e-9

# Observability cutoff, relative to the Frobenius norm of the eigenbasis.
TAU_OBS = 1e-10

_COND_LIMIT = 1e12


def require_well_conditioned(U: np.ndarray, limit: float = _COND_LIMIT) -> None:
    """Raise ConditioningError when U is numerically singular."""
    cond = np.linalg.cond(U)
    if not np.isfinite(cond) or cond > limit:
        raise ConditioningError(f"matrix condition number {cond:.3e} exceeds {limit:.1e}")


def as_diagonalizable(op) -> Diagonalizable:
    """View an operator in factored form.

    The oracles never eigendecompose an unknown matrix, they only read
    factorizations: a circulant's eigenbasis is the inverse DFT matrix.
    """
    if isinstance(op, Diagonalizable):
        return op
    if isinstance(op, Circulant):
        return Diagonalizable(np.fft.ifft(np.eye(op.dim), axis=0), op.transfer())
    raise TypeError(f"need a circulant or diagonalizable operator, got {type(op).__name__}")


def _omega_indices(omega, d: int) -> np.ndarray:
    if isinstance(omega, (IndexSet, Uniform)):
        return omega.indices(d)
    return IndexSet(tuple(int(i) for i in omega)).indices(d)


def group_eigenvalues(eigs, tau_eig: float = TAU_EIG):
    """Cluster numerically equal eigenvalues.

    Returns (values, groups): cluster means and member index lists, in
    first-appearance order. The matching radius is ``tau_eig`` relative to
    the largest modulus.
    """
    eigs = as_vector(eigs, "eigenvalues")
    scale = float(np.max(np.abs(eigs)))
    tol = tau_eig * (scale if scale > 0 else 1.0)
    reps: list[complex] = []
    groups: list[list[int]] = []
    for i, lam in enumerate(eigs):
        for g, rep in enumerate(reps):
            if abs(lam - rep) <= tol:
                groups[g].append(i)
                break
        else:
            reps.append(complex(lam))
            groups.append([i])
    values = np.array([np.mean(eigs[g]) for g in groups], dtype=np.complex128)
    return values, groups


@dataclass(frozen=True, eq=False)
class SpectralProjectorSet:
    """Orthogonal projectors of the diagonal factor, one per distinct
    eigenvalue: mutually annihilating idempotents summing to the identity."""

    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]


def spectral_projectors(op, tau_eig: float = TAU_EIG) -> SpectralProjectorSet:
    """Group the eigenvalues at ``tau_eig`` and build the corresponding
    coordinate projectors of the diagonal factor."""
    diag = as_diagonalizable(op)
    values, groups = group_eigenvalues(diag.eigs, tau_eig)
    projs = []
    for g in groups:
        P = np.zeros((diag.dim, diag.dim), dtype=np.complex128)
        P[g, g] = 1.0
        projs.append(P)
    return SpectralProjectorSet(values, tuple(projs))


def observable_spectrum_oracle(op, omega, tau_eig: float = TAU_EIG,
                               tau_obs: float = TAU_OBS) -> np.ndarray:
    """Ground-truth observable spectrum as seen from the coordinates omega.

    An eigenvalue is observable when the block of the eigenbasis with rows
    in omega and columns in its eigen-group has Frobenius norm above
    ``tau_obs`` times the Frobenius norm of the whole eigenbasis.
    """
    diag = as_diagonalizable(op)
    require_well_conditioned(diag.U)
    idx = _omega_indices(omega, diag.dim)
    values, groups = group_eigenvalues(diag.eigs, tau_eig)
    u_norm = float(np.linalg.norm(diag.U))
    out = [v for v, g in zip(values, groups)
           if np.linalg.norm(diag.U[np.ix_(idx, g)]) > tau_obs * u_norm]
    return np.array(out, dtype=np.complex128)


def minimal_polynomial_oracle(op, tau_eig: float = TAU_EIG) -> AnnihilatorPolynomial:
    """The operator's minimal polynomial, prod (lambda - lambda_j) over its
    distinct eigenvalues."""
    diag = as_diagonalizable(op)
    require_well_conditioned(diag.U)
    values, _ = group_eigenvalues(diag.eigs, tau_eig)
    return AnnihilatorPolynomial(MonicPolynomial(np.atleast_1d(np.poly(values))[1:][::-1]), 0.0)


def altered_minimal_polynomial_oracle(op, omega, tau_eig: float = TAU_EIG,
                                      tau_obs: float = TAU_OBS) -> AnnihilatorPolynomial:
    """The smallest monic polynomial whose action is invisible through the
    sampled coordinates: prod (lambda - lambda_j) over the omega-observable
    eigenvalues. Oracle counterpart of the sample-side engine."""
    roots = observable_spectrum_oracle(op, omega, tau_eig=tau_eig, tau_obs=tau_obs)
    return AnnihilatorPolynomial(MonicPolynomial(np.atleast_1d(np.poly(roots))[1:][::-1]), 0.0)


def projection_check(m: int, d: int, z) -> dict:
    """Materialize the class-averaging projections and verify their algebra.

    Builds each rank-1 projection E_j that averages a length-d vector over
    residue class j, and returns the worst idempotence/orthogonality
    error, the error of sum_j E_j against the Fourier-conjugated
    subsampling operator, and E_j z's common value per class.
    """
    if d < 1 or m < 1 or d % m:
        raise DimensionError(f"need m | d, got m={m}, d={d}")
    z = as_vector(z, "probe vector")
    if z.size != d:
        raise DimensionError(f"probe vector has length {z.size}, expected {d}")
    J = d // m
    projections = []
    for j in range(J):
        E = np.zeros((d, d), dtype=np.complex128)
        cls = np.arange(j, d, J)
        E[np.ix_(cls, cls)] = 1.0 / m
        projections.append(E)
    idem = 0.0
    for a, Ea in enumerate(projections):
        for b, Eb in enumerate(projections):
            target = Eb if a == b else np.zeros_like(Eb)
            idem = max(idem, float(np.max(np.abs(Ea @ Eb - target))))
    k = np.arange(d)
    fwd = np.exp(-2j * np.pi * np.outer(k, k) / d)
    keep = np.zeros((d, d))
    keep[np.arange(0, d, m), np.arange(0, d, m)] = 1.0
    conjugated = fwd @ keep @ (np.conj(fwd) / d)
    resolution = float(np.max(np.abs(sum(projections) - conjugated)))
    class_values = np.array([z[j::J].mean() for j in range(J)], dtype=np.complex128)
    return {"idempotence_error": idem, "resolution_error": resolution,
            "class_values": class_values}

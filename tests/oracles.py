"""Dense reference constructions that only the tests need."""

import numpy as np

from dynspec.errors import DimensionError
from dynspec.numerics import as_vector


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

"""Shared assertions for the test suite."""

import numpy as np

from dynspec.numerics import set_match_error


def assert_sets_close(got, expected, tol):
    """Same cardinality and symmetric nearest-neighbor distance below tol."""
    got = np.asarray(got, dtype=np.complex128).ravel()
    expected = np.asarray(expected, dtype=np.complex128).ravel()
    assert got.size == expected.size, f"set sizes differ: {got.size} vs {expected.size}"
    err = set_match_error(got, expected)
    assert err < tol, f"set mismatch: error {err:.3e} >= {tol:.1e}"


def roots_contained(roots, spectrum, tol):
    """Every root within tol of some spectrum value."""
    roots = np.asarray(roots, dtype=np.complex128).ravel()
    spectrum = np.asarray(spectrum, dtype=np.complex128).ravel()
    return all(np.min(np.abs(spectrum - r)) < tol for r in roots)


def division_remainder(p, q):
    """Norm of the remainder of the monic polynomial p divided by q."""
    return float(np.linalg.norm(np.polydiv(p.coeffs_desc(), q.coeffs_desc())[1]))

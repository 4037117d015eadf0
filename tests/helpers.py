"""Shared assertions for the test suite."""

import numpy as np

from dynspec.model import IndexSet, SampleSet
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


def one_coordinate(entries, d, start=0):
    """Samples of coordinate ``start`` whose time levels are ``entries``."""
    return SampleSet(d, IndexSet((start,)), np.asarray(entries)[:, None])


def coeffs_desc(low):
    """Monic polynomial coefficients from the leading 1 down, given ``low``."""
    return np.concatenate(([1.0 + 0j], np.asarray(low, dtype=np.complex128)[::-1]))


def division_remainder(p, q):
    """Norm of the remainder of monic p divided by q, both by low-order coefficients."""
    return float(np.linalg.norm(np.polydiv(coeffs_desc(p), coeffs_desc(q))[1]))

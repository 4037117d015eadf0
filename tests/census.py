"""A seeded census of recovery outcomes, by operator family and pipeline.

Each case is one ``simulate`` run and one ``recover`` run, drawn the way
the CLI draws them: ``problem`` builds the operator and the signal from
the case's seed in the order ``cli.cmd_simulate`` does, and ``recover``
calls the pipeline ``cli.cmd_recover`` calls, with its defaults. Its
outcome is judged as ``verify`` judges a report:

- ``refused``: the pipeline raised a RecoveryError (``recover`` exits 3);
- ``correct``: the merged spectrum has as many values as the truth,
  merged by ``merge_roots`` on its own scale, and their set distance is
  below ``cli.VERIFY_TOL`` (in prony mode the truth is the grid points of
  the signal's support, and the recovered signal must match too);
- ``silent``: anything else, a wrong answer given with exit 0.

The truth is the operator's whole spectrum, the transfer values of a
circulant or the eigenvalues of a diagonalizable operator: a random
signal excites every mode, and every eigenvector of these families has
no zero entry, so every eigenvalue is observable from any coordinate.

Run ``python tests/census.py`` (with the package importable) to print
the rows of the table that ``tests/test_census.py`` holds, as
(correct, silent, refused).
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from dynspec.cli import VERIFY_TOL
from dynspec.errors import RecoveryError
from dynspec.invariant import recover_operator
from dynspec.model import (Circulant, Diagonalizable, IndexSet, Uniform, make_diffusion_filter,
                           random_circulant, random_diagonalizable, random_signal,
                           shift_operator, simulate)
from dynspec.numerics import dft, set_match_error
from dynspec.prony import prony_support, random_sparse_signal
from dynspec.spectral import (merge_roots, recover_observable_spectrum,
                              recover_spectrum_via_extrapolation)

OUTCOMES = ("correct", "silent", "refused")
CASES_PER_ROW = 40
DEEP_CASES_PER_ROW = 5
_DECAYS = {"diffusion-0.1": 0.1, "diffusion-0.3": 0.3}
_SMALL = ("shift", "random-circulant", "gaussian-circulant", "diffusion-0.1", "diffusion-0.3")

# (family, pipeline) rows. "extrapolate" takes the default window;
# "extrapolate-window" draws the window from 1 to d and holds no level
# out in 3 of 4 cases, where the square-fit rule decides.
ROWS = ([(family, "invariant") for family in _SMALL]
        + [(family, "general") for family in _SMALL + ("diagonalizable",)]
        + [("diagonalizable-96", "general"), ("diagonalizable-192", "general")]
        + [(family, "extrapolate") for family in _SMALL + ("diagonalizable",)]
        + [(family, "extrapolate-window")
           for family in ("shift", "random-circulant", "diagonalizable")]
        + [("sparse-shift", "prony")])


@dataclass(frozen=True)
class Case:
    """One simulate run (family, d, sampler, levels, seed, and the
    sparsity for a sparse shift) and the recover options that follow it."""

    family: str
    pipeline: str
    d: int
    sampler: Uniform | IndexSet
    levels: int
    seed: int
    window: int | None = None
    sparsity: int | None = None


def row_name(family: str, pipeline: str) -> str:
    return f"{family}/{pipeline}"


def _odd(rng, lo: int, hi: int) -> int:
    """An odd integer in [lo, hi]."""
    return int(rng.choice(np.arange(lo | 1, hi + 1, 2)))


def _omega(rng, d: int, most: int) -> IndexSet:
    size = int(rng.integers(1, most + 1))
    return IndexSet(tuple(sorted(int(i) for i in rng.choice(d, size=size, replace=False))))


def draw_cases(family: str, pipeline: str) -> list[Case]:
    """The row's cases, drawn from a generator seeded by the row's name,
    so adding or reordering rows leaves every other row's cases alone."""
    rng = np.random.default_rng(zlib.crc32(row_name(family, pipeline).encode()))
    deep = family.startswith("diagonalizable-")
    cases = []
    for _ in range(DEEP_CASES_PER_ROW if deep else CASES_PER_ROW):
        seed = int(rng.integers(2**31))
        if deep:
            d = int(family.split("-")[1])
            omega = IndexSet((0, 3, 7) if d == 96 else (0, 3))
            cases.append(Case(family, pipeline, d, omega, 2 * d, seed))
        elif pipeline == "invariant":
            m = int(rng.choice([3, 5])) if family in _DECAYS else int(rng.integers(2, 6))
            d = m * _odd(rng, 3, 11)
            cases.append(Case(family, pipeline, d, Uniform(m), 2 * m, seed))
        elif pipeline in ("general", "extrapolate"):
            d = _odd(rng, 6, 24) if family in _DECAYS else int(rng.integers(6, 25))
            cases.append(Case(family, pipeline, d, _omega(rng, d, 3), 2 * d, seed))
        elif pipeline == "extrapolate-window":
            d = int(rng.integers(6, 17))
            omega = _omega(rng, d, 2)
            window = int(rng.integers(1, d + 1))
            held = 0 if rng.random() < 0.75 else int(rng.integers(1, d + 1))
            levels = (len(omega.omega) + 1) * window + held
            cases.append(Case(family, pipeline, d, omega, levels, seed, window=window))
        else:
            d, s = int(rng.integers(64, 513)), int(rng.integers(2, 9))
            cases.append(Case(family, pipeline, d, IndexSet((int(rng.integers(d)),)), 2 * s,
                              seed, sparsity=s))
    return cases


def gaussian_taps(d: int, seed: int) -> np.ndarray:
    """Taps whose transfer values are i.i.d. complex Gaussian, scaled to
    largest modulus 1: unlike the random draw, nothing keeps them apart."""
    rng = np.random.default_rng([seed, d])
    a_hat = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return dft(a_hat / np.max(np.abs(a_hat)), inverse=True)


def problem(case: Case):
    """(operator, signal, samples), drawn from the case's seed as
    ``cli.cmd_simulate`` draws them."""
    rng = np.random.default_rng(case.seed)
    d = case.d
    if case.family in ("shift", "sparse-shift"):
        op = shift_operator(d)
        if case.sparsity is not None:
            x, _ = random_sparse_signal(d, case.sparsity, rng)
        else:
            x = random_signal(d, rng)
    elif case.family.startswith("diagonalizable"):
        op = random_diagonalizable(d, rng)
        x = random_signal(d, rng)
    else:
        if case.family == "random-circulant":
            op = random_circulant(d, rng)
        elif case.family in _DECAYS:
            op = make_diffusion_filter(d, _DECAYS[case.family])
        x = random_signal(d, rng)
        if case.family == "gaussian-circulant":
            op = Circulant(gaussian_taps(d, case.seed))
    return op, x, simulate(op, x, case.sampler, case.levels)


def recover(case: Case, samples):
    """The estimate of the pipeline ``recover --mode`` runs, with its
    default flags (and ``--window`` in the window rows)."""
    if case.pipeline == "invariant":
        return recover_operator(samples)
    if case.pipeline == "general":
        return recover_observable_spectrum(samples)
    if case.pipeline.startswith("extrapolate"):
        return recover_spectrum_via_extrapolation(samples, case.window)
    return prony_support(samples)


def judge(case: Case) -> str:
    """The case's outcome: correct, silent or refused."""
    op, x, samples = problem(case)
    try:
        estimate = recover(case, samples)
    except RecoveryError:
        return "refused"
    if case.pipeline == "prony":
        x_hat = dft(x)
        support = np.flatnonzero(np.abs(x_hat) > 1e-9 * float(np.max(np.abs(x_hat))))
        expected = np.exp(2j * np.pi * support / case.d)
        signal_ok = float(np.max(np.abs(estimate.signal - x))) < VERIFY_TOL
    else:
        eigs = op.eigs if isinstance(op, Diagonalizable) else op.transfer()
        expected, _ = merge_roots([eigs])
        signal_ok = True
    got = estimate.merged
    ok = (got.size == expected.size and set_match_error(got, expected) < VERIFY_TOL
          and signal_ok)
    return "correct" if ok else "silent"


def judged_row(family: str, pipeline: str) -> list[tuple[Case, str]]:
    """Each case of the row with its outcome."""
    return [(case, judge(case)) for case in draw_cases(family, pipeline)]


def counts(judged: list[tuple[Case, str]]) -> tuple[int, int, int]:
    """(correct, silent, refused) over a judged row."""
    tally = Counter(outcome for _, outcome in judged)
    return tuple(tally[outcome] for outcome in OUTCOMES)


if __name__ == "__main__":
    for family, pipeline in ROWS:
        print(f'    "{row_name(family, pipeline)}": {counts(judged_row(family, pipeline))},')

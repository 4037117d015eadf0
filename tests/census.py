"""A seeded census of recovery outcomes, by operator family and pipeline.

Each case is one ``simulate`` run and one ``recover`` run, drawn the way
the CLI draws them: ``problem`` builds the operator and the signal from
the case's seed in the order ``cli.cmd_simulate`` does, and ``recover``
calls the pipeline ``cli.cmd_recover`` calls, with its defaults. Its
outcome is judged by ``fileio.truth_checks``, the one judgment that
``verify`` and ``recover``'s verified block make:

- ``refused``: the pipeline raised a RecoveryError (``recover`` exits 3);
- ``correct``: every check row passes (the merged spectrum has as many
  values as the truth, merged on its own scale, and their set distance
  is below ``fileio.VERIFY_TOL``; with a sparse signal the truth is the
  transfer values on the signal's support, at ``fileio.SUPPORT_REL``,
  and in prony mode the support and the recovered signal must match
  too);
- ``silent``: anything else, a wrong answer given with exit 0.

The truth is handed to the judge in an in-memory ``Problem``
(``truth_taps`` or ``truth_spectrum``, with the signal as
``truth_signal``). It is the spectrum the data observe: the transfer
values of a circulant at the frequencies the signal excites, or the
eigenvalues of a diagonalizable operator. A random signal excites every
mode, and every eigenvector of these families has no zero entry, so
every eigenvalue is observable from any coordinate; a sparse signal
excites only its support.

Run ``python tests/census.py`` (with the package importable) to print
the rows of the table that ``tests/test_census.py`` holds, as
(correct, silent, refused).
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from dynspec.errors import RecoveryError
from dynspec.fileio import Problem, Report, truth_checks
from dynspec.invariant import recover_operator
from dynspec.model import (Circulant, Diagonalizable, IndexSet, Uniform, make_diffusion_filter,
                           random_circulant, random_diagonalizable, random_signal,
                           shift_operator, simulate)
from dynspec.numerics import dft
from dynspec.prony import prony_support, random_sparse_signal
from dynspec.spectral import recover_observable_spectrum, recover_spectrum_via_extrapolation

OUTCOMES = ("correct", "silent", "refused")
CASES_PER_ROW = 40
DEEP_CASES_PER_ROW = 5
_DECAYS = {"diffusion-0.1": 0.1, "diffusion-0.3": 0.3}
_SMALL = ("shift", "random-circulant", "gaussian-circulant", "diffusion-0.1", "diffusion-0.3")

# (family, pipeline) rows. "invariant-symmetric" is invariant mode with
# --assume-symmetric, on the diffusion filters it suits. "extrapolate"
# takes the default window;
# "extrapolate-window" draws the window from 1 to d and holds no level
# out in 3 of 4 cases, where the square-fit rule decides. "general-short"
# is general mode on 2 to 2d - 1 levels, fewer than the degree bound d
# needs, where search_sources' square-fit refusal decides. The sparse shift
# rows outside prony draw the sparsity below d: the data observe only the
# excited part of the spectrum.
ROWS = ([(family, "invariant") for family in _SMALL + ("sparse-shift",)]
        + [(family, "invariant-symmetric") for family in _DECAYS]
        + [(family, "general") for family in _SMALL + ("diagonalizable", "sparse-shift")]
        + [("diagonalizable-96", "general"), ("diagonalizable-192", "general")]
        + [(family, "general-short") for family in ("random-circulant", "sparse-shift")]
        + [(family, "extrapolate") for family in _SMALL + ("diagonalizable", "sparse-shift")]
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


def _sparsity(rng, family: str, d: int) -> int | None:
    """A sparse shift's sparsity, in [1, d); None, with no draw, for the
    other families."""
    return int(rng.integers(1, d)) if family == "sparse-shift" else None


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
        elif pipeline.startswith("invariant"):
            m = int(rng.choice([3, 5])) if family in _DECAYS else int(rng.integers(2, 6))
            d = m * _odd(rng, 3, 11)
            cases.append(Case(family, pipeline, d, Uniform(m), 2 * m, seed,
                              sparsity=_sparsity(rng, family, d)))
        elif pipeline in ("general", "extrapolate"):
            d = _odd(rng, 6, 24) if family in _DECAYS else int(rng.integers(6, 25))
            cases.append(Case(family, pipeline, d, _omega(rng, d, 3), 2 * d, seed,
                              sparsity=_sparsity(rng, family, d)))
        elif pipeline == "general-short":
            d = int(rng.integers(6, 25))
            omega, levels = _omega(rng, d, 3), int(rng.integers(2, 2 * d))
            cases.append(Case(family, pipeline, d, omega, levels, seed,
                              sparsity=_sparsity(rng, family, d)))
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
    default flags (and ``--window`` in the window rows, and
    ``--assume-symmetric`` in the symmetric rows)."""
    if case.pipeline.startswith("invariant"):
        return recover_operator(samples, case.pipeline.endswith("symmetric"))
    if case.pipeline.startswith("general"):
        return recover_observable_spectrum(samples)
    if case.pipeline.startswith("extrapolate"):
        return recover_spectrum_via_extrapolation(samples, case.window)
    return prony_support(samples)


def truth(op, x, samples) -> Problem:
    """The problem with its ground truth, as the judge reads it: the
    samples, the signal and the operator's taps or eigenvalues."""
    if isinstance(op, Diagonalizable):
        return Problem(samples, truth_signal=x, truth_spectrum=op.eigs)
    return Problem(samples, op.taps, x)


def checks(case: Case) -> list:
    """The truth check rows of the case's estimate, as ``verify`` would
    print them; a refused run raises its RecoveryError."""
    op, x, samples = problem(case)
    estimate = recover(case, samples)
    return truth_checks(truth(op, x, samples), Report.of(case.pipeline.split("-")[0], estimate))


def judge(case: Case) -> str:
    """The case's outcome: correct, silent or refused."""
    try:
        rows = checks(case)
    except RecoveryError:
        return "refused"
    return "correct" if all(passed for _, _, _, passed, _ in rows) else "silent"


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

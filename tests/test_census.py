"""The census of recovery outcomes (``census.py``): no row may give more
silent wrong answers than the committed table, and ``verify`` agrees with
the census on what a wrong answer is."""

import json

import numpy as np
import pytest

from census import ROWS, counts, gaussian_taps, judged_row, row_name
from dynspec.cli import main
from dynspec.model import Uniform

# (correct, silent, refused) per row. A change may lower a row's silent
# count, and then records the new table here; a lower correct count is
# listed in CHANGES.md.
TABLE = {
    "shift/invariant": (40, 0, 0),
    "random-circulant/invariant": (40, 0, 0),
    "gaussian-circulant/invariant": (40, 0, 0),
    "diffusion-0.1/invariant": (20, 20, 0),
    "diffusion-0.3/invariant": (6, 34, 0),
    "shift/general": (40, 0, 0),
    "random-circulant/general": (40, 0, 0),
    "gaussian-circulant/general": (10, 8, 22),
    "diffusion-0.1/general": (20, 17, 3),
    "diffusion-0.3/general": (9, 31, 0),
    "diagonalizable/general": (40, 0, 0),
    "diagonalizable-96/general": (0, 0, 5),
    "diagonalizable-192/general": (0, 5, 0),
    "shift/extrapolate": (27, 5, 8),
    "random-circulant/extrapolate": (40, 0, 0),
    "gaussian-circulant/extrapolate": (18, 20, 2),
    "diffusion-0.1/extrapolate": (22, 8, 10),
    "diffusion-0.3/extrapolate": (17, 18, 5),
    "diagonalizable/extrapolate": (40, 0, 0),
    "shift/extrapolate-window": (9, 7, 24),
    "random-circulant/extrapolate-window": (14, 0, 26),
    "diagonalizable/extrapolate-window": (9, 0, 31),
    "sparse-shift/prony": (40, 0, 0),
}


@pytest.fixture(scope="module")
def judged():
    return {row_name(family, pipeline): judged_row(family, pipeline)
            for family, pipeline in ROWS}


def test_no_row_gives_more_silent_answers(judged):
    got = {row: counts(cases) for row, cases in judged.items()}
    for row, (correct, silent, refused) in got.items():
        print(f"census {row}: {correct} correct, {silent} silent, {refused} refused")
    assert list(got) == list(TABLE)
    assert {row: sum(c) for row, c in got.items()} == {row: sum(c) for row, c in TABLE.items()}
    assert {row: c[1] for row, c in got.items() if c[1] > TABLE[row][1]} == {}


def _cli_outcome(case, tmp_path):
    """simulate, recover and verify through the CLI: the case's outcome as
    the exit codes tell it."""
    problem, report = tmp_path / "problem.json", tmp_path / "report.json"
    simulate = ["simulate", "--d", str(case.d), "--levels", str(case.levels), "--seed",
                str(case.seed), "--include-truth", "--out", str(problem)]
    simulate += (["--m", str(case.sampler.m)] if isinstance(case.sampler, Uniform) else
                 ["--omega", ",".join(map(str, case.sampler.omega))])
    if case.family.endswith("shift"):
        simulate += ["--mode", "shift"]
        if case.sparsity is not None:
            simulate += ["--sparsity", str(case.sparsity)]
    elif case.family == "gaussian-circulant":
        taps = tmp_path / "taps.json"
        taps.write_text(json.dumps(
            gaussian_taps(case.d, case.seed).view(np.float64).reshape(-1, 2).tolist()))
        simulate += ["--filter", "file", "--filter-file", str(taps)]
    elif case.family.startswith("diffusion"):
        simulate += ["--filter", "diffusion", "--decay", case.family.split("-")[1]]
    assert main(simulate) == 0
    recover = ["recover", "--in", str(problem), "--out", str(report),
               "--mode", case.pipeline.split("-")[0]]
    if case.window is not None:
        recover += ["--window", str(case.window)]
    code = main(recover)
    if code == 3:
        return "refused"
    assert code == 0
    return {0: "correct", 1: "silent"}[main(["verify", "--in", str(problem),
                                             "--report", str(report)])]


def test_verify_agrees_with_the_census(judged, tmp_path):
    # the first case of each outcome in every row whose ground truth the
    # problem schema holds (not the diagonalizable rows)
    for row, cases in judged.items():
        if row.startswith("diagonalizable"):
            continue
        firsts = {}
        for case, outcome in cases:
            firsts.setdefault(outcome, case)
        for outcome, case in firsts.items():
            assert _cli_outcome(case, tmp_path) == outcome, (row, case)

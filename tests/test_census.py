"""The census of recovery outcomes (``census.py``): no row may give more
silent wrong answers than the committed table, and ``verify`` agrees with
the census on what a wrong answer is, and on every error it reports."""

import json

import numpy as np
import pytest

from census import (ROWS, checks, counts, draw_cases, gaussian_taps, judged_row, problem,
                    recover, row_name, truth)
from dynspec.cli import main
from dynspec.errors import RecoveryError
from dynspec.fileio import Report, truth_checks
from dynspec.model import SampleSet, Uniform

# (correct, silent, refused) per row. A change may lower a row's silent
# count, and then records the new table here; a lower correct count is
# listed in CHANGES.md.
TABLE = {
    "shift/invariant": (40, 0, 0),
    "random-circulant/invariant": (40, 0, 0),
    "gaussian-circulant/invariant": (40, 0, 0),
    "diffusion-0.1/invariant": (20, 20, 0),
    "diffusion-0.3/invariant": (6, 33, 1),
    "sparse-shift/invariant": (40, 0, 0),
    "diffusion-0.1/invariant-symmetric": (24, 0, 16),
    "diffusion-0.3/invariant-symmetric": (7, 0, 33),
    "shift/general": (40, 0, 0),
    "random-circulant/general": (40, 0, 0),
    "gaussian-circulant/general": (10, 8, 22),
    "diffusion-0.1/general": (20, 17, 3),
    "diffusion-0.3/general": (9, 31, 0),
    "diagonalizable/general": (40, 0, 0),
    "sparse-shift/general": (40, 0, 0),
    "diagonalizable-96/general": (0, 0, 5),
    "diagonalizable-192/general": (0, 5, 0),
    "random-circulant/general-short": (0, 0, 40),
    "sparse-shift/general-short": (17, 0, 23),
    "shift/extrapolate": (27, 5, 8),
    "random-circulant/extrapolate": (40, 0, 0),
    "gaussian-circulant/extrapolate": (18, 20, 2),
    "diffusion-0.1/extrapolate": (22, 8, 10),
    "diffusion-0.3/extrapolate": (17, 18, 5),
    "diagonalizable/extrapolate": (40, 0, 0),
    "sparse-shift/extrapolate": (40, 0, 0),
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


def _estimate(case, samples):
    """The estimate of the case's pipeline on ``samples``, or the class of
    the RecoveryError it raised."""
    try:
        return recover(case, samples)
    except RecoveryError as exc:
        return type(exc)


def _passed(case, problem, estimate) -> list:
    """Each truth check's name and verdict on the case's ``estimate``."""
    report = Report.of(case.pipeline.split("-")[0], estimate)
    return [(name, passed) for name, _, _, passed, _ in truth_checks(problem, report)]


def test_recovery_does_not_depend_on_the_scale():
    # every case on its samples times 2**665 and 2**-665, an exact scaling:
    # the same refusal, or the same merged-spectrum bits, per-source
    # degrees, support and taps, and a signal exactly 2**k times the one at
    # scale 1, so the same outcome. With the plain norms of least_squares
    # every prony case was refused at 2**665. The truth checks, with the
    # true signal scaled too, pass and fail as at scale 1: an absolute
    # signal error failed every recovered signal at 2**665
    for family, pipeline in ROWS:
        for case in draw_cases(family, pipeline):
            op, x, samples = problem(case)
            base = _estimate(case, samples)
            for k in (665, -665):
                scaled = SampleSet(samples.d, samples.sampler, samples.samples * 2.0 ** k)
                got = _estimate(case, scaled)
                if isinstance(base, type) or isinstance(got, type):
                    assert got is base, (k, case)
                    continue
                assert (_passed(case, truth(op, x * 2.0 ** k, scaled), got)
                        == _passed(case, truth(op, x, samples), base)), (k, case)
                assert got.merged.tobytes() == base.merged.tobytes(), (k, case)
                assert ({src: roots.size for src, roots in got.per_source.items()}
                        == {src: roots.size for src, roots in base.per_source.items()}), (k, case)
                assert got.support == base.support, (k, case)
                for name, scale in (("taps", 1.0), ("signal", 2.0 ** k)):
                    want, have = getattr(base, name), getattr(got, name)
                    assert (have is None if want is None
                            else have.tobytes() == (want * scale).tobytes()), (name, k, case)


def _cli_outcome(case, tmp_path):
    """simulate, recover and verify through the CLI: the case's outcome as
    the exit codes tell it, and the errors of the report's verified block
    (None when refused)."""
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
    if case.pipeline.endswith("symmetric"):
        recover += ["--assume-symmetric"]
    code = main(recover)
    if code == 3:
        return "refused", None
    assert code == 0
    outcome = {0: "correct", 1: "silent"}[main(["verify", "--in", str(problem),
                                                "--report", str(report)])]
    return outcome, json.loads(report.read_text())["verified"]


def test_verify_agrees_with_the_census(judged, tmp_path):
    # the first case of each outcome in every row whose ground truth the
    # problem schema holds (not the diagonalizable rows). Both judge through
    # fileio.truth_checks, so the report's verified errors, computed from
    # the saved and reloaded problem, are the in-memory errors to the bit
    for row, cases in judged.items():
        if row.startswith("diagonalizable"):
            continue
        firsts = {}
        for case, outcome in cases:
            firsts.setdefault(outcome, case)
        for outcome, case in firsts.items():
            got, verified = _cli_outcome(case, tmp_path)
            assert got == outcome, (row, case)
            if outcome != "refused":
                expected = {f"{name}_error": err for name, err, *_ in checks(case)}
                assert ({key: err.hex() for key, err in verified.items()}
                        == {key: err.hex() for key, err in expected.items()}), (row, case)

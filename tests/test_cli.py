import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynspec
from dynspec import cli
from dynspec.cli import main
from dynspec.fileio import load_problem, pairs_to_complex
from dynspec.model import Uniform, make_diffusion_filter, random_signal, simulate
from dynspec.numerics import dft, set_match_error


def run(*argv):
    return main(list(argv))


def _simulate_diffusion(tmp_path, seed=1, name="p.json", include_truth=True):
    path = tmp_path / name
    argv = ["simulate", "--d", "15", "--mode", "circulant", "--filter", "diffusion",
            "--m", "3", "--levels", "6", "--seed", str(seed), "--out", str(path)]
    if include_truth:
        argv.append("--include-truth")
    assert run(*argv) == 0
    return path


# ------------------------------------------------------------ simulate

def test_simulate_writes_expected_shape(tmp_path):
    path = _simulate_diffusion(tmp_path)
    obj = json.loads(path.read_text())
    assert obj["schema_version"] == "dynspec-1"
    assert obj["d"] == 15 and obj["L_total"] == 6
    assert obj["sampler"] == {"type": "uniform", "m": 3}
    assert len(obj["samples"]) == 6
    assert all(len(level) == 5 for level in obj["samples"])
    assert "filter" in obj["ground_truth"] and "signal" in obj["ground_truth"]


def test_simulate_rejects_nondivisor_step(tmp_path, capsys):
    code = run("simulate", "--d", "15", "--m", "4", "--levels", "6",
               "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_round_trip_matches_library(tmp_path):
    path = _simulate_diffusion(tmp_path, seed=5)
    problem = load_problem(str(path))
    op = make_diffusion_filter(15, 0.1)
    x = random_signal(15, np.random.default_rng(5))
    expected = simulate(op, x, Uniform(3), 6)
    assert problem.sample_set.d == expected.d
    assert problem.sample_set.sampler == expected.sampler
    assert np.array_equal(problem.sample_set.samples, expected.samples)  # bit-exact
    assert np.array_equal(problem.truth_signal, x)


def test_simulate_deterministic_bytes(tmp_path):
    a = _simulate_diffusion(tmp_path, seed=3, name="a.json")
    b = _simulate_diffusion(tmp_path, seed=3, name="b.json")
    assert a.read_bytes() == b.read_bytes()


def test_simulate_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("DYNSPEC_SEED", "9")
    p1 = tmp_path / "env.json"
    assert run("simulate", "--d", "9", "--m", "3", "--levels", "6", "--out", str(p1)) == 0
    p2 = tmp_path / "flag.json"
    assert run("simulate", "--d", "9", "--m", "3", "--levels", "6", "--seed", "9",
               "--out", str(p2)) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_simulate_diagonalizable_truth_not_representable(tmp_path, capsys):
    code = run("simulate", "--d", "8", "--mode", "diagonalizable", "--omega", "0,3",
               "--levels", "16", "--include-truth", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_diffusion_underflow_exits_2(tmp_path, capsys):
    code = run("simulate", "--d", "1023", "--m", "3", "--levels", "6", "--filter",
               "diffusion", "--decay", "0.1", "--out", str(tmp_path / "x.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_simulate_diffusion_tiny_decay_exits_2(tmp_path, capsys):
    code = run("simulate", "--d", "15", "--m", "3", "--levels", "6", "--filter",
               "diffusion", "--decay", "1e-20", "--out", str(tmp_path / "x.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "rounds to 1" in err and err.endswith("use a larger decay\n")
    assert not (tmp_path / "x.json").exists()


# ------------------------------------------------------------- recover

def test_recover_invariant_symmetric(tmp_path):
    path = _simulate_diffusion(tmp_path)
    out = tmp_path / "r.json"
    assert run("recover", "--in", str(path), "--mode", "invariant",
               "--assume-symmetric", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert len(report["recovered_spectrum"]) == 8  # (15 + 1) / 2 distinct values
    assert report["verified"]["filter_error"] < 1e-8
    assert report["verified"]["spectrum_error"] < 1e-8
    assert "signal" in report["diagnostics"]["failures"]  # class 0 nodes collide
    assert all(entry["residual"] < 1e-8 for entry in report["per_source"].values())


def test_recover_prony_support_length(tmp_path):
    p = tmp_path / "pp.json"
    assert run("simulate", "--d", "64", "--mode", "shift", "--sparsity", "5",
               "--omega", "17", "--levels", "10", "--seed", "2", "--include-truth",
               "--out", str(p)) == 0
    out = tmp_path / "rr.json"
    assert run("recover", "--in", str(p), "--mode", "prony", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert len(report["recovered_support"]) == 5
    assert report["verified"]["signal_error"] < 1e-8


def test_recover_general_accepts_uniform_file(tmp_path):
    p = tmp_path / "u.json"
    assert run("simulate", "--d", "9", "--mode", "circulant", "--filter", "random",
               "--m", "3", "--levels", "18", "--seed", "4", "--include-truth",
               "--out", str(p)) == 0
    out = tmp_path / "g.json"
    assert run("recover", "--in", str(p), "--mode", "general", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["verified"]["spectrum_error"] < 1e-8


def test_recover_invariant_rejects_indices_file(tmp_path, capsys):
    p = tmp_path / "i.json"
    assert run("simulate", "--d", "9", "--mode", "circulant", "--omega", "0,4",
               "--levels", "6", "--seed", "4", "--out", str(p)) == 0
    code = run("recover", "--in", str(p), "--mode", "invariant", "--out",
               str(tmp_path / "x.json"))
    assert code == 2
    assert "uniform" in capsys.readouterr().err


def test_recover_extrapolate_mode(tmp_path):
    p = tmp_path / "e.json"
    assert run("simulate", "--d", "8", "--mode", "diagonalizable", "--omega", "1,5",
               "--levels", "24", "--seed", "6", "--out", str(p)) == 0
    out = tmp_path / "er.json"
    assert run("recover", "--in", str(p), "--mode", "extrapolate", "--window", "8",
               "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert len(report["recovered_spectrum"]) == 8


def test_recover_failure_exits_3_with_partial_report(tmp_path, capsys):
    p = tmp_path / "s.json"
    assert run("simulate", "--d", "64", "--mode", "shift", "--sparsity", "5",
               "--omega", "0", "--levels", "10", "--seed", "7", "--out", str(p)) == 0
    out = tmp_path / "bad.json"
    code = run("recover", "--in", str(p), "--mode", "prony", "--sparsity", "2",
               "--out", str(out))
    assert code == 3
    assert "error:" in capsys.readouterr().err
    report = json.loads(out.read_text())  # partial report still written
    assert "fatal" in report["diagnostics"]["failures"]
    assert set(report["per_source"]) == {"0"}  # the coordinate's off-grid roots


@pytest.mark.parametrize("simulate_args,recover_args,message", [
    (["--d", "16", "--mode", "shift", "--sparsity", "3", "--omega", "5", "--levels", "10"],
     ["--mode", "prony", "--sparsity", "6"], "need 2s = 12 time levels, have 10"),
    (["--d", "8", "--m", "1", "--levels", "1"], ["--mode", "general"],
     "need at least 2 time levels for spectral recovery"),
    (["--d", "8", "--m", "1", "--levels", "1"], ["--mode", "extrapolate"],
     "no usable window: 1 levels for 8 sampled coordinates"),
    (["--d", "16", "--omega", "0,5", "--levels", "32"], ["--mode", "extrapolate", "--window", "11"],
     "window L=11 with 2 coordinates needs 33 time levels, have 32"),
], ids=["prony-sparsity-6-on-10-levels", "general-on-1-level", "extrapolate-on-1-level",
        "extrapolate-window-11-on-32-levels"])
def test_recover_too_few_levels_exits_2(tmp_path, capsys, simulate_args, recover_args, message):
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", *simulate_args, "--seed", "1", "--out", str(problem)) == 0
    capsys.readouterr()
    assert run("recover", "--in", str(problem), *recover_args, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_recover_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    code = run("recover", "--in", str(bad), "--mode", "invariant",
               "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_recover_nonpositive_dimension_exits_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"schema_version": "dynspec-1", "d": 0, "L_total": 2,
                                "sampler": {"type": "uniform", "m": 1}, "samples": [[], []]}))
    code = run("recover", "--in", str(path), "--mode", "general",
               "--out", str(tmp_path / "r.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "d=0" in err


@pytest.mark.parametrize("sampler, message", [
    ({"type": "uniform"}, "uniform sampler is missing field 'm'"),
    ({"type": "indices"}, "indices sampler is missing field 'omega'"),
    ({"type": "weird"}, "unknown sampler type 'weird'"),
    ({"type": "indices", "omega": 3}, "field 'sampler.omega' must be a list"),
    ({"type": "indices", "omega": [1, 1]}, "sampling indices must be distinct, got (1, 1)"),
    ({"type": "indices", "omega": [-1, 2]}, "sampling indices must be nonnegative, got (-1, 2)"),
    ({"type": "indices", "omega": []}, "sampling set must be nonempty"),
    ({"type": "uniform", "m": 0}, "subsampling step must be positive, got 0"),
], ids=["uniform-without-m", "indices-without-omega", "unknown-type", "omega-not-a-list",
        "omega-duplicate", "omega-negative", "omega-empty", "m-0"])
def test_recover_sampler_missing_parameter_exits_2(tmp_path, capsys, sampler, message):
    path = _simulate_diffusion(tmp_path)
    obj = json.loads(path.read_text())
    obj["sampler"] = sampler
    path.write_text(json.dumps(obj))
    code = run("recover", "--in", str(path), "--mode", "general",
               "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_recover_string_and_boolean_sample_exits_2(tmp_path, capsys):
    # loaded through float(), ["1e0", true] used to become 1+1j and recover
    # ran on the altered samples
    path = _simulate_diffusion(tmp_path)
    obj = json.loads(path.read_text())
    obj["samples"][0][0] = ["1e0", True]
    path.write_text(json.dumps(obj))
    out = tmp_path / "r.json"
    assert run("recover", "--in", str(path), "--mode", "general", "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: {path}: field 'samples': expected a list of "
                                       "[re, im] pairs of numbers\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e0", True, None, [1]], ids=repr)
@pytest.mark.parametrize("field", ["recovered_spectrum", "recovered_filter", "recovered_signal"])
def test_verify_rejects_non_number_report_values(tmp_path, capsys, field, value):
    # m = 1 invariant recovery reports the spectrum, filter and signal
    path, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--d", "7", "--mode", "circulant", "--m", "1", "--levels", "2",
               "--include-truth", "--seed", "1", "--out", str(path)) == 0
    assert run("recover", "--in", str(path), "--mode", "invariant", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    report[field][0] = [value, 0.0]
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert run("verify", "--in", str(path), "--report", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {out}: field '{field}': expected a list of "
                            "[re, im] pairs of numbers\n")


def test_recover_plot_writes_svg(tmp_path):
    path = _simulate_diffusion(tmp_path)
    out = tmp_path / "r.json"
    svg = tmp_path / "s.svg"
    assert run("recover", "--in", str(path), "--mode", "invariant",
               "--assume-symmetric", "--out", str(out), "--plot", str(svg)) == 0
    assert svg.read_text().startswith("<svg")


def test_recover_tolerance_recorded(tmp_path):
    path = _simulate_diffusion(tmp_path)
    out = tmp_path / "r.json"
    assert run("recover", "--in", str(path), "--mode", "invariant",
               "--tol", "1e-6", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["diagnostics"]["tolerances"]["tau_solve"] == 1e-6


# -------------------------------------------------------------- verify

def test_verify_pass_and_corruption(tmp_path, capsys):
    path = _simulate_diffusion(tmp_path)
    out = tmp_path / "r.json"
    assert run("recover", "--in", str(path), "--mode", "invariant",
               "--assume-symmetric", "--out", str(out)) == 0
    assert run("verify", "--in", str(path), "--report", str(out)) == 0
    table = capsys.readouterr().out
    assert "PASS" in table and "FAIL" not in table

    report = json.loads(out.read_text())
    report["recovered_spectrum"][0][0] += 1e-3
    corrupted = tmp_path / "c.json"
    corrupted.write_text(json.dumps(report))
    assert run("verify", "--in", str(path), "--report", str(corrupted)) == 1
    table = capsys.readouterr().out
    assert "FAIL" in table and "spectrum" in table


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=repr)
@pytest.mark.filterwarnings("error")
def test_verify_fails_report_with_nonfinite_spectrum(tmp_path, capsys, value):
    # json writes these as NaN and Infinity, and reads them back
    path = _simulate_diffusion(tmp_path)
    out = tmp_path / "r.json"
    assert run("recover", "--in", str(path), "--mode", "invariant",
               "--assume-symmetric", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    report["recovered_spectrum"][3][1] = value
    corrupted = tmp_path / "c.json"
    corrupted.write_text(json.dumps(report))
    capsys.readouterr()
    assert run("verify", "--in", str(path), "--report", str(corrupted)) == 1
    captured = capsys.readouterr()
    row = next(line for line in captured.out.splitlines() if line.startswith("spectrum"))
    assert row.split()[1] in ("nan", "inf") and "FAIL" in row
    assert captured.err == ""


def test_verify_fails_report_with_collapsed_spectrum(tmp_path, capsys):
    # a huge dedup merges the 8 true values into 1; the truth keeps its own
    path = _simulate_diffusion(tmp_path)
    out = tmp_path / "r.json"
    assert run("recover", "--in", str(path), "--mode", "invariant",
               "--dedup", "10", "--out", str(out)) == 0
    assert len(json.loads(out.read_text())["recovered_spectrum"]) == 1
    assert run("verify", "--in", str(path), "--report", str(out)) == 1
    assert "(1 vs 8 values)" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command,flag", [("recover", "--tol"), ("recover", "--dedup"),
                                          ("verify", "--tol")])
def test_tolerance_flags_reject_nonfinite_or_nonpositive(tmp_path, capsys, command, flag, value):
    path = _simulate_diffusion(tmp_path)
    out = tmp_path / "r.json"
    assert run("recover", "--in", str(path), "--mode", "invariant", "--out", str(out)) == 0
    capsys.readouterr()
    if command == "recover":
        args = ["--in", str(path), "--mode", "invariant", "--out", str(tmp_path / "again.json")]
    else:
        args = ["--in", str(path), "--report", str(out)]
    assert run(command, *args, flag, value) == 2
    assert f"argument {flag}: expected a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(1, 9))
def test_invariant_round_trip_verifies_at_d1023(tmp_path, seed):
    p, r = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--d", "1023", "--m", "3", "--levels", "6", "--filter",
               "random", "--seed", str(seed), "--include-truth", "--out", str(p)) == 0
    assert run("recover", "--in", str(p), "--mode", "invariant", "--out", str(r)) == 0
    assert run("verify", "--in", str(p), "--report", str(r)) == 0


def test_verify_requires_truth(tmp_path, capsys):
    path = _simulate_diffusion(tmp_path, include_truth=False, name="nt.json")
    out = tmp_path / "r.json"
    assert run("recover", "--in", str(path), "--mode", "invariant", "--out", str(out)) == 0
    assert run("verify", "--in", str(path), "--report", str(out)) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("report,message", [
    ({"schema_version": "other"}, "schema_version 'other'"),
    ({"schema_version": "dynspec-1", "mode": "invariant", "recovered_spectrum": [],
      "diagnostics": []}, "diagnostics and its tolerances must be objects"),
    ({"schema_version": "dynspec-1", "mode": "invariant", "recovered_spectrum": [],
      "diagnostics": {"tolerances": []}}, "diagnostics and its tolerances must be objects"),
    ({"schema_version": "dynspec-1", "mode": "invariant"},
     "report has no fields comparable against the ground truth"),
    ([{"schema_version": "dynspec-1"}], "report file must be a JSON object"),
    ({"schema_version": "dynspec-1", "recovered_spectrum": []}, "missing field 'mode'"),
    ({"schema_version": "dynspec-1", "mode": "prony", "recovered_support": 5},
     "field 'recovered_support' must be a list"),
    ({"schema_version": "dynspec-1", "mode": "general", "diagnostics": {"failures": []}},
     "diagnostics.failures must be an object, its 'fatal' a string"),
    ({"schema_version": "dynspec-1", "mode": "general",
      "diagnostics": {"failures": {"fatal": 3}}},
     "diagnostics.failures must be an object, its 'fatal' a string"),
], ids=["wrong-schema", "diagnostics-not-object", "tolerances-not-object", "nothing-comparable",
        "not-an-object", "without-mode", "support-not-a-list", "failures-not-object",
        "fatal-not-a-string"])
def test_verify_rejects_malformed_report(tmp_path, capsys, report, message):
    path = _simulate_diffusion(tmp_path)
    bad = tmp_path / "r.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    assert run("verify", "--in", str(path), "--report", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


def test_verify_rejects_non_integer_support(tmp_path, capsys):
    # truncating 6.9 to 6 would let a report of wrong frequencies pass
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--d", "64", "--mode", "shift", "--sparsity", "5", "--omega", "17",
               "--levels", "10", "--seed", "2", "--include-truth", "--out", str(problem)) == 0
    assert run("recover", "--in", str(problem), "--mode", "prony", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    report["recovered_support"] = [n + 0.9 for n in report["recovered_support"]]
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert run("verify", "--in", str(problem), "--report", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"error: {out}: field 'recovered_support' must be an integer" in captured.err


@pytest.mark.parametrize("mode", [5, None, "PRONY", ["prony"], "circulant"],
                         ids=["number", "null", "upper-case", "list", "operator-family"])
def test_verify_rejects_unknown_report_mode(tmp_path, capsys, mode):
    # read as a non-prony report, a prony report would fail its spectrum
    # check and exit 1; a mode outside the recover modes is malformed input
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--d", "64", "--mode", "shift", "--sparsity", "5", "--omega", "17",
               "--levels", "10", "--seed", "2", "--include-truth", "--out", str(problem)) == 0
    assert run("recover", "--in", str(problem), "--mode", "prony", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    report["mode"] = mode
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert run("verify", "--in", str(problem), "--report", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {out}: field 'mode' must be one of invariant, general, "
                            f"extrapolate, prony, got {json.dumps(mode)}\n")


# ----------------------------------------------------- process-level

def test_module_entry_point_subprocess(tmp_path):
    p = tmp_path / "p.json"
    r = tmp_path / "r.json"
    steps = [
        [sys.executable, "-m", "dynspec", "simulate", "--d", "15", "--mode", "circulant",
         "--filter", "diffusion", "--m", "3", "--levels", "6", "--seed", "1",
         "--include-truth", "--out", str(p)],
        [sys.executable, "-m", "dynspec", "recover", "--in", str(p), "--mode", "invariant",
         "--assume-symmetric", "--out", str(r)],
        [sys.executable, "-m", "dynspec", "verify", "--in", str(p), "--report", str(r)],
    ]
    for step in steps:
        proc = subprocess.run(step, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_simulate_and_verify_never_load_scipy(tmp_path):
    # scipy.linalg is most of the import time: recover loads only scipy's
    # top-level package and its LAPACK extension, at the first solve, and
    # simulate and verify load no scipy at all. No command loads numpy.ma,
    # which np.unique imports under numpy 2.4 (about 10 ms and 1.25 MiB).
    # Each command runs in a fresh interpreter, which prints the modules
    # of that list that dynspec loaded: those missing after `import numpy`
    # (numpy 1.x imports numpy.ma itself) and present at the end.
    env = dict(os.environ, PYTHONPATH=str(Path(dynspec.__file__).resolve().parents[1]))
    code = ("import sys, numpy; before = set(sys.modules); from dynspec.cli import main; "
            "code = main(sys.argv[1:]); "
            "print([m for m in ('scipy', 'scipy.linalg', 'numpy.ma') "
            "if m in sys.modules and m not in before]); sys.exit(code)")
    cases = {
        "general": (["--d", "96", "--mode", "shift", "--omega", "3,50", "--levels", "192"], []),
        "invariant": (["--d", "15", "--mode", "circulant", "--filter", "diffusion", "--m", "3",
                       "--levels", "6"], ["--assume-symmetric"]),
        "extrapolate": (["--d", "16", "--mode", "shift", "--omega", "0,5", "--levels", "40"], []),
        "prony": (["--d", "64", "--mode", "shift", "--sparsity", "5", "--omega", "17",
                   "--levels", "10"], []),
    }
    for mode, (simulate_args, recover_args) in cases.items():
        p = tmp_path / f"{mode}.json"
        r = tmp_path / f"{mode}-report.json"
        steps = [
            (["simulate", *simulate_args, "--seed", "1", "--include-truth", "--out", str(p)], []),
            (["recover", "--in", str(p), "--mode", mode, *recover_args, "--out", str(r)],
             ["scipy"]),
            (["verify", "--in", str(p), "--report", str(r)], []),
        ]
        for step, loaded in steps:
            proc = subprocess.run([sys.executable, "-c", code, *step], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (mode, step[0], proc.returncode, proc.stderr)
            assert proc.stdout.splitlines()[-1] == str(loaded), (mode, step[0], proc.stdout)


def test_recover_general_certifies_the_roots_its_coordinates_share(tmp_path):
    # both sampled coordinates of the d = 96 shift observe all 96 roots of
    # unity: coordinate 50's roots are coordinate 3's after one certified
    # step, so they agree point by point, in coordinate 3's order, not
    # only as sets
    problem = tmp_path / "p.json"
    out = tmp_path / "r.json"
    assert run("simulate", "--mode", "shift", "--d", "96", "--omega", "3,50", "--levels", "192",
               "--include-truth", "--seed", "1", "--out", str(problem)) == 0
    assert run("recover", "--in", str(problem), "--mode", "general", "--out", str(out)) == 0
    assert run("verify", "--in", str(problem), "--report", str(out)) == 0
    per_source = json.loads(out.read_text())["per_source"]
    first, second = (pairs_to_complex(per_source[src]["roots"]) for src in ("3", "50"))
    assert first.size == second.size == 96
    assert set_match_error(first, second) < 1e-12
    assert np.abs(first - second).max() < 1e-12


def test_diagonalizable_problem_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at d = 192 a LAPACK factorization already gives different bits under
    # one and two OpenBLAS threads; the diagonalizable factory uses none
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(dynspec.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "dynspec", "simulate", "--mode",
                               "diagonalizable", "--d", "192", "--omega", "0,3,7",
                               "--levels", "40", "--seed", "5", "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


def _readme_walkthroughs():
    """README's bash blocks that start with a dynspec command, each as a
    list of argument lists (backslash continuations joined)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = []
    for block in re.findall(r"^```bash\n(.*?)^```$", text, flags=re.M | re.S):
        if block.startswith("dynspec "):
            lines = block.replace("\\\n", " ").splitlines()
            blocks.append([shlex.split(line)[1:] for line in lines if line.strip()])
    return blocks


def test_readme_walkthrough_runs(tmp_path):
    blocks = _readme_walkthroughs()
    assert len(blocks) == 2
    env = dict(os.environ, PYTHONPATH=str(Path(dynspec.__file__).resolve().parents[1]))
    for block in blocks:
        assert block[-1][0] == "verify"
        for argv in block:
            proc = subprocess.run([sys.executable, "-m", "dynspec", *argv], cwd=tmp_path,
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, (argv, proc.stderr)
    assert (tmp_path / "spectrum.svg").is_file()

def test_usage_error_exits_2(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    diffusion = ["simulate", "--d", "15", "--m", "3", "--levels", "6", "--filter", "diffusion",
                 "--out", out]
    taps = tmp_path / "taps.json"
    taps.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    unclosed, string_tap, missing = (tmp_path / name for name in
                                     ("unclosed.json", "string.json", "missing.json"))
    unclosed.write_text("[[1.0, 0.0],\n")
    string_tap.write_text(json.dumps([["2", 0]]))
    from_file = ["simulate", "--d", "4", "--m", "1", "--levels", "2", "--filter", "file",
                 "--out", out, "--filter-file"]
    problem = tmp_path / "p.json"
    assert run("simulate", "--d", "9", "--omega", "2", "--levels", "27", "--seed", "3",
               "--out", str(problem)) == 0
    capsys.readouterr()
    for argv, message in (
            (["recover", "--mode", "invariant"], "required: --in, --out"),
            (["recover", "--tol", "nan"], "argument --tol: expected a finite number > 0"),
            (["simulate", "--omega", "a"], "expected comma-separated integers, got 'a'"),
            (["recover", "--mode", "general", "--out", "r.json"], "required: --in"),
            ([], "required: command"),
            *(([*diffusion, "--decay", value],
               f"argument --decay: expected a finite number > 0, got '{value}'")
              for value in ("nan", "inf", "0")),
            (["simulate", "--d", "0", "--m", "1", "--levels", "2", "--out", out],
             "d must be positive, got 0"),
            # d is checked before the taps file is read
            (["simulate", "--d", "0", "--m", "1", "--levels", "2", "--filter", "file",
              "--filter-file", str(taps), "--out", out], "d must be positive, got 0"),
            (["recover", "--in", str(problem), "--mode", "extrapolate", "--window", "0",
              "--out", out], "window must be positive, got 0"),
            (["recover", "--in", str(problem), "--mode", "extrapolate", "--window", "-1",
              "--out", out], "window must be positive, got -1"),
            (["simulate", "--d", "4", "--m", "1", "--levels", "0", "--out", out],
             "levels must be positive, got 0"),
            (["simulate", "--d", "4", "--m", "1", "--levels", "2", "--seed", "-1", "--out", out],
             "--seed must be non-negative, got -1"),
            (["simulate", "--mode", "shift", "--d", "8", "--omega", "1", "--levels", "4",
              "--sparsity", "0", "--out", out], "need 0 < s < d, got s=0, d=8"),
            (["simulate", "--d", "4", "--m", "1", "--levels", "2", "--filter", "file",
              "--filter-file", str(taps), "--out", out], "filter file has 3 taps, expected 4"),
            ([*from_file, str(unclosed)], f"{unclosed} is not valid JSON"),
            ([*from_file, str(string_tap)],
             f"{string_tap}: expected a list of [re, im] pairs of numbers"),
            ([*from_file, str(missing)], f"cannot read {missing}")):
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        assert message in err, (argv, err)
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{\x00}\x00", "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000, ": JSON nested too deeply to read"),
], ids=["utf-16", "deep"])
@pytest.mark.parametrize("command", ["recover", "verify", "simulate"])
def test_undecodable_input_file_names_itself_and_exits_2(tmp_path, capsys, command,
                                                         content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    good = _simulate_diffusion(tmp_path)
    out = str(tmp_path / "out.json")
    argv = {"recover": ["recover", "--in", str(bad), "--mode", "invariant", "--out", out],
            "verify": ["verify", "--in", str(good), "--report", str(bad)],
            "simulate": ["simulate", "--d", "4", "--m", "1", "--levels", "2", "--filter",
                         "file", "--filter-file", str(bad), "--out", out]}[command]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and err.count("\n") == 1, err
    assert message in err
    assert not os.path.exists(out)


def test_help_exits_0(capsys):
    assert run("recover", "--help") == 0
    assert "--sparsity" in capsys.readouterr().out


def test_no_command_exits_2():
    assert run() == 2


@pytest.mark.parametrize("argv,code", [(["recover", "--help"], 0), ([], 2)],
                         ids=["help", "no-command"])
def test_console_script_entry_exits(monkeypatch, capsys, argv, code):
    # the installed ``dynspec`` script calls cli.entry, which reads sys.argv
    monkeypatch.setattr(sys, "argv", ["dynspec", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code


def test_recover_invariant_partial_results_on_class_failure(tmp_path, monkeypatch, capsys):
    import dynspec.spectral as spectral_mod
    from dynspec.errors import NoAnnihilator

    path = _simulate_diffusion(tmp_path)
    real = spectral_mod.scalar_annihilator
    calls = []

    def flaky(c, r_max, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise NoAnnihilator("synthetic class failure", 0.4)
        return real(c, r_max, **kwargs)

    monkeypatch.setattr(spectral_mod, "scalar_annihilator", flaky)
    out = tmp_path / "partial.json"
    code = run("recover", "--in", str(path), "--mode", "invariant", "--out", str(out))
    assert code == 3
    assert "error:" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert "fatal" in report["diagnostics"]["failures"]
    assert len(report["per_source"]) == 4  # the four classes that still solved


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recover_invariant_ordering_failure_keeps_per_source_records(tmp_path, capsys, seed):
    # a random complex filter is not symmetric: every class solves, the ordering fails
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--d", "15", "--mode", "circulant", "--m", "3", "--levels", "6",
               "--seed", str(seed), "--include-truth", "--out", str(problem)) == 0
    assert run("recover", "--in", str(problem), "--mode", "invariant", "--assume-symmetric",
               "--out", str(out)) == 3
    assert "symmetric decreasing" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert set(report["per_source"]) == {"0", "1", "2", "3", "4"}
    assert len(report["recovered_spectrum"]) == 15
    # the partial spectrum passes its check; the refusal alone fails verify
    assert run("verify", "--in", str(problem), "--report", str(out)) == 1
    rows = {line.split()[0]: line.split()[3]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"recovery": "FAIL", "spectrum": "PASS"}


def test_recover_assume_symmetric_even_d_refuses_before_searching(tmp_path, capsys,
                                                                 monkeypatch):
    import dynspec.invariant as invariant_mod

    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--d", "16", "--mode", "circulant", "--m", "4", "--levels", "8",
               "--seed", "1", "--include-truth", "--out", str(problem)) == 0
    calls = []
    real = invariant_mod.search_sources
    monkeypatch.setattr(invariant_mod, "search_sources",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    capsys.readouterr()
    assert run("recover", "--in", str(problem), "--mode", "invariant", "--assume-symmetric",
               "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: symmetric ordering needs odd d, got 16\n"
    assert calls == []
    assert not out.exists()


def test_recover_assume_symmetric_is_ignored_for_m1(tmp_path, capsys):
    # m = 1 pins every value to its frequency, so even d needs no ordering
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--d", "8", "--m", "1", "--levels", "2", "--include-truth",
               "--seed", "1", "--out", str(problem)) == 0
    assert run("recover", "--in", str(problem), "--mode", "invariant", "--assume-symmetric",
               "--out", str(out)) == 0
    capsys.readouterr()
    assert run("verify", "--in", str(problem), "--report", str(out)) == 0
    rows = {line.split()[0]: line.split()[3]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"spectrum": "PASS", "filter": "PASS", "signal": "PASS"}


def test_recover_invariant_m1_recovers_filter_and_signal(tmp_path, capsys):
    # m = 1: class j is frequency j, so no ordering assumption is needed
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--d", "7", "--mode", "circulant", "--m", "1", "--levels", "2",
               "--include-truth", "--seed", "1", "--out", str(problem)) == 0
    assert run("recover", "--in", str(problem), "--mode", "invariant", "--out", str(out)) == 0
    capsys.readouterr()
    assert run("verify", "--in", str(problem), "--report", str(out)) == 0
    rows = {line.split()[0]: line.split()[3]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"spectrum": "PASS", "filter": "PASS", "signal": "PASS"}


def _gaussian_filter_file(tmp_path, d, seed=1):
    """Taps whose transfer values are i.i.d. complex Gaussian, scaled to
    largest modulus 1: unlike the random draw, nothing keeps them apart."""
    rng = np.random.default_rng(seed)
    a_hat = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    taps = dft(a_hat / np.max(np.abs(a_hat)), inverse=True)
    path = tmp_path / "gaussian-taps.json"
    path.write_text(json.dumps(taps.view(np.float64).reshape(-1, 2).tolist()))
    return path


def test_recover_general_merging_more_values_than_d_exits_3(tmp_path, capsys):
    problem = tmp_path / "p.json"
    out = tmp_path / "r.json"
    taps = _gaussian_filter_file(tmp_path, 16)
    assert run("simulate", "--mode", "circulant", "--d", "16", "--omega", "0,5",
               "--filter", "file", "--filter-file", str(taps),
               "--levels", "32", "--include-truth", "--seed", "1", "--out", str(problem)) == 0
    assert run("recover", "--in", str(problem), "--mode", "general", "--out", str(out)) == 3
    assert "error:" in capsys.readouterr().err
    report = json.loads(out.read_text())
    count = len(report["recovered_spectrum"])
    assert count > 16
    assert f"{count} values, more than d = 16" in report["diagnostics"]["failures"]["fatal"]
    assert set(report["per_source"]) == {"0", "5"}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recover_general_refuses_the_square_system(tmp_path, capsys, seed):
    # 50 levels for d = 96: the degree-25 system is square and fits any data
    problem = tmp_path / "p.json"
    out = tmp_path / "r.json"
    assert run("simulate", "--mode", "shift", "--d", "96", "--omega", "3", "--levels", "50",
               "--include-truth", "--seed", str(seed), "--out", str(problem)) == 0
    assert run("recover", "--in", str(problem), "--mode", "general", "--out", str(out)) == 3
    assert "error:" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert "square system" in report["diagnostics"]["failures"]["source 3"]
    assert report["per_source"] == {}


@pytest.mark.parametrize("simulate_args,recover_args", [
    (["--d", "15", "--mode", "circulant", "--filter", "diffusion", "--m", "3",
      "--levels", "6", "--include-truth"], ["--mode", "invariant", "--assume-symmetric"]),
    (["--d", "8", "--mode", "diagonalizable", "--omega", "0,3", "--levels", "16"],
     ["--mode", "general"]),
    (["--d", "8", "--mode", "diagonalizable", "--omega", "1,4", "--levels", "24"],
     ["--mode", "extrapolate"]),
    (["--d", "64", "--mode", "shift", "--sparsity", "5", "--omega", "17", "--levels", "10",
      "--include-truth"], ["--mode", "prony"]),
], ids=["invariant", "general", "extrapolate", "prony"])
def test_recover_report_is_deterministic(tmp_path, simulate_args, recover_args):
    problem = tmp_path / "p.json"
    assert run("simulate", *simulate_args, "--seed", "4", "--out", str(problem)) == 0
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "dynspec", "recover", "--in", str(problem),
                               *recover_args, "--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_simulate_filter_from_file(tmp_path):
    from dynspec.model import random_circulant

    op = random_circulant(9, 77)
    taps_file = tmp_path / "taps.json"
    taps_file.write_text(json.dumps(op.taps.view(np.float64).reshape(-1, 2).tolist()))
    out = tmp_path / "p.json"
    assert run("simulate", "--d", "9", "--mode", "circulant", "--filter", "file",
               "--filter-file", str(taps_file), "--m", "3", "--levels", "6",
               "--seed", "1", "--include-truth", "--out", str(out)) == 0
    problem = load_problem(str(out))
    assert np.max(np.abs(problem.truth_taps - op.taps)) < 1e-15


def test_simulate_filter_file_flag_required(tmp_path, capsys):
    code = run("simulate", "--d", "9", "--mode", "circulant", "--filter", "file",
               "--m", "3", "--levels", "6", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "filter-file" in capsys.readouterr().err


def test_simulate_sparsity_outside_shift_mode_rejected(tmp_path, capsys):
    code = run("simulate", "--d", "9", "--mode", "circulant", "--sparsity", "2",
               "--m", "3", "--levels", "6", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_filter_file_outside_file_filter_rejected(tmp_path, capsys):
    # the taps would be ignored: the filter is drawn, or the operator is the shift
    taps = tmp_path / "taps.json"
    taps.write_text(json.dumps([[1.0, 0.0]] * 9))
    out = tmp_path / "x.json"
    for extra in (["--filter", "random"], ["--filter", "diffusion"], ["--mode", "shift"],
                  ["--mode", "diagonalizable"]):
        assert run("simulate", "--d", "9", "--m", "3", "--levels", "6", *extra,
                   "--filter-file", str(taps), "--out", str(out)) == 2, extra
        assert capsys.readouterr().err == ("error: --filter-file only applies to --filter file "
                                           "in circulant mode\n")
    assert not out.exists()


# One case per row of the flag table, each naming the runs that read the flag.
_MISPLACED_FLAGS = [
    (["simulate", "--mode", "shift", "--filter", "diffusion", "--decay", "5"],
     ("simulate", "filter"), "--filter only applies to circulant mode"),
    (["simulate", "--mode", "diagonalizable", "--filter", "diffusion"],
     ("simulate", "filter"), "--filter only applies to circulant mode"),
    (["simulate", "--filter", "random", "--decay", "0.3"],
     ("simulate", "decay"), "--decay only applies to --filter diffusion"),
    (["simulate", "--mode", "shift", "--decay", "0.3"],
     ("simulate", "decay"), "--decay only applies to --filter diffusion"),
    (["simulate", "--filter", "random", "--filter-file", "taps.json"],
     ("simulate", "filter_file"), "--filter-file only applies to --filter file in circulant mode"),
    (["simulate", "--sparsity", "2"], ("simulate", "sparsity"),
     "--sparsity only applies to shift mode"),
    (["simulate", "--mode", "diagonalizable", "--include-truth"], ("simulate", "include_truth"),
     "--include-truth only applies to circulant and shift modes: ground truth for "
     "diagonalizable operators is not representable in the problem schema"),
    (["recover", "--mode", "general", "--assume-symmetric"], ("recover", "assume_symmetric"),
     "--assume-symmetric only applies to invariant mode"),
    (["recover", "--mode", "invariant", "--window", "3", "--sparsity", "2"],
     ("recover", "window"), "--window only applies to extrapolate mode"),
    (["recover", "--mode", "general", "--sparsity", "2"], ("recover", "sparsity"),
     "--sparsity only applies to prony mode"),
    (["recover", "--mode", "prony", "--dedup", "5"], ("recover", "dedup"),
     "--dedup only applies to invariant, general and extrapolate modes"),
]


def test_misplaced_flag_cases_cover_the_flag_table():
    rows = {(command, dest) for command, table in cli._FLAG_SCOPE.items()
            for dest, *_ in table}
    assert {row for _, row, _ in _MISPLACED_FLAGS} == rows


@pytest.mark.parametrize("argv,row,message", _MISPLACED_FLAGS,
                         ids=[" ".join(argv) for argv, *_ in _MISPLACED_FLAGS])
def test_flag_outside_its_runs_is_refused(tmp_path, capsys, monkeypatch, argv, row, message):
    # refused before any file is read: neither the problem nor the taps exist
    monkeypatch.chdir(tmp_path)
    command, *flags = argv
    where = (["--d", "15", "--m", "3", "--levels", "6"] if command == "simulate"
             else ["--in", "missing.json"])
    out = tmp_path / "out.json"
    assert run(command, *where, *flags, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("simulate_args,recover_args,held_out", [
    (["--m", "3", "--levels", "6"], [], 2),
    (["--omega", "2", "--levels", "27"], ["--window", "5"], 17),
], ids=["default-window", "window-5"])
def test_recover_extrapolate_refuses_a_recurrence_that_misses_held_out_levels(
        tmp_path, capsys, simulate_args, recover_args, held_out):
    # the window's square systems fit, but the recurrence does not reproduce
    # the later levels; accepting it returned 3 and 5 of the 9 values
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--d", "9", "--mode", "circulant", *simulate_args, "--seed", "3",
               "--include-truth", "--out", str(problem)) == 0
    capsys.readouterr()
    assert run("recover", "--in", str(problem), "--mode", "extrapolate", *recover_args,
               "--out", str(out)) == 3
    err = _single_error_line(capsys)
    assert f"misses the {held_out} held-out levels (held-out residual" in err
    fatal = json.loads(out.read_text())["diagnostics"]["failures"]["fatal"]
    assert err == f"error: {fatal}\n"


@pytest.mark.parametrize("scale,residual", [(1.0, "4.384e+02"), (1e200, "4.384e+02"),
                                            (1e-200, "4.384e+02"), (1e-320, "4.396e+02")],
                         ids=["1", "1e200", "1e-200", "1e-320"])
def test_recover_extrapolate_held_out_check_does_not_depend_on_the_scale(tmp_path, capsys, scale,
                                                                         residual):
    # the held-out miss is a ratio of norms: taken on the raw samples they
    # overflowed to NaN at 1e200 and underflowed to 0 at 1e-200, and both
    # passed the check, answering 12 of the 15 values with exit 0. At
    # 1e-320 the samples are subnormal and keep fewer bits, and the
    # power-of-two factor that scales them must not overflow
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--mode", "shift", "--d", "15", "--omega", "0,2,12", "--levels", "30",
               "--include-truth", "--seed", "7", "--out", str(problem)) == 0
    obj = json.loads(problem.read_text())
    obj["samples"] = [[[re * scale, im * scale] for re, im in level] for level in obj["samples"]]
    problem.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run("recover", "--in", str(problem), "--mode", "extrapolate", "--out", str(out)) == 3
    assert f"misses the 2 held-out levels (held-out residual {residual})" in _single_error_line(capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 2.0 ** 665, 2.0 ** -665])
def test_recover_prony_past_the_range_of_the_norms_is_quiet(tmp_path, capsys, scale):
    # samples times 1e200: the plain norms of the value fit overflowed, which
    # refused the run ("residual nan") and printed numpy's overflow warning.
    # The run answers the support of scale 1 and writes nothing to stderr
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--d", "64", "--mode", "shift", "--sparsity", "5", "--omega", "17",
               "--levels", "10", "--seed", "2", "--out", str(problem)) == 0
    assert run("recover", "--in", str(problem), "--mode", "prony", "--out", str(out)) == 0
    support = json.loads(out.read_text())["recovered_support"]
    obj = json.loads(problem.read_text())
    obj["samples"] = [[[re * scale, im * scale] for re, im in level] for level in obj["samples"]]
    problem.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run("recover", "--in", str(problem), "--mode", "prony", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["recovered_support"] == support


def test_recover_extrapolate_refuses_the_gaussian_case_it_answered_short(tmp_path, capsys):
    # i.i.d. Gaussian transfer values, one coordinate, window 9 = d: the
    # recurrence has 8 of the 9 values and misses the 9 held-out levels, so
    # the run is refused rather than answered short
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    taps = _gaussian_filter_file(tmp_path, 9)
    assert run("simulate", "--mode", "circulant", "--d", "9", "--omega", "2",
               "--filter", "file", "--filter-file", str(taps), "--levels", "27",
               "--include-truth", "--seed", "1", "--out", str(problem)) == 0
    capsys.readouterr()
    assert run("recover", "--in", str(problem), "--mode", "extrapolate", "--window", "9",
               "--out", str(out)) == 3
    assert "misses the 9 held-out levels (held-out residual" in _single_error_line(capsys)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recover_extrapolate_refuses_an_unchecked_square_fit(tmp_path, capsys, seed):
    # one coordinate, 16 levels, default window 8: degree 8 < d fills the
    # square system and no level is held out to check it; accepting it
    # answered 8 of the 16 values with exit 0
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--mode", "circulant", "--d", "16", "--omega", "0", "--levels", "16",
               "--include-truth", "--seed", str(seed), "--out", str(problem)) == 0
    capsys.readouterr()
    assert run("recover", "--in", str(problem), "--mode", "extrapolate", "--out", str(out)) == 3
    err = _single_error_line(capsys)
    fatal = json.loads(out.read_text())["diagnostics"]["failures"]["fatal"]
    assert "square system" in fatal and err == f"error: {fatal}\n"
    assert run("verify", "--in", str(problem), "--report", str(out)) == 1


@pytest.mark.parametrize("mode,window", [("general", None), ("extrapolate", None),
                                         ("extrapolate", "4")],
                         ids=["general", "extrapolate-square-fit", "extrapolate-held-out-miss"])
def test_verify_fails_a_refused_report_by_its_fatal_message(tmp_path, capsys, mode, window):
    # README's sparse-signal problem: every refusal fails verify with exit 1
    # and a FAIL row naming the message, whether or not the pipeline wrote
    # a partial estimate
    problem, out = tmp_path / "prony.json", tmp_path / "r.json"
    assert run("simulate", "--d", "64", "--mode", "shift", "--sparsity", "5", "--omega", "17",
               "--levels", "10", "--seed", "2", "--include-truth", "--out", str(problem)) == 0
    flags = [] if window is None else ["--window", window]
    assert run("recover", "--in", str(problem), "--mode", mode, *flags, "--out", str(out)) == 3
    fatal = json.loads(out.read_text())["diagnostics"]["failures"]["fatal"]
    capsys.readouterr()
    assert run("verify", "--in", str(problem), "--report", str(out)) == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows[0].split()[:4] == ["recovery", "inf", "1.0e-08", "FAIL"]
    assert rows[0].endswith(f"FAIL  ({fatal})")


@pytest.mark.parametrize("mode,sampler,levels", [
    ("general", ["--omega", "9"], "128"), ("extrapolate", ["--omega", "9"], "128"),
    ("invariant", ["--m", "2"], "4")], ids=["general", "extrapolate", "invariant"])
def test_verify_passes_a_partial_spectrum(tmp_path, capsys, mode, sampler, levels):
    # a 5-sparse signal under the shift excites 5 of its 64 eigenvalues, and
    # every pipeline answers exactly those: verify compares them with the
    # transfer values on the signal's support, not the whole spectrum
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--mode", "shift", "--d", "64", *sampler, "--sparsity", "5",
               "--levels", levels, "--include-truth", "--seed", "3", "--out", str(problem)) == 0
    assert run("recover", "--in", str(problem), "--mode", mode, "--out", str(out)) == 0
    capsys.readouterr()
    assert run("verify", "--in", str(problem), "--report", str(out)) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith("spectrum") and row.endswith("PASS  (5 vs 5 values)")


def test_recover_refuses_a_class_that_fits_only_below_its_failing_cap(tmp_path, capsys):
    # class 4 of this diffusion run fails at degrees 1, 2, 4 and the cap 5;
    # degree 3 fits, but rounding has broken the monotone degree pattern
    # there, so the search refuses instead of solving the degrees it skipped.
    # Accepting degree 3 answered 11 values of 8 with exit 0
    problem, out = tmp_path / "p.json", tmp_path / "r.json"
    assert run("simulate", "--d", "45", "--m", "5", "--filter", "diffusion", "--decay", "0.3",
               "--levels", "10", "--seed", "996941356", "--include-truth",
               "--out", str(problem)) == 0
    capsys.readouterr()
    assert run("recover", "--in", str(problem), "--mode", "invariant", "--out", str(out)) == 3
    assert _single_error_line(capsys) == (
        "error: classes [4] produced no annihilator of degree <= 5\n")
    failures = json.loads(out.read_text())["diagnostics"]["failures"]
    assert failures["source 4"] == ("no annihilator of degree <= 5 fits the sequence "
                                    "(best residual 1.186e-08)")


# ---------------------------------------------- errors name their file

def _single_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    return captured.err


@pytest.mark.parametrize("case", ["simulate-out", "recover-out", "recover-plot", "out-is-a-dir"])
def test_write_error_names_the_file_and_leaves_no_temp_file(tmp_path, capsys, case):
    problem = _simulate_diffusion(tmp_path)
    missing = tmp_path / "missing" / "f.json"
    target = tmp_path if case == "out-is-a-dir" else missing
    argv = {"simulate-out": ["simulate", "--d", "15", "--m", "3", "--levels", "6",
                             "--out", str(target)],
            "recover-out": ["recover", "--in", str(problem), "--mode", "invariant",
                            "--out", str(target)],
            "recover-plot": ["recover", "--in", str(problem), "--mode", "invariant",
                             "--out", str(tmp_path / "r.json"), "--plot", str(target)],
            "out-is-a-dir": ["recover", "--in", str(problem), "--mode", "invariant",
                             "--out", str(target)]}[case]
    capsys.readouterr()
    assert run(*argv) == 2
    err = _single_error_line(capsys)
    assert err.startswith(f"error: cannot write {target}: "), err
    assert not missing.parent.exists()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("key, value, message", [
    ("filter", float("nan"), "field 'ground_truth.filter': entries must be finite"),
    ("filter", float("inf"), "field 'ground_truth.filter': entries must be finite"),
    ("signal", -float("inf"), "field 'ground_truth.signal': entries must be finite"),
    ("signal", float("nan"), "field 'ground_truth.signal': entries must be finite"),
    (None, [1, 2], "ground_truth must be an object"),
    ("filter", 14, "ground-truth filter has length 14, expected 15"),
    ("signal", 3, "ground-truth signal has length 3, expected 15"),
], ids=["filter-nan", "filter-inf", "signal--inf", "signal-nan", "not-an-object",
        "short-filter", "short-signal"])
@pytest.mark.parametrize("command", ["recover", "verify"])
def test_malformed_ground_truth_names_the_file(tmp_path, capsys, command, key, value, message):
    path = _simulate_diffusion(tmp_path)
    report = tmp_path / "r.json"
    assert run("recover", "--in", str(path), "--mode", "invariant", "--out", str(report)) == 0
    obj = json.loads(path.read_text())
    if key is None:
        obj["ground_truth"] = value
    elif isinstance(value, int):  # keep the first ``value`` entries
        del obj["ground_truth"][key][value:]
    else:
        obj["ground_truth"][key][2][1] = value
    path.write_text(json.dumps(obj))
    out = tmp_path / "again.json"
    capsys.readouterr()
    argv = {"recover": ["recover", "--in", str(path), "--mode", "invariant", "--out", str(out)],
            "verify": ["verify", "--in", str(path), "--report", str(report)]}[command]
    assert run(*argv) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=repr)
def test_simulate_nonfinite_filter_file_names_the_file(tmp_path, capsys, value):
    taps = tmp_path / "taps.json"
    taps.write_text(json.dumps([[1.0, 0.0], [0.5, value], [0.0, 0.0]]))
    out = tmp_path / "p.json"
    assert run("simulate", "--d", "3", "--m", "1", "--levels", "2", "--filter", "file",
               "--filter-file", str(taps), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {taps}: entries must be finite\n"
    assert not out.exists()


def test_simulate_overflow_names_the_level_and_exits_2(tmp_path, capsys):
    # gain 2: 2^l times a standard normal signal overflows near level 1024
    taps = tmp_path / "taps.json"
    taps.write_text(json.dumps([[0, 0], [2, 0], [0, 0], [0, 0], [0, 0]]))
    out = tmp_path / "p.json"
    assert run("simulate", "--mode", "circulant", "--d", "5", "--m", "1", "--filter", "file",
               "--filter-file", str(taps), "--levels", "1200", "--out", str(out)) == 2
    assert re.fullmatch(r"error: the state overflows at level 10\d\d, the first with a non-finite "
                        r"sample; the operator's largest eigenvalue modulus is 2\n",
                        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=repr)
def test_recover_nonfinite_samples_names_the_file(tmp_path, capsys, value):
    path = _simulate_diffusion(tmp_path)
    obj = json.loads(path.read_text())
    obj["samples"][4][1][0] = value
    path.write_text(json.dumps(obj))
    out = tmp_path / "r.json"
    assert run("recover", "--in", str(path), "--mode", "invariant", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {path}: samples: entries must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["recover", "verify"])
def test_problem_file_that_is_not_an_object_names_the_file(tmp_path, capsys, command):
    good = _simulate_diffusion(tmp_path)
    report = tmp_path / "r.json"
    assert run("recover", "--in", str(good), "--mode", "invariant", "--out", str(report)) == 0
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps([good.read_text()]))
    out = tmp_path / "again.json"
    capsys.readouterr()
    argv = {"recover": ["recover", "--in", str(bad), "--mode", "invariant", "--out", str(out)],
            "verify": ["verify", "--in", str(bad), "--report", str(report)]}[command]
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: problem file must be a JSON object\n"
    assert not out.exists()


def test_recover_prony_on_uniform_sampler_exits_2(tmp_path, capsys):
    path = _simulate_diffusion(tmp_path)
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run("recover", "--in", str(path), "--mode", "prony", "--out", str(out)) == 2
    assert capsys.readouterr().err == ("error: prony mode requires an index sampler with "
                                       "exactly one coordinate\n")
    assert not out.exists()


def test_simulate_empty_omega_exits_2(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run("simulate", "--d", "9", "--omega", ",", "--levels", "6", "--out", str(out)) == 2
    err = _single_error_line(capsys)
    assert "argument --omega: expected at least one index" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_simulate_non_integer_env_seed_exits_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("DYNSPEC_SEED", value)
    out = tmp_path / "p.json"
    assert run("simulate", "--d", "9", "--m", "3", "--levels", "6", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: DYNSPEC_SEED must be an integer, got {value!r}\n"
    assert not out.exists()


def test_simulate_negative_env_seed_names_the_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DYNSPEC_SEED", "-1")
    out = tmp_path / "p.json"
    assert run("simulate", "--d", "9", "--m", "3", "--levels", "6", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: DYNSPEC_SEED must be non-negative, got -1\n"
    assert not out.exists()


# ----------------------------------------------- a command's own files

@pytest.mark.parametrize("case", ["plot-is-out", "plot-is-out-respelled", "out-is-in",
                                  "plot-is-in", "out-is-a-hard-link-of-in",
                                  "plot-is-a-symlink-to-out"])
def test_recover_refuses_to_write_over_its_own_files(tmp_path, capsys, monkeypatch, case):
    # refused before anything is read or written: the problem keeps its
    # bytes and no report or plot appears
    monkeypatch.chdir(tmp_path)
    problem = _simulate_diffusion(tmp_path)
    before = problem.read_bytes()
    os.link(problem, tmp_path / "hard.json")
    os.symlink(tmp_path / "r.json", tmp_path / "link.svg")
    out, plot, message = {
        "plot-is-out": ("r.json", "r.json", "--plot names the --out file r.json"),
        "plot-is-out-respelled": ("r.json", "./sub/../r.json",
                                  "--plot names the --out file r.json"),
        "out-is-in": (str(problem), None, f"--out names the --in file {problem}"),
        "plot-is-in": ("r.json", "p.json", f"--plot names the --in file {problem}"),
        "out-is-a-hard-link-of-in": ("hard.json", None, f"--out names the --in file {problem}"),
        "plot-is-a-symlink-to-out": ("r.json", "link.svg", "--plot names the --out file r.json"),
    }[case]
    (tmp_path / "sub").mkdir()
    capsys.readouterr()
    argv = ["recover", "--in", str(problem), "--mode", "invariant", "--out", out]
    assert run(*argv, *(["--plot", plot] if plot else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert problem.read_bytes() == before
    assert not (tmp_path / "r.json").exists()
    # the same run with distinct files writes both
    assert run(*argv[:-1], "r.json", "--plot", "s.svg") == 0
    assert (tmp_path / "s.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("out", ["taps.json", "./sub/../taps.json", "hard.json"])
def test_simulate_refuses_to_write_over_its_filter_file(tmp_path, capsys, monkeypatch, out):
    # refused before the taps are read, however often it is run: the taps
    # keep their bytes and the same run with another --out still reads them
    monkeypatch.chdir(tmp_path)
    taps = tmp_path / "taps.json"
    taps.write_text("[[1.0, 0.0]]\n")
    before = taps.read_bytes()
    os.link(taps, tmp_path / "hard.json")
    (tmp_path / "sub").mkdir()
    argv = ["simulate", "--d", "1", "--m", "1", "--levels", "2", "--filter", "file",
            "--filter-file", "taps.json", "--out"]
    for _ in range(2):
        assert run(*argv, out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out names the --filter-file file taps.json\n"
        assert taps.read_bytes() == before
    assert run(*argv, "p.json") == 0
    assert taps.read_bytes() == before and (tmp_path / "p.json").is_file()


# ----------------------------------------------- one parser per process

def test_main_repeated_in_one_process_gives_the_first_calls_results(tmp_path, capsys,
                                                                    monkeypatch):
    # the parser is built by the first main() of the process and reused;
    # no call may leave state behind for the next
    monkeypatch.chdir(tmp_path)
    job = [["simulate", "--mode", "shift", "--d", "15", "--m", "3", "--levels", "6",
            "--seed", "4", "--include-truth", "--out", "p.json"],
           ["recover", "--in", "p.json", "--mode", "invariant", "--out", "r.json"],
           ["verify", "--in", "p.json", "--report", "r.json"],
           # refused (exit 3), and its report then fails verify (exit 1)
           ["recover", "--in", "p.json", "--mode", "general", "--dedup", "1e-4",
            "--out", "g.json"],
           ["verify", "--in", "p.json", "--report", "g.json", "--tol", "1e-3"]]
    usage = [["recover", "--mode", "invariant"], ["simulate", "--omega", "a"], [],
             ["recover", "--help"]]
    refusals = [argv + (["--d", "15", "--m", "3", "--levels", "6"] if argv[0] == "simulate"
                        else ["--in", "missing.json"]) + ["--out", "unused.json"]
                for argv, _row, _message in _MISPLACED_FLAGS]
    calls = job + usage + job + refusals + refusals + job

    def results():
        got = []
        for argv in calls:
            code = main(list(argv))
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got, {name: (tmp_path / name).read_bytes()
                     for name in ("p.json", "r.json", "g.json")}

    cli._build_parser.cache_clear()
    first, files = results()
    assert [code for code, *_ in first[:5]] == [0, 0, 0, 3, 1]
    assert [code for code, *_ in first[5:9]] == [2, 2, 2, 0]
    assert all(code == 2 for code, *_ in first[14:14 + 2 * len(refusals)])
    # every call after the first gives what the first call with its argv gave
    for argv, result in zip(calls, first):
        assert result == first[calls.index(argv)], argv
    assert results() == (first, files)
    assert not (tmp_path / "unused.json").exists()

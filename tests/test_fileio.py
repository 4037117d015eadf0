import json
import os
import re

import numpy as np
import pytest

from dynspec.errors import FileFormatError
from dynspec.fileio import (atomic_write_json, complex_to_pairs, load_problem,
                            load_report, pairs_to_complex, save_problem)
from dynspec.model import IndexSet, Uniform, random_circulant, random_signal, simulate


def test_complex_pairs_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    values[:3] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    # through an actual JSON text pass, not just the converters
    text = json.dumps(complex_to_pairs(values))
    back = pairs_to_complex(json.loads(text))
    assert back.dtype == np.complex128 and back.tobytes() == values.tobytes()
    # JSON integers, however large, load as the numbers float() gives
    assert pairs_to_complex([[2, -3], [2**70, 0]]).tolist() == [2 - 3j, 2.0**70]


def test_problem_round_trip_preserves_everything(tmp_path):
    op = random_circulant(9, 1)
    x = random_signal(9, 2)
    samples = simulate(op, x, IndexSet((0, 4, 7)), 5)
    path = tmp_path / "p.json"
    save_problem(str(path), samples, truth_taps=op.taps, truth_signal=x)
    problem = load_problem(str(path))
    assert problem.sample_set.d == 9
    assert problem.sample_set.sampler == samples.sampler
    assert np.array_equal(problem.sample_set.samples, samples.samples)
    assert np.array_equal(problem.truth_taps, op.taps)
    assert np.array_equal(problem.truth_signal, x)


def test_problem_missing_fields_rejected(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"schema_version": "dynspec-1", "d": 4}))
    with pytest.raises(FileFormatError):
        load_problem(str(path))


def test_problem_wrong_schema_rejected(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"schema_version": "dynspec-0"}))
    with pytest.raises(FileFormatError):
        load_problem(str(path))


def test_problem_inconsistent_level_count_rejected(tmp_path):
    op = random_circulant(6, 3)
    samples = simulate(op, random_signal(6, 4), IndexSet((1,)), 4)
    path = tmp_path / "p.json"
    save_problem(str(path), samples)
    obj = json.loads(path.read_text())
    obj["L_total"] = 3
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError):
        load_problem(str(path))


@pytest.mark.parametrize("d", [0, -3])
def test_problem_nonpositive_dimension_rejected(tmp_path, d):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"schema_version": "dynspec-1", "d": d, "L_total": 2,
                                "sampler": {"type": "uniform", "m": 1}, "samples": [[], []]}))
    with pytest.raises(FileFormatError, match=f"d={d}"):
        load_problem(str(path))


def _problem_json(tmp_path, sampler):
    """Path of a valid saved problem on ``sampler``, and its JSON object."""
    samples = simulate(random_circulant(6, 3), random_signal(6, 4), sampler, 4)
    path = tmp_path / "p.json"
    save_problem(str(path), samples)
    return path, json.loads(path.read_text())


NON_INTEGERS = [15.9, "15", True, None, 2.5, [1.5]]


@pytest.mark.parametrize("value", NON_INTEGERS, ids=repr)
@pytest.mark.parametrize("field", ["d", "L_total", "sampler.m", "sampler.omega"])
def test_problem_non_integer_field_rejected(tmp_path, field, value):
    path, obj = _problem_json(tmp_path, Uniform(3) if field == "sampler.m" else IndexSet((1,)))
    if field == "sampler.m":
        obj["sampler"]["m"] = value
    elif field == "sampler.omega":
        obj["sampler"]["omega"] = [1, value]
    else:
        obj[field] = value
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: field '{field}' "
                                              "must be an integer, got "):
        load_problem(str(path))


@pytest.mark.parametrize("value", NON_INTEGERS, ids=repr)
def test_report_non_integer_support_rejected(tmp_path, value):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema_version": "dynspec-1", "mode": "prony",
                                "recovered_support": [6, value]}))
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: field "
                                              "'recovered_support' must be an integer, got "):
        load_report(str(path))


NON_NUMBERS = ["1e0", True, None, [1]]


@pytest.mark.parametrize("value", NON_NUMBERS, ids=repr)
@pytest.mark.parametrize("field", ["samples", "ground_truth.filter", "ground_truth.signal"])
def test_problem_non_number_value_rejected(tmp_path, field, value):
    # float("1e0") and float(True) would load these as numbers
    samples = simulate(random_circulant(6, 3), random_signal(6, 4), IndexSet((1,)), 4)
    path = tmp_path / "p.json"
    save_problem(str(path), samples, truth_taps=np.ones(6), truth_signal=np.ones(6))
    obj = json.loads(path.read_text())
    if field == "samples":
        obj["samples"][0][0] = [value, 0.5]
    else:
        obj["ground_truth"][field.split(".")[1]][2] = [0.5, value]
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: field '{field}': "
                                              "expected a list of \\[re, im\\] pairs of numbers$"):
        load_problem(str(path))


@pytest.mark.parametrize("level, message", [
    ([[0.5, 0.5], [0.5, 0.5]], "ragged sample levels"),
    ([], "ragged sample levels"),
    (1.5, "field 'samples': expected a list of [re, im] pairs of numbers"),
    ("ab", "field 'samples': expected a list of [re, im] pairs of numbers"),
    (None, "field 'samples': expected a list of [re, im] pairs of numbers"),
], ids=["two-pairs", "empty", "number", "string", "null"])
def test_problem_malformed_sample_level_rejected(tmp_path, level, message):
    samples = simulate(random_circulant(6, 3), random_signal(6, 4), IndexSet((1,)), 4)
    path = tmp_path / "p.json"
    save_problem(str(path), samples)
    obj = json.loads(path.read_text())
    obj["samples"][2] = level
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_problem(str(path))


@pytest.mark.parametrize("value", NON_NUMBERS + [[1, 2, 3], "ab", 1.5], ids=repr)
def test_pairs_to_complex_rejects_non_number_pairs(value):
    with pytest.raises(FileFormatError, match="^x: expected a list of"):
        pairs_to_complex([[1, 2], value], "x")
    with pytest.raises(FileFormatError, match="^x: expected a list of"):
        pairs_to_complex(value, "x")


def test_pairs_to_complex_number_out_of_range_rejected():
    with pytest.raises(FileFormatError, match="^x: number out of range$"):
        pairs_to_complex([[10**400, 0]], "x")


@pytest.mark.parametrize("sampler, message", [
    ({"type": "uniform"}, "uniform sampler is missing field 'm'"),
    ({"type": "indices"}, "indices sampler is missing field 'omega'"),
    ({"type": "weird"}, "unknown sampler type 'weird'"),
    ([1, 2], "sampler must be an object with a 'type' field"),
], ids=["uniform-without-m", "indices-without-omega", "unknown-type", "not-an-object"])
def test_problem_sampler_missing_parameter_rejected(tmp_path, sampler, message):
    op = random_circulant(6, 3)
    samples = simulate(op, random_signal(6, 4), IndexSet((1,)), 4)
    path = tmp_path / "p.json"
    save_problem(str(path), samples)
    obj = json.loads(path.read_text())
    obj["sampler"] = sampler
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_problem(str(path))


def test_atomic_write_failure_removes_temp_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    target = tmp_path / "r.json"
    with pytest.raises(OSError, match="rename failed"):
        atomic_write_json(str(target), {"mode": "general"})
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_leaves_no_temp_files(tmp_path):
    op = random_circulant(6, 5)
    samples = simulate(op, random_signal(6, 6), IndexSet((0,)), 2)
    save_problem(str(tmp_path / "p.json"), samples)
    leftovers = [f for f in tmp_path.iterdir() if f.suffix == ".tmp"]
    assert leftovers == []

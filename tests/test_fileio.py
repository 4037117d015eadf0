import json
import math
import os
import re
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynspec import config, fileio
from dynspec.cli import main
from dynspec.errors import FileFormatError, RecoveryError
from dynspec.fileio import (atomic_write_json, atomic_write_text, load_problem, load_report,
                            pairs_to_complex, save_problem, save_report)
from dynspec.invariant import recover_operator
from dynspec.model import (IndexSet, Uniform, make_diffusion_filter, random_circulant,
                           random_diagonalizable, random_signal, shift_operator, simulate)
from dynspec.prony import prony_support, random_sparse_signal
from dynspec.spectral import (SpectrumEstimate, recover_observable_spectrum,
                              recover_spectrum_via_extrapolation)


def test_complex_pairs_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    values[:3] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    # through an actual JSON text pass, not just the converters
    back = pairs_to_complex(json.loads(_written(values)))
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


def _estimate(case):
    """One estimate of each recovery mode, as ``recover`` computes it."""
    if case == "invariant-symmetric":  # filter recovered, signal refused
        samples = simulate(make_diffusion_filter(15, 0.1), random_signal(15, 1), Uniform(3), 6)
        return "invariant", recover_operator(samples, True)
    if case == "invariant-m1":  # filter and signal recovered
        samples = simulate(random_circulant(7, 2), random_signal(7, 3), Uniform(1), 2)
        return "invariant", recover_operator(samples)
    if case == "general":
        samples = simulate(random_diagonalizable(8, 4), random_signal(8, 5), IndexSet((0, 3)), 16)
        return "general", recover_observable_spectrum(samples)
    if case == "extrapolate":
        samples = simulate(random_circulant(9, 16), random_signal(9, 17), IndexSet((0,)), 18)
        return "extrapolate", recover_spectrum_via_extrapolation(samples, 9)
    if case == "prony":
        x, _ = random_sparse_signal(64, 5, np.random.default_rng(6))
        samples = simulate(shift_operator(64), x, IndexSet((17,)), 10)
        return "prony", prony_support(samples)
    # a random filter is not symmetric: every class solves, the ordering fails
    samples = simulate(random_circulant(15, 7), random_signal(15, 8), Uniform(3), 6)
    with pytest.raises(RecoveryError) as info:
        recover_operator(samples, True)
    return "invariant", info.value.partial


@pytest.mark.parametrize("case", ["invariant-symmetric", "invariant-m1", "general",
                                  "extrapolate", "prony", "partial"])
def test_report_round_trip_is_bit_exact(tmp_path, case):
    mode, estimate = _estimate(case)
    path = tmp_path / "r.json"
    fatal = "ordering failed" if case == "partial" else None
    save_report(str(path), mode, config.TAU_SOLVE, config.DEDUP_REL, estimate, fatal=fatal)
    report = load_report(str(path))
    assert report.mode == mode
    assert report.spectrum.dtype == np.complex128
    assert report.spectrum.tobytes() == estimate.merged.tobytes()
    assert report.support == estimate.support
    for got, sent in ((report.taps, estimate.taps), (report.signal, estimate.signal)):
        assert (got is None) == (sent is None)
        assert got is None or got.tobytes() == np.asarray(sent, dtype=np.complex128).tobytes()
    present = {"invariant-symmetric": ("taps",), "invariant-m1": ("taps", "signal"),
               "prony": ("support", "signal")}.get(case, ())
    assert {name for name in ("support", "taps", "signal")
            if getattr(report, name) is not None} == set(present)
    per_source = json.loads(path.read_text())["per_source"]
    assert list(per_source) == sorted(str(src) for src in estimate.per_source)
    for src, roots in estimate.per_source.items():
        entry = per_source[str(src)]
        assert entry["degree"] == roots.size
        assert pairs_to_complex(entry["roots"]).tobytes() == roots.tobytes()


@pytest.mark.parametrize("sources", [{}, {0: 0}, {3: 2, 0: 0, 1: 3, 12: 1}])
def test_report_slices_each_sources_roots(tmp_path, sources):
    # each source's roots are its slice of one conversion: rows of a
    # strided stack, empty lists and no sources at all write what one
    # conversion per source writes
    rng = np.random.default_rng(len(sources))
    stack = (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))[:, ::2]
    per_source = {src: stack[row % 4, :size] for row, (src, size) in enumerate(sources.items())}
    estimate = SpectrumEstimate(per_source, stack[0], 1e-6)
    path = tmp_path / "r.json"
    save_report(str(path), "general", config.TAU_SOLVE, config.DEDUP_REL, estimate)
    expected = {str(src): {"degree": roots.size, "roots": fileio._complex_pairs(roots)}
                for src, roots in per_source.items()}
    assert json.loads(path.read_text())["per_source"] == expected


def test_report_without_estimate_has_no_recovered_fields(tmp_path):
    path = tmp_path / "r.json"
    save_report(str(path), "general", 1e-8, config.DEDUP_REL, fatal="no samples")
    report = load_report(str(path))
    assert (report.mode, report.spectrum, report.support, report.taps, report.signal) == (
        "general", None, None, None, None)
    assert json.loads(path.read_text())["diagnostics"]["failures"] == {"fatal": "no samples"}


@pytest.mark.parametrize("fatal", [None, "no samples"])
def test_report_fatal_message_round_trips(tmp_path, fatal):
    path = tmp_path / "r.json"
    save_report(str(path), "extrapolate", 1e-8, config.DEDUP_REL, fatal=fatal)
    assert load_report(str(path)).fatal == fatal


@pytest.mark.parametrize("field", ["recovered_spectrum", "recovered_filter", "recovered_signal"])
def test_report_non_number_value_rejected(tmp_path, field):
    # float("1e0") would load the string as a number
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema_version": "dynspec-1", "mode": "invariant",
                                field: [[0.5, 0.5], ["1e0", 0.0]]}))
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: field '{field}': "
                                              "expected a list of \\[re, im\\] pairs of numbers$"):
        load_report(str(path))


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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_json(str(tmp_path / "r.json"), {"mode": "general"})
        with open(tmp_path / "plain.json", "w"):
            pass
    finally:
        os.umask(old)
    assert (tmp_path / "r.json").stat().st_mode & 0o777 == mode
    assert (tmp_path / "plain.json").stat().st_mode & 0o777 == mode


def test_atomic_write_never_sets_the_umask(tmp_path, monkeypatch):
    # the umask belongs to the whole process: setting it, even to read it
    # back, changes the mode of files other threads create meanwhile
    def fail(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", fail)
    atomic_write_json(str(tmp_path / "r.json"), {"mode": "general"})
    assert json.loads((tmp_path / "r.json").read_text()) == {"mode": "general"}
    assert [f.name for f in tmp_path.iterdir()] == ["r.json"]


def test_atomic_write_leaves_other_threads_files_alone(tmp_path):
    # a writer thread loops while this thread creates files: every file
    # must get 0o666 less the umask, the writer's too
    old_mask, old_interval = os.umask(0o022), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            atomic_write_text(str(tmp_path / "w.json"), "{}\n")

    thread = threading.Thread(target=writer)
    try:
        thread.start()
        for i in range(2000):
            with open(tmp_path / f"plain{i}", "w"):
                pass
    finally:
        stop.set()
        thread.join(timeout=10)
        sys.setswitchinterval(old_interval)
        os.umask(old_mask)
    assert not thread.is_alive()
    modes = {f.name: f.stat().st_mode & 0o777 for f in tmp_path.iterdir()}
    assert len(modes) == 2001 and set(modes.values()) == {0o644}


def test_atomic_write_leaves_no_temp_files(tmp_path):
    op = random_circulant(6, 5)
    samples = simulate(op, random_signal(6, 6), IndexSet((0,)), 2)
    save_problem(str(tmp_path / "p.json"), samples)
    leftovers = [f for f in tmp_path.iterdir() if f.suffix == ".tmp"]
    assert leftovers == []


# ------------------------------------------------------------ the writer

def _oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _written(obj) -> str:
    """The text ``atomic_write_json`` writes of ``obj``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        atomic_write_json(path, obj)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


_texts = st.text(st.characters(codec=None), max_size=6) | st.sampled_from(
    ["", "\x00\x1f\x7f", "\"\\/\b\f\n\r\t", "\u00e9\u2028\U0001f600", "NaN"])
_floats = st.floats() | st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, 1e16, 1e-7])
_numbers = _floats | st.integers(-(2 ** 200), 2 ** 200)
# pair lists: mostly all-float pairs, the shape the arrays are written
# in, and some with an int, a non-finite value, a bool or a ragged entry
_pair = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2)
_odd_pair = (st.tuples(_numbers | st.booleans(), _numbers).map(list)
             | st.lists(_floats, max_size=3))
_pair_lists = st.lists(_pair | _odd_pair, min_size=1, max_size=4) | st.lists(_pair, max_size=4)
_leaves = _texts | _numbers | st.booleans() | st.none() | _pair_lists
_trees = st.recursive(_leaves, lambda children: st.lists(children, max_size=4)
                      | st.dictionaries(_texts, children, max_size=4), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(obj=_trees)
def test_writer_matches_json_dumps(obj):
    assert _written(obj) == _oracle(obj)


@pytest.mark.parametrize("items", [
    [[1.0, 2]], [[1, 2.0]], [[True, 2.0]], [[math.nan, 1.0]], [[1.0, math.inf]],
    [[-math.inf, 1.0]], [[1.0]], [[1.0, 2.0, 3.0]], [[1.0, 2.0], [3.0]], [[1.0, 2.0], 3.0],
    [[np.float64(1.0), 2.0]], [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]],
], ids=["int-im", "int-re", "bool", "nan", "inf", "-inf", "short", "long", "ragged",
        "bare-number", "float-subclass", "pairs-of-pairs"])
def test_writer_sends_other_pair_lists_to_the_generic_path(items, monkeypatch):
    # only complex arrays go through the writer's hook; lists, whatever
    # they hold, are json's own, and float64 is written as a float
    monkeypatch.setattr(fileio, "_complex_pairs", None)
    assert _written(items) == _oracle(items)
    assert _written({"a": [items]}) == _oracle({"a": [items]})


def test_writer_pair_list_path_is_byte_identical():
    # an array is written as its list of pairs, at every magnitude
    values = np.random.default_rng(3).standard_normal(64) * 10.0 ** np.arange(-32, 32)
    values[:4] = [-0.0, 5e-324, 1e300, -1e-300]
    items = values.reshape(-1, 2).tolist()
    assert _written(values.view(np.complex128)) == _oracle(items)
    assert _written({"b": {"a": values.view(np.complex128)}}) == _oracle({"b": {"a": items}})


def _pairs(arr):
    """The nested list of [re, im] pairs that a complex array stands for."""
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


_grid = (np.arange(24) - 11.5).reshape(4, 6) + 1j * (np.arange(24) * 1e-3).reshape(4, 6)
_special = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -5e-324),
                     complex(1e300, -1e-300), complex(-1e300, 1e-300), 2.5 + 0.1j])
_nonfinite = np.array([complex(math.nan, 1.0), complex(1.0, math.inf),
                       complex(-math.inf, math.nan), 0.5 - 0.25j])


@pytest.mark.parametrize("arr", [
    _grid[0], _grid, np.zeros(0, dtype=np.complex128), np.zeros((0, 3), dtype=np.complex128),
    np.zeros((3, 0), dtype=np.complex128), _grid[:, 1], _grid[::2, ::-3],
    np.asfortranarray(_grid), _grid.T, _special, _nonfinite, _nonfinite.reshape(2, 2),
], ids=["1-D", "2-D", "empty", "no-rows", "empty-rows", "strided", "strided-2-D", "fortran",
        "transposed", "zeros-subnormal-huge-tiny", "nan-inf", "nan-inf-2-D"])
def test_writer_writes_a_complex_array_as_its_pair_list(arr):
    assert _written(arr) == _oracle(_pairs(arr))
    assert _written({"b": [arr, 1.0], "a": arr}) == _oracle({"b": [_pairs(arr), 1.0],
                                                             "a": _pairs(arr)})


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_floats, max_size=24), rows=st.integers(1, 3))
def test_writer_array_matches_json_dumps(values, rows):
    arr = np.array(values[:len(values) // (2 * rows) * 2 * rows]).view(np.complex128)
    assert _written(arr) == _oracle(_pairs(arr))
    assert _written(arr.reshape(rows, -1)) == _oracle(_pairs(arr.reshape(rows, -1)))


_roots = st.lists(st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
                  max_size=8).map(lambda v: np.array(v[:len(v) // 2 * 2]).view(np.complex128))
_layout = st.sampled_from(["contiguous", "every-other", "reversed"])


def _laid_out(arr, layout):
    """``arr`` itself, or a strided view holding the same values."""
    if layout == "contiguous":
        return arr
    if layout == "reversed":
        return arr[::-1].copy()[::-1]
    wide = np.zeros(2 * arr.size, dtype=np.complex128)
    wide[::2] = arr
    return wide[::2]


@settings(max_examples=200, deadline=None)
@given(records=st.lists(st.tuples(_roots, _layout, _floats), max_size=40))
def test_writer_per_source_records_match_json_dumps(records):
    # the shape of a report's per_source block: one small record per
    # source, each a degree, a residual and a 1-D array of 0-4 roots
    tree, expected = {}, {}
    for src, (roots, layout, residual) in enumerate(records):
        view = _laid_out(roots, layout)
        assert np.array_equal(view, roots, equal_nan=True)
        tree[str(src)] = {"degree": roots.size, "roots": view, "residual": residual}
        expected[str(src)] = {"degree": roots.size, "roots": _pairs(roots),
                              "residual": residual}
    report = {"mode": "invariant", "per_source": tree}
    assert _written(report) == _oracle({"mode": "invariant", "per_source": expected})


class _Subclass(np.ndarray):
    pass


@pytest.mark.parametrize("arr", [
    np.ones(3), np.ones(3, dtype=np.complex64), np.ones(3, dtype=">c16"), np.arange(3),
    np.array([1j], dtype=object), np.array(1j), np.ones(3, dtype=np.complex128).view(_Subclass),
    np.complex128(1j),
], ids=["float64", "complex64", "big-endian", "int", "object", "0-d", "subclass", "scalar"])
def test_writer_refuses_other_arrays(arr, tmp_path):
    for obj in (arr, {"a": [arr]}):
        with pytest.raises(TypeError):
            atomic_write_json(str(tmp_path / "r.json"), obj)
    assert list(tmp_path.iterdir()) == []


def test_writer_spells_true_false_none_as_json():
    obj = {"t": True, "f": False, "n": None, "l": [True, 1, False, 0, None], "one": 1}
    assert _written(obj) == _oracle(obj)
    assert (_written(True), _written(False), _written(None)) == ("true\n", "false\n", "null\n")


@pytest.mark.parametrize("obj", [{"a": {1, 2}}, b"x", [np.int64(3)], {"a": np.complex128(1j)}],
                         ids=["set", "bytes", "np-int", "np-complex"])
def test_writer_refuses_types_the_file_formats_do_not_use(obj, tmp_path):
    with pytest.raises(TypeError):
        atomic_write_json(str(tmp_path / "r.json"), {"mode": "general", "x": obj})
    assert list(tmp_path.iterdir()) == []


def test_cli_files_equal_json_dumps_of_their_content(tmp_path, capsys):
    # invariant and prony successes, and a general-mode exit-3 report
    # that records failures
    runs = {
        "invariant": (["--d", "15", "--mode", "circulant", "--filter", "diffusion", "--m", "3",
                       "--levels", "6"], ["--mode", "invariant", "--assume-symmetric"], 0),
        "prony": (["--d", "64", "--mode", "shift", "--omega", "5", "--sparsity", "4",
                   "--levels", "8"], ["--mode", "prony"], 0),
        "general": (["--d", "96", "--mode", "shift", "--omega", "3", "--levels", "50"],
                    ["--mode", "general"], 3),
    }
    for name, (sim, rec, code) in runs.items():
        problem, report = tmp_path / f"{name}.problem.json", tmp_path / f"{name}.report.json"
        assert main(["simulate", *sim, "--include-truth", "--seed", "1",
                     "--out", str(problem)]) == 0
        assert main(["recover", "--in", str(problem), *rec, "--out", str(report)]) == code
        for path in (problem, report):
            text = path.read_text()
            assert text == _oracle(json.loads(text)), path.name
    assert json.loads(report.read_text())["diagnostics"]["failures"]


def _same_arrays(a, b) -> bool:
    return (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes())


def test_files_in_the_indented_layout_load_and_verify_alike(tmp_path, capsys):
    # files written with indent=2, the layout before the one-line one,
    # load to the same Problem and Report to the bit, and verify gives
    # the same exit code and rows on them: a pass (0) and a refused run's
    # report (1)
    runs = [(["--d", "15", "--m", "3", "--levels", "6"], ["--mode", "invariant"], 0),
            (["--d", "64", "--mode", "shift", "--omega", "5", "--sparsity", "4",
              "--levels", "8"], ["--mode", "prony"], 0),
            (["--d", "96", "--mode", "shift", "--omega", "3", "--levels", "50"],
             ["--mode", "general"], 1)]
    for sim, rec, code in runs:
        problem, report = tmp_path / "problem.json", tmp_path / "report.json"
        assert main(["simulate", *sim, "--include-truth", "--seed", "1",
                     "--out", str(problem)]) == 0
        main(["recover", "--in", str(problem), *rec, "--out", str(report)])
        for path in (problem, report):
            indented = tmp_path / f"indented-{path.name}"
            indented.write_text(json.dumps(json.loads(path.read_text()), indent=2,
                                           sort_keys=True) + "\n")
            assert indented.read_text() != path.read_text()
        new = load_problem(str(problem))
        old = load_problem(str(tmp_path / "indented-problem.json"))
        assert (new.sample_set.d, new.sample_set.sampler) == (old.sample_set.d,
                                                               old.sample_set.sampler)
        assert new.sample_set.samples.tobytes() == old.sample_set.samples.tobytes()
        assert _same_arrays(new.truth_taps, old.truth_taps)
        assert _same_arrays(new.truth_signal, old.truth_signal)
        new, old = load_report(str(report)), load_report(str(tmp_path / "indented-report.json"))
        assert (new.mode, new.support, new.fatal) == (old.mode, old.support, old.fatal)
        for name in ("spectrum", "taps", "signal"):
            assert _same_arrays(getattr(new, name), getattr(old, name)), name
        capsys.readouterr()
        outputs = []
        for prefix in ("", "indented-"):
            got = main(["verify", "--in", str(tmp_path / f"{prefix}problem.json"),
                        "--report", str(tmp_path / f"{prefix}report.json")])
            outputs.append((got, capsys.readouterr()))
        assert outputs[0] == outputs[1] and outputs[0][0] == code
        assert outputs[0][1].out.startswith("check")


@pytest.mark.parametrize("shape", [(3,), (2, 3), (0,), (257,)],
                         ids=["per-source", "2-D", "empty", "past-the-cache"])
def test_saves_in_one_process_reuse_no_stale_template(tmp_path, shape):
    # two saves in one process, of the same shapes at other depths and
    # with other values, must each write exactly what json.dumps writes
    # (the case names are those of a writer that cached the text of
    # arrays of up to 256 values)
    rng = np.random.default_rng(sum(shape))
    for save in range(2):
        arrays = [(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** save
                  for _ in range(3)]
        tree = {"a": arrays[0], "b": {"c": [arrays[1], {"d": arrays[2]}]},
                "e": [{"f": arrays[save]}] * save}
        expected = {"a": _pairs(arrays[0]), "b": {"c": [_pairs(arrays[1]),
                                                        {"d": _pairs(arrays[2])}]},
                    "e": [{"f": _pairs(arrays[save])}] * save}
        path = tmp_path / f"save{save}.json"
        atomic_write_json(str(path), tree)
        assert path.read_text() == _oracle(expected)

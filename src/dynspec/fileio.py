"""Problem and report files.

Both are JSON with complex numbers stored as [re, im] pairs. Floats are
written with Python's round-trip repr, so save -> load is exact to the
bit for finite values, and key order is fixed, so identical content means
identical bytes. Writes go through a temp file plus rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import FileFormatError
from .model import IndexSet, SampleSet, Uniform

SCHEMA_VERSION = "dynspec-1"
_JSON_NUMBERS = frozenset({int, float})
_PAIRS_EXPECTED = "expected a list of [re, im] pairs of numbers"


def complex_to_pairs(values) -> list:
    arr = np.asarray(values, dtype=np.complex128).ravel()
    return arr.view(np.float64).reshape(-1, 2).tolist()


def _flatten(rows, name: str) -> tuple[set, list]:
    """The lengths of a list of lists, as a set, and their entries in
    order; anything else raises FileFormatError."""
    try:
        if type(rows) is list:
            return set(map(len, rows)), list(chain.from_iterable(rows))
    except TypeError:
        pass
    raise FileFormatError(f"{name}: {_PAIRS_EXPECTED}")


def pairs_to_complex(pairs, name: str = "value list") -> np.ndarray:
    """A list of [re, im] pairs of JSON numbers as a complex array.

    Only ``int`` and ``float`` entries are accepted: strings, booleans,
    null and lists are refused rather than converted (``float("1e0")``
    and ``float(True)`` would load them as numbers). ``name`` leads the
    error message, so callers pass the file and the field. The checks
    run as set-of-types scans, which cost less than a Python loop over
    thousands of pairs."""
    widths, flat = _flatten(pairs, name)
    if not widths <= {2} or not set(map(type, flat)) <= _JSON_NUMBERS:
        raise FileFormatError(f"{name}: {_PAIRS_EXPECTED}")
    try:
        return np.array(flat, dtype=np.float64).view(np.complex128)
    except OverflowError as exc:
        raise FileFormatError(f"{name}: number out of range") from exc


def atomic_write_json(path: str, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc


def _load_document(path: str, kind: str) -> dict:
    """A problem or report file (``kind``) as a JSON object carrying the
    current schema version."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: {kind} file must be a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise FileFormatError(
            f"{path}: schema_version {obj.get('schema_version')!r}, expected {SCHEMA_VERSION!r}")
    return obj


def _json_int(value, path: str, name: str) -> int:
    """A JSON integer field; floats, strings, booleans and null are refused
    rather than truncated or converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(
            f"{path}: field {name!r} must be an integer, got {json.dumps(value)}")
    return value


def _sampler_to_json(sampler):
    if isinstance(sampler, Uniform):
        return {"type": "uniform", "m": sampler.m}
    return {"type": "indices", "omega": [int(i) for i in sampler.omega]}


def _sampler_from_json(obj, path: str):
    if not isinstance(obj, dict) or "type" not in obj:
        raise FileFormatError(f"{path}: sampler must be an object with a 'type' field")
    try:
        if obj["type"] == "uniform":
            return Uniform(_json_int(obj["m"], path, "sampler.m"))
        if obj["type"] == "indices":
            omega = obj["omega"]
            if not isinstance(omega, list):
                raise FileFormatError(f"{path}: field 'sampler.omega' must be a list")
            return IndexSet(tuple(_json_int(i, path, "sampler.omega") for i in omega))
    except KeyError as exc:
        raise FileFormatError(f"{path}: {obj['type']} sampler is missing field {exc}") from exc
    raise FileFormatError(f"{path}: unknown sampler type {obj['type']!r}")


@dataclass(frozen=True, eq=False)
class Problem:
    """A loaded problem file: the sample set plus optional ground truth."""

    sample_set: SampleSet
    truth_taps: np.ndarray | None = None
    truth_signal: np.ndarray | None = None

    @property
    def has_truth(self) -> bool:
        return self.truth_taps is not None or self.truth_signal is not None


def save_problem(path: str, samples: SampleSet,
                 truth_taps=None, truth_signal=None) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "d": samples.d,
        "sampler": _sampler_to_json(samples.sampler),
        "L_total": samples.L_total,
        "samples": [complex_to_pairs(level) for level in samples.samples],
    }
    truth = {}
    if truth_taps is not None:
        truth["filter"] = complex_to_pairs(truth_taps)
    if truth_signal is not None:
        truth["signal"] = complex_to_pairs(truth_signal)
    if truth:
        payload["ground_truth"] = truth
    atomic_write_json(path, payload)


def load_problem(path: str) -> Problem:
    obj = _load_document(path, "problem")
    for key in ("d", "sampler", "L_total", "samples"):
        if key not in obj:
            raise FileFormatError(f"{path}: missing field {key!r}")
    d = _json_int(obj["d"], path, "d")
    sampler = _sampler_from_json(obj["sampler"], path)
    levels = obj["samples"]
    L_total = _json_int(obj["L_total"], path, "L_total")
    if not isinstance(levels, list) or len(levels) != L_total:
        raise FileFormatError(f"{path}: samples length does not match L_total")
    # all levels convert in one pass: a pass per level cost more than the
    # conversion itself on files of many short levels
    name = f"{path}: field 'samples'"
    if not set(map(type, levels)) <= {list}:
        raise FileFormatError(f"{name}: {_PAIRS_EXPECTED}")
    widths, pairs = _flatten(levels, name)
    if len(widths) > 1:
        raise FileFormatError(f"{path}: ragged sample levels")
    values = pairs_to_complex(pairs, name)
    data = values.reshape(L_total, len(levels[0])) if levels else values
    try:
        sample_set = SampleSet(d, sampler, data)
    except Exception as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    truth = obj.get("ground_truth", {})
    if not isinstance(truth, dict):
        raise FileFormatError(f"{path}: ground_truth must be an object")
    taps, signal = (pairs_to_complex(truth[key], f"{path}: field 'ground_truth.{key}'")
                    if key in truth else None for key in ("filter", "signal"))
    if taps is not None and taps.size != d:
        raise FileFormatError(f"{path}: ground-truth filter has length {taps.size}, expected {d}")
    if signal is not None and signal.size != d:
        raise FileFormatError(f"{path}: ground-truth signal has length {signal.size}, expected {d}")
    return Problem(sample_set, taps, signal)


def save_report(path: str, report: dict) -> None:
    atomic_write_json(path, report)


def load_report(path: str) -> dict:
    obj = _load_document(path, "report")
    if "mode" not in obj:
        raise FileFormatError(f"{path}: missing field 'mode'")
    diagnostics = obj.get("diagnostics", {})
    if not isinstance(diagnostics, dict) or not isinstance(diagnostics.get("tolerances", {}), dict):
        raise FileFormatError(f"{path}: diagnostics and its tolerances must be objects")
    support = obj.get("recovered_support", [])
    if not isinstance(support, list):
        raise FileFormatError(f"{path}: field 'recovered_support' must be a list")
    for n in support:
        _json_int(n, path, "recovered_support")
    return obj

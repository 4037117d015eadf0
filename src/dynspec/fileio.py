"""Problem and report files.

Both are JSON with complex numbers stored as [re, im] pairs. Floats are
written with Python's round-trip repr, so save -> load is exact to the
bit for finite values, and key order is fixed, so identical content means
identical bytes. Writes go through a temp file plus rename, and leave
the mode a plain ``open`` would.

The text written is ``json.dumps(obj, indent=2, sort_keys=True)`` plus a
newline, byte for byte, but built by ``_dumps``: with ``indent`` set, json
encodes in pure Python, and most of it goes on the [re, im] lists, which
``_pair_list`` writes in one pass. ``tests/test_fileio.py`` checks the
writer against ``json.dumps`` on random trees and on real CLI output.
Reads use ``json.load`` on UTF-8 text.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

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


def _dumps(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, character for
    character, for a tree of dicts with str keys, lists, str, int, float,
    bool and None; ``indent`` is a newline plus the indentation of ``obj``.

    Any other type, a tuple or a non-str key included, raises TypeError
    instead of being converted. json's own encoder runs in pure Python
    once ``indent`` is set; this one spends its time in ``float.__repr__``
    and ``str.join`` (see ``_pair_list``)."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    inner = indent + "  "
    if isinstance(obj, list):
        if not obj:
            return "[]"
        return _pair_list(obj, indent) or (
            "[" + inner + ("," + inner).join([_dumps(v, inner) for v in obj]) + indent + "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # encode_basestring_ascii raises TypeError on a non-str key
        fields = [encode_basestring_ascii(key) + ": " + _dumps(value, inner)
                  for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(fields) + indent + "}"
    raise TypeError(f"cannot write {type(obj).__name__} to a JSON file")


def _pair_list(items: list, indent: str) -> str | None:
    """The text of a nonempty list of [re, im] lists of two finite floats,
    in one pass over their reprs; None for any other list."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    flat = list(chain.from_iterable(items))
    if set(map(type, flat)) != {float}:
        return None
    inner = indent + "  "
    entry = inner + "  "
    it = map(float.__repr__, flat)
    body = (inner + "]," + inner + "[" + entry).join(map(("," + entry).join, zip(it, it)))
    # finite reprs hold no "n"; "nan", "inf" and "-inf" do, and JSON
    # spells them NaN, Infinity and -Infinity
    if "n" in body:
        return None
    return "[" + inner + "[" + entry + body + inner + "]" + indent + "]"


def atomic_write_json(path: str, payload) -> None:
    atomic_write_text(path, _dumps(payload) + "\n")


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside ``path`` and rename it into
    place. The file gets the mode a plain ``open(path, "w")`` would give,
    0o666 less the umask: ``mkstemp`` creates it readable by its owner
    only."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _umask() -> int:
    """The process umask, which can only be read by setting it."""
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply to read") from exc


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

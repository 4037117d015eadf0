"""Problem, report and filter-tap files.

This module owns their format: ``save_problem`` and ``save_report`` build
a file from a sample set or a recovery estimate, and ``load_problem``,
``load_report`` and ``load_taps`` check a file and return typed values
(``Problem``, ``Report``, an array), so no other module reads or writes
a field. All are JSON with complex numbers stored as [re, im] pairs.
Floats are written with Python's round-trip repr, so save -> load is
exact to the bit for finite values, and key order is fixed, so identical
content means identical bytes. Writes go through a temp file plus
rename, and leave the mode a plain ``open`` would.

The text written is ``json.dumps(obj, sort_keys=True)`` plus a newline,
one line per file, which the standard library's C encoder writes; the
writers put the complex arrays themselves in the tree, and the encoder's
``default`` hook, ``_complex_pairs``, turns each into its [re, im] pairs.
Files in the ``indent=2`` layout that earlier versions wrote read alike.
``python -m json.tool FILE`` prints a file indented.
Reads use ``json.load`` on UTF-8 text.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import config
from .errors import DimensionError, FileFormatError
from .model import IndexSet, SampleSet, Uniform
from .numerics import dft, set_match_error
from .spectral import merge_roots

SCHEMA_VERSION = "dynspec-1"
# The recovery pipelines, as a report's "mode" names them.
RECOVER_MODES = ("invariant", "general", "extrapolate", "prony")
_JSON_NUMBERS = frozenset({int, float})
_PAIRS_EXPECTED = "expected a list of [re, im] pairs of numbers"
# Ground-truth comparisons (recover's verified block and the verify
# command's default) run at the acceptance tolerance.
VERIFY_TOL = 1e-8
# A true transform entry at or below this fraction of the transform's
# peak is off the Prony support.
SUPPORT_REL = 1e-9


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


def _finite_pairs(pairs, name: str) -> np.ndarray:
    """``pairs_to_complex`` for values that must be finite: ground truth
    and filter taps. JSON parsing accepts NaN and Infinity, and a report
    may hold them, so the check is not ``pairs_to_complex``'s."""
    values = pairs_to_complex(pairs, name)
    if not np.isfinite(values).all():
        raise FileFormatError(f"{name}: entries must be finite")
    return values


def _complex_pairs(obj) -> list:
    """The nested list (of rows) of [re, im] pairs of a complex128 array
    of one or more dimensions, whatever its strides: the ``default`` hook
    through which ``json.dumps`` writes the arrays the writers put in
    their trees. Anything else it is handed raises TypeError: another
    array (0-d, another dtype, a subclass), a set, bytes, or a numpy
    scalar other than float64, which is a float."""
    if type(obj) is np.ndarray and obj.dtype == np.complex128 and obj.ndim:
        return np.stack((obj.real, obj.imag), axis=-1).tolist()
    raise TypeError(f"cannot write {type(obj).__name__} to a JSON file")


def atomic_write_json(path: str, payload) -> None:
    # the writers build each payload afresh, so it holds no cycle for
    # json.dumps to check for, a check that cost about a tenth of a
    # problem file's write
    text = json.dumps(payload, sort_keys=True, default=_complex_pairs, check_circular=False)
    atomic_write_text(path, text + "\n")


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside ``path`` and rename it into
    place. The temp file is created with mode 0o666, which the kernel
    cuts by the umask as it does for a plain ``open(path, "w")``; reading
    the umask would mean setting it, for every thread of the process.

    An OSError is raised again, of the same type, with a message that
    names ``path``: the temp file's random name would tell the user
    nothing."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise type(exc)(f"cannot write {path}: {exc.strerror or exc}") from exc


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
    except DimensionError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    raise FileFormatError(f"{path}: unknown sampler type {obj['type']!r}")


@dataclass(frozen=True, eq=False)
class Problem:
    """A loaded problem file: the sample set plus optional ground truth.
    ``truth_spectrum``, the operator's eigenvalues, is for operators that
    no filter gives; no problem file holds it yet."""

    sample_set: SampleSet
    truth_taps: np.ndarray | None = None
    truth_signal: np.ndarray | None = None
    truth_spectrum: np.ndarray | None = None

    @property
    def has_truth(self) -> bool:
        return any(t is not None for t in (self.truth_taps, self.truth_signal, self.truth_spectrum))


@dataclass(frozen=True, eq=False)
class Report:
    """The recovered fields of a report, each None when it has none: the
    merged spectrum, the Prony support, and the filter and signal; and the
    fatal message of a failed run."""

    mode: str
    spectrum: np.ndarray | None = None
    support: tuple[int, ...] | None = None
    taps: np.ndarray | None = None
    signal: np.ndarray | None = None
    fatal: str | None = None

    @classmethod
    def of(cls, mode: str, estimate) -> Report:
        """The report of a ``mode`` run's ``SpectrumEstimate``, as
        ``load_report`` reads back the file ``save_report`` writes of it."""
        return cls(mode, estimate.merged, estimate.support, estimate.taps, estimate.signal)


def truth_checks(problem: Problem, report: Report, tol: float = VERIFY_TOL) -> list:
    """Compare a report against the problem's ground truth: the one
    judgment of ``verify``, of ``recover``'s verified block and of the
    test census.

    Returns (name, error, tol, passed, note) rows; which rows appear
    depends on the report's fields. The fatal message of a failed run is
    a failing ``recovery`` row, whatever its partial fields hold. The
    true spectrum is what the data can observe, one rule for every mode:
    ``truth_spectrum``, or else the transfer values of ``truth_taps`` at
    the frequencies where the true signal's transform exceeds
    ``SUPPORT_REL`` of its peak (all of them without a true signal). It
    is merged on its own scale, so a report cannot pass by collapsing its
    spectrum. Those frequencies are also the true Prony support. The
    filter and signal errors are relative to the truth's largest entry
    (absolute for an all-zero truth), so they do not depend on the scale.
    """
    checks = [] if report.fatal is None else [("recovery", float("inf"), tol, False, report.fatal)]
    support = None
    if problem.truth_signal is not None:
        x_hat = np.abs(dft(problem.truth_signal))
        support = np.flatnonzero(x_hat > SUPPORT_REL * float(np.max(x_hat)))
    expected = problem.truth_spectrum
    if expected is None and problem.truth_taps is not None:
        transfer = dft(problem.truth_taps)
        expected = transfer if support is None else transfer[support]
    if expected is not None and report.spectrum is not None:
        expected, _ = merge_roots([expected])
        merged = report.spectrum
        err = set_match_error(merged, expected)
        checks.append(("spectrum", err, tol, merged.size == expected.size and err < tol,
                       f"{merged.size} vs {expected.size} values"))
    if support is not None and report.support is not None:
        got = sorted(report.support)
        ok = got == support.tolist()
        checks.append(("support", 0.0 if ok else float("inf"), tol, ok,
                       f"{got} vs {support.tolist()}"))
    for name, truth, got in (("filter", problem.truth_taps, report.taps),
                             ("signal", problem.truth_signal, report.signal)):
        if truth is not None and got is not None:
            err = float(np.max(np.abs(got - truth))) if got.size == truth.size else float("inf")
            err /= float(np.max(np.abs(truth))) or 1.0
            checks.append((name, err, tol, err < tol, ""))
    return checks


def save_problem(path: str, samples: SampleSet,
                 truth_taps=None, truth_signal=None) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "d": samples.d,
        "sampler": _sampler_to_json(samples.sampler),
        "L_total": samples.L_total,
        "samples": samples.samples,
    }
    truth = {key: np.asarray(value, dtype=np.complex128)
             for key, value in (("filter", truth_taps), ("signal", truth_signal)) if value is not None}
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
    taps, signal = (_finite_pairs(truth[key], f"{path}: field 'ground_truth.{key}'")
                    if key in truth else None for key in ("filter", "signal"))
    if taps is not None and taps.size != d:
        raise FileFormatError(f"{path}: ground-truth filter has length {taps.size}, expected {d}")
    if signal is not None and signal.size != d:
        raise FileFormatError(f"{path}: ground-truth signal has length {signal.size}, expected {d}")
    return Problem(sample_set, taps, signal)


def load_taps(path: str) -> np.ndarray:
    """A filter file: a JSON list of the taps as [re, im] pairs of finite
    numbers."""
    return _finite_pairs(_load_json(path), path)


def save_report(path: str, mode: str, tau_solve: float, dedup_rel: float, estimate=None,
                fatal: str | None = None, verified: list | None = None) -> None:
    """Write the report of a ``mode`` run: the tolerances it used
    (``tau_solve``, ``dedup_rel``, ``config.TAU_ROOT`` and the estimate's
    absolute ``dedup_tol``), its ``estimate`` (a ``SpectrumEstimate``; for
    a failed run the partial one, or None), the ``fatal`` message of a
    failed run, and ``verified``, the rows of ``truth_checks``, written
    as each check's error by check name."""
    tolerances = {"tau_solve": tau_solve, "dedup_rel": dedup_rel, "tau_root": config.TAU_ROOT}
    failures = {} if fatal is None else {"fatal": fatal}
    report = {"schema_version": SCHEMA_VERSION, "mode": mode,
              "diagnostics": {"tolerances": tolerances, "failures": failures}}
    if estimate is not None:
        report["source_kind"] = "residue_class" if mode == "invariant" else "index"
        report["recovered_spectrum"] = estimate.merged
        if estimate.support is not None:
            report["recovered_support"] = [int(n) for n in estimate.support]
        for name, value in (("filter", estimate.taps), ("signal", estimate.signal)):
            if value is not None:
                report[f"recovered_{name}"] = value
        # one [re, im] conversion over every source's roots, sliced per
        # source: invariant-wide's 512 hook calls, one per source, took
        # about a quarter of its report's write
        sources = estimate.per_source
        pairs = _complex_pairs(np.concatenate(list(sources.values()))) if sources else []
        per_source = report["per_source"] = {}
        start = 0
        for src, roots in sources.items():
            entry = per_source[str(src)] = {"degree": len(roots),
                                            "roots": pairs[start:start + len(roots)]}
            start += len(roots)
            if src in estimate.residuals:
                entry["residual"] = float(estimate.residuals[src])
        if estimate.dedup_tol is not None:
            tolerances["dedup_tol"] = float(estimate.dedup_tol)
        for src, msg in estimate.failures.items():
            failures[src if isinstance(src, str) else f"source {src}"] = msg
    if verified is not None:
        report["verified"] = {f"{name}_error": err for name, err, *_ in verified}
    atomic_write_json(path, report)


def load_report(path: str) -> Report:
    obj = _load_document(path, "report")
    if "mode" not in obj:
        raise FileFormatError(f"{path}: missing field 'mode'")
    if obj["mode"] not in RECOVER_MODES:
        raise FileFormatError(f"{path}: field 'mode' must be one of {', '.join(RECOVER_MODES)}, "
                              f"got {json.dumps(obj['mode'])}")
    diagnostics = obj.get("diagnostics", {})
    if not isinstance(diagnostics, dict) or not isinstance(diagnostics.get("tolerances", {}), dict):
        raise FileFormatError(f"{path}: diagnostics and its tolerances must be objects")
    failures = diagnostics.get("failures", {})
    if not isinstance(failures, dict) or not isinstance(failures.get("fatal", ""), str):
        raise FileFormatError(f"{path}: diagnostics.failures must be an object, its 'fatal' a string")
    support = obj.get("recovered_support")
    if "recovered_support" in obj:
        if not isinstance(support, list):
            raise FileFormatError(f"{path}: field 'recovered_support' must be a list")
        support = tuple(_json_int(n, path, "recovered_support") for n in support)
    spectrum, taps, signal = (
        pairs_to_complex(obj[key], f"{path}: field {key!r}") if key in obj else None
        for key in ("recovered_spectrum", "recovered_filter", "recovered_signal"))
    return Report(obj["mode"], spectrum, support, taps, signal, failures.get("fatal"))

"""Command-line front end.

Three subcommands: ``simulate`` writes a synthetic problem file,
``recover`` runs the pipeline that ``--mode`` names and writes its
estimate as a report, ``verify`` compares a report against the
problem's embedded ground truth.

The files are ``fileio``'s: ``recover`` hands it the estimate to write,
and ``verify`` gets back a typed ``Report``. The truth checks compare a
``Report`` whichever command builds it, and the SVG plot is written here.

A mode-specific flag given outside the runs that read it is a usage
error; ``_FLAG_SCOPE`` is the one table of which runs read which flag.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or input error, 3 recovery failure. Failures print a single
machine-greppable ``error: ...`` line on stderr. When --seed is absent
the environment variable DYNSPEC_SEED is used, then 0.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config
from .errors import DynspecError, RecoveryError
from .fileio import (RECOVER_MODES, Report, atomic_write_text, load_problem, load_report,
                     load_taps, save_problem, save_report)
from .invariant import recover_operator
from .model import (Circulant, IndexSet, Uniform, make_diffusion_filter,
                    random_circulant, random_diagonalizable, random_signal,
                    shift_operator, simulate)
from .numerics import dft, set_match_error
from .prony import prony_support, random_sparse_signal
from .spectral import merge_roots, recover_observable_spectrum, recover_spectrum_via_extrapolation

# Ground-truth comparisons (recover's verified block and the verify
# command's default) run at the acceptance tolerance.
VERIFY_TOL = 1e-8

# What simulate uses when --filter or --decay is not given; the options
# themselves default to None, so the flag table can see whether they were.
DEFAULT_FILTER = "random"
DEFAULT_DECAY = 0.1

# The runs that read each mode-specific flag, by command: (argparse dest,
# the values other options must hold for the flag to be read, the words
# the refusal names those runs with). main() checks it once after parsing,
# before any file is read or written, so a flag given where nothing reads
# it exits 2 instead of being ignored.
_FLAG_SCOPE = {
    "simulate": (
        ("filter", {"mode": {"circulant"}}, "circulant mode"),
        ("decay", {"mode": {"circulant"}, "filter": {"diffusion"}}, "--filter diffusion"),
        ("filter_file", {"mode": {"circulant"}, "filter": {"file"}},
         "--filter file in circulant mode"),
        ("sparsity", {"mode": {"shift"}}, "shift mode"),
        ("include_truth", {"mode": {"circulant", "shift"}},
         "circulant and shift modes: ground truth for diagonalizable operators is not "
         "representable in the problem schema"),
    ),
    "recover": (
        ("assume_symmetric", {"mode": {"invariant"}}, "invariant mode"),
        ("window", {"mode": {"extrapolate"}}, "extrapolate mode"),
        ("sparsity", {"mode": {"prony"}}, "prony mode"),
        ("dedup", {"mode": {"invariant", "general", "extrapolate"}},
         "invariant, general and extrapolate modes"),
    ),
}


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _int_list(text: str) -> tuple[int, ...]:
    try:
        items = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not items:
        raise argparse.ArgumentTypeError("expected at least one index")
    return items


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _resolve_seed(value):
    name = "--seed"
    if value is None:
        name, value = "DYNSPEC_SEED", os.environ.get("DYNSPEC_SEED", "0")
        try:
            value = int(value)
        except ValueError:
            raise ValueError(f"DYNSPEC_SEED must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors print one ``error: <prog>: <message>`` line and exit 2;
    subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _misplaced_flag(args) -> str | None:
    """The refusal for the first flag given outside the runs that read it."""
    for dest, runs, where in _FLAG_SCOPE.get(args.command, ()):
        value = getattr(args, dest)
        given = value is not None and value is not False
        if given and not all(getattr(args, key) in allowed for key, allowed in runs.items()):
            return f"--{dest.replace('_', '-')} only applies to {where}"
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dynspec",
                     description="Spectrum and operator identification from dynamical samples.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic problem file")
    sim.add_argument("--d", type=int, required=True, help="state dimension")
    sim.add_argument("--mode", choices=["circulant", "diagonalizable", "shift"],
                     default="circulant", help="evolution operator family")
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, help="uniform sampler step (must divide d)")
    group.add_argument("--omega", type=_int_list, help="explicit sampling indices, e.g. 0,2,5")
    sim.add_argument("--levels", type=int, required=True, help="number of time levels")
    sim.add_argument("--seed", type=int, default=None, help="RNG seed (default: DYNSPEC_SEED or 0)")
    sim.add_argument("--filter", choices=["diffusion", "random", "file"], default=None,
                     help=f"filter source for circulant mode (default: {DEFAULT_FILTER})")
    sim.add_argument("--filter-file", help="JSON file with filter taps as [re, im] pairs")
    sim.add_argument("--decay", type=_positive_float, default=None,
                     help=f"diffusion filter decay rate (finite, > 0; default {DEFAULT_DECAY:g})")
    sim.add_argument("--sparsity", type=int, default=None,
                     help="shift mode: give the signal an s-sparse Fourier transform")
    sim.add_argument("--include-truth", action="store_true",
                     help="embed the filter and signal as ground truth")
    sim.add_argument("--out", required=True, help="output problem file")
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("recover", help="run a recovery pipeline on a problem file")
    rec.add_argument("--in", dest="infile", required=True, help="input problem file")
    rec.add_argument("--mode", choices=RECOVER_MODES, required=True, help="recovery pipeline")
    rec.add_argument("--assume-symmetric", action="store_true",
                     help="invariant mode: order the spectrum assuming a real, symmetric, "
                          "decreasing transfer function and recover the operator")
    rec.add_argument("--tol", type=_positive_float, default=None,
                     help=f"consistency threshold (default {config.TAU_SOLVE:g})")
    rec.add_argument("--dedup", type=_positive_float, default=None,
                     help=f"relative dedup tolerance (default {config.DEDUP_REL:g})")
    rec.add_argument("--window", type=int, default=None,
                     help="extrapolate mode: recurrence window length "
                          "(default: largest L with (|omega|+1)L <= levels)")
    rec.add_argument("--sparsity", type=int, default=None,
                     help="prony mode: declared sparsity (default: levels // 2)")
    rec.add_argument("--out", required=True, help="output report file")
    rec.add_argument("--plot", default=None, help="optional SVG scatter of the recovered spectrum")
    rec.set_defaults(func=cmd_recover)

    ver = sub.add_parser("verify", help="check a report against embedded ground truth")
    ver.add_argument("--in", dest="infile", required=True, help="problem file with ground truth")
    ver.add_argument("--report", required=True, help="report file to check")
    ver.add_argument("--tol", type=_positive_float, default=VERIFY_TOL,
                     help=f"pass/fail tolerance (default {VERIFY_TOL:g})")
    ver.set_defaults(func=cmd_verify)
    return parser


def cmd_simulate(args) -> int:
    if args.levels < 1:
        return _fail(f"levels must be positive, got {args.levels}", 2)
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    sampler = Uniform(args.m) if args.m is not None else IndexSet(args.omega)
    truth_taps = None

    if args.mode == "circulant":
        source = DEFAULT_FILTER if args.filter is None else args.filter
        if source == "diffusion":
            op = make_diffusion_filter(args.d, DEFAULT_DECAY if args.decay is None else args.decay)
        elif source == "random":
            op = random_circulant(args.d, rng)
        # the taps file takes nothing from rng, so the signal can be drawn
        # first and check d before the file is read
        x = random_signal(args.d, rng)
        if source == "file":
            if not args.filter_file:
                return _fail("--filter file requires --filter-file PATH", 2)
            taps = load_taps(args.filter_file)
            if taps.size != args.d:
                return _fail(f"filter file has {taps.size} taps, expected {args.d}", 2)
            op = Circulant(taps)
        truth_taps = op.taps
    elif args.mode == "shift":
        op = shift_operator(args.d)
        truth_taps = op.taps
        if args.sparsity is not None:
            x, _ = random_sparse_signal(args.d, args.sparsity, rng)
        else:
            x = random_signal(args.d, rng)
    else:
        op = random_diagonalizable(args.d, rng)
        x = random_signal(args.d, rng)

    samples = simulate(op, x, sampler, args.levels)
    if args.include_truth:
        save_problem(args.out, samples, truth_taps=truth_taps, truth_signal=x)
    else:
        save_problem(args.out, samples)
    kind = f"uniform m={sampler.m}" if isinstance(sampler, Uniform) else f"indices {sampler.omega}"
    print(f"wrote {args.out}: d={args.d}, sampler {kind}, {args.levels} levels")
    return 0


def cmd_recover(args) -> int:
    problem = load_problem(args.infile)
    samples = problem.sample_set
    tol = config.TAU_SOLVE if args.tol is None else args.tol
    dedup_rel = config.DEDUP_REL if args.dedup is None else args.dedup
    try:
        if args.mode == "invariant":
            estimate = recover_operator(samples, args.assume_symmetric, dedup_rel, tol)
        elif args.mode == "general":
            estimate = recover_observable_spectrum(samples, dedup_rel=dedup_rel, tol=tol)
        elif args.mode == "extrapolate":
            estimate = recover_spectrum_via_extrapolation(samples, args.window, dedup_rel, tol)
        else:
            estimate = prony_support(samples, args.sparsity, tol)
    except RecoveryError as exc:
        save_report(args.out, args.mode, tol, dedup_rel, exc.partial, fatal=str(exc))
        return _fail(str(exc), 3)

    verified = None
    if problem.has_truth:
        found = Report(args.mode, estimate.merged, estimate.support, estimate.taps, estimate.signal)
        verified = {name: err for name, err, *_ in _truth_checks(problem, found, VERIFY_TOL)}
    save_report(args.out, args.mode, tol, dedup_rel, estimate, verified=verified)
    if args.plot:
        _write_spectrum_svg(args.plot, estimate.merged)
    print(f"wrote {args.out}: {estimate.merged.size} spectral values (mode={args.mode})")
    return 0


def _truth_checks(problem, report: Report, tol: float) -> list:
    """Compare a report against the problem's ground truth.

    Returns (name, error, tol, passed, note) rows; which rows appear
    depends on the report's mode and fields. The fatal message of a failed
    run is a failing ``recovery`` row, whatever its partial fields hold.
    The true spectrum is merged on its own scale, so a report cannot pass
    by collapsing its spectrum; in prony mode it is the grid points of the
    true signal's support.
    """
    checks = [] if report.fatal is None else [("recovery", float("inf"), tol, False, report.fatal)]
    prony = report.mode == "prony"
    expected = None
    if prony and problem.truth_signal is not None:
        x_hat = dft(problem.truth_signal)
        support = np.flatnonzero(np.abs(x_hat) > 1e-9 * float(np.max(np.abs(x_hat))))
        expected = np.exp(2j * np.pi * support / problem.sample_set.d)
    elif not prony and problem.truth_taps is not None:
        expected, _ = merge_roots([dft(problem.truth_taps)])
    if expected is not None and report.spectrum is not None:
        merged = report.spectrum
        err = set_match_error(merged, expected)
        checks.append(("spectrum", err, tol, merged.size == expected.size and err < tol,
                       f"{merged.size} vs {expected.size} values"))
    if prony and expected is not None and report.support is not None:
        got = sorted(report.support)
        ok = got == support.tolist()
        checks.append(("support", 0.0 if ok else float("inf"), tol, ok,
                       f"{got} vs {support.tolist()}"))
    for name, truth, got in (("filter", problem.truth_taps, report.taps),
                             ("signal", problem.truth_signal, report.signal)):
        if truth is not None and got is not None:
            err = float(np.max(np.abs(got - truth))) if got.size == truth.size else float("inf")
            checks.append((name, err, tol, err < tol, ""))
    return checks


def cmd_verify(args) -> int:
    problem = load_problem(args.infile)
    if not problem.has_truth:
        return _fail("problem file carries no ground truth", 2)
    checks = _truth_checks(problem, load_report(args.report), args.tol)
    if not checks:
        return _fail("report has no fields comparable against the ground truth", 2)
    width = max(len(name) for name, *_ in checks)
    print(f"{'check'.ljust(width)}  {'error':>12}  {'tol':>9}  status")
    all_ok = True
    for name, err, tol, passed, note in checks:
        all_ok &= passed
        extra = f"  ({note})" if note else ""
        print(f"{name.ljust(width)}  {err:>12.3e}  {tol:>9.1e}  "
              f"{'PASS' if passed else 'FAIL'}{extra}")
    return 0 if all_ok else 1


def _write_spectrum_svg(path: str, roots: np.ndarray) -> None:
    size, margin = 360, 24
    lim = max(1.0, float(np.max(np.abs(roots)))) if roots.size else 1.0
    scale = (size / 2 - margin) / lim
    c = size / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{margin}" y1="{c}" x2="{size - margin}" y2="{c}" stroke="#ddd"/>',
        f'<line x1="{c}" y1="{margin}" x2="{c}" y2="{size - margin}" stroke="#ddd"/>',
        f'<circle cx="{c}" cy="{c}" r="{scale:.2f}" fill="none" stroke="#bbb"/>',
    ]
    for z in roots:
        parts.append(f'<circle cx="{c + z.real * scale:.2f}" cy="{c - z.imag * scale:.2f}" '
                     f'r="3" fill="#c0392b"/>')
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    misplaced = _misplaced_flag(args)
    if misplaced:
        return _fail(misplaced, 2)
    try:
        return args.func(args)
    except (DynspecError, ValueError, TypeError, OSError) as exc:
        return _fail(str(exc), 2)


def entry() -> None:
    sys.exit(main())

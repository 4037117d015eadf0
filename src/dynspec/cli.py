"""Command-line front end.

Three subcommands: ``simulate`` writes a synthetic problem file,
``recover`` runs the pipeline that ``--mode`` names and writes its
estimate as a report, ``verify`` compares a report against the
problem's embedded ground truth.

The files are ``fileio``'s: ``recover`` hands it the estimate to write,
and ``verify`` gets back a typed ``Report``. The ground-truth judgment is
``fileio``'s too: ``fileio.truth_checks``, at ``fileio.VERIFY_TOL`` and
with the Prony support level ``fileio.SUPPORT_REL``, judges a ``Report``
whether ``verify`` loads it or ``recover`` builds it for its verified
block. The SVG plot is written here.

A mode-specific flag given outside the runs that read it is a usage
error; ``_FLAG_SCOPE`` is the one table of which runs read which flag.
So is a run that would write over its own files; ``_FILE_CLASHES`` is
the one table of the file flags that must name different files: a
``simulate`` ``--out`` naming the ``--filter-file`` file, a ``recover``
``--out`` or ``--plot`` naming the ``--in`` file, or a ``--plot`` naming
the ``--out`` file.

The parser is built once per process (``_build_parser`` is cached):
building it takes 0.55-0.9 ms on a 2-vCPU host, 20-30% of a warm
``simulate`` of the benchmark's general-deep problem. ``main`` dispatches on ``args.command`` to the ``cmd_*`` function
that the module holds when it runs, not to one stored in the parser:
a profiler or tracer that replaces ``cli.cmd_recover`` after the first
call must still see every later call.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or input error, 3 recovery failure. Failures print a single
machine-greppable ``error: ...`` line on stderr. When --seed is absent
the environment variable DYNSPEC_SEED is used, then 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import config
from .errors import DynspecError, RecoveryError
from .fileio import (RECOVER_MODES, VERIFY_TOL, Report, atomic_write_text, load_problem,
                     load_report, load_taps, save_problem, save_report, truth_checks)
from .invariant import recover_operator
from .model import (Circulant, IndexSet, Uniform, make_diffusion_filter,
                    random_circulant, random_diagonalizable, random_signal,
                    shift_operator, simulate)
from .prony import prony_support, random_sparse_signal
from .spectral import recover_observable_spectrum, recover_spectrum_via_extrapolation

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


# The file flags of each command that must name different files, by
# argparse dest: (a file the run writes, a file it reads or writes
# first), checked in order. main() checks them after the flag table,
# before any file is read or written.
_FILE_CLASHES = {
    "simulate": (("out", "filter_file"),),
    "recover": (("plot", "out"), ("out", "infile"), ("plot", "infile")),
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


def _flag(dest: str) -> str:
    """The command-line flag of an argparse dest."""
    return "--in" if dest == "infile" else f"--{dest.replace('_', '-')}"


def _misplaced_flag(args) -> str | None:
    """The refusal for the first flag given outside the runs that read it."""
    for dest, runs, where in _FLAG_SCOPE.get(args.command, ()):
        value = getattr(args, dest)
        given = value is not None and value is not False
        if given and not all(getattr(args, key) in allowed for key, allowed in runs.items()):
            return f"{_flag(dest)} only applies to {where}"
    return None


@functools.cache
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

    ver = sub.add_parser("verify", help="check a report against embedded ground truth")
    ver.add_argument("--in", dest="infile", required=True, help="problem file with ground truth")
    ver.add_argument("--report", required=True, help="report file to check")
    ver.add_argument("--tol", type=_positive_float, default=VERIFY_TOL,
                     help=f"pass/fail tolerance (default {VERIFY_TOL:g})")
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


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: the same real path, or, when both
    exist, the same inode (a hard link)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def _overwritten(args) -> str | None:
    """The refusal for the first pair of ``_FILE_CLASHES`` whose flags name
    one file."""
    for written, other in _FILE_CLASHES.get(args.command, ()):
        path, other_path = getattr(args, written), getattr(args, other)
        if path and other_path and _same_file(path, other_path):
            return f"{_flag(written)} names the {_flag(other)} file {other_path}"
    return None


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

    verified = truth_checks(problem, Report.of(args.mode, estimate)) if problem.has_truth else None
    save_report(args.out, args.mode, tol, dedup_rel, estimate, verified=verified)
    if args.plot:
        _write_spectrum_svg(args.plot, estimate.merged)
    print(f"wrote {args.out}: {estimate.merged.size} spectral values (mode={args.mode})")
    return 0


def cmd_verify(args) -> int:
    problem = load_problem(args.infile)
    if not problem.has_truth:
        return _fail("problem file carries no ground truth", 2)
    checks = truth_checks(problem, load_report(args.report), args.tol)
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
    refusal = _misplaced_flag(args) or _overwritten(args)
    if refusal:
        return _fail(refusal, 2)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (DynspecError, ValueError, TypeError, OSError) as exc:
        return _fail(str(exc), 2)


def entry() -> None:
    sys.exit(main())

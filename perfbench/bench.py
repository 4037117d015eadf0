"""Workloads, job runner, statistics and layer tracer of the dynspec benchmark.

One job is ``simulate -> recover -> verify`` driven in-process through
``dynspec.cli.main(argv)``; a job counts as verified when all three
commands exit 0. Jobs run one after another (a closed loop with one
client). This module imports only the standard library at load time, so
a fresh interpreter that imports it before ``dynspec.cli`` still pays
the full import cost of the package.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import math
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field

# Exit code recorded for a command whose exception escaped cli.main.
RAISED = -1
# Host speed: a fixed pure-Python loop timed next to every job. Other
# tenants of a shared host slow the whole machine in bursts of seconds to
# minutes; the loop slows with it, and a job's wall time divided by the
# loop's time does not. Timings are reported at REFERENCE_S per loop,
# about the loop's uncontended time on a 2-vCPU Xeon VM.
REFERENCE_LOOPS = 100_000
REFERENCE_S = 0.0055
# Pause before each loop, so that BLAS worker threads the last job left
# spinning are asleep and do not slow the loop on a shared core.
REFERENCE_PAUSE_S = 0.12


@dataclass(frozen=True)
class Workload:
    """Fixed flags of one workload; per-job seeds and sampled coordinates
    are drawn from the workload seed.

    A run cycles through a pool of ``pool`` distinct jobs, so attempted
    and failed count distinct jobs and depend on the seed alone. A
    workload whose jobs can fail needs a larger pool, or the share that
    fails, and with it jobs_per_s, swings from seed to seed.
    """

    name: str
    d: int
    simulate: tuple[str, ...]
    recover: tuple[str, ...]
    omega_size: int = 0  # > 0: draw this many coordinates for --omega
    pool: int = 12


# Every job uses the shift family: its spectrum is the d-th roots of
# unity, exactly distinct at any d, so the workloads can be wide or deep
# without tripping the draw and conditioning defects listed in NOTES.md.
WORKLOADS = {w.name: w for w in (
    Workload("invariant-wide", 1536,
             ("--mode", "shift", "--d", "1536", "--m", "3", "--levels", "6"),
             ("--mode", "invariant")),
    Workload("general-deep", 96,
             ("--mode", "shift", "--d", "96", "--levels", "192"),
             ("--mode", "general"), omega_size=2),
    Workload("prony-long", 3072,
             ("--mode", "shift", "--d", "3072", "--sparsity", "8", "--levels", "16"),
             ("--mode", "prony"), omega_size=1, pool=40),
)}


@dataclass(frozen=True)
class Job:
    index: int
    problem: str
    report: str
    argvs: tuple[tuple[str, ...], ...]


def jobs(workload: Workload, seed: int, workdir: str):
    """Endless, deterministic job sequence for (workload, seed).

    Every simulate command carries an explicit --seed, so the
    DYNSPEC_SEED environment variable never matters.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    index = 0
    while True:
        job_seed = rng.randrange(2 ** 31)
        sim = ["simulate", *workload.simulate]
        if workload.omega_size:
            coords = sorted(rng.sample(range(workload.d), workload.omega_size))
            sim += ["--omega", ",".join(str(c) for c in coords)]
        problem = os.path.join(workdir, f"job{index}.problem.json")
        report = os.path.join(workdir, f"job{index}.report.json")
        sim += ["--seed", str(job_seed), "--include-truth", "--out", problem]
        rec = ["recover", "--in", problem, *workload.recover, "--out", report]
        ver = ["verify", "--in", problem, "--report", report]
        yield Job(index, problem, report, (tuple(sim), tuple(rec), tuple(ver)))
        index += 1


def pool(workload: Workload, seed: int, workdir: str) -> list:
    """The first ``workload.pool`` jobs of the sequence: the distinct jobs
    of one run."""
    return list(itertools.islice(jobs(workload, seed, workdir), workload.pool))


@dataclass
class JobRecord:
    """Per-command wall times and exit codes of one job, in command order.
    A job stops at its first nonzero exit code. ``index`` names the job
    in its run's pool; wall seconds times ``scale`` are seconds at the
    reference host speed."""

    index: int = -1
    times: list[float] = field(default_factory=list)
    codes: list[int] = field(default_factory=list)
    error: str = ""
    max_error: float | None = None
    scale: float = 1.0

    @property
    def verified(self) -> bool:
        return len(self.codes) == 3 and not any(self.codes)

    @property
    def failed(self) -> bool:
        return any(self.codes)

    @property
    def wrong(self) -> bool:
        """A verify FAIL, a usage error or an escaped exception: the job
        exposed an incorrect program, not a documented recovery failure."""
        return any(code in (1, 2, RAISED) for code in self.codes)

    @property
    def total(self) -> float:
        return sum(self.times)

    @property
    def solve(self) -> float:
        return sum(self.times[1:])


def reference() -> float:
    """Wall seconds of the host-speed loop, after the pause."""
    time.sleep(REFERENCE_PAUSE_S)
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor from wall seconds to seconds at the reference host speed, for
    work between two reference loops that took ``before`` and ``after``."""
    return 2 * REFERENCE_S / (before + after)


def run_job(cli_main, job: Job) -> JobRecord:
    """Run one job's commands in order, each timed on its own.

    The CLI's stdout is discarded and its stderr kept for the record. The
    worst ground-truth error is read from the report's ``verified`` block
    after the job, outside every timed region.
    """
    record = JobRecord(job.index)
    err = io.StringIO()
    for argv in job.argvs:
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                code = cli_main(list(argv))
        except Exception as exc:  # the job boundary: record it and keep running
            code = RAISED
            err.write(f"{argv[0]} raised {type(exc).__name__}: {exc}\n")
        record.times.append(time.perf_counter() - start)
        record.codes.append(code)
        if code:
            break
    messages = err.getvalue().strip().splitlines()
    record.error = messages[0] if messages else ""
    if record.codes[1:2] == [0]:
        with open(job.report) as fh:
            errors = json.load(fh).get("verified", {}).values()
        record.max_error = max(errors, default=None)
    for path in (job.problem, job.report):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    return record


# ------------------------------------------------------------ statistics

def outcome(records: list, timed: list) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over the distinct jobs a run executed.

    Each job of the pool counts once however often the loop repeated it,
    so the counts do not depend on how fast the machine was. Correct means
    every repeat of a job gave the same exit codes, at least one timed job
    verified and no job exposed a wrong program; a documented recovery
    failure (exit 3) is a failed job, not an incorrect one.
    """
    codes: dict[int, list] = {}
    repeatable = True
    for r in records:
        repeatable &= codes.setdefault(r.index, r.codes) == r.codes
    failed = sum(any(c) for c in codes.values())
    correct = (repeatable and any(r.verified for r in timed)
               and not any(r.wrong for r in records))
    return len(codes), failed, correct


def tail(samples):
    """Highest whole percentile with at least ten samples beyond it.

    Nearest-rank percentile on the sorted samples; returns
    (value, percentile, sample count). With ten or fewer samples no
    percentile qualifies and the median is returned as percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if rank >= 1 and n - rank >= 10:
            return ordered[rank - 1], pct, n
    return statistics.median(ordered), 50, n


def end_to_end(imports: list, cold: list, warm: list, rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run: (gated, printed only).

    ``imports`` and ``cold`` are the import times and first-job JobRecords
    of the fresh interpreters, pairwise; ``warm`` holds the JobRecords of
    the timed loop. Every gated time is in seconds at the reference host
    speed (each job scaled by its own ``scale``); the plain wall-time
    medians are printed beside them. Failed jobs add time to jobs_per_s
    and nothing to the solve samples. setup_s is the whole cold start,
    import plus first job, so work moved into import or into lazy
    first-call set-up shows in it. Its two parts are printed on their own:
    alone, the first job spreads too much from run to run to hold a bound
    of its own.
    """
    ok = [r for r in warm if r.verified]
    solves = [r.solve * r.scale for r in ok]
    sims = [r.times[0] * r.scale for r in warm if r.times]
    wall = sum(r.total * r.scale for r in warm)
    tail_value, tail_pct, tail_n = tail(solves) if solves else (0.0, 50, 0)

    def median(values):
        return statistics.median(values) if values else 0.0

    gated = {
        "setup_s": (median([(i + c.total) * c.scale for i, c in zip(imports, cold)]), "s",
                    f"import + first job, median of {len(cold)} fresh interpreters"),
        "simulate_p50_s": (median(sims), "s"),
        "solve_p50_s": (median(solves), "s"),
        "solve_tail_s": (tail_value, "s", f"p{tail_pct} of {tail_n} samples"),
        "jobs_per_s": (len(solves) / wall if wall else 0.0, "1/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    printed = {
        "import_s": (median([i * c.scale for i, c in zip(imports, cold)]), "s",
                     "the import floor, inside setup_s"),
        "cold_job_s": (median([c.total * c.scale for c in cold]), "s",
                       "first job, inside setup_s"),
        "wall.simulate_p50_s": (median([r.times[0] for r in warm if r.times]), "s",
                                "wall time, not scaled to the reference speed"),
        "wall.solve_p50_s": (median([r.solve for r in ok]), "s",
                             "wall time, not scaled to the reference speed"),
        "host_speed": (median([r.scale for r in cold + warm]), "ratio",
                       f"median scale: reference loop {REFERENCE_S * 1e3:g} ms over its "
                       "measured time"),
    }
    return gated, printed


# ------------------------------------------------------------ tracing

# Public functions wrapped per layer (package module). A name missing
# from the package is reported absent, so renames do not break the run.
LAYERS = {
    "cli": ("cmd_simulate", "cmd_recover", "cmd_verify"),
    "fileio": ("save_problem", "load_problem", "save_report", "load_report"),
    "model": ("simulate",),
    "numerics": ("dft", "least_squares", "poly_roots", "set_match_error"),
    "annihilator": ("scalar_annihilator",),
    "spectral": ("recover_observable_spectrum", "merge_roots"),
    "invariant": ("fourier_classes", "recover_spectrum_invariant", "recover_operator"),
    "prony": ("prony_support", "prony_values"),
}

COUNTERS = {
    "fileio.bytes_written": "B",
    "fileio.bytes_read": "B",
    "numerics.dft.points": "count",
    "numerics.least_squares.cells": "count",
    "annihilator.solves_per_search": "ratio",
    "annihilator.degree_sum": "count",
    "spectral.merge_roots.roots_in": "count",
    "spectral.merge_roots.roots_out": "count",
    "trace.overhead_frac": "ratio",
}

SEARCH = "annihilator.scalar_annihilator"


def per_layer_names() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            names[f"{module}.{fn}.calls"] = "count"
            names[f"{module}.{fn}.total_s"] = "s"
            names[f"{module}.{fn}.self_s"] = "s"
    names.update(COUNTERS)
    return names


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else len(value)


class Tracer:
    """Spans around wrapped functions, kept in memory.

    A span's self time is its duration minus the time covered by the
    spans it directly encloses. Counts are taken at the same boundaries.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []      # [key, time covered by children]
        self._patched: list[tuple] = []

    def _add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, key: str, fn):
        """Return ``fn`` wrapped in a span named ``key``.

        Counts for key ``module.function`` are taken by the methods
        ``_before_module_function`` (may replace the arguments) and
        ``_after_module_function`` when they exist.
        """
        before = getattr(self, f"_before_{key.replace('.', '_')}", None)
        after = getattr(self, f"_after_{key.replace('.', '_')}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [key, 0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                span = self.spans.setdefault(key, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # Count hooks, looked up by span key.
    def _before_spectral_merge_roots(self, args, kwargs):
        lists = [r for r in _first_arg(args, kwargs, "root_lists")]
        self._add("spectral.merge_roots.roots_in", sum(_size(r) for r in lists))
        if args:
            return (lists,) + args[1:], kwargs
        return args, {**kwargs, "root_lists": lists}

    def _after_spectral_merge_roots(self, args, kwargs, result):
        self._add("spectral.merge_roots.roots_out", _size(result[0]))

    def _after_numerics_dft(self, args, kwargs, result):
        self._add("numerics.dft.points", _size(result))

    def _after_numerics_least_squares(self, args, kwargs, result):
        rows, cols = getattr(_first_arg(args, kwargs, "M"), "shape", (0, 0))
        self._add("numerics.least_squares.cells", rows * cols)
        if any(frame[0] == SEARCH for frame in self._stack):
            self._add("annihilator.solves_in_search", 1)

    def _after_annihilator_scalar_annihilator(self, args, kwargs, result):
        self._add("annihilator.degree_sum", result.degree)

    def _file_bytes(self, name, args, kwargs):
        self._add(name, os.path.getsize(_first_arg(args, kwargs, "path")))

    def _after_fileio_save_problem(self, args, kwargs, result):
        self._file_bytes("fileio.bytes_written", args, kwargs)

    _after_fileio_save_report = _after_fileio_save_problem

    def _after_fileio_load_problem(self, args, kwargs, result):
        self._file_bytes("fileio.bytes_read", args, kwargs)

    _after_fileio_load_report = _after_fileio_load_problem

    def install(self, layers: dict = LAYERS) -> list:
        """Wrap every listed function wherever a dynspec module holds a
        reference to it. Returns the keys that could not be found."""
        absent = []
        for module_name, functions in layers.items():
            try:
                module = importlib.import_module(f"dynspec.{module_name}")
            except ImportError:
                absent += [f"{module_name}.{fn}" for fn in functions]
                continue
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if not callable(original):
                    absent.append(f"{module_name}.{fn_name}")
                    continue
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for holder in list(sys.modules.values()):
                    name = getattr(holder, "__name__", "") or ""
                    if name != "dynspec" and not name.startswith("dynspec."):
                        continue
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))
        return absent

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def per_job(self, jobs_traced: int, overhead_frac: float) -> tuple[dict, list]:
        """Per-layer metrics averaged per traced job, and the names of the
        functions that recorded no call (absent)."""
        n = max(jobs_traced, 1)
        metrics, absent = {}, []
        for module, functions in LAYERS.items():
            for fn in functions:
                key = f"{module}.{fn}"
                calls, total, self_time = self.spans.get(key, (0, 0.0, 0.0))
                if not calls:
                    absent.append(key)
                metrics[f"{key}.calls"] = (calls / n, "count")
                metrics[f"{key}.total_s"] = (total / n, "s")
                metrics[f"{key}.self_s"] = (self_time / n, "s")
        for name, unit in COUNTERS.items():
            metrics[name] = (self.counts.get(name, 0) / n, unit)
        searches = self.spans.get(SEARCH, (0,))[0]
        solves = self.counts.get("annihilator.solves_in_search", 0)
        metrics["annihilator.solves_per_search"] = (solves / searches if searches else 0.0, "ratio")
        metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
        return metrics, absent

"""Seeded closed-loop benchmark of the dynspec CLI.

Run from the repository root:

    python3 perfbench/run.py --workload invariant-wide --seed 1 --seconds 25 --trace 0

A run draws a pool of distinct jobs from --seed and cycles through it.
Untraced (--trace 0): five fresh interpreters each import dynspec.cli
and run one job cold (setup_s); this process then imports the package,
runs one warm-up job and times jobs for --seconds, and on until every
job of the pool has run. A host-speed reference loop runs before and
after every timed job and cold interpreter; gated times are reported at
the reference speed (see NOTES.md).
Traced (--trace 1): half the time runs plain, half with every layer's
public functions wrapped; per-layer metrics are averaged per traced job.
The last stdout line is one JSON object with correct/attempted/failed
and the metrics. Exits 2 when no ``src/dynspec`` exists in the working
directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bench

HERE = os.path.dirname(os.path.abspath(__file__))
COLD_RUNS = 5
CHILD_TIMEOUT_S = 150
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _check_module(path: str, src: str) -> None:
    if not os.path.abspath(path).startswith(src + os.sep):
        raise RuntimeError(f"dynspec was imported from {path}, not from {src}")


def _cold_run(job, src: str, root: str):
    """Import time and first-job record of one fresh interpreter."""
    payload = json.dumps([job.index, job.problem, job.report, job.argvs])
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), payload],
                          env=dict(os.environ, PYTHONPATH=src), cwd=root,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cold-job interpreter exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    _check_module(out["module"], src)
    return out["imported"] - spawned, bench.JobRecord(job.index, out["times"], out["codes"],
                                                      out["error"], out["max_error"])


def _timed_loop(cli_main, job_cycle, seconds: float, pending: set) -> list:
    """Jobs for ``seconds``, and on until every index in ``pending`` ran.
    Each job is bracketed by host-speed references, which sets its scale."""
    records = []
    deadline = time.perf_counter() + seconds
    before = bench.reference()
    while time.perf_counter() < deadline or pending:
        record = bench.run_job(cli_main, next(job_cycle))
        after = bench.reference()
        record.scale = bench.speed_scale(before, after)
        before = after
        records.append(record)
        pending.discard(record.index)
    return records


def _overhead(traced, plain) -> float:
    """Traced job median over the untraced one, minus 1 (verified jobs)."""
    medians = [statistics.median([r.total * r.scale for r in records if r.verified] or [0.0])
               for records in (traced, plain)]
    return medians[0] / medians[1] - 1 if all(medians) else 0.0


def run(args, root: str) -> tuple[list[str], dict]:
    """Run one benchmark; returns (human-readable lines, result object)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dynspec", "cli.py")):
        raise FileNotFoundError(f"no dynspec sources under {src}")
    workload = bench.WORKLOADS[args.workload]
    workdir = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        job_pool = bench.pool(workload, args.seed, workdir)
        workload_jobs = itertools.cycle(job_pool)
        pending = {job.index for job in job_pool}
        imports, cold_records = [], []
        before = bench.reference()
        for _ in range(0 if args.trace else COLD_RUNS):
            seconds, record = _cold_run(next(workload_jobs), src, root)
            after = bench.reference()
            record.scale = bench.speed_scale(before, after)
            before = after
            pending.discard(record.index)
            imports.append(seconds)
            cold_records.append(record)
        if src not in sys.path:
            sys.path.insert(0, src)
        import dynspec.cli
        _check_module(dynspec.cli.__file__, src)
        import numpy
        import scipy

        warmup = bench.run_job(dynspec.cli.main, next(workload_jobs))
        pending.discard(warmup.index)
        if args.trace:
            plain = _timed_loop(dynspec.cli.main, workload_jobs, args.seconds / 2, pending)
            tracer = bench.Tracer()
            missing = tracer.install()
            try:
                traced = _timed_loop(dynspec.cli.main, workload_jobs, args.seconds / 2, pending)
            finally:
                tracer.uninstall()
            metrics, absent = tracer.per_job(len(traced), _overhead(traced, plain))
            warm = plain + traced
        else:
            warm = _timed_loop(dynspec.cli.main, workload_jobs, args.seconds, pending)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics, printed = bench.end_to_end(imports, cold_records, warm, rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    records = cold_records + [warmup] + warm
    attempted, failed, correct = bench.outcome(records, warm)
    errors = [r.max_error for r in records if r.max_error is not None]

    lines = [
        f"# perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        f"# nproc {nproc()} | python {platform.python_version()} | numpy {numpy.__version__} "
        f"| scipy {scipy.__version__} | BLAS threads capped at "
        f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
        f"# jobs per run: {len(cold_records)} cold (one fresh interpreter each) "
        f"+ 1 warm-up + {len(warm)} timed, cycling through {len(job_pool)} distinct jobs; "
        f"one client, closed loop",
    ]
    if imports:
        lines.append(f"# import floor: a fresh interpreter imports dynspec.cli in "
                     f"{statistics.median(imports):.4f} s wall (median of "
                     f"{' '.join(f'{t:.3f}' for t in imports)})")
        lines.append("# cold jobs: " + " ".join(f"{r.total:.3f}" for r in cold_records))
    if not args.trace:
        printed["failed_frac"] = (failed / attempted, "ratio",
                                  f"{failed} of {attempted} jobs; in attempted/failed")
    for name, (value, unit, *note) in metrics.items():
        extra = f"  ({note[0]})" if note else ""
        lines.append(f"{'layer' if args.trace else 'e2e'} {name} = {value:.6g} {unit}{extra}")
    if not args.trace:
        for name, (value, unit, note) in printed.items():
            lines.append(f"e2e {name} = {value:.6g} {unit}  ({note}; not gated)")
    else:
        lines.append(f"# absent (not found or never called): {', '.join(absent) or 'none'}"
                     + (f"; not in the package: {', '.join(missing)}" if missing else ""))
    worst = f"{max(errors):.3e}" if errors else "none"
    lines.append(f"info verified.max_error = {worst}  (not gated)")
    for message in sorted({r.error for r in records if r.failed and r.error})[:5]:
        lines.append(f"# failure: {message}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_note) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        lines, result = run(args, os.getcwd())
    except (FileNotFoundError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # Cap BLAS threads before numpy loads here or in any child interpreter.
    for var in BLAS_VARS:
        os.environ[var] = str(nproc())
    sys.exit(main())

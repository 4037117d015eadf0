"""Layer-scaling sweep: informational, never gated.

Run from the repository root:

    python3 perfbench/sweep.py [--out sweep.json]

Times single layers called directly, first call and best of three warm
calls, over d in {255, 1023, 4095}, m in {3, 15, 31} (pairs with m | d) and
r_max in {16, 32, 64, 128}, plus the ROADMAP baseline case d=255, m=5;
baseline rows are marked. Every row
records its error against an exact reference, so a faster layer that
changes answers shows in the same table. All operators are cyclic
shifts: their spectrum is the d-th roots of unity, known exactly.
"""

import argparse
import json
import os
import platform
import sys
import time

from run import BLAS_VARS, nproc

# Cap BLAS threads at nproc before numpy loads.
NPROC = nproc()
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from dynspec.annihilator import scalar_annihilator  # noqa: E402
from dynspec.invariant import fourier_classes, recover_spectrum_invariant  # noqa: E402
from dynspec.model import Uniform, random_signal, shift_operator, simulate  # noqa: E402
from dynspec.numerics import poly_roots, set_match_error  # noqa: E402
from dynspec.spectral import merge_roots  # noqa: E402

DS = (255, 1023, 4095)
MS = (3, 15, 31)
R_MAXES = (16, 32, 64, 128)
MERGE_COUNTS = (255, 512, 1023, 1536, 4095)
# (255, 5) is a ROADMAP baseline case outside the grid.
INVARIANT_PAIRS = sorted([(d, m) for d in DS for m in MS if d % m == 0] + [(255, 5)])
# The ROADMAP baseline table, as (layer, case).
BASELINE = {("model.simulate", "d=1023 levels=6"), ("invariant.fourier_classes", "d=1023 m=3"),
            ("invariant.recover_spectrum_invariant", "d=255 m=5"),
            ("annihilator.scalar_annihilator", "r_max=64"),
            ("annihilator.scalar_annihilator", "r_max=128")}
REPEATS = 3
WARMUP_S = 1.0


def best_of(fn):
    """Time ``fn``: returns (first call s, best of REPEATS warm calls s,
    result of the last call).

    Warm-up calls run for at least WARMUP_S before the timed ones: on a
    2-vCPU Xeon VM, large fresh arrays ran up to 17x slower for about a
    second after allocation (120 ms against 7 ms for the d=1023 simulate),
    so one warm-up call is not enough. The first call also pays lazy
    set-up such as the cached DFT kernels.
    """
    start = time.perf_counter()
    result = fn()
    first = time.perf_counter() - start
    while time.perf_counter() - start < WARMUP_S:
        result = fn()
    best = float("inf")
    for _ in range(REPEATS):
        begin = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - begin)
    return first, best, result


def unit_roots(d: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(d) / d)


def shift_samples(d: int, m: int, levels: int, seed: int = 0):
    x = random_signal(d, seed)
    return x, simulate(shift_operator(d), x, Uniform(m), levels)


def simulate_row(d: int, levels: int = 6, m: int = 3):
    x = random_signal(d, 0)
    *times, samples = best_of(lambda: simulate(shift_operator(d), x, Uniform(m), levels))
    exact = np.array([np.roll(x, -ell)[::m] for ell in range(levels)])
    return times, float(np.max(np.abs(samples.samples - exact)))


def fourier_classes_row(d: int, m: int):
    _, samples = shift_samples(d, m, 2 * m)
    *times, classes = best_of(lambda: fourier_classes(samples))
    # Under uniform sampling the class series is the length-d/m DFT of
    # each restricted level.
    exact = np.fft.fft(samples.samples, axis=1)
    got = np.stack([c.series for c in classes], axis=1)
    return times, float(np.max(np.abs(got - exact)))


def invariant_row(d: int, m: int):
    _, samples = shift_samples(d, m, 2 * m)
    *times, estimate = best_of(lambda: recover_spectrum_invariant(samples))
    err = set_match_error(estimate.merged, unit_roots(d))
    return times, err if estimate.merged.size == d else float("inf")


def annihilator_row(r_max: int):
    rng = np.random.default_rng(r_max)
    nodes = unit_roots(r_max)
    weights = rng.uniform(0.5, 1.5, r_max) * np.exp(2j * np.pi * rng.random(r_max))
    seq = (nodes[None, :] ** np.arange(2 * r_max)[:, None]) @ weights
    *times, ann = best_of(lambda: scalar_annihilator(seq, r_max))
    return times, set_match_error(poly_roots(ann.poly), nodes)


def merge_row(count: int):
    roots = unit_roots(count)
    lists = np.array_split(roots, 3)
    *times, (merged, _) = best_of(lambda: merge_roots(lists))
    err = set_match_error(merged, roots)
    return times, err if merged.size == count else float("inf")


def cases():
    """(layer, case, thunk) in report order."""
    for d in DS:
        yield "model.simulate", f"d={d} levels=6", lambda d=d: simulate_row(d)
    for d, m in INVARIANT_PAIRS:
        yield ("invariant.fourier_classes", f"d={d} m={m}",
               lambda d=d, m=m: fourier_classes_row(d, m))
        yield ("invariant.recover_spectrum_invariant", f"d={d} m={m}",
               lambda d=d, m=m: invariant_row(d, m))
    for r_max in R_MAXES:
        yield "annihilator.scalar_annihilator", f"r_max={r_max}", lambda r=r_max: annihilator_row(r)
    for count in MERGE_COUNTS:
        yield "spectral.merge_roots", f"{count} roots", lambda c=count: merge_row(c)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layer-scaling sweep (informational).")
    parser.add_argument("--out", help="also write the rows as JSON to this file")
    args = parser.parse_args(argv)
    header = {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
              "scipy": scipy.__version__, "blas_threads": NPROC, "repeats": REPEATS}
    print("# " + " | ".join(f"{k} {v}" for k, v in header.items()))
    print(f"# skipped (m does not divide d): "
          + ", ".join(f"d={d} m={m}" for d in DS for m in MS if d % m))
    print(f"# {'layer':38s} {'case':16s} {'first call':>12s} {'best warm':>12s}  error")
    rows = []
    for layer, case, thunk in cases():
        (first, best), error = thunk()
        baseline = (layer, case) in BASELINE
        rows.append({"layer": layer, "case": case, "first_s": first, "best_s": best,
                     "error": error, "roadmap_baseline": baseline})
        print(f"{layer:40s} {case:16s} {first * 1e3:9.2f} ms {best * 1e3:9.2f} ms  "
              f"{error:.2e}{'  (baseline)' if baseline else ''}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"header": header, "rows": rows}, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())

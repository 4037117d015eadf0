"""The package's public surface, and the layers the benchmark traces."""

import importlib.util
import sys
import types
from pathlib import Path

import dynspec

BENCH = Path(__file__).resolve().parent.parent / "perfbench" / "bench.py"

# Any change to the public API is an edit here.
PUBLIC_NAMES = [
    "AmbiguousOrdering", "AnnihilatorPolynomial", "Circulant", "ConditioningError",
    "Diagonalizable", "DimensionError", "DynspecError", "EvolutionOperator",
    "ExtrapolationModel", "FileFormatError", "IndexSet", "InsufficientDataError",
    "LstSqResult", "MonicPolynomial", "NoAnnihilator", "NotShiftSpectrum",
    "NotSymmetricReal", "RecoveryError", "SampleSet", "Sampler",
    "SpanConditionViolated", "SparseSpectrum", "SpectrumEstimate", "UnderDetermined",
    "Uniform", "annihilator_from_samples", "dft", "fit_extrapolation",
    "fourier_classes", "least_squares", "make_diffusion_filter", "merge_roots",
    "order_symmetric_decreasing", "poly_roots", "prony_reconstruct", "prony_support",
    "prony_values", "random_circulant", "random_diagonalizable", "random_signal",
    "random_sparse_signal", "recover_observable_spectrum", "recover_operator",
    "recover_signal", "recover_spectrum_invariant", "recover_spectrum_via_extrapolation",
    "scalar_annihilator", "set_match_error", "shift_operator", "simulate", "snap_support",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(dynspec).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_every_traced_layer_exists(monkeypatch):
    # a deleted function would otherwise turn its benchmark layer into "absent"
    spec = importlib.util.spec_from_file_location("perfbench_bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    tracer = bench.Tracer()
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    assert missing == []

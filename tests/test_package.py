"""The package's public surface, the module that owns the file format,
and the layers the benchmark traces."""

import ast
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
    "FileFormatError", "IndexSet", "InsufficientDataError",
    "NoAnnihilator", "NotShiftSpectrum",
    "NotSymmetricReal", "RecoveryError", "SampleSet", "Sampler",
    "SpanConditionViolated", "SpectrumEstimate", "UnderDetermined",
    "Uniform", "annihilator_from_samples", "dft", "fit_extrapolation",
    "fourier_classes", "least_squares", "make_diffusion_filter", "merge_roots",
    "order_symmetric_decreasing", "poly_roots", "prony_support",
    "prony_values", "random_circulant", "random_diagonalizable", "random_signal",
    "random_sparse_signal", "recover_observable_spectrum", "recover_operator",
    "recover_signal", "recover_spectrum_invariant", "recover_spectrum_via_extrapolation",
    "scalar_annihilator", "set_match_error", "shift_operator", "simulate", "snap_support",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(dynspec).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_only_fileio_imports_json():
    # the file format is fileio's decision: every file is read and written there
    importers = set()
    for path in Path(dynspec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(name == "json" or name.startswith("json.") for name in modules):
                importers.add(path.name)
    assert importers == {"fileio.py"}


def _modules():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(Path(dynspec.__file__).parent.glob("*.py"))}


def test_only_fileio_names_the_file_format_helpers():
    # the JSON layout of both files, and their schema version, are fileio's
    helpers = {"pairs_to_complex", "_complex_pairs", "SCHEMA_VERSION", "_load_json"}
    namers = set()
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id in helpers
                    or isinstance(node, ast.Attribute) and node.attr in helpers
                    or isinstance(node, ast.alias) and node.name in helpers):
                namers.add(name)
    assert namers == {"fileio.py"}


def test_modules_use_every_name_they_import():
    # no linter runs on this package; __init__ imports names to export them
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}" for bound, line in imported.items()
                   if bound not in used]
    assert unused == []


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


def test_traced_dispatch_counts_every_command_through_the_cached_parser(monkeypatch, tmp_path):
    # the parser is built once per process, before the tracer swaps the
    # cli.cmd_* functions; dispatch must still reach the swapped ones
    from dynspec import cli

    spec = importlib.util.spec_from_file_location("perfbench_bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    problem, report = str(tmp_path / "p.json"), str(tmp_path / "r.json")
    job = (["simulate", "--mode", "shift", "--d", "15", "--m", "3", "--levels", "6",
            "--seed", "2", "--include-truth", "--out", problem],
           ["recover", "--in", problem, "--mode", "invariant", "--out", report],
           ["verify", "--in", problem, "--report", report])
    assert cli.main(["verify", "--help"]) == 0
    tracer = bench.Tracer()
    try:
        assert tracer.install() == []
        for _ in range(2):
            assert [cli.main(list(argv)) for argv in job] == [0, 0, 0]
    finally:
        tracer.uninstall()
    calls = {key: span[0] for key, span in tracer.spans.items()}
    assert calls["cli.cmd_simulate"] == calls["cli.cmd_recover"] == calls["cli.cmd_verify"] == 2

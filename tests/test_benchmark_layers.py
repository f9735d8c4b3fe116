"""The benchmark's per-layer metrics name functions that still exist.

The span tracer in ``bench/`` records ``<module>.<function>`` for every public
function a kdiff_lab module defines, so a renamed or deleted function would
silently read 0 in its per-layer metric.  The benchmark's own spans
(``task.*``, ``setup.*``, ``trace.*``) are not library functions.  The
tracer also reads a few arguments by name to count work (``training_step``'s
``net`` and ``x``, ``sample_data``'s ``batch``, ``monte_carlo_loss``'s
``n_samples``, ``write_csv``'s ``path``); renaming one makes every traced
run fail.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
_BENCH_SPANS = ("task", "setup", "trace")


def test_per_layer_names_are_public_library_functions():
    layers = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    spans = {tuple(layer["name"].split(".")[:2]) for layer in layers}
    spans = sorted(span for span in spans if span[0] not in _BENCH_SPANS)
    assert spans
    for module_name, function_name in spans:
        module = importlib.import_module(f"kdiff_lab.{module_name}")
        fn = getattr(module, function_name, None)
        assert inspect.isfunction(fn), f"{module_name}.{function_name} is not a function"
        assert not function_name.startswith("_")
        assert fn.__module__ == module.__name__, f"{module_name}.{function_name} is defined elsewhere"


def _bench_spans():
    """bench/spans.py, loaded from its file without putting bench/ on the path."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_function_and_argument_it_counts(tmp_path):
    cli = importlib.import_module("kdiff_lab.cli")
    spans = _bench_spans()
    tracer = spans.Tracer()  # reads each counted argument's position, or raises
    assert set(spans.COUNTERS) <= tracer.functions
    path = tmp_path / "t.csv"
    tracer.install()
    try:
        cli.write_csv(path, ["step", "loss"], [np.arange(3), np.linspace(0.0, 1.0, 3)])
    finally:
        tracer.uninstall()
    counts = tracer.take_round()
    assert counts["cli.write_csv.calls"] == 1
    assert counts["cli.write_csv.bytes"] == path.stat().st_size

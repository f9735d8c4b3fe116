"""The benchmark's per-layer metrics name functions that still exist.

The span tracer in ``bench/`` records ``<module>.<function>`` for every public
function a kdiff_lab module defines, so a renamed or deleted function would
silently read 0 in its per-layer metric.  The benchmark's own spans
(``task.*``, ``setup.*``, ``trace.*``) are not library functions.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
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

"""The benchmark's tracer patches relcat functions by name; a renamed
function would break only traced benchmark runs, so check the names here."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "relbench", "tracer.py")


def test_every_traced_function_exists():
    # the tracer imports only the standard library, so it loads on its own
    spec = importlib.util.spec_from_file_location("relbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module_name}.{name}"
        for module_name, names in tracer.LAYERS.values()
        for name in names
        if not callable(getattr(importlib.import_module(module_name), name, None))
    ]
    assert tracer.LAYERS and not missing

"""Every function the traced benchmark run wraps still exists in qplab."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_layer_resolves():
    # the traced run looks each LAYERS name up with getattr, so a deleted
    # name would fail only that run
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"qplab.{module}"), name, None))
    ]
    assert spans.LAYERS and not missing

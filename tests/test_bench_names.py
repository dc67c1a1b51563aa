"""The traced benchmark wraps public functions by name; a rename or removal
in the package would make its traced run fail.  This checks every traced
name against the package without installing the tracer."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{fn}" for mod, fns in tracer.TRACED.items()
               for fn in fns
               if not hasattr(importlib.import_module(f"sqflab.{mod}"), fn)]
    assert not missing

"""The traced benchmark wraps public functions by name; a rename or removal
in the package would make its traced run fail.  This checks every traced
name against the package without installing the tracer, and every other
public function of the package against what a run calls."""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import sqflab
from sqflab import cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


def test_traced_names_exist():
    missing = [f"{mod}.{fn}" for mod, fns in tracer.TRACED.items()
               for fn in fns
               if not hasattr(importlib.import_module(f"sqflab.{mod}"), fn)]
    assert not missing


def test_every_public_function_is_called_by_a_run_or_traced(capsys):
    # a test-only oracle belongs in tests/oracles.py; a traced name stays
    # while the benchmark wraps it
    public = {}
    for info in pkgutil.iter_modules(sqflab.__path__):
        module = importlib.import_module(f"sqflab.{info.name}")
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_clear"):  # a cache hit runs no code
                obj.cache_clear()
            fn = inspect.unwrap(obj)
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and attr not in tracer.TRACED.get(info.name, ())):
                public[f"{info.name}.{attr}"] = fn.__code__
    called = set()
    sys.setprofile(lambda frame, event, _: event == "call"
                   and called.add(frame.f_code))
    scan = ["scan", "--x", "5000", "--q", "1,4,30,1009"]
    try:
        for argv in (["verify", "--suite", "all", "--seed", "0"],
                     scan + ["--kind", "all", "--m", "-1"],
                     scan + ["--kind", "correlation", "--m", "3"]):
            assert cli.main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    assert sorted(k for k, code in public.items() if code not in called) == []

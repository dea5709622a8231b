"""The benchmark's tracer (bench/tracing.py) wraps xlalign entry points by
module attribute, so renaming or dropping one breaks the traced benchmark
run; this catches it in the regular suite."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.SPANS
               if not hasattr(owner, attr)]
    assert tracing.SPANS and not missing

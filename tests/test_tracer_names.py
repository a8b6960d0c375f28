"""The layer tracer in ``perfbench/tracer.py`` names package functions by
layer and name; each must resolve, or every traced run fails on import."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    keys = {(layer, name) for layer, names in tracer.TRACED.items()
            for name in names}
    keys |= (set(tracer.KEEP_DURATIONS) | set(tracer.WORKER_ENTRIES)
             | set(tracer.HIT_PREDICATES))
    missing = [(layer, name) for layer, name in sorted(keys)
               if not callable(getattr(
                   importlib.import_module(f"chainmail.{layer}"), name, None))]
    assert missing == []

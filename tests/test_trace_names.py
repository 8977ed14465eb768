"""The benchmark's trace mode (``perfbench/run.py --trace``) wraps library
functions by name, so each name that ``perfbench/tracer.py`` lists must
still resolve in ngcorr.  This reads the tracer's tables; it changes
nothing under ``perfbench/``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    if not TRACER.is_file():
        pytest.skip(f"no benchmark tracer at {TRACER}")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = _tracer()
    for module, name in tracer.LAYERS:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)


def test_every_traced_cache_resolves_and_reports_its_size():
    tracer = _tracer()
    for module, name in tracer.CACHES:
        assert hasattr(getattr(importlib.import_module(module), name), "cache_info"), (
            module, name)

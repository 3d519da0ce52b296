"""The benchmark tracer patches functions by name; every name it lists must exist."""

import importlib.util
import sys
from pathlib import Path

import entrocone.cli  # noqa: F401  (imports every module the tracer patches)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_function_resolves():
    missing = []
    for module, fn_name, *_ in _layers():
        loaded = sys.modules.get(f"entrocone.{module}")
        if loaded is None or not callable(getattr(loaded, fn_name, None)):
            missing.append(f"entrocone.{module}.{fn_name}")
    assert missing == []

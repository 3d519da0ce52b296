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


def test_cli_alone_loads_every_traced_function(fresh_python):
    # in the full suite earlier test files have imported every module already
    result = fresh_python(f"""
import importlib.util, json, sys
import entrocone.cli
spec = importlib.util.spec_from_file_location("_perfbench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
unloaded = sorted({{f"entrocone.{{m}}" for m, *_ in tracer.LAYERS}} - set(sys.modules))
unbound = [f"entrocone.{{m}}.{{fn}}" for m, fn, *_ in tracer.LAYERS
           if not callable(getattr(sys.modules.get(f"entrocone.{{m}}"), fn, None))]
main = entrocone.cli.main
with tracer.Tracer().installed():
    wrapped = entrocone.cli.main is not main
print(json.dumps({{"unloaded": unloaded, "unbound": unbound, "wrapped": wrapped,
                  "restored": entrocone.cli.main is main}}))
""")
    assert result == {"unloaded": [], "unbound": [], "wrapped": True, "restored": True}

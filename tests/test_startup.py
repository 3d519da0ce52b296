"""The exact pipeline starts without numpy; only the float route imports it."""

import json

import pytest

from entrocone.distributions import model_to_json, witness_line
from entrocone.polyhedra import HRep, VRep, rep_to_json

# run cli.main in the fresh interpreter, then report the exit code, a digest
# of stdout and which of the modules in question are loaded
RUN_MAIN = """
import contextlib, hashlib, io, json, sys
from entrocone.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main({argv!r})
print(json.dumps({{"code": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                  "loaded": [m for m in {modules!r} if m in sys.modules]}}))
"""

MODULES = ("numpy", "entrocone.distributions", "entrocone._simplex")

# SHA-256 of stdout, recorded while numpy was still imported with the package
FLOAT_ROUTE_STDOUT = {
    "entropy": "3e81f880b2b0cf64cb8af1913f4c27e55f03e6e11c354c244ddc20fee17d4131",
    "bc-eval": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
}

TABLES = {
    "alphabets": [2, 2],
    "tables": {
        "00": [[0.5, 0.0], [0.0, 0.5]],
        "01": [[0.25, 0.25], [0.25, 0.25]],
        "10": [[0.25, 0.25], [0.25, 0.25]],
        "11": [[0.25, 0.25], [0.25, 0.25]],
    },
}


def run_main(fresh_python, *argv):
    return fresh_python(RUN_MAIN.format(argv=list(argv), modules=MODULES))


@pytest.mark.parametrize("module", ["entrocone", "entrocone.cli"])
def test_import_loads_no_numpy(fresh_python, module):
    loaded = fresh_python(f"import json, sys, {module}\n"
                          f"print(json.dumps([m for m in {MODULES!r} if m in sys.modules]))")
    # the tracer patches functions in both modules, so importing must still load them
    assert loaded == ["entrocone.distributions", "entrocone._simplex"]


@pytest.mark.parametrize("argv", [
    ["outer", "pn:3"],
    ["verify", "pn:4"],
    ["--engine", "dd", "marginalize", "bell"],
    ["--engine", "fm", "marginalize", "bell"],
    ["bc-cone", "3"],
    ["rays", "h.json"],
    ["facets", "v.json"],
], ids=" ".join)
def test_exact_subcommand_loads_no_numpy(fresh_python, tmp_path, argv):
    (tmp_path / "h.json").write_text(rep_to_json(HRep(2, inequalities=((1, 0), (0, 1)))))
    (tmp_path / "v.json").write_text(rep_to_json(VRep(2, rays=((1, 0), (0, 1)))))
    result = run_main(fresh_python, *argv)
    assert result["code"] == 0
    assert "numpy" not in result["loaded"]


@pytest.mark.parametrize("command", list(FLOAT_ROUTE_STDOUT))
def test_float_route_loads_numpy_with_the_same_stdout(fresh_python, tmp_path, command):
    (tmp_path / "entropy.json").write_text(model_to_json(witness_line(1, 1, 2)))
    (tmp_path / "bc-eval.json").write_text(json.dumps(TABLES))
    result = run_main(fresh_python, command, f"{command}.json")
    assert result["code"] == 0
    assert "numpy" in result["loaded"]
    assert result["sha256"] == FLOAT_ROUTE_STDOUT[command]

"""Command-line behaviour: subcommands, formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import entrocone
from entrocone.analysis import observed_outer_cone, report_to_text, verify_line_tightness
from entrocone.causal import CausalStructure, build_line_structure
from entrocone.cli import _build_parser, main
from entrocone.distributions import model_to_json, witness_line
from entrocone.polyhedra import rep_to_json, HRep, VRep

from reference_tables import LINE4_RAYS
from test_malformed_input import MISSING_PARENT_ALPHABET, REPEATED_EDGE, REPEATED_EDGE_MODEL


# SHA-256 of stdout, recorded before the incremental echelon kernel replaced
# one rref per candidate equality (the two fm marginalize digests: before
# marginalize projected in block coordinates); these answers must stay
# byte-identical.  The fm entries of bc-cone 4 and marginalize bell pin the
# Fourier-Motzkin route to the digests of the double-description one
PINNED_STDOUT = {
    "outer pn:7": "05da730a5d417427ac6eda5d2c1f43c6c38df50e9ef4409c94062038a407e4de",
    "outer pn:8": "3d97c03d684cfe0c9784dfbb59b4cb4fb032a1fa0288ceca2a371fb1e55506e7",
    "outer pn:9": "a425f1661948d4014a8ae9da7a5d79110181bcb585806db55a369bbc15292b8a",
    "outer ptilde:3": "9f6a6b5a30893ebea60a2857ad4550d9cbac41b25c60a1af5125612594bfd5a6",
    "outer ptilde:4": "3263f7185ca822a0543ebf17acae5fc55500ed1ce993e152a80f842ba363eb00",
    "bc-cone 4": "3ec8e08ca7b25f6da03ce61baa84993134aa02d9d0a00b2848595e4d24baec36",
    "--engine fm bc-cone 4": "3ec8e08ca7b25f6da03ce61baa84993134aa02d9d0a00b2848595e4d24baec36",
    "--format json bc-cone 3": "3ebfc6ed40a51a32aa1a482753b2aa3f1ca858315ebd7c2a86c391d375e52ec7",
    "--engine dd marginalize bell":
        "e016071a8aa27c2ec76c0386dd86eedba26c7514088b2e083f335988fe43c058",
    "--engine fm marginalize bell":
        "e016071a8aa27c2ec76c0386dd86eedba26c7514088b2e083f335988fe43c058",
    "--engine fm --max-nodes 9 marginalize pn:5":
        "f10e6e7e62420dd0d9ab0a57c23ffc314b0b9ced4245c6b5fa9074242872fcc4",
    "--engine fm marginalize ptilde:3":
        "9f6a6b5a30893ebea60a2857ad4550d9cbac41b25c60a1af5125612594bfd5a6",
    "verify pn:8": "0160a390cda66c7ce4083d2ab8f9b73b82afbdd11d0658cb1d04bb2fae26464a",
    "--format json verify pn:9": "673d2248e76b501badc27ff7f80cddc92c00957517b3ddef8ddf38e796900d2a",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOuter:
    def test_line4_text(self, capsys):
        code, out, _ = run_cli(capsys, "outer", "pn:4")
        assert code == 0
        assert "verdict: outer-only" in out
        for ray in LINE4_RAYS.values():
            assert " ".join(str(v) for v in ray) in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "outer", "pn:2")
        assert code == 0
        data = json.loads(out)
        assert data["structure"] == "pn:2"
        assert len(data["rays"]) == 3

    def test_structure_file(self, tmp_path, capsys):
        path = tmp_path / "line2.json"
        path.write_text(build_line_structure(2).to_json())
        code, out, _ = run_cli(capsys, "outer", str(path))
        assert code == 0
        assert "extremal rays (3)" in out

    @pytest.mark.parametrize("command", ["outer", "marginalize"])
    def test_structure_file_report_names_the_path_as_typed(self, tmp_path, capsys, monkeypatch,
                                                           command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "line2.json").write_text(build_line_structure(2).to_json())
        for typed in ("line2.json", "./line2.json", str(tmp_path / "line2.json")):
            code, out, _ = run_cli(capsys, command, typed)
            assert code == 0
            assert out.startswith(f"structure: {typed}\n")
            code, out, _ = run_cli(capsys, "--format", "json", command, typed)
            assert code == 0
            assert json.loads(out)["structure"] == typed

    def test_unnamed_structure_reports_as_structure(self):
        structure = CausalStructure.from_json(build_line_structure(2).to_json())
        assert report_to_text(observed_outer_cone(structure)).startswith("structure: structure\n")

    def test_unknown_structure(self, capsys):
        code, _, err = run_cli(capsys, "outer", "pn:zero")
        assert code == 1
        assert "neither a built-in structure name nor an existing file" in err

    # an empty selector is no name, and not the current directory either
    @pytest.mark.parametrize("selector, reason", [("pn:0", "n >= 1"), ("ptilde:2", "k >= 3"),
                                                  ("", "unknown structure name ''")])
    def test_bad_size_gives_the_builder_reason(self, capsys, selector, reason):
        code, out, err = run_cli(capsys, "outer", selector)
        assert code == 1
        assert out == ""
        assert "neither a built-in structure name nor an existing file" in err
        assert reason in err

    @pytest.mark.parametrize("argv", [("outer", "pn:100000"), ("verify", "pn:30")],
                             ids=" ".join)
    def test_oversized_selector_is_refused_before_it_is_built(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"{argv[1]!r}" in err and "ceiling is 20" in err
        assert "Traceback" not in err

    def test_oversized_structure_file_is_refused(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"nodes": [{"id": f"X{i}"} for i in range(21)]}))
        code, out, err = run_cli(capsys, "outer", str(path))
        assert code == 1
        assert out == ""
        assert "structure file has 21 observed nodes; the ceiling is 20" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, payload", [("outer", REPEATED_EDGE),
                                                  ("entropy", REPEATED_EDGE_MODEL)])
    def test_repeated_edge_is_refused(self, tmp_path, capsys, command, payload):
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert "edge ('C', 'B') is listed twice" in err
        assert "Traceback" not in err


class TestVerify:
    def test_line4_tight_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "pn:4")
        assert code == 0
        assert "verdict: tight" in out
        assert out.count("<- witness") == 10

    def test_requires_line_selector(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bell")
        assert code == 1
        assert "pn:<n>" in err

    def test_bad_line_size_names_the_selector(self, capsys):
        code, out, err = run_cli(capsys, "verify", "pn:x")
        assert code == 1
        assert out == ""
        assert "'pn:x'" in err

    def test_tolerance_option_is_gone(self, capsys):
        # witness vectors are checked as exact integers, with no threshold to set
        code, out, err = run_cli(capsys, "--tolerance", "1e-9", "verify", "pn:2")
        assert code == 1
        assert out == ""
        assert "usage:" in err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_tolerance_rejected(self, capsys, value):
        # with the option gone, a malformed value is refused as a usage error
        code, out, err = run_cli(capsys, "--tolerance", value, "verify", "pn:2")
        assert code == 1
        assert out == ""
        assert "usage:" in err
        assert "--tolerance" not in err.split("error:")[0]

    def test_thin_adapter_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "pn:3")
        data = json.loads(out)
        report = verify_line_tightness(3)
        assert data["verdict"] == report.verdict
        assert [tuple(r) for r in data["rays"].values()] == list(report.vrep.rays)

    @pytest.mark.parametrize("n", [14, 20])
    def test_line_above_the_ceiling_exits_at_once(self, capsys, monkeypatch, n):
        import entrocone.analysis as analysis_mod

        def built(*args):
            raise AssertionError("verify built a system above its ceiling")

        monkeypatch.setattr(analysis_mod, "reduced_line_system", built)
        code, out, err = run_cli(capsys, "verify", f"pn:{n}")
        assert code == 1
        assert out == ""
        assert f"verify of a {n}-node line is refused; the ceiling is 13 nodes" in err

    def test_outer_only_verdict_exits_two(self, capsys, monkeypatch):
        import entrocone.analysis as analysis_mod

        def fake_verify(n):
            report = verify_line_tightness(n)
            report.verdict = "outer-only"
            return report

        monkeypatch.setattr(analysis_mod, "verify_line_tightness", fake_verify)
        code, out, _ = run_cli(capsys, "verify", "pn:2")
        assert code == 2
        assert "verdict: outer-only" in out


class TestMarginalize:
    def test_bell_dd(self, capsys):
        code, out, _ = run_cli(capsys, "--engine", "dd", "marginalize", "bell")
        assert code == 0
        for ray in LINE4_RAYS.values():
            assert " ".join(str(v) for v in ray) in out

    def test_guard_message_names_flag(self, capsys):
        code, _, err = run_cli(capsys, "marginalize", "pn:5")  # 9 nodes
        assert code == 1
        assert "--max-nodes" in err

    @pytest.mark.parametrize("argv", [["--max-nodes", "-3", "marginalize", "bell"],
                                      ["--max-nodes", "0", "outer", "pn:3"]],
                             ids=["negative-marginalize", "zero-outer"])
    def test_max_nodes_below_one_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "--max-nodes" in err
        assert "at least 1" in err

    def test_guard_override_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--max-nodes", "7", "--engine", "dd",
                               "marginalize", "pn:3")
        assert code == 0
        assert "extremal rays" in out


class TestBcCommands:
    def test_bc_cone_3(self, capsys):
        code, out, _ = run_cli(capsys, "bc-cone", "3")
        assert code == 0
        assert "extremal rays (20)" in out
        assert "non-Shannon members incl. equalities: 36" in out

    def test_bc_eval(self, tmp_path, capsys):
        tables = {
            "alphabets": [2, 2],
            "tables": {
                "00": [[0.5, 0.0], [0.0, 0.5]],
                "01": [[0.25, 0.25], [0.25, 0.25]],
                "10": [[0.25, 0.25], [0.25, 0.25]],
                "11": [[0.25, 0.25], [0.25, 0.25]],
            },
        }
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(tables))
        code, out, _ = run_cli(capsys, "bc-eval", str(path))
        assert code == 0
        assert out.strip() == "3"

    def test_bc_eval_all_deterministic_zero(self, tmp_path, capsys):
        det = [[1.0, 0.0], [0.0, 0.0]]
        tables = {"alphabets": [2, 2],
                  "tables": {k: det for k in ("00", "01", "10", "11")}}
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(tables))
        code, out, _ = run_cli(capsys, "bc-eval", str(path))
        assert code == 0
        assert out.strip() == "0"

    def test_bc_eval_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "tables.json"
        path.write_text('{"alphabets": [2, 2], "tables": {"00": [[1.0,0.0],[0.0,0.0]]}}')
        code, _, err = run_cli(capsys, "bc-eval", str(path))
        assert code == 1
        assert "tables.01" in err


class TestEntropyCommand:
    def test_witness_entropy(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(model_to_json(witness_line(1, 2, 2)))
        code, out, _ = run_cli(capsys, "entropy", str(path))
        assert code == 0
        assert "H(X1) = 1" in out
        assert "H(X1X2) = 1" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(model_to_json(witness_line(1, 1, 2)))
        code, out, _ = run_cli(capsys, "--format", "json", "entropy", str(path))
        data = json.loads(out)
        assert data["H(X1)"] == pytest.approx(1.0)

    def test_zero_entropy_prints_no_negative_zero(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(model_to_json(witness_line(1, 1, 2)))  # X2 is the constant 1
        _, text, _ = run_cli(capsys, "entropy", str(path))
        assert "H(X2) = 0" in text.splitlines()
        assert "-0" not in text
        _, out, _ = run_cli(capsys, "--format", "json", "entropy", str(path))
        data = json.loads(out)
        assert math.copysign(1, data["H(X2)"]) == 1

    def test_malformed_model_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text('{"structure": "pn:2", "alphabets": {"X1": 2}}')
        code, _, err = run_cli(capsys, "entropy", str(path))
        assert code == 1
        assert "cpts" in err

    def test_missing_parent_alphabet_names_the_node(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(MISSING_PARENT_ALPHABET))
        code, out, err = run_cli(capsys, "entropy", str(path))
        assert code == 1
        assert out == ""
        assert "C1" in err
        assert "Traceback" not in err

    def test_joint_above_the_ceiling_is_refused(self, tmp_path, capsys):
        roots = [f"R{k}" for k in range(27)]  # 2^27 cells, 1 GiB of float64
        # 20 observed roots, the most a structure file may have, and 7 hidden ones
        kinds = ["observed"] * 20 + ["unobserved"] * 7
        model = {
            "structure": {"nodes": [{"id": r, "kind": kind} for r, kind in zip(roots, kinds)],
                          "edges": []},
            "alphabets": {r: 2 for r in roots},
            "cpts": {r: [0.5, 0.5] for r in roots},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, out, err = run_cli(capsys, "entropy", str(path))
        assert code == 1
        assert out == ""
        assert "the joint of 27 nodes" in err and "ceiling" in err
        assert "Traceback" not in err

    def test_inline_structure_model(self, tmp_path, capsys):
        model = {
            "structure": {"nodes": [{"id": "U", "kind": "observed"}], "edges": []},
            "alphabets": {"U": 4},
            "cpts": {"U": [0.25, 0.25, 0.25, 0.25]},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, out, _ = run_cli(capsys, "entropy", str(path))
        assert code == 0
        assert "H(U) = 2" in out


class TestConversionCommands:
    def test_rays_from_hrep_file(self, tmp_path, capsys):
        path = tmp_path / "cone.json"
        path.write_text(rep_to_json(HRep(2, inequalities=((1, 0), (0, 1)))))
        code, out, _ = run_cli(capsys, "rays", str(path))
        assert code == 0
        assert "CONE_SECTION" in out

    def test_facets_from_vrep_file(self, tmp_path, capsys):
        path = tmp_path / "cone.json"
        path.write_text(rep_to_json(VRep(2, rays=((1, 0), (0, 1)))))
        code, out, _ = run_cli(capsys, "facets", str(path))
        assert code == 0
        assert "INEQUALITIES_SECTION" in out

    def test_wrong_kind_rejected(self, tmp_path, capsys):
        path = tmp_path / "cone.json"
        path.write_text(rep_to_json(VRep(2, rays=((1, 0),))))
        code, _, err = run_cli(capsys, "rays", str(path))
        assert code == 1
        assert "hrep" in err


class TestCliContract:
    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--frobnicate", "outer", "pn:2")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "bc-eval", "/nonexistent/tables.json")
        assert code == 1

    def test_unreadable_path_names_path_and_reason(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "rays", str(tmp_path))
        assert code == 1
        assert out == ""
        assert str(tmp_path) in err
        assert "Traceback" not in err
        assert "directory" in err.lower()

    @pytest.mark.parametrize("command", ["rays", "facets", "outer", "entropy", "bc-eval"])
    def test_non_utf8_file_names_the_path(self, tmp_path, capsys, command):
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert str(path) in err
        assert "UTF-8" in err

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "--format", "json", "outer", "pn:3")
        _, out2, _ = run_cli(capsys, "--format", "json", "outer", "pn:3")
        assert out1 == out2
        _, t1, _ = run_cli(capsys, "verify", "pn:4")
        _, t2, _ = run_cli(capsys, "verify", "pn:4")
        assert t1 == t2

    # in process, fm bc-cone 4 takes 0.5-0.75 s in each format and fm marginalize pn:3 0.02-0.03 s
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", [("marginalize", "bell"), ("bc-cone", "3"),
                                         ("marginalize", "pn:3"), ("bc-cone", "4")],
                             ids="-".join)
    def test_engines_print_the_same_bytes(self, capsys, command, fmt):
        fm = run_cli(capsys, "--format", fmt, "--engine", "fm", *command)
        dd = run_cli(capsys, "--format", fmt, "--engine", "dd", *command)
        assert fm[0] == dd[0] == 0
        assert fm[1] == dd[1]

    @pytest.mark.parametrize("argv", list(PINNED_STDOUT))
    def test_pinned_stdout_digest(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_marginalize_prints_the_outer_report_of_a_line(self, capsys, n):
        # projecting the all-node system reaches outer's cone, named and printed alike
        marginal = run_cli(capsys, "--max-nodes", "9", "marginalize", f"pn:{n}")
        outer = run_cli(capsys, "outer", f"pn:{n}")
        assert marginal[0] == outer[0] == 0
        assert marginal[1] == outer[1]

    @pytest.mark.parametrize("command", ["outer", "verify"])
    def test_closed_stdout_exits_quietly(self, command):
        # ~200 kB of JSON outgrows the pipe, so the writer meets the closed end
        env = dict(os.environ, PYTHONPATH=str(Path(entrocone.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "entrocone.cli", "--format", "json",
                                 command, "pn:7"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
        assert err == ""  # no traceback, and no complaint from the exit flush

    def test_parser_is_built_once_per_process(self, capsys):
        _build_parser.cache_clear()
        code, out, err = run_cli(capsys, "verify")  # usage error: no structure
        assert code == 1 and out == "" and "usage:" in err
        after_error = run_cli(capsys, "verify", "pn:3")
        assert _build_parser.cache_info().misses == 1
        _build_parser.cache_clear()
        assert run_cli(capsys, "verify", "pn:3") == after_error

    @pytest.mark.parametrize("command", ["outer", "verify", "marginalize", "bc-cone",
                                         "bc-eval", "entropy", "rays", "facets"])
    def test_verbose_timing_on_stderr_only(self, tmp_path, capsys, command):
        files = {
            "bc-eval": json.dumps({"alphabets": [2, 2],
                                   "tables": {k: [[0.5, 0.0], [0.0, 0.5]]
                                              for k in ("00", "01", "10", "11")}}),
            "entropy": model_to_json(witness_line(1, 2, 2)),
            "rays": rep_to_json(HRep(2, inequalities=((1, 0), (0, 1)))),
            "facets": rep_to_json(VRep(2, rays=((1, 0), (0, 1)))),
        }
        if command in files:
            path = tmp_path / "input.json"
            path.write_text(files[command])
            operand = str(path)
        else:
            operand = {"outer": "pn:2", "verify": "pn:2", "marginalize": "pn:2",
                       "bc-cone": "3"}[command]
        plain = run_cli(capsys, command, operand)
        code, out, err = run_cli(capsys, "--verbose", command, operand)
        assert code == 0
        assert plain == (0, out, "")  # the same stdout, and nothing on stderr
        assert re.fullmatch(r"\[timing\] \d+\.\d{3}s\n", err)

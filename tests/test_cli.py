import argparse
import enum
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import singres
from singres import cli, verify
from singres.cli import main
from singres.project import DegenerateProjectionError
from test_call_counts import CLI_EXPECTED
from test_repo import ROOT, _leaf_commands


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_flags(self, capsys):
        code, out = run(capsys, "classify", "--b1", "0,1,3", "--b2", "0,3")
        assert code == 0
        data = json.loads(out)
        assert data["conditions"]["cond2"] is True
        assert data["conditions"]["cond5"] is True
        assert data["verdict"]["part_i_generic_A1"] is False

    def test_json_input(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"b1": [0, 1, 2, 3], "b2": [0, 1, 2, 3]}))
        code, out = run(capsys, "classify", "--input", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["part_i_generic_A1"] is True

    def test_malformed_input(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"b1": [0]}')
        code = main(["classify", "--input", str(path)])
        assert code == 2

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--nonsense"])
        assert exc.value.code == 2

    def test_negative_first_exponent_takes_equals(self, capsys):
        # after a space, "-3,1,2" reads as an option, not as --b1's value
        code, out = run(capsys, "classify", "--b1=-3,1,2", "--b2", "0,2")
        assert code == 0 and "verdict" in json.loads(out)
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--b1", "-3,1,2", "--b2", "0,2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: singres classify ")
        assert "singres classify: error: argument --b1: expected one argument" in err

    @pytest.mark.parametrize("b1", ["0,1,3", "0,1"])
    @pytest.mark.parametrize("command", [("classify",), ("scan", "strata")])
    def test_huge_gap_gcd_is_fast(self, capsys, command, b1):
        # the split search tries only 4 and the odd primes dividing the gcds
        # of the other side's gap gcd with the first differences, not every
        # k up to that gap gcd: 10^12 here, or 2^60, whose one candidate 4
        # splits (0, 1)
        b2 = "0,1000000000000" if b1 == "0,1,3" else f"0,{2**60}"
        start = time.perf_counter()
        code, out = run(capsys, *command, "--b1", b1, "--b2", b2)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        data = json.loads(out)
        if command == ("classify",):
            assert data["conditions"]["cond2"] is (b1 == "0,1")
        else:
            assert data["report"]["mismatches"] == []


class TestResultant:
    def test_degree_one(self, capsys):
        code, out = run(capsys, "resultant", "--b1", "0,1", "--b2", "0,1")
        assert code == 0
        data = json.loads(out)
        assert data["pretty"] in ("f1*g0 - f0*g1", "-f1*g0 + f0*g1")

    def test_bound(self, capsys):
        code = main(["resultant", "--b1", "0,10", "--b2", "0,10", "--det-bound", "8"])
        assert code == 2

    def test_report_observability(self, capsys):
        code, out = run(capsys, "resultant", "--b1", "0,1,3", "--b2", "0,3")
        assert code == 0
        data = json.loads(out)
        assert data["sylvester_size"] == 6
        assert data["terms"] == len(data["resultant"]["terms"]) == 5
        assert set(data["timings"]) == {"det_s"} and data["timings"]["det_s"] >= 0
        assert data["version"] == singres.__version__


class TestPointAndGerm:
    def test_point_classify(self, capsys, tmp_path):
        payload = {
            "f": {"support": [0, 1, 2], "coeffs": {"0": "2", "1": "-3", "2": "1"}},
            "g": {"support": [0, 1, 2], "coeffs": {"0": "3", "1": "-4", "2": "1"}},
        }
        path = tmp_path / "pt.json"
        path.write_text(json.dumps(payload))
        code, out = run(capsys, "point-classify", "--input", str(path))
        assert code == 0
        assert json.loads(out)["classification"]["tag"] == "SmoothPoint"

    def test_point_classify_conjugate_node(self, capsys, monkeypatch):
        # 2x(x + 1)(x^2 - 3x + 1)(x^2 + 5x + 1) on 1..6 and
        # x^2(x^2 + 5x + 1)(x^3 - 3x^2 - 4x + 2) on 2..7: a node at the two
        # roots of x^2 + 5x + 1, with gap gcd 1 on both sides
        payload = {
            "f": {"support": [1, 2, 3, 4, 5, 6], "coeffs": {"1": "2", "2": "6", "3": "-22", "4": "-22", "5": "6", "6": "2"}},
            "g": {"support": [2, 3, 4, 5, 6, 7], "coeffs": {"2": "2", "3": "6", "4": "-21", "5": "-18", "6": "2", "7": "1"}},
        }
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        code, out = run(capsys, "point-classify", "--input", "-")
        assert code == 0
        assert json.loads(out)["classification"] == {"reason": None, "tag": "NodeA1"}

    def test_germ_classify(self, capsys, tmp_path):
        payload = {"terms": [{"exp": [0, 2], "coef": "1"}, {"exp": [3, 0], "coef": "-1"}]}
        path = tmp_path / "germ.json"
        path.write_text(json.dumps(payload))
        code, out = run(capsys, "germ-classify", "--input", str(path))
        assert code == 0
        got = json.loads(out)["classification"]
        assert got["tag"] == "UniTangent" and got["slope"] == "2/3"


class TestInputErrors:
    @pytest.mark.parametrize(
        "command",
        [("point-classify",), ("germ-classify",), ("project3d",), ("classify",), ("resultant",), ("scan", "codim")],
        ids=lambda argv: "-".join(argv),
    )
    @pytest.mark.parametrize("content", [None, '{"f": ', "[1, 2]"], ids=["missing", "malformed", "list"])
    def test_bad_input_exits_2(self, capsys, tmp_path, command, content):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        code = main([*command, "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --input") and "Traceback" not in err

    UTF16_BYTES = b"\xff\xfe{\x00}\x00"  # '{}' in UTF-16 with its byte-order mark

    def test_undecodable_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(self.UTF16_BYTES)
        assert main(["classify", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --input: not text") and "Traceback" not in err

    def test_undecodable_stdin_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(self.UTF16_BYTES), encoding="utf-8"))
        assert main(["point-classify", "--input", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --input: not text") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, content",
        [
            (("point-classify",), {"f": 3, "g": 4}),
            (("point-classify",), {"f": {"support": [0, 1], "coeffs": [1, 2]}, "g": 4}),
            (("germ-classify",), {"terms": 5}),
            (("germ-classify",), {"terms": [3]}),
            (("project3d",), {"a1": 3, "a2": 4}),
            (("project3d",), {"a1": [1, 2], "a2": [[0, 0, 0]]}),
            (("classify",), {"b1": 3, "b2": 4}),
            (("resultant",), {"b1": 3, "b2": [0, 1]}),
            (("scan", "strata"), {"b1": [0, 1], "b2": 7}),
        ],
        ids=lambda v: "-".join(v) if isinstance(v, tuple) else None,
    )
    def test_wrongly_typed_fields_exit_2(self, capsys, tmp_path, command, content):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code = main([*command, "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --input: wrongly typed field") and "Traceback" not in err

    SCAN_SUPPORTS = {"a1": [[1, 0, 0], [0, 0, 2]], "a2": [[0, 1, 0], [0, 0, 1]]}
    SCAN_ARGS = ["--scan", "--rho-steps", "1", "--theta-steps", "1"]

    @pytest.mark.parametrize(
        "coeffs",
        [
            {"coeffs1": {"0,0,0": "x"}, "coeffs2": {"0,1,0": [-1, 0]}},
            {"coeffs1": {"1,0,0": [-1, 0]}, "coeffs2": {"a,b,c": 1}},
            {"coeffs1": {"1, 0": [-1, 0]}, "coeffs2": {"0,0,1": 1}},
            {"coeffs1": {"0,0,7": 1}, "coeffs2": {"0,0,1": 1}},
            {"coeffs1": {"1,0,0": 1}, "coeffs2": {"3,3,1": 1}},
        ],
        ids=["value", "key", "arity", "off-support", "off-support-same-degree"],
    )
    def test_malformed_scan_coefficients_exit_2(self, capsys, tmp_path, coeffs):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({**self.SCAN_SUPPORTS, **coeffs}))
        assert main(["project3d", "--input", str(path), *self.SCAN_ARGS]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --input") and "Traceback" not in err

    @pytest.mark.parametrize("given", [{"coeffs1": {"0,0,2": [1, 0]}}, {"coeffs2": {"0,0,1": [1, 0]}}], ids=["1", "2"])
    def test_one_sided_scan_coefficients_exit_2(self, capsys, tmp_path, given):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({**self.SCAN_SUPPORTS, **given}))
        assert main(["project3d", "--input", str(path), *self.SCAN_ARGS]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --input: give both coeffs1 and coeffs2 or neither")


PAIR_ARGS = ["--b1", "0,1,3", "--b2", "0,3"]
# the refusal of a point-classify coefficient that is no exact rational
NOT_EXACT = "not an exact rational: {}; give an integer, a 'p/q' or decimal string, or a JSON number"
SUPPORTS_3D = {"a1": [[0, 0, 0], [1, 0, 1]], "a2": [[0, 0, 0], [0, 1, 1]]}
# leaf command -> (its arguments, its --input JSON on stdin, the module
# attribute it computes with)
COMPUTES_WITH = {
    "classify": (PAIR_ARGS, None, (cli, "check_conditions")),
    "resultant": (PAIR_ARGS, None, (cli, "resultant_poly")),
    "point-classify": (
        ["--input", "-"],
        {"f": {"support": [0, 1], "coeffs": {"0": "1", "1": "-1"}}, "g": {"support": [0, 1], "coeffs": {"0": "2", "1": "-2"}}},
        (cli, "classify_point"),
    ),
    "germ-classify": (["--input", "-"], {"terms": [{"exp": [0, 2], "coef": "1"}]}, (cli, "classify_germ")),
    "verify-paper": ([], None, (cli.verify, "run_checks")),
    "project3d": (["--input", "-", "--scan", "--rho-steps", "1", "--theta-steps", "1"], SUPPORTS_3D, (cli, "grid_scan")),
    "scan minors": ([], None, (cli, "minors_split_equivalence_scan")),
    "scan strata": (PAIR_ARGS, None, (cli, "scan_corank_strata")),
    "scan codim": (PAIR_ARGS, None, (cli, "estimate_codim")),
}
# leaf command -> (the arguments of a small real run, its --input JSON on stdin)
STRICT_RUNS = {
    **{command: (args, stdin) for command, (args, stdin, _) in COMPUTES_WITH.items()},
    "verify-paper": (["--only", "projection-pipeline"], None),
    "project3d": (["--input", "-", "--scan", "--rho-steps", "3", "--theta-steps", "4"], SUPPORTS_3D),
    "scan minors": (["--n-max", "4", "--spread", "4"], None),
    "scan strata": ([*PAIR_ARGS, "--n-max", "4"], None),
}


class TestErrorContract:
    """`main` alone maps an exception to an exit code, for every command."""

    @staticmethod
    def _raise(exc):
        def raiser(*args, **kwargs):
            raise exc

        return raiser

    @pytest.mark.parametrize("command", [path for path, _ in _leaf_commands(cli.build_parser()[0])])
    def test_value_error_of_the_computation_exits_2(self, capsys, monkeypatch, command):
        args, stdin, (owner, name) = COMPUTES_WITH[command]
        monkeypatch.setattr(owner, name, self._raise(ValueError("boom")))
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
        code = main([*command.split(), *args])
        assert (code, *capsys.readouterr()) == (2, "", "error: boom\n")

    def test_degenerate_projection_exits_3(self, capsys, monkeypatch):
        args, stdin, _ = COMPUTES_WITH["project3d"]
        monkeypatch.setattr(cli, "project_supports", self._raise(DegenerateProjectionError("boom")))
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
        assert (main(["project3d", *args]), *capsys.readouterr()) == (3, "", "error: boom\n")

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["project3d", "--input", "-"], "--tolerance", "nan"),
            (["project3d", "--input", "-"], "--tolerance", "inf"),
            (["project3d", "--input", "-", "--scan"], "--rho-min", "nan"),
            (["project3d", "--input", "-", "--scan"], "--rho-max", "-inf"),
        ],
    )
    def test_non_finite_flag_exits_2(self, capsys, monkeypatch, argv, flag, value):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(SUPPORTS_3D)))
        code = main([*argv, f"{flag}={value}"])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {flag} must be finite, got {value}\n")

    @pytest.mark.parametrize("argv", [["project3d", "--input", "-"], ["project3d", "--input", "-", "--scan"]])
    def test_negative_tolerance_exits_2(self, capsys, monkeypatch, argv):
        # a negative threshold would find no near-zero cell, silently
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(SUPPORTS_3D)))
        code = main([*argv, "--tolerance=-1e-8"])
        assert (code, *capsys.readouterr()) == (2, "", "error: --tolerance must be nonnegative, got -1e-08\n")

    @pytest.mark.parametrize("side, value", [(1, "nan"), (1, "inf"), (2, [0, "NaN"]), (2, "-1e400")])
    def test_non_finite_coefficient_exits_2(self, capsys, monkeypatch, side, value):
        coeffs = {"coeffs1": {"0,0,0": 1, "1,0,1": 1}, "coeffs2": {"0,0,0": 1, "0,1,1": 1}}
        coeffs[f"coeffs{side}"]["0,0,0"] = value
        text = json.dumps({**SUPPORTS_3D, **coeffs}).replace('"NaN"', "NaN")  # a bare NaN token
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(["project3d", "--input", "-", "--scan"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --input: coeffs{side}['0,0,0']: not finite") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, stdin, message",
        [
            (
                ["project3d", "--input", "-", "--scan"],
                {**SUPPORTS_3D, "coeffs1": {"0,0,0": 1, "1,0,1": True}, "coeffs2": {"0,0,0": 1, "0,1,1": 1}},
                "--input: coeffs1['1,0,1']: not a number: True",
            ),
            (
                ["project3d", "--input", "-", "--scan"],
                {**SUPPORTS_3D, "coeffs1": {"0,0,0": 1, "1,0,1": 1}, "coeffs2": {"0,0,0": 1, "0,1,1": [-1, False]}},
                "--input: coeffs2['0,1,1']: not a number: [-1, False]",
            ),
            (
                ["point-classify", "--input", "-"],
                {"f": {"support": [0, 1], "coeffs": {"0": [-1, False], "1": "1"}}, "g": {"support": [0, 1], "coeffs": {"0": "1", "1": "1"}}},
                "--input: f.coeffs['0']: " + NOT_EXACT.format("[-1, False]"),
            ),
        ],
        ids=["project3d-alone", "project3d-pair", "point-classify-pair"],
    )
    def test_bool_complex_coefficient_exits_2(self, capsys, monkeypatch, command, stdin, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
        assert (main(command), *capsys.readouterr()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command, stdin, field",
        [
            ("classify", {"b1": [0, 1]}, "b2"),
            ("point-classify", {"f": {"support": [0, 1], "coeffs": {"0": "1", "1": "1"}}}, "g"),
            ("germ-classify", {"terms": [{"exp": [0, 2]}]}, "coef"),
        ],
    )
    def test_missing_input_field_exits_2(self, capsys, monkeypatch, command, stdin, field):
        # a KeyError of the reader is named like every other --input refusal
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
        assert (main([command, "--input", "-"]), *capsys.readouterr()) == (2, "", f"error: --input: missing field '{field}'\n")

    def test_unknown_check_exits_2(self, capsys):
        known = ", ".join(verify.CHECK_IDS)
        assert (main(["verify-paper", "--only", "nope"]), *capsys.readouterr()) == (2, "", f"error: unknown check 'nope'; known: {known}\n")

    @pytest.mark.parametrize("side", ["f", "g"])
    def test_complex_point_coefficient_exits_2(self, capsys, monkeypatch, side):
        # point-classify decides exactly, so it reads no [re, im] pair
        stdin = {
            "f": {"support": [0, 1, 2], "coeffs": {"0": "2", "1": "-3", "2": "1"}},
            "g": {"support": [0, 1, 2], "coeffs": {"0": "3", "1": "-4", "2": "1"}},
        }
        stdin[side]["coeffs"]["0"] = [2.0, 0.5]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
        message = f"--input: {side}.coeffs['0']: " + NOT_EXACT.format("[2.0, 0.5]")
        assert (main(["point-classify", "--input", "-"]), *capsys.readouterr()) == (2, "", f"error: {message}\n")

    def test_point_classify_takes_no_tolerance(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["point-classify", "--input", "-", "--tolerance", "1e-6"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: singres point-classify [-h]")

    def test_overflowed_scan_exits_2(self, capsys, monkeypatch):
        coeffs = {f"coeffs{i}": {",".join(map(str, p)): 1e200 for p in SUPPORTS_3D[f"a{i}"]} for i in (1, 2)}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({**SUPPORTS_3D, **coeffs})))
        code = main(["project3d", "--input", "-", "--scan"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: |R| overflows double precision at 1600 of 1600 grid cells")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, stdin, message",
        [
            ("classify", {"b1": [0, 1.5, 3], "b2": [0, 2]}, "--input: b1: exponents must be integers, got 1.5"),
            ("classify", {"b1": [0, True, 3], "b2": [0, 2]}, "--input: b1: exponents must be integers, got True"),
            ("classify", {"b1": [0, "2", 3], "b2": [0, 3]}, "--input: b1: exponents must be integers, got '2'"),
            ("project3d", {"a1": [[0, 0, 0], [1, 0.5, 1]], "a2": [[0, 0, 0], [0, 1, 1]]}, "--input: a1: exponents must be integers, got 0.5"),
            ("project3d", {"a1": [[0, 0, 0], [1, 0, 1]], "a2": [[0, 0, 0], [0, True, 1]]}, "--input: a2: exponents must be integers, got True"),
            (
                "point-classify",
                {"f": {"support": [0, 1.5], "coeffs": {"0": "1"}}, "g": {"support": [0, 1], "coeffs": {"0": "1", "1": "-1"}}},
                "--input: f.support: exponents must be integers, got 1.5",
            ),
            ("germ-classify", {"terms": [{"exp": [1.5, 0.5], "coef": "1"}]}, "--input: terms[0].exp: exponents must be integers, got 1.5"),
            ("germ-classify", {"terms": [{"exp": [-1, 2], "coef": "1"}]}, "--input: terms[0].exp: germ exponents must be pairs of nonnegative integers, got [-1, 2]"),
            ("germ-classify", {"terms": [{"exp": [1, 0, 2], "coef": "1"}]}, "--input: terms[0].exp: germ exponents must be pairs of nonnegative integers, got [1, 0, 2]"),
        ],
        ids=lambda value: value.rpartition(": ")[2] if isinstance(value, str) else None,  # a message's id leaves out the field
    )
    def test_non_integer_exponent_exits_2(self, capsys, monkeypatch, command, stdin, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
        assert (main([command, "--input", "-"]), *capsys.readouterr()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, stdin, message",
        [
            (["classify", "--b1", "0,x", "--b2", "0,1"], None, "--b1: invalid literal for int() with base 10: 'x'"),
            (["resultant", "--b1", "0,1", "--b2", "0,1.5"], None, "--b2: invalid literal for int() with base 10: '1.5'"),
            (["classify", "--b1", ",", "--b2", "0,1"], None, "--b1: support set must be nonempty"),
            (["classify", "--input", "-"], {"b1": ["x", 1], "b2": [0, 1]}, "--input: b1: exponents must be integers, got 'x'"),
            (["classify", "--input", "-"], {"b1": [1, 0], "b2": [0, 1]}, "--input: b1: support set must be strictly increasing"),
            (["scan", "strata", "--input", "-"], {"b1": [0, 1], "b2": [0, 2, 2]}, "--input: b2: support set must be strictly increasing"),
            *(
                (["scan", kind, *PAIR_ARGS, "--label", label], None, f"--label: cannot parse label {label!r}")
                for kind, label in [
                    ("strata", "N(1;1;1)"),
                    ("codim", "N(a)"),
                    ("codim", "N(1;)"),
                    ("strata", "N(1,,1)"),
                    ("codim", "N(2,1;1)"),
                    ("strata", "N_x"),
                ]
            ),
            (["classify", "--b1", "0", "--b2", "0,1"], None, "--b1: each support set needs at least two elements"),
            (["classify", "--input", "-"], {"b1": [0, 1], "b2": [1]}, "--input: b2: each support set needs at least two elements"),
            (["scan", "codim", *PAIR_ARGS, "--label", "N(0)"], None, "--label: root orders must be >= 1"),
            (
                ["point-classify", "--input", "-"],
                {"f": {"support": [1, 0], "coeffs": {"0": "1"}}, "g": {"support": [0, 1], "coeffs": {"0": "1", "1": "-1"}}},
                "--input: f.support: support set must be strictly increasing",
            ),
            (
                ["project3d", "--input", "-"],
                {"a1": [[0, 0, 0], [1, 0, 1], [0, 0, 0]], "a2": [[0, 0, 0], [0, 1, 1]]},
                "--input: a1: points must be distinct",
            ),
            (["germ-classify", "--input", "-"], {"terms": [{"exp": [0, 2], "coef": "x"}]}, "--input: terms[0].coef: Invalid literal for Fraction: 'x'"),
            (["resultant", "--b1", "0,20", "--b2", "0,20"], None, "--det-bound: determinant too large: Sylvester size 40 > 16"),
        ],
        ids=[
            "b1-text", "b2-float", "b1-empty", "input-b1-text", "input-b1-order", "input-b2-repeat", "label-three-rows", "label-letter",
            "label-empty-row", "label-empty-order", "label-unequal-rows", "label-no-body", "b1-one-element", "input-b2-one-element",
            "label-order-zero", "point-support-order", "project3d-repeat", "germ-coef-text", "det-bound-size",
        ],
    )
    def test_refusal_names_its_input(self, capsys, monkeypatch, argv, stdin, message):
        # every refusal of an input names its flag or --input field
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
        assert (main(argv), *capsys.readouterr()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, stdin, message",
        [
            (
                # "00" names the exponent 0 again: (x - 1)^2 and x - 1 meet at a smooth point, not at 5 - 2x + x^2
                ["point-classify", "--input", "-"],
                {
                    "f": {"support": [0, 1, 2], "coeffs": {"0": "1", "1": "-2", "2": "1", "00": "5"}},
                    "g": {"support": [0, 1], "coeffs": {"0": "-1", "1": "1"}},
                },
                "--input: f.coeffs['00']: point 0 is given twice",
            ),
            (
                ["project3d", "--input", "-", "--scan"],
                {
                    **SUPPORTS_3D,
                    "coeffs1": {"0,0,0": [1, 0], "0,0,00": [0, 0], "1,0,1": [1, 0]},
                    "coeffs2": {"0,0,0": [1, 0], "0,1,1": [1, 0]},
                },
                "--input: coeffs1['0,0,00']: point (0, 0, 0) is given twice",
            ),
            (
                ["germ-classify", "--input", "-"],
                {"terms": [{"exp": [0, 2], "coef": "1"}, {"exp": [3, 0], "coef": "-1"}, {"exp": [0, 2], "coef": "2"}]},
                "--input: terms: exponent (0, 2) is given twice",
            ),
            (["classify", "--b1", "0,1,1,3", "--b2", "0,3"], None, "--b1: exponent 1 is given twice"),
        ],
        ids=["point-classify", "project3d", "germ-classify", "b1"],
    )
    def test_repeated_exponent_or_point_exits_2(self, capsys, monkeypatch, argv, stdin, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
        assert (main(argv), *capsys.readouterr()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags", [("--det-bound", "1"), ("--det-bound", "0"), ("--det-bound=-1",), ("--det-bound", "-1")])
    def test_det_bound_below_2_exits_2(self, capsys, flags):
        # every Sylvester matrix has size d1 + d2 >= 2: each support has two exponents at least
        code = main(["resultant", "--b1", "0,1", "--b2", "0,1", *flags])
        value = flags[-1].rpartition("=")[2]
        assert (code, *capsys.readouterr()) == (2, "", f"error: --det-bound must be at least 2, got {value}\n")

    def test_non_finite_report_exits_2(self, capsys, monkeypatch):
        class Report:
            def to_json(self):
                return {"value": float("nan")}

        monkeypatch.setattr(cli, "classify", lambda report: Report())
        code = main(["classify", *PAIR_ARGS])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: Out of range float values are not JSON compliant")

    @pytest.mark.parametrize("command", [path for path, _ in _leaf_commands(cli.build_parser()[0])])
    def test_every_report_is_strict_json(self, capsys, monkeypatch, tmp_path, command):
        args, stdin = STRICT_RUNS[command]
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
        report = tmp_path / "report.json"
        if command == "verify-paper":  # prints one line per check; the report goes to --out
            args = [*args, "--out", str(report)]
        assert main([*command.split(), *args]) == 0
        out = capsys.readouterr().out
        text = report.read_text() if command == "verify-paper" else out
        json.loads(text, parse_constant=self._raise(AssertionError("NaN or Infinity in the report")))


def _stdlib_text(payload):
    """The oracle of the report writer."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _outcome(encode, payload):
    """The text `encode` gives, or the type and message of its error."""
    try:
        return encode(payload)
    except (TypeError, ValueError, RecursionError) as exc:
        return type(exc), str(exc)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Loud(str):
    def __repr__(self):
        return "LOUD"


class Big(int):
    def __repr__(self):
        return "big"


def _cycle(container):
    container["self" if isinstance(container, dict) else 0] = container
    return container


TEXT = 'caf\u00e9 \u65e5\u672c \U0001f600 "q" back\\slash \n\t\r\x00\x1f\x7f'
# (payload, the error the writer raises): with None it writes the payload as
# the standard library does.  A report holds only exact dicts with str keys,
# lists, tuples and scalars, so keys of other types, subclasses (IntEnum,
# numpy.float64, OrderedDict) and the like are refused, though the standard
# library writes them.
EDGE_PAYLOADS = [
    ({}, None),
    ([], None),
    ((), None),
    ({"a": {}, "b": [], "c": [[], {}, [[]], [{}]], "d": ()}, None),
    ({"t": (1, (2, 3), ()), "l": [(), [()]]}, None),
    ((1, "two", [3.5, None]), None),
    ({TEXT: TEXT, "\u00e9": ["\\", '"', "\b\f"], "": ""}, None),
    ({1: "one", 10: "ten", 2: "two", -3: "minus three"}, TypeError),
    ({2.5: "a", -0.0: "b", 1e16: "c", 5e-324: "d"}, TypeError),
    ({0: "zero", 2.5: "half", True: "true"}, TypeError),
    ({True: 1, False: 0}, TypeError),
    ({None: None}, TypeError),
    ({Level.HIGH: "enum key", Level.LOW: "low"}, TypeError),
    ({"neg_zero": -0.0, "tiny": 5e-324, "big_float": 1e16, "huge": 2**100, "neg_huge": -(2**100)}, None),
    ({"np": np.float64(0.1), "np_list": [np.float64(1e-7), np.float64(-2.5)]}, TypeError),
    ({np.float64(3.25): "np key", 1.5: "float key"}, TypeError),
    ({"bools": [True, False], "none": None, "enum": Level.HIGH, "enum_list": [Level.LOW]}, TypeError),
    ({"sub_str": Loud("x"), "sub_int": Big(7), Loud("k"): Big(8), "ordered": OrderedDict([("b", 1), ("a", 2)])}, TypeError),
    ({"deep": [[[[{"x": [[1]]}]]]]}, None),
    ("top-level string", None),
    (3.0, None),
    (None, None),
]
# (payload, the error the writer raises, whether the standard library
# raises it too, with the same message); a container inside itself is not
# looked for, so it runs into the recursion limit
REFUSED_PAYLOADS = [
    ({"x": float("nan")}, ValueError, True),
    ({"x": [1.0, float("inf")]}, ValueError, True),
    ({"x": {"y": -float("inf")}}, ValueError, True),
    ({float("nan"): 1}, TypeError, False),
    ({"x": np.float64("nan")}, TypeError, False),
    ({"x": np.int64(3)}, TypeError, True),
    ({"x": {1, 2}}, TypeError, True),
    ({"x": b"bytes"}, TypeError, True),
    ({1: "a", "b": 2}, TypeError, True),
    ({None: 1, 2: 3}, TypeError, True),
    ({(1, 2): 3}, TypeError, False),
    ({"ok": 1, "zz": [float("nan"), {3}]}, ValueError, True),
    (_cycle({}), RecursionError, False),
    ([_cycle([None])], RecursionError, False),
]


class TestReportWriter:
    """`_emit` writes the bytes of `json.dumps(payload, indent=2,
    sort_keys=True, allow_nan=False)` plus a newline, for the types a report
    holds, and refuses any other."""

    @pytest.mark.parametrize("command", [path for path, _ in _leaf_commands(cli.build_parser()[0])])
    def test_every_report_matches_the_stdlib(self, capsys, monkeypatch, tmp_path, command):
        args, stdin = STRICT_RUNS[command]
        payloads = []

        def recording(payload, args):
            real_emit(payload, args)
            payloads.append(payload)

        real_emit = cli._emit
        monkeypatch.setattr(cli, "_emit", recording)
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
        report = tmp_path / "report.json"
        if command == "verify-paper":
            args = [*args, "--out", str(report)]
        assert main([*command.split(), *args]) == 0
        out = capsys.readouterr().out
        assert len(payloads) == 1
        assert (report.read_text() if command == "verify-paper" else out) == _stdlib_text(payloads[0]) + "\n"

    @pytest.mark.parametrize("payload, error", EDGE_PAYLOADS, ids=range(len(EDGE_PAYLOADS)))
    def test_edge_payloads(self, payload, error):
        if error is None:
            assert cli._json_text(payload, "\n") == _stdlib_text(payload)
        else:
            _stdlib_text(payload)  # which the standard library writes
            with pytest.raises(error):
                cli._json_text(payload, "\n")

    @pytest.mark.parametrize("payload, error, as_stdlib", REFUSED_PAYLOADS, ids=range(len(REFUSED_PAYLOADS)))
    def test_refusals_match_the_stdlib(self, payload, error, as_stdlib):
        got = _outcome(lambda p: cli._json_text(p, "\n"), payload)
        assert got[0] is error
        assert (got == _outcome(_stdlib_text, payload)) is as_stdlib
        if error is ValueError:
            assert got[1].startswith("Out of range float values are not JSON compliant")


class TestVerifyPaper:
    def test_single_check(self, capsys):
        code, out = run(capsys, "verify-paper", "--only", "closed-form-resultant")
        assert code == 0
        assert "PASS  closed-form-resultant" in out

    def test_unknown_check(self):
        assert main(["verify-paper", "--only", "bogus"]) == 2

    def test_known_red_check_exits_1(self, capsys):
        code, out = run(capsys, "verify-paper", "--only", "minors-split-equivalence")
        assert code == 1
        assert "FAIL  minors-split-equivalence" in out


class TestProject3d:
    def test_positive_and_negative(self, capsys, tmp_path):
        pos = {"a1": [[0, 0, 0], [1, 0, 1], [0, 1, 2]], "a2": [[0, 0, 0], [0, 1, 1], [1, 1, 2], [0, 0, 3]]}
        path = tmp_path / "pos.json"
        path.write_text(json.dumps(pos))
        code, out = run(capsys, "project3d", "--input", str(path))
        assert code == 0
        assert json.loads(out)["projection_verdict"] == "positive"

        neg = {"a1": [[0, 0, 0], [1, 0, 1]], "a2": [[0, 0, 0], [0, 1, 1], [1, 1, 2], [0, 0, 3]]}
        path2 = tmp_path / "neg.json"
        path2.write_text(json.dumps(neg))
        code2, out2 = run(capsys, "project3d", "--input", str(path2))
        assert code2 == 0
        data = json.loads(out2)
        assert data["projection_verdict"] == "negative"
        assert data["conditions"]["cond5"] is True

    def test_degenerate_exit_3(self, capsys, tmp_path):
        bad = {"a1": [[0, 0, 0], [1, 0, 0]], "a2": [[0, 0, 0], [0, 0, 1]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["project3d", "--input", str(path)]) == 3

    def test_scan_csv(self, capsys, tmp_path):
        payload = {
            "a1": [[1, 0, 0], [0, 0, 2]],
            "a2": [[0, 1, 0], [0, 0, 1]],
            "coeffs1": {"1,0,0": [-1, 0], "0,0,2": [1, 0]},
            "coeffs2": {"0,1,0": [-1, 0], "0,0,1": [1, 0]},
        }
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(payload))
        csv_path = tmp_path / "grid.csv"
        code, out = run(
            capsys,
            "project3d",
            "--input",
            str(path),
            "--scan",
            "--csv",
            str(csv_path),
            "--rho-min",
            "-0.4",
            "--rho-max",
            "0.4",
            "--rho-steps",
            "3",
            "--theta-steps",
            "4",
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "rho1,theta1,rho2,theta2,absR"
        assert len(lines) == 1 + (3 * 4) ** 2
        data = json.loads(out)
        assert data["curve_scan"]["near_zero_cells"]
        assert 0 <= data["curve_scan"]["near_zero_margin"] <= data["curve_scan"]["threshold"]


    @pytest.mark.parametrize(
        "flag, value", [("--theta-steps", "-1"), ("--rho-steps", "-2"), ("--rho-steps", "0"), ("--theta-steps", "0")]
    )
    def test_grid_bounds_exit_2(self, capsys, tmp_path, flag, value):
        path = tmp_path / "sp.json"
        path.write_text(json.dumps({"a1": [[0, 0, 0], [1, 0, 1]], "a2": [[0, 0, 0], [0, 1, 1]]}))
        code = main(["project3d", "--input", str(path), "--scan", flag, value])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {flag} must be at least 1, got {value}\n")

    def test_grid_bounds_at_their_minimum(self, capsys, tmp_path):
        path = tmp_path / "sp.json"
        path.write_text(json.dumps({"a1": [[0, 0, 0], [1, 0, 1]], "a2": [[0, 0, 0], [0, 1, 1]]}))
        code, out = run(capsys, "project3d", "--input", str(path), "--scan", "--rho-steps", "1", "--theta-steps", "1")
        assert code == 0
        assert json.loads(out)["curve_scan"]["cells"] == 1

    def test_csv_without_scan_exit_2(self, capsys, tmp_path):
        path = tmp_path / "pos.json"
        path.write_text(json.dumps({"a1": [[0, 0, 0], [1, 0, 1]], "a2": [[0, 0, 0], [0, 1, 1]]}))
        csv_path = tmp_path / "grid.csv"
        code = main(["project3d", "--input", str(path), "--csv", str(csv_path)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "error: --csv needs --scan\n")
        assert not csv_path.exists()


# (argv, the usage line its refusal prints)
REFUSED_FLAGS = [
    (("classify", "--b1", "0,1", "--b2", "0,1", "--seed", "1"), "usage: singres classify"),
    (("verify-paper", "--tolerance", "1e-6"), "usage: singres verify-paper"),
    (("resultant", "--b1", "0,1", "--b2", "0,1", "--n-max", "3"), "usage: singres resultant"),
    (("point-classify", "--input", "-", "--det-bound", "9"), "usage: singres point-classify"),
    (("project3d", "--input", "-", "--n-max", "3"), "usage: singres project3d"),
    (("scan", "minors", "--tolerance", "1e-6"), "usage: singres scan minors"),
    # each scan kind takes only its own flags
    (("scan", "minors", "--seed", "5"), "usage: singres scan minors"),
    (("scan", "minors", "--b1", "0,1", "--b2", "0,1"), "usage: singres scan minors"),
    (("scan", "minors", "--label", "N(1)"), "usage: singres scan minors"),
    (("scan", "strata", "--b1", "0,1", "--b2", "0,1", "--spread", "3"), "usage: singres scan strata"),
    (("scan", "codim", "--b1", "0,1", "--b2", "0,1", "--sizes", "3"), "usage: singres scan codim"),
    (("scan", "--n-max", "3", "minors"), "usage: singres scan"),
    (("scan",), "usage: singres scan"),
]


def test_every_option_has_help():
    """Every option of every parser, nested scan kinds included, says in
    its -h what it does."""

    def options(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    yield from options(sub, f"{path} {name}")
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                yield path, action

    missing = [f"{path} {a.option_strings[0]}" for path, a in options(cli.build_parser()[0], "singres") if not a.help]
    assert missing == []


# (argv, the `config` its report echoes)
CONFIG_ECHOES = [
    (("classify", "--b1", "0,1,3", "--b2", "0,3"), {"out": None}),
    (("germ-classify", "--input", "-"), {"out": None}),
    (("resultant", "--b1", "0,1", "--b2", "0,1", "--det-bound", "9"), {"det_bound": 9, "out": None}),
    (("point-classify", "--input", "-"), {"out": None}),
    (("project3d", "--input", "-", "--seed", "3"), {"tolerance": 1e-8, "seed": 3, "out": None}),
    (("scan", "minors", "--n-max", "2", "--spread", "2", "--sizes", "3"), {"n_max": 2, "out": None}),
    (("scan", "strata", "--b1", "0,1,3", "--b2", "0,3", "--label", "N(1)", "--n-max", "2"), {"n_max": 2, "seed": 0, "out": None}),
]


class TestSharedFlags:
    @pytest.mark.parametrize("argv, shared", CONFIG_ECHOES)
    def test_config_echoes_exactly_the_flags_taken(self, capsys, monkeypatch, argv, shared):
        stdin = {
            "germ-classify": {"terms": [{"exp": [2, 0], "coef": "1"}, {"exp": [0, 2], "coef": "1"}]},
            "point-classify": {
                "f": {"support": [0, 1, 2], "coeffs": {"0": "2", "1": "-3", "2": "1"}},
                "g": {"support": [0, 1, 2], "coeffs": {"0": "3", "1": "-4", "2": "1"}},
            },
            "project3d": {"a1": [[0, 0, 0], [1, 0, 1]], "a2": [[0, 0, 0], [0, 1, 1]]},
        }
        if argv[0] in stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin[argv[0]])))
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["config"] == shared

    @pytest.mark.parametrize("argv, usage", REFUSED_FLAGS, ids=[f"argv{i}" for i in range(len(REFUSED_FLAGS))])
    def test_flags_a_subcommand_does_not_read_are_usage_errors(self, capsys, argv, usage):
        """The refusal prints the usage of the subcommand that refused."""
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(usage + " [-h]")


class TestOut:
    def test_suffix_is_the_report_file(self, capsys, tmp_path):
        target = tmp_path / "sub" / "pair.json"
        code, out = run(capsys, "classify", "--b1", "0,1,3", "--b2", "0,3", "--out", str(target))
        assert (code, out) == (0, f"{target}\n")
        assert json.loads(target.read_text())["config"] == {"out": str(target)}

    def test_suffixless_is_a_new_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(time, "strftime", lambda fmt: "20260101T000000")
        target = tmp_path / "reports"
        code, out = run(capsys, "resultant", "--b1", "0,1", "--b2", "0,1", "--out", str(target))
        assert (code, out) == (0, f"{target / 'resultant-20260101T000000.json'}\n")

    def test_directory_reports_never_overwrite(self, capsys, tmp_path, monkeypatch):
        # two scans in the same second get two files
        monkeypatch.setattr(time, "strftime", lambda fmt: "20260101T000000")
        argv = ("scan", "minors", "--n-max", "3", "--spread", "2", "--sizes", "3", "--out", str(tmp_path))
        paths = [run(capsys, *argv)[1].strip() for _ in range(2)]
        assert paths == [str(tmp_path / f"scan-minors-20260101T000000{s}.json") for s in ("", "-1")]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(Path(p).name for p in paths)
        for path in paths:
            assert json.loads(Path(path).read_text())["kind"] == "minors"


class TestScan:
    def test_minors_report_file(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "scan",
            "minors",
            "--n-max",
            "4",
            "--spread",
            "4",
            "--sizes",
            "3",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        report_path = out.strip()
        data = json.loads(open(report_path).read())
        assert data["kind"] == "minors"
        # the minors scan reads --n-max and --out; it draws nothing, so no seed
        assert data["config"] == {"n_max": 4, "out": str(tmp_path)}

    def test_strata_scan(self, capsys):
        code, out = run(
            capsys, "scan", "strata", "--b1", "0,3,6", "--b2", "0,3,6", "--label", "N(1,1,1)"
        )
        assert code == 0
        data = json.loads(out)
        assert "2,2" in data["report"]["found"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("minors", "--sizes", "3,x"),
            ("minors", "--sizes", "0"),
            ("minors", "--sizes", ""),
            ("minors", "--sizes", ","),
            ("strata", "--b1", "0,1,3", "--b2", "0,1,3", "--label", "N(1,1,1,1)"),
            ("strata", "--b1", "0,1,3", "--b2", "0,1,3", "--label", "N(1,1"),
            ("strata", "--b1", "0,1,3,6", "--b2", "0,2,3", "--label", "N_1(1,1)"),
        ],
    )
    def test_input_errors_exit_2(self, capsys, argv):
        code = main(["scan", *argv])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("sizes", ["", ",", " , "])
    def test_empty_sizes_name_the_flag(self, capsys, sizes):
        # an empty size list is refused in the flag's words, not by min()
        assert main(["scan", "minors", "--sizes", sizes]) == 2
        assert capsys.readouterr().err == "error: --sizes: no size given\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("minors", "--n-max", "-3"),
            ("minors", "--n-max", "0"),
            ("minors", "--spread", "-1"),
            ("strata", "--b1", "0,1,3", "--b2", "0,1,3", "--n-max", "-3"),
            ("strata", "--b1", "0,1,3", "--b2", "0,1,3", "--spread", "-1"),
            ("codim", "--b1", "0,1,3", "--b2", "0,1,3", "--n-max", "0"),
        ],
    )
    def test_negative_bounds_exit_2(self, capsys, argv):
        if argv[0] == "strata" and "--spread" in argv:
            # strata takes no --spread: argparse refuses it before any check
            with pytest.raises(SystemExit) as exc:
                main(["scan", *argv])
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (2, "")
            assert "error: unrecognized arguments: --spread -1" in err
            return
        code = main(["scan", *argv])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: --")

    def test_bounds_at_their_minimum(self, capsys):
        code, out = run(capsys, "scan", "minors", "--n-max", "1", "--spread", "0", "--sizes", "1")
        assert code == 0
        report = json.loads(out)["report"]
        assert (report["pairs_checked"], report["sets_checked"]) == (0, 0)

    def test_strata_scan_huge_exponents(self, capsys):
        # exponents past int64 reduce exactly: 2^63 + 5 = 1 mod 3, so the
        # report is that of the congruent support (0, 2, 1) mod 3
        huge = ("scan", "strata", "--b2", "0,3", "--n-max", "3")
        reports = []
        for b1 in (f"0,2,{2**63 + 5}", "0,1,2"):
            code, out = run(capsys, *huge, "--b1", b1)
            assert code == 0
            reports.append(json.loads(out)["report"])
        assert reports[0]["found"] == reports[1]["found"]
        assert reports[0]["mismatches"] == reports[1]["mismatches"] == []

    @pytest.mark.parametrize("label", ["N(1,1)", "N(1,1,1)"])
    @pytest.mark.parametrize("top", [2001, 2**62 + 1])
    def test_codim_scan_huge_exponents(self, capsys, top, label):
        # exponents past the float range reduce exactly, with no crash; the
        # root-of-unity components equal those of the support congruent mod
        # 27720 = lcm(2..12)
        reports = []
        for e in (top, 27720 + top % 27720):
            code, out = run(capsys, "scan", "codim", "--b1", f"0,2,{e}", "--b2", "0,3,6", "--label", label)
            assert code == 0
            reports.append(json.loads(out)["report"])
        unity = [[c for c in r["components_probed"] if c["component"].startswith("unity")] for r in reports]
        assert unity[0] and unity[0] == unity[1]
        assert all(c["exact"] for c in unity[0])

    def test_codim_scan(self, capsys):
        code, out = run(
            capsys,
            "scan",
            "codim",
            "--b1",
            "0,1,2,3",
            "--b2",
            "0,1,2,3",
            "--label",
            "N(1,1,1)",
        )
        assert code == 0
        data = json.loads(out)
        assert data["report"]["codim_estimate"] == 3

    def test_determinism(self, capsys):
        code1, out1 = run(
            capsys, "scan", "codim", "--b1", "0,1,2,3", "--b2", "0,1,2", "--label", "N(1,1)", "--seed", "5"
        )
        code2, out2 = run(
            capsys, "scan", "codim", "--b1", "0,1,2,3", "--b2", "0,1,2", "--label", "N(1,1)", "--seed", "5"
        )
        d1, d2 = json.loads(out1), json.loads(out2)
        for d in (d1, d2):
            d.pop("started"), d["report"].pop("timings")
        assert d1 == d2


class TestSharedParser:
    """`main` parses every call with one parser built once per process."""

    CLASSIFY = ("classify", "--b1", "0,1,3", "--b2", "0,3")
    PROJECT = {"a1": [[1, 0, 0], [0, 0, 2]], "a2": [[0, 1, 0], [0, 0, 1]]}

    def test_parser_is_built_once(self, capsys, monkeypatch, fresh_parser):
        """One build serves every call, and after `_parser.cache_clear()` the
        argv reader reads the new build's table, never one that outlived
        its parser."""
        builds = []

        def counting_build():
            builds.append(1)
            return real_build()

        real_build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        first = run(capsys, *self.CLASSIFY)
        assert first[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--nonsense"])
        assert exc.value.code == 2
        assert main(["resultant", "--b1", "0,10", "--b2", "0,10", "--det-bound", "8"]) == 2
        capsys.readouterr()
        assert run(capsys, *self.CLASSIFY) == first
        assert len(builds) == 1

        seen = []

        def build_with_flag():
            parser, table = real_build()
            leaf = dict(_leaf_parsers(parser))["classify"], table["classify"]
            cli._flag(leaf, "--extra", type=int, default=3, help="a flag of the new build")
            return parser, table

        monkeypatch.setattr(cli, "cmd_classify", lambda args: seen.append(args) or 0)
        monkeypatch.setattr(cli, "build_parser", build_with_flag)
        cli._parser.cache_clear()
        argvs = [list(self.CLASSIFY), [*self.CLASSIFY, "--extra", "7"]]
        assert [main(argv) for argv in argvs] == [0, 0]
        parser, table = cli._parser()
        assert all(cli._read_argv(table, argv) is not None for argv in argvs)
        assert [(args.extra, args.parser.prog) for args in seen] == [(3, "singres classify"), (7, "singres classify")]
        assert [vars(args) for args in seen] == [vars(parser.parse_known_args(argv)[0]) for argv in argvs]

    def _project3d(self, capsys, monkeypatch, *flags):
        """stdout of a successful `project3d --scan` on PROJECT."""
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self.PROJECT)))
        code, out = run(capsys, "project3d", "--input", "-", "--scan", *flags)
        assert code == 0
        return out

    def test_defaults_come_back_after_a_flag(self, capsys, monkeypatch):
        out = self._project3d(capsys, monkeypatch, "--rho-steps", "3", "--theta-steps", "2")
        grid = json.loads(out)["curve_scan"]["grid"]
        assert (grid["rho_steps"], grid["theta_steps"]) == (3, 2)
        grid = json.loads(self._project3d(capsys, monkeypatch))["curve_scan"]["grid"]
        assert (grid["rho_steps"], grid["theta_steps"]) == (5, 8)

    def test_seed_does_not_stick_across_scan_kinds(self, capsys):
        pair = ("--b1", "0,1,3", "--b2", "0,3", "--label", "N(1)", "--n-max", "2")
        code, out = run(capsys, "scan", "strata", *pair, "--seed", "9")
        assert (code, json.loads(out)["config"]["seed"]) == (0, 9)
        code, out = run(capsys, "scan", "codim", *pair)
        data = json.loads(out)
        assert (code, data["kind"], data["config"]) == (0, "codim", {"n_max": 2, "seed": 0, "out": None})
        code, out = run(capsys, "scan", "minors", "--n-max", "2", "--spread", "2", "--sizes", "3")
        assert (code, json.loads(out)["config"]) == (0, {"n_max": 2, "out": None})

    def test_out_and_csv_do_not_stick(self, capsys, monkeypatch, tmp_path):
        report = tmp_path / "pair.json"
        assert run(capsys, *self.CLASSIFY, "--out", str(report)) == (0, f"{report}\n")
        code, out = run(capsys, *self.CLASSIFY)
        assert (code, json.loads(out)["config"]) == (0, {"out": None})
        csv_path = tmp_path / "grid.csv"
        flags = ("--rho-steps", "1", "--theta-steps", "1")
        self._project3d(capsys, monkeypatch, *flags, "--csv", str(csv_path), "--out", str(tmp_path / "p.json"))
        csv_path.unlink()
        assert json.loads(self._project3d(capsys, monkeypatch, *flags))["config"]["out"] is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json", "pair.json"]


@pytest.fixture
def fresh_parser():
    """Clear the cached parser before and after the test, which builds its own."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def _leaf_parsers(parser, words=()):
    """(command words, parser) of every leaf command below `parser`."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*words, name))


def _readme_argvs():
    """The argv of every `singres ...` line of the README's examples."""
    readme = (ROOT / "README.md").read_text()
    return [shlex.split(line, comments=True)[1:] for line in readme.splitlines() if line.startswith("singres ")]


def _canonical_argvs():
    """Every argv of the canonical CLI runs of the tests and the README."""
    yield from ([*command.split(), *args] for command, args, _ in CLI_EXPECTED)
    yield from ([*command.split(), *args] for command, (args, _) in STRICT_RUNS.items())
    yield from ([*command.split(), *args] for command, (args, _, _) in COMPUTES_WITH.items())
    yield from (list(argv) for argv, _ in CONFIG_ECHOES)
    yield from _readme_argvs()


def _main_outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


# (values a flag's type converts, values it refuses or that start with '-'), by type
FLAG_VALUES = {
    int: (["3", "0", "12", " 4"], ["x", "1.5", "-2"]),
    float: (["1e-6", "0.5", "2", "inf"], ["x", "-0.5", "-inf"]),
    str: (["0,1,3", "0,3", "-", "N(1,1)", "", "a b"], ["-3,1,2", "-1"]),
}
# tokens that are no flag of a leaf or that argparse reads in its own way
STRAY_TOKENS = ["-h", "--help", "-", "--", "-3", "-1.5", "-3,1,2", "--nonsense", "x", "classify", "--seed", "--scan", "--n-max", "--b1", "--tolerance"]


def _token_streams(words, parser, rng, count):
    """`count` seeded argvs of the leaf `parser`: its command words, then
    items drawn from its flags with values, `=` forms, unique and ambiguous
    prefixes of its options, negative numbers, '-', '--', -h and unknown
    or repeated flags.  Half the streams draw only flags with values their
    types convert, so that many streams are canonical."""
    actions = [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
    options = [o for a in parser._actions for o in a.option_strings]
    prefixes = [o[:k] for o in options if o.startswith("--") for k in range(3, len(o))]
    for _ in range(count):
        items = []
        if rng.random() < 0.7 and "--input" in options:
            items.append(["--input", "-"])
        clean = rng.random() < 0.5
        for _ in range(rng.randrange(5)):
            action = rng.choice(actions)
            option = rng.choice(action.option_strings)
            good, bad = FLAG_VALUES[action.type or str]
            value = rng.choice(good if clean or rng.random() < 0.5 else bad) if action.nargs is None else None
            draw = 0 if clean else rng.random()
            if draw < 0.6:
                items.append([option] if value is None else [option, value])
            elif draw < 0.7:
                items.append([f"{option}={value or ''}"])
            elif draw < 0.8:
                items.append([rng.choice(prefixes), rng.choice(FLAG_VALUES[str][0])])
            else:
                items.append([rng.choice(STRAY_TOKENS)])
        rng.shuffle(items)
        yield [*words.split(), *(token for item in items for token in item)]


class TestArgvReader:
    """`main` reads a canonical argv off the leaf parser's option table; any
    other argv goes to argparse, which alone prints help and refusals."""

    @pytest.mark.parametrize("argv", list(_canonical_argvs()), ids=" ".join)
    def test_canonical_argv_reads_as_argparse(self, argv):
        parser, table = cli._parser()
        args = cli._read_argv(table, argv)
        assert args is not None
        expected, extra = parser.parse_known_args(argv)
        assert (vars(args), extra) == (vars(expected), [])

    @pytest.mark.parametrize("argv", [argv for argv, _ in REFUSED_FLAGS], ids=" ".join)
    def test_refused_argv_goes_to_argparse(self, argv):
        assert cli._read_argv(cli._parser()[1], list(argv)) is None

    def test_token_streams(self, capsys, monkeypatch, fresh_parser):
        """On 2,000 seeded token streams per leaf the reader declines or
        returns argparse's Namespace, and on every argv it reads `main`
        prints and exits as it does with the reader switched off, argparse
        reading every argv.  An argv the reader declines takes argparse's
        path in both runs, so it is not run twice.  Each leaf runs a
        stand-in that prints its Namespace."""

        def echo(args):
            print(args.parser.prog, sorted((k, repr(v)) for k, v in vars(args).items() if k not in ("fn", "parser")))
            return 0

        for name in [name for name in vars(cli) if name.startswith("cmd_")]:
            monkeypatch.setattr(cli, name, echo)
        parser, table = cli._parser()
        argvs = [argv for words, leaf in _leaf_parsers(parser) for argv in _token_streams(words, leaf, random.Random(f"argv {words}"), 2000)]
        read_directly = []
        for argv in argvs:
            args = cli._read_argv(table, argv)
            if args is not None:
                read_directly.append(argv)
                expected, extra = parser.parse_known_args(argv)
                assert (vars(args), extra) == (vars(expected), []), argv
        outcomes = [_main_outcome(capsys, argv) for argv in read_directly]
        monkeypatch.setattr(cli, "_read_argv", lambda table, argv: None)
        for argv, outcome in zip(read_directly, outcomes):
            assert _main_outcome(capsys, argv) == outcome, argv
        assert len(read_directly) > len(argvs) // 3

    @pytest.mark.parametrize(
        "kwargs",
        [{"choices": ["a", "b"]}, {"nargs": "?"}, {"nargs": 2}, {"action": "append"}, {"action": "count"}, {"type": int, "default": "3"}, {"dest": "fn"}, {"dest": "out"}],
        ids=["choices", "nargs-optional", "nargs-2", "append", "count", "typed-str-default", "dest-fn", "dest-out"],
    )
    def test_unreadable_flag_is_refused_when_built(self, kwargs):
        """A flag the reader could not read exactly as argparse does is
        refused as it is declared, not declined on every read."""
        parser, table = cli.build_parser()
        leaf = dict(_leaf_parsers(parser))["classify"], table["classify"]
        with pytest.raises(ValueError, match="^singres classify --extra: a flag the argv reader cannot read"):
            cli._flag(leaf, "--extra", help="a flag", **kwargs)

    @pytest.mark.parametrize("words", ["", "scan", *(path for path, _ in _leaf_commands(cli.build_parser()[0]))])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, capsys, words, flag):
        """-h prints argparse's help and exits 0, alone or after a leaf's flags."""
        argvs = [[*words.split(), flag]]
        if words in STRICT_RUNS:
            argvs.append([*words.split(), *STRICT_RUNS[words][0], flag])
        for argv in argvs:
            assert cli._read_argv(cli._parser()[1], argv) is None
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out, err = capsys.readouterr()
            assert (exc.value.code, err) == (0, "")
            assert out.startswith(f"usage: {' '.join(['singres', *words.split()])} [-h]")


def test_python_m_singres():
    """`python -m singres` runs the CLI from a checkout."""
    src = str(Path(singres.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "singres", "classify", "--b1", "0,1,3", "--b2", "0,3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["conditions"]["cond2"] is True

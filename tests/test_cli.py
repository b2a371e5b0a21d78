import json

import pytest

import singres
from singres.cli import main


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
        assert data["config"]["n_max"] == 4

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
            ("strata", "--b1", "0,1,3", "--b2", "0,1,3", "--label", "N(1,1,1,1)"),
            ("strata", "--b1", "0,1,3", "--b2", "0,1,3", "--label", "N(1,1"),
        ],
    )
    def test_input_errors_exit_2(self, capsys, argv):
        code = main(["scan", *argv])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

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

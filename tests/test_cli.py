import json
import os
import pathlib
import subprocess
import sys

import pytest

from hodgeloci.cli import main, run_denominator_table

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

TOY_CONFIG = {
    "n": 2, "d": 4,
    "I": [[1, 3, 0, 0], [0, 1, 3, 0], [0, 0, 1, 3], [3, 0, 0, 1]],
    "truncation": 4,
    "beta": "griffiths",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(TOY_CONFIG))
    return str(path)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "steenbrink", "--d", "3", "--n", "2", "--weights", "1,1,1,1")
        assert code == 0 and out == "hodge_tate: true\n"

    def test_unknown_verdict_is_exit_one(self, capsys):
        code, out, _ = run(capsys, "tangency", "--vars", "x,y",
                           "--field", "D(x)", "--omega", "x*d(y) + y*d(x)",
                           "--ideal", "x*y", "--deg", "3")
        assert code == 1 and out == "UNKNOWN\n"

    def test_invalid_input_is_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "d": 4}')
        code, _, err = run(capsys, "denominators", "--config", str(bad))
        assert code == 2 and "error" in err

    def test_unknown_flag_is_exit_two(self, capsys):
        code, _, _ = run(capsys, "griffiths", "--d", "4", "--n", "2", "--bogus", "1")
        assert code == 2

    def test_resource_limit_is_exit_three(self, capsys):
        code, _, err = run(capsys, "pcurvature", "--vars", "x,y",
                           "--field", "x*D(x)", "--omega", "x*d(y) + y*d(x)",
                           "--p", "103", "--deg", "2")
        assert code == 3 and "error" in err

    @pytest.mark.parametrize("argv, code, prefix", [
        (["hypergeo-locus", "--N", "2", "--grid", "5", "--tol", "-1"], 2, "error: tol"),
        (["hypergeo-locus", "--N", "2", "--grid", "5", "--tol", "nan"], 2, "error: tol"),
        (["hypergeo-locus", "--N", "2", "--grid", "5", "--tol", "inf"], 2, "error: tol"),
        (["hypergeo-locus", "--N", "2", "--grid", "5", "--tol", "0"], 2, "error: tol"),
        (["hypergeo-witness", "--N", "2", "--t1", "0.5", "--tol", "nan"], 2, "error: tol"),
        (["hypergeo-locus", "--N", "2", "--grid", "5", "--tol", "1e-300"], 1, "unknown: t1="),
        (["hypergeo-witness", "--N", "2", "--t1", "0.5", "--tol", "1e-300"], 1, "unknown: t1="),
        (["griffiths", "--d", "4", "--n", "2", "--output", "{missing}"], 2, "error: cannot write"),
        (["griffiths", "--d", "4", "--n", "2", "--output", "{dir}"], 2, "error: cannot write"),
    ])
    def test_exit_code_and_stderr_prefix(self, capsys, tmp_path, argv, code, prefix):
        argv = [a.format(missing=tmp_path / "missing" / "x", dir=tmp_path) for a in argv]
        got, out, err = run(capsys, *argv)
        assert got == code and err.startswith(prefix)
        if code == 2:
            assert out == ""
        else:  # an UNKNOWN verdict prints the same table as a passing run
            passing = [a if a != "1e-300" else "1e-8" for a in argv]
            assert run(capsys, *passing)[:2] == (0, out)

    def test_parse_error_is_exit_two(self, capsys):
        code, _, err = run(capsys, "tangency", "--vars", "x,y",
                           "--field", "x*(", "--omega", "d(x)", "--deg", "1")
        assert code == 2 and "error" in err


class TestDeterminism:
    def test_byte_identical_runs(self, capsys, toy_config):
        runs = [run(capsys, "denominators", "--config", toy_config) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_output_flag_writes_file(self, capsys, toy_config, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "denominators", "--config", toy_config,
                           "--output", str(target))
        assert code == 0 and out == ""
        direct = run(capsys, "denominators", "--config", toy_config)[1]
        assert target.read_text() == direct


class TestTableShapes:
    def test_toy_truncation_zero_all_ones(self, capsys, tmp_path):
        cfg = dict(TOY_CONFIG, truncation=0)
        path = tmp_path / "t0.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "denominators", "--config", str(path))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "monomial,lcm,factorization"
        assert len(lines) == 22
        assert all(line.endswith(",1,1") for line in lines[1:])

    def test_griffiths_table(self, capsys):
        code, out, _ = run(capsys, "griffiths", "--d", "4", "--n", "2")
        lines = out.strip().split("\n")
        assert lines[0] == "beta,k,monomial"
        assert len(lines) == 22
        assert lines[1] == "0 0 0 0,1,1"
        assert lines[-1] == "2 2 2 2,3,x0^2*x1^2*x2^2*x3^2"

    def test_eq1_emits_canonical_series(self, capsys):
        code, out, _ = run(capsys, "eq1", "--truncation", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["nvars"] == 35 and doc["truncation"] == 1
        assert len(doc["terms"]) == 9
        assert all(t["c"] == "1/1" for t in doc["terms"])

    def test_periods_document(self, capsys, tmp_path):
        cfg = dict(TOY_CONFIG, beta=[[0, 0, 0, 0]], truncation=2)
        path = tmp_path / "b0.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "periods", "--config", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["k"] == 1
        assert doc["results"][0]["monomial"] == "1"
        assert "(2*pi*i)^1" in doc["results"][0]["normalization"]


class TestFoliationCommands:
    def test_foliation_check_and_solve(self, capsys, tmp_path):
        matrix = tmp_path / "B.json"
        matrix.write_text(json.dumps([["2*d(z)"]]))
        code, out, _ = run(capsys, "foliation-check", "--vars", "z",
                           "--matrix", str(matrix))
        assert code == 0 and out == "integrable: true\n"
        code, out, _ = run(capsys, "solve-linear", "--vars", "z",
                           "--matrix", str(matrix), "--order", "3")
        doc = json.loads(out)
        assert doc["Y"][0][0]["terms"][1] == {"e": [1], "c": "2/1"}

    def test_non_integrable_reported(self, capsys, tmp_path):
        matrix = tmp_path / "B.json"
        matrix.write_text(json.dumps([["x*d(y)"]]))
        code, out, _ = run(capsys, "foliation-check", "--vars", "x,y",
                           "--matrix", str(matrix))
        assert code == 0 and out == "integrable: false\n"
        code, _, err = run(capsys, "solve-linear", "--vars", "x,y",
                           "--matrix", str(matrix), "--order", "3")
        assert code == 2 and "error" in err

    def test_gm_command(self, capsys, tmp_path):
        matrix = tmp_path / "B.json"
        zero = "0"
        rows = [[zero] * 4 for _ in range(4)]
        rows[0][1] = "d(t1)"
        rows[0][2] = "2*d(t2)"
        matrix.write_text(json.dumps(rows))
        code, out, _ = run(capsys, "gm", "--vars", "t1,t2",
                           "--matrix", str(matrix), "--m", "2", "--blocks", "1,2,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["x_vars"] == ["x1", "x2", "x3"]
        assert doc["checks"]["dA_eq_AwedgeA"] is True
        assert doc["checks"]["block_span_matches"] is True
        assert doc["ivhs_block"] == [["d(t1)", "2*d(t2)"]]

    def test_sch_command(self, capsys):
        code, out, _ = run(capsys, "sch", "--vars", "x,y",
                           "--field", "D(x)", "--module", "x*D(x) - y*D(y)")
        assert code == 0 and out == "-y\n"
        code, out, _ = run(capsys, "sch", "--vars", "x,y",
                           "--field", "D(x)", "--module", "x*D(x) - y*D(y)",
                           "--point", "5,0")
        assert code == 0 and out == "contains: true\n"

    def test_pcurvature_yes(self, capsys):
        code, out, _ = run(capsys, "pcurvature", "--vars", "x,y",
                           "--field", "x*D(x)", "--omega", "x*d(y) + y*d(x)",
                           "--ideal", "x*y", "--p", "5", "--deg", "3")
        assert code == 0 and out == "YES\n"


class TestHypergeoCommands:
    def test_witness_row(self, capsys):
        code, out, _ = run(capsys, "hypergeo-witness", "--N", "2", "--t1", "0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t1,t2,residual"
        t1, t2, resid = lines[1].split(",")
        assert abs(float(t2) - 0.970562748477) < 1e-6
        assert float(resid) < 1e-8

    def test_locus_table(self, capsys):
        code, out, _ = run(capsys, "hypergeo-locus", "--N", "1", "--grid", "5",
                           "--tol", "1e-8")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t1,t2,residual"
        data = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data) == 5
        for line in data:
            t1, t2, resid = (float(x) for x in line.split(","))
            assert abs(t1 - t2) < 1e-7 and resid < 1e-8


def test_module_invocation_subprocess(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps(TOY_CONFIG))
    proc = subprocess.run(
        [sys.executable, "-m", "hodgeloci", "griffiths", "--d", "2", "--n", "2"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert proc.returncode == 0
    assert proc.stdout == "beta,k,monomial\n0 0 0 0,2,1\n"
    bad = subprocess.run(
        [sys.executable, "-m", "hodgeloci", "nonsense"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert bad.returncode == 2


@pytest.mark.slow
def test_reference_quartic_table_matches_golden(capsys):
    config = json.loads((ROOT / "configs" / "quartic_surfaces_d4.json").read_text())
    table = run_denominator_table(config)
    assert table == (GOLDEN / "quartic_d4_D30_denominators.csv").read_text()

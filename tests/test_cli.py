import json
import math
import os
import subprocess
import sys

import pytest

from subexp.cli import COLUMNS, RunConfig, main, parse_point
from subexp import ParameterError


def run_cli(*argv):
    return main(list(argv))


class TestPointParser:
    def test_plain_float(self):
        assert parse_point("3.5", 4.0).value() == 3.5

    def test_scaled_form(self):
        # modest scale: offset folds into the mantissa (float headroom there)
        assert parse_point("4^8*2+1", 4.0).value() == 4.0 ** 8 * 2 + 1
        # extreme scale: the two-scale structure survives
        pt = parse_point("4^64*2+1", 4.0)
        assert pt.terms == ((1, 64, 2.0),)
        assert pt.offset == 1.0

    def test_scaled_negative_offset(self):
        assert parse_point("4^3*3-0.5", 4.0).value() == 4.0 ** 3 * 3 - 0.5

    def test_base_mismatch(self):
        with pytest.raises(ParameterError):
            parse_point("3^5*2", 4.0)

    def test_garbage(self):
        with pytest.raises(ParameterError):
            parse_point("not-a-point", 4.0)


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig.load(None)
        assert cfg.params.b == 4.0
        assert cfg.fmt == "csv"

    def test_json_sections(self, tmp_path):
        doc = {"model": {"b": 4.0, "x0": 2.2}, "quadrature": {"rel_tol": 1e-8},
               "output": {"format": "json"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = RunConfig.load(str(path))
        assert cfg.params.x0 == 2.2
        assert cfg.quad.rel_tol == 1e-8
        assert cfg.fmt == "json"

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mdoel": {}}))
        with pytest.raises(ParameterError):
            RunConfig.load(str(path))

    def test_invalid_model_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"x0": 9.0}}))
        assert run_cli("eval", "--x", "3", "--config", str(path)) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_quadrature_key_exits_2(self, tmp_path, capsys):
        # a misspelt key, and abs_floor, which is a fixed constant of the rules
        path = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        for key in ("reltol", "abs_floor"):
            path.write_text(json.dumps({"quadrature": {key: 1e-12}}))
            assert run_cli("eval", "--x", "3", "--config", str(path),
                           "--out", str(out)) == 2
            assert key in capsys.readouterr().err
            assert not out.exists()

    def test_oracle_rejects_a_quadrature_section(self, tmp_path, capsys):
        # the oracle runs its own rel_tol = 1e-9; it reads the other sections
        path = tmp_path / "cfg.json"
        out = tmp_path / "or.csv"
        path.write_text(json.dumps({"quadrature": {"rel_tol": 1e-3, "max_depth": 1}}))
        assert run_cli("oracle", "phi-conv", "--config", str(path),
                       "--out", str(out)) == 2
        assert "quadrature section" in capsys.readouterr().err
        assert not out.exists()
        path.write_text(json.dumps({"model": {"b": 4.0}}))
        assert run_cli("oracle", "uniform-conv", "--config", str(path),
                       "--out", str(out)) == 0

    def test_no_partial_output_on_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"x0": 9.0}}))
        out = tmp_path / "out.csv"
        assert run_cli("eval", "--x", "3", "--config", str(path),
                       "--out", str(out)) == 2
        assert not out.exists()


class TestCommands:
    def test_eval_values(self, tmp_path):
        out = tmp_path / "eval.csv"
        assert run_cli("eval", "--x", "2.1", "--x", "4^64*2+1",
                       "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[: len(COLUMNS)] == list(COLUMNS)
        r1 = dict(zip(header, lines[1].split(",")))
        assert math.isclose(float(r1["ratio"]), -1.0 / math.log(0.1), rel_tol=1e-12)
        r2 = dict(zip(header, lines[2].split(",")))
        assert math.isclose(float(r2["ratio"]), 1.0 / (64 * math.log(4.0)),
                            rel_tol=1e-12)

    def test_probe_scaling_all_ones(self, tmp_path):
        out = tmp_path / "scal.csv"
        assert run_cli("probe", "scaling", "--c", "1.0", "--n-lo", "4",
                       "--n-hi", "6", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        idx = header.index("ratio")
        for line in lines[1:]:
            assert float(line.split(",")[idx]) == 1.0

    def test_unknown_probe_exits_2(self):
        assert run_cli("probe", "nonsense") == 2

    def test_unknown_report_exits_2(self):
        assert run_cli("gallery", "thm99") == 2

    def test_gallery_csv_schema(self, tmp_path):
        assert run_cli("gallery", "tilt", "--out", str(tmp_path)) == 0
        text = (tmp_path / "tilt.csv").read_text()
        header = text.splitlines()[0].split(",")
        for col in ("probe", "n", "m", "c", "log_num", "log_den", "ratio",
                    "bracket_lo", "bracket_hi", "b", "x0"):
            assert col in header

    def test_gallery_json(self, tmp_path):
        assert run_cli("gallery", "tilt", "--out", str(tmp_path),
                       "--format", "json") == 0
        doc = json.loads((tmp_path / "tilt.json").read_text())
        assert doc["model"]["b"] == 4.0
        assert any(r["probe"] == "tilt_identity" for r in doc["rows"])

    def test_oracle_uniform(self, tmp_path):
        out = tmp_path / "or.csv"
        assert run_cli("oracle", "uniform-conv", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        idx = header.index("rel_err")
        assert all(float(l.split(",")[idx]) < 1e-9 for l in lines[1:])

    def test_oracle_phi_conv(self, tmp_path):
        # the dip density's self-convolution against the midpoint-Riemann oracle
        out = tmp_path / "or.csv"
        assert run_cli("oracle", "phi-conv", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        idx = lines[0].split(",").index("rel_err")
        assert len(lines) == 4
        assert all(float(l.split(",")[idx]) < 1e-5 for l in lines[1:])

    @pytest.mark.parametrize("case, rows", [("mu-local", 3), ("normalizer", 1)])
    def test_oracle_single_level(self, tmp_path, case, rows):
        # mu's unit windows (closed forms) and the dip density's integral over
        # [1, 1e4] against midpoint-Riemann sums
        out = tmp_path / "or.csv"
        assert run_cli("oracle", case, "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        idx = lines[0].split(",").index("rel_err")
        assert len(lines) == rows + 1
        assert all(float(l.split(",")[idx]) <= 1e-7 for l in lines[1:])

    def test_probe_long_tail_and_truncated(self, tmp_path):
        out = tmp_path / "lt.csv"
        assert run_cli("probe", "long_tail", "--a", "1.0", "--n-lo", "4",
                       "--n-hi", "6", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        out2 = tmp_path / "td.csv"
        assert run_cli("probe", "truncated_density", "--A", "4", "--A", "16",
                       "--n-lo", "5", "--n-hi", "5", "--out", str(out2)) == 0
        rows = out2.read_text().strip().splitlines()[1:]
        header = out2.read_text().splitlines()[0].split(",")
        idx = header.index("ratio")
        vals = [float(r.split(",")[idx]) for r in rows]
        assert vals[1] < vals[0]  # larger truncation point, smaller functional

    def test_quadrature_failure_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quadrature": {"rel_tol": 1e-9, "max_depth": 3}}))
        out = tmp_path / "sd.csv"
        # windows and tails are closed forms: the self-convolution density's
        # outer integral is what fails here
        code = run_cli("probe", "sd", "--n-lo", "4", "--n-hi", "4",
                       "--config", str(cfg), "--out", str(out))
        assert code == 3
        assert "quadrature failure" in capsys.readouterr().err
        text = out.read_text()
        assert "partial" in text  # flagged partial row still written


    def test_partial_row_brackets_are_linear(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quadrature": {"max_depth": 1}}))
        out = tmp_path / "sd.csv"
        assert run_cli("probe", "sd", "--n-lo", "4", "--n-hi", "4",
                       "--config", str(cfg), "--out", str(out)) == 3
        lines = out.read_text().strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["flag"] == "partial"
        lo, hi = float(row["bracket_lo"]), float(row["bracket_hi"])
        # [partial, partial + error bound] in linear units
        assert 0.0 < lo < hi
        assert math.isclose(math.log(lo), float(row["log_num"]), rel_tol=1e-12)


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for report in ("tilt", "prop11"):
            assert run_cli("gallery", report, "--out", str(a)) == 0
            assert run_cli("gallery", report, "--out", str(b)) == 0
            assert (a / f"{report}.csv").read_bytes() == (b / f"{report}.csv").read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        # the lab itself is single-threaded; the size of numpy's BLAS/OpenMP
        # pools, set from the environment, must not reach the output either
        out = {}
        for n in ("1", "4"):
            env = dict(os.environ, OMP_NUM_THREADS=n, OPENBLAS_NUM_THREADS=n,
                       MKL_NUM_THREADS=n)
            proc = subprocess.run([sys.executable, "-m", "subexp.cli", "gallery", "prop11",
                                   "--out", str(tmp_path / f"t{n}")],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            out[n] = (tmp_path / f"t{n}" / "prop11.csv").read_bytes()
        assert out["1"] == out["4"]


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "subexp.cli", "eval", "--x", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "probe" in proc.stdout.splitlines()[0]

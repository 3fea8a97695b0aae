import csv
import json
import math

import pytest

from ecss.cli import main
from ecss.curve import CurvePoint, WeightVector, validate_curve
from ecss.discrepancy import exact_extreme_1d
from ecss.experiments import ExperimentConfig, discrepancy_sweep
from ecss.generator import GeneratorConfig, output_normalized
from ecss.gf2 import BinaryPoly, LfsrSource


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, list(reader)


class TestBeta:
    def test_table_value(self, capsys):
        code, out, _ = run_cli(capsys, "beta", "--s", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["version"] == 1
        assert abs(payload["beta"] - 3.73205) <= 1e-5
        assert abs(payload["alpha"] - 3.87298) <= 1e-5
        assert payload["dominant_h"] == [1, 2]

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_is_validation_error(self, capsys, tolerance):
        code, out, err = run_cli(capsys, "beta", "--s", "2", "--tolerance", tolerance)
        assert code == 2 and out == "" and "tolerance" in err


class TestBadpairs:
    def test_known_count(self, capsys):
        code, out, _ = run_cli(capsys, "badpairs", "--r", "2", "--s", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["f"] == 14
        assert payload["per_h"] == [9]
        assert payload["bound"] == 18.0

    def test_single_h(self, capsys):
        code, out, _ = run_cli(capsys, "badpairs", "--r", "4", "--s", "2", "--h", "2")
        payload = json.loads(out)
        assert code == 0 and len(payload["per_h"]) == 1

    def test_scale_guard_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "badpairs", "--r", "20", "--s", "1")
        assert code == 3 and "guard" in err.lower()


class TestGenAndDisc:
    def test_round_trip_matches_in_process(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "gen",
            "--curve", "5,1,1",
            "--poly", "0x7",
            "--init", "10",
            "--weights", "0,1;2,1",
            "--n", "3",
        )
        assert code == 0
        values = [float(line) for line in out.splitlines()]
        assert values == [0.0, 0.4, 0.6]

        src = LfsrSource(BinaryPoly(0x7), (1, 0))
        config = GeneratorConfig(
            source=src,
            weights=WeightVector((CurvePoint(0, 1), CurvePoint(2, 1))),
            curve=validate_curve(5, 1, 1),
        )
        expected = output_normalized(config, 3)
        assert max(abs(a - b) for a, b in zip(values, expected)) < 1e-12

        points_file = tmp_path / "points.csv"
        points_file.write_text(out)
        code, disc_out, _ = run_cli(capsys, "disc", "--input", str(points_file))
        assert code == 0
        payload = json.loads(disc_out)
        assert payload["method"] == "exact"
        assert abs(payload["value"] - exact_extreme_1d(expected).value) < 1e-12

    def test_gen_tuples_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "gen",
            "--curve", "5,1,1",
            "--poly", "0x7",
            "--init", "10",
            "--weights", "0,1;2,1",
            "--n", "4",
            "--s", "2",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "c0", "c1"]
        assert len(rows) == 3
        assert [float(v) for v in rows[0][1:]] == [0.0, 0.4]

    def test_gen_sampled_weights_deterministic(self, capsys):
        args = ["gen", "--curve", "13,2,3", "--poly", "0xb", "--n", "5", "--seed", "4"]
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0 and out_a == out_b

    def test_disc_mc_method(self, capsys, tmp_path):
        points_file = tmp_path / "pts.csv"
        points_file.write_text("0.1,0.2\n0.3,0.8\n0.7,0.4\n")
        code, out, _ = run_cli(
            capsys, "disc", "--input", str(points_file), "--method", "mc",
            "--trials", "200", "--seed", "5",
        )
        payload = json.loads(out)
        assert code == 0 and payload["method"] == "monte-carlo-lower-bound"
        assert payload["s"] == 2

    def test_disc_reads_gen_tuple_output(self, capsys, tmp_path):
        _, out, _ = run_cli(
            capsys,
            "gen", "--curve", "5,1,1", "--poly", "0x7", "--init", "10",
            "--weights", "0,1;2,1", "--n", "6", "--s", "2",
        )
        points_file = tmp_path / "tuples.csv"
        points_file.write_text(out)
        code, disc_out, _ = run_cli(capsys, "disc", "--input", str(points_file))
        payload = json.loads(disc_out)
        assert code == 0 and payload["s"] == 2 and payload["n"] == 5

    def test_validation_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--curve", "6,1,1", "--poly", "0x7", "--n", "3")
        assert code == 2 and "prime" in err

    def test_gen_zero_count_is_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--curve", "5,1,1", "--poly", "0x7",
                                 "--weights", "0,1;2,1", "--n", "0")
        assert code == 2 and out == "" and "--n" in err

    def test_io_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "disc", "--input", "/nonexistent/points.csv")
        assert code == 4

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_disc_non_finite_is_validation_error(self, capsys, tmp_path, bad):
        points_file = tmp_path / "points.csv"
        points_file.write_text(f"0.1\n0.5\n{bad}\n")
        code, out, _ = run_cli(capsys, "disc", "--input", str(points_file))
        assert code == 2 and out == ""

    def test_disc_non_utf8_is_validation_error(self, capsys, tmp_path):
        points_file = tmp_path / "points.csv"
        points_file.write_bytes(b"\xff\xfe0.1\n")
        code, _, _ = run_cli(capsys, "disc", "--input", str(points_file))
        assert code == 2

    def test_disc_ragged_rows_is_validation_error(self, capsys, tmp_path):
        points_file = tmp_path / "points.csv"
        points_file.write_text("0.1,0.2\n0.3\n")
        code, _, _ = run_cli(capsys, "disc", "--input", str(points_file))
        assert code == 2

    def test_bad_poly_hex_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--curve", "5,1,1", "--poly", "zz", "--n", "3")
        assert code == 2 and "hex" in err


class TestCurveAndLfsrInfo:
    def test_curve_info(self, capsys):
        code, out, _ = run_cli(capsys, "curve-info", "--curve", "5,1,1")
        payload = json.loads(out)
        assert code == 0 and payload["order"] == 9 and payload["hasse_ok"]

    def test_lfsr_info(self, capsys):
        code, out, _ = run_cli(capsys, "lfsr-info", "--poly", "0x409")
        payload = json.loads(out)
        assert code == 0
        assert payload["degree"] == 10
        assert payload["irreducible"] and payload["max_period"]
        assert payload["period"] == 1023 and payload["windows_distinct"]


class TestBounds:
    def test_values_match_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "100", "--p", "1009", "--r", "10",
            "--tau", "1023", "--s", "2",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["bound_multi"] is not None
        assert abs(payload["gamma"] - 0.97673) < 1e-5

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_is_validation_error(self, capsys, delta):
        code, out, _ = run_cli(capsys, "bounds", "--n", "1", "--p", "5", "--r", "1", "--tau", "1",
                               "--delta", delta)
        assert code == 2 and out == ""

    def test_invalid_inputs(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--n", "0", "--p", "5", "--r", "1", "--tau", "3")
        assert code == 2


class TestExpsumCheck:
    def test_csv_shape_and_bound(self, capsys):
        code, out, _ = run_cli(capsys, "expsum-check", "--curve", "31,4,2", "--all-a")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p", "a", "abs_sum", "sqrt_p", "ratio"]
        assert len(rows) == 30
        for row in rows:
            assert float(row[4]) <= 5.0
            assert abs(float(row[2]) / math.sqrt(31) - float(row[4])) < 1e-9

    def test_sampled(self, capsys):
        code, out, _ = run_cli(
            capsys, "expsum-check", "--curve", "101,1,1", "--samples", "5", "--seed", "3",
        )
        _, rows = parse_csv(out)
        assert code == 0 and 1 <= len(rows) <= 5


    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_is_validation_error(self, capsys, samples):
        code, out, _ = run_cli(capsys, "expsum-check", "--curve", "5,1,1", "--samples", samples)
        assert code == 2 and out == ""


class TestExperiment:
    def test_runs_config_and_matches_library(self, capsys, tmp_path):
        config = {
            "curve": {"p": 101, "a": 1, "b": 1},
            "poly_hex": "0x25",
            "r": 5,
            "s": 1,
            "n_grid": [4, 8, 16],
            "samples": 5,
            "delta": 1.0,
            "seed": 99,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["N", "mean", "median", "q90", "thm_bound", "elma_bound"]

        expected = discrepancy_sweep(
            ExperimentConfig(
                curve=validate_curve(101, 1, 1),
                poly=BinaryPoly(0x25),
                r=5, s=1, n_grid=(4, 8, 16), samples=5, delta=1.0, seed=99,
            )
        )
        for row, exp in zip(rows, expected):
            assert int(row[0]) == exp.n
            assert abs(float(row[1]) - exp.mean) < 1e-9

    def test_missing_field_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"curve": {"p": 101, "a": 1, "b": 1}}))
        code, _, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2

    @pytest.mark.parametrize("text", ['{"curve": ', '{"curve": 5, "poly_hex": "0x25"}'])
    def test_malformed_config_is_validation_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2


class TestParserBehaviour:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["beta", "--s", "2", "--bogus"])
        assert exc.value.code == 2

    def test_outputs_are_strictly_parseable(self, capsys):
        _, out, _ = run_cli(capsys, "beta", "--s", "2")
        json.loads(out)  # raises on malformed output
        _, out, _ = run_cli(capsys, "expsum-check", "--curve", "5,1,1", "--all-a")
        header, rows = parse_csv(out)
        assert all(len(r) == len(header) for r in rows)

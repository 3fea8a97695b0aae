import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecss import cli, experiments, gf2
from ecss.cli import MAX_CHECK_SAMPLES, main
from ecss.combinat import bad_pair_count, bad_pair_upper_bound, transfer_matrix, walk_count
from ecss.curve import CurveParams, CurvePoint, enumerate_points, parse_curve, point_table
from ecss.discrepancy import MAX_MC_TRIALS, exact_extreme_1d
from ecss.errors import MAX_PRIME_TEST
from ecss.experiments import MAX_SAMPLES, ExperimentConfig, discrepancy_sweep
from ecss.expsum import curve_char_sums_all
from ecss.generator import MAX_OUTPUTS, GeneratorConfig, output_normalized
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


def run_cli_traced(capsys, *argv):
    """run_cli, plus the tracemalloc peak of the run."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        return code, out, err, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_from_launcher(*argv):
    """Run `python -m ecss.cli *argv` from a small launcher; return the job's exit code, ru_maxrss in KiB and stderr.

    A child's ru_maxrss starts from its parent's resident high-water mark, which survives the exec,
    so the job is started from a small launcher process rather than from this test process.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    launcher = ("import os, subprocess, sys\n"
                "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
                "_, status, usage = os.wait4(child.pid, 0)\n"
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    done = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-m", "ecss.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    code, peak_kib = map(int, done.stdout.split())
    return code, peak_kib, done.stderr


def run_cli_on_stdin(body, *argv):
    """Run the CLI with `body` as standard input, outside pytest's per-test fixtures."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(body)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


_UNIT = st.floats(0.0, 1.0, exclude_max=True).map(repr)
_BAD_CELL = {
    "non-finite": st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400"]),
    "outside": st.one_of(st.floats(1.0, 1e300), st.floats(-1e300, -1e-300)).map(repr),
}


@st.composite
def disc_bodies(draw):
    """(kind, s, CSV body) for `ecss disc`: valid rows with s = 1..4, ragged rows,
    a non-finite or out-of-range cell, an empty body, or N just over the exact guard."""
    kind = draw(st.sampled_from(["valid", "ragged", "non-finite", "outside", "empty", "over-guard"]))
    if kind == "empty":
        return kind, 0, draw(st.sampled_from(["", "\n", "# a comment only\n", "n,c0\n"]))
    if kind == "over-guard":
        s = draw(st.integers(2, 3))
        rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((101 if s == 2 else 22, s))
        return kind, s, "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist())
    s = draw(st.integers(1, 4))
    widths = st.integers(1, 4) if kind == "ragged" else st.just(s)
    rows = draw(st.lists(widths.flatmap(lambda w: st.lists(_UNIT, min_size=w, max_size=w)), min_size=1, max_size=6))
    if kind in _BAD_CELL:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(_BAD_CELL[kind])
    body = "".join(",".join(row) + "\n" for row in rows)
    s = len(rows[0])  # ragged rows may happen to agree
    if kind == "valid" and draw(st.booleans()):  # the header and index column `ecss gen` writes
        header = ",".join(["n"] + [f"c{k}" for k in range(s)])
        body = header + "\n" + "".join(f"{k},{line}" for k, line in enumerate(body.splitlines(True)))
    return kind, s, body


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
CONFIG_FIELDS = ["curve", "curve.p", "curve.a", "curve.b", "poly_hex", "r", "s", "n_grid", "samples", "delta", "seed"]


GEN_CURVES = {text: enumerate_points(CurveParams(*map(int, text.split(","))))
              for text in ("13,2,0", "101,1,1", "1009,1,1")}


@st.composite
def gen_argv(draw):
    """`ecss gen` arguments: curves valid or not, and weight lists of any length and content."""
    curve = draw(st.sampled_from(sorted(GEN_CURVES)) | st.text(max_size=8)
                 | st.tuples(st.integers(), st.integers(), st.integers()).map(lambda t: ",".join(map(str, t))))
    points = [f"{pt.x},{pt.y}" if pt.y is not None else "inf" for pt in GEN_CURVES.get(curve, [])]
    point = st.just("inf") | st.tuples(st.integers(), st.integers()).map(lambda t: f"{t[0]},{t[1]}") \
        | st.text(max_size=5)
    if points:
        point = point | st.sampled_from(points)
    weights = st.none() | st.lists(point, max_size=12).map(";".join)
    return (curve, draw(st.sampled_from(["0xb", "0x13", "0x409"])),
            draw(st.integers(-3, 2000) | st.integers(MAX_OUTPUTS + 1, 10**12) | st.text(max_size=4)),
            draw(st.none() | st.integers(-2, 5) | st.text(max_size=3)),
            draw(st.none() | st.integers() | st.text(max_size=3)),
            draw(weights))


def run_cli_contract(*argv):
    """Run the CLI in-process, check its exit contract and return (code, stdout)."""
    code, out, err = run_cli_on_stdin("", *argv)
    assert code in (0, 2, 3, 4), err
    if code:
        assert out == "" and err.startswith(("error:", "scale guard:"))
    return code, out


def ints(*ranges):
    """Integer arguments drawn from the given inclusive ranges."""
    return st.one_of(*(st.integers(lo, hi) for lo, hi in ranges)).map(str)


CHECK_CURVES = {text: point_table(parse_curve(text)) for text in ("5,1,1", "13,2,0", "101,1,1", "1999,1,1")}
# p < 2000 keeps every point table small; p >= 2^20 meets the enumeration guard.
curve_texts = (st.sampled_from(sorted(CHECK_CURVES)) | st.text(max_size=10)
               | st.tuples(st.sampled_from([5, 7, 13, 101, 1999, 2**20 + 7]) | st.integers(-5, 1999)
                           | st.integers(2**20, 2**70), st.integers(-3, 2000) | st.integers(), st.integers())
               .map(lambda t: ",".join(map(str, t))))


@st.composite
def lfsr_argv(draw):
    """(--poly, --init) for `ecss lfsr-info`: degree <= 14 or >= 25, since the period search walks
    up to 2^degree states; windows of the right length or any other text."""
    mask = draw(st.integers(0, 2**15 - 1) | st.integers(2**25, 2**100))
    poly = draw(st.sampled_from([f"{mask:#x}", f"{mask | 1:#x}", f"{mask | 1:X}", None])) or draw(st.text(max_size=4))
    degree = max(mask.bit_length() - 1, 0)
    init = draw(st.none() | st.text("01", min_size=degree, max_size=degree) | st.text("01", max_size=30)
                | st.text(max_size=4))
    return poly, init


@st.composite
def check_curve_and_shift(draw):
    """(--curve, --c) for `ecss expsum-check`; the shift may be a point of a sampled curve, or absent."""
    curve = draw(curve_texts)
    points = [f"{x},{y}" for x, y in CHECK_CURVES[curve][1:].tolist()] if curve in CHECK_CURVES else []
    shift = draw(st.none() | st.just("inf") | st.text(max_size=6)
                 | st.tuples(st.integers(), st.integers()).map(lambda t: f"{t[0]},{t[1]}")
                 | (st.sampled_from(points) if points else st.nothing()))
    return curve, shift


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

    @pytest.mark.parametrize("tolerance", ["1e-300", "1e-14"])
    def test_tolerance_below_floor_is_validation_error(self, capsys, tolerance):
        code, out, err = run_cli(capsys, "beta", "--s", "8", "--tolerance", tolerance)
        assert code == 2 and out == "" and "tolerance" in err

    @settings(max_examples=100, deadline=None)
    @given(ints((-3, 5), (9, 2**70)), st.none() | st.floats().map(repr))
    @example("9", None)
    def test_exit_codes_on_any_arguments(self, s, tolerance):
        # s in 6..8 is accepted but takes seconds, so it is not drawn.
        extra = [f"--tolerance={tolerance}"] if tolerance is not None else []
        code, out = run_cli_contract("beta", f"--s={s}", *extra)
        if code == 0:
            assert json.loads(out, parse_constant=reject_constant)["s"] == int(s)


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
        code, _, err = run_cli(capsys, "badpairs", "--r", "64", "--s", "4")  # one past the s = 4 edge
        assert code == 3 and "guard" in err.lower()

    def test_counts_past_the_enumeration_range(self, capsys):
        code, out, _ = run_cli(capsys, "badpairs", "--r", "40", "--s", "3", "--h", "2")
        payload = json.loads(out)
        assert code == 0 and payload["f"] == bad_pair_count(40, 3).f
        assert payload["per_h"] == [walk_count(transfer_matrix(3, 2), 37)]

    def test_overflowing_bound_is_null(self, capsys):
        code, out, _ = run_cli(capsys, "badpairs", "--r", "700", "--s", "1")  # 3^700 overflows a float
        payload = json.loads(out)
        assert code == 0 and payload["f"] == bad_pair_count(700, 1).f and payload["bound"] is None
        code, out, _ = run_cli(capsys, "badpairs", "--r", "645", "--s", "1")  # the last r with a finite bound
        bound = json.loads(out)["bound"]
        assert code == 0 and isinstance(bound, float) and bound == bad_pair_upper_bound(645, 1)

    @settings(max_examples=100, deadline=None)
    @given(ints((-2, 13), (14, 2**70)), ints((-2, 10), (-2**70, 2**70)), st.none() | ints((-2, 10), (-2**70, 2**70)))
    @example("14", "2", None)
    @example(str(2**70), "2", None)  # the guard must not build 4^r
    @example("13", "3", "2")
    @example("4", "2", "0")
    def test_exit_codes_on_any_arguments(self, r, s, h):
        code, out = run_cli_contract("badpairs", f"--r={r}", f"--s={s}", *([f"--h={h}"] if h is not None else []))
        if code == 0:
            payload = json.loads(out)
            assert (payload["r"], payload["s"]) == (int(r), int(s))


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
            weights=(CurvePoint(0, 1), CurvePoint(2, 1)),
            curve=CurveParams(5, 1, 1),
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

    # 23 rows (21 at s = 3): chunks of 4 leave 3 (1) over, chunks of 7 leave 2 (none), 4096 hold them all.
    @pytest.mark.parametrize("chunk", [4, 7, 4096])
    @pytest.mark.parametrize("s", [None, 1, 3])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_chunked_output_is_the_row_by_row_rendering(self, capsys, monkeypatch, tmp_path, chunk, s, to_file):
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
        params = parse_curve("1009,1,1")
        config = GeneratorConfig(source=LfsrSource(BinaryPoly(0x409), gf2.default_init(10)),
                                 weights=experiments.sample_weight_vectors(params, 10, 1, 3)[0], curve=params)
        values = output_normalized(config, 23)
        if s is None:
            expected = "".join(f"{v:.17g}\n" for v in values)
        else:  # the csv.writer rows gen wrote before it streamed
            buf = io.StringIO()
            buf.write("# version=1\n")
            writer = csv.writer(buf)
            writer.writerow(["n"] + [f"c{i}" for i in range(s)])
            writer.writerows([n + 1] + [f"{v:.17g}" for v in values[n : n + s]] for n in range(len(values) - s + 1))
            expected = buf.getvalue()
        path = tmp_path / "gen.out"
        code, out, _ = run_cli(capsys, "gen", "--curve", "1009,1,1", "--poly", "0x409", "--n", "23", "--seed", "3",
                               *([] if s is None else ["--s", str(s)]), *(["--output", str(path)] if to_file else []))
        assert code == 0
        assert (path.read_bytes().decode() if to_file else out) == expected

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

    @pytest.mark.parametrize("body, header_width, row_width", [
        ("n,c0,c1\n1,0.5\n", 3, 2),  # would read s = 1
        ("n,c0\n0,0.25,0.5\n1,0.75,0.125\n", 2, 3),  # would read s = 2
    ])
    def test_disc_header_width_differing_from_the_rows_is_validation_error(
            self, capsys, tmp_path, body, header_width, row_width):
        points_file = tmp_path / "pts.csv"
        points_file.write_text(body)
        code, out, err = run_cli(capsys, "disc", "--input", str(points_file))
        assert code == 2 and out == ""
        assert err == f"error: point input header has {header_width} columns but its rows have {row_width}\n"

    def test_disc_four_columns_needs_mc(self, capsys, tmp_path):
        points_file = tmp_path / "pts.csv"
        points_file.write_text("0.1,0.2,0.3,0.4\n0.5,0.6,0.7,0.8\n")
        code, out, err = run_cli(capsys, "disc", "--input", str(points_file))
        assert code == 2 and out == "" and "--method mc" in err
        code, out, _ = run_cli(capsys, "disc", "--input", str(points_file), "--method", "mc",
                               "--trials", "50", "--seed", "1")
        payload = json.loads(out)
        assert code == 0 and payload["s"] == 4 and payload["method"] == "monte-carlo-lower-bound"

    @pytest.mark.parametrize("body, code, err", [
        ("0.1\nabc\n", 2, "error: non-numeric row in point input: ['abc']\n"),
        ("x\ny\n0.5\n", 2, "error: non-numeric row in point input: ['y']\n"),  # only the first row is a header
        ("x\n0.5\n", 0, ""),  # a one-column header
    ])
    def test_disc_non_numeric_row_after_the_first_is_validation_error(self, body, code, err):
        assert run_cli_on_stdin(body, "disc")[::2] == (code, err)

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_disc_index_column_only_is_validation_error(self, capsys, tmp_path, method):
        points_file = tmp_path / "pts.csv"
        points_file.write_text("n\n0.5\n0.25\n")
        code, out, err = run_cli(capsys, "disc", "--input", str(points_file), "--method", method)
        assert code == 2 and out == ""
        assert err == "error: point input has no coordinate columns besides the n index\n"  # no --method hint

    @settings(max_examples=120, deadline=None)
    @given(disc_bodies(), st.sampled_from(["exact", "mc"]))
    @example(("valid", 4, "0.5,0.5,0.5,0.5\n"), "exact")
    @example(("over-guard", 2, "0.5,0.5\n" * 101), "exact")
    def test_disc_exit_codes_on_any_body(self, case, method):
        kind, s, body = case
        code, out, err = run_cli_on_stdin(body, "disc", "--input", "-", "--method", method,
                                          "--trials", "20", "--seed", "1")
        assert code in (0, 2, 3), err
        if code:
            assert out == "" and err.startswith(("error:", "scale guard:"))
        else:
            assert json.loads(out)["s"] == s
        if kind in ("non-finite", "outside", "empty"):
            assert code == 2
        elif kind == "valid":
            assert code == (2 if method == "exact" and s == 4 else 0)
        elif kind == "over-guard":
            assert code == (3 if method == "exact" else 0)

    @settings(max_examples=150, deadline=None)
    @given(gen_argv())
    @example(("1009,1,1", "0x409", 23, 3, 7, None))
    @example(("13,2,0", "0xb", 5, None, None, "0,0;inf;0,0"))
    @example(("13,2,0", "0xb", 5, None, None, "13,0;inf;0,0"))
    @example(("1048583,1,1", "0xb", 5, None, 0, None))
    def test_gen_exit_codes_on_any_arguments(self, case):
        curve, poly, n, s, seed, weights = case
        argv = ["gen", f"--curve={curve}", f"--poly={poly}", f"--n={n}"]
        argv += [f"--{flag}={value}" for flag, value in (("s", s), ("seed", seed), ("weights", weights))
                 if value is not None]
        try:
            code, out, err = run_cli_on_stdin("", *argv)
        except SystemExit as exc:  # argparse rejects a non-integer --n, --s or --seed
            assert exc.code == 2
            return
        assert code in (0, 2, 3), err
        if isinstance(n, int) and n > MAX_OUTPUTS:
            assert code in (2, 3)
        if code:
            assert out == "" and err.startswith(("error:", "scale guard:"))
        elif s is None:
            assert len(out.splitlines()) == int(n)
        else:
            assert len(parse_csv(out)[1]) == int(n) - int(s) + 1

    @pytest.mark.parametrize("n", [MAX_OUTPUTS + 1, 10**12])
    def test_n_over_the_cap_exits_before_generating(self, capsys, n):
        code, out, err, peak = run_cli_traced(capsys, "gen", "--curve", "1009,1,1", "--poly", "0x409", "--n", str(n))
        assert code == 3 and out == "" and err.startswith("scale guard:")
        assert peak < 2**20  # far below the 80-250 B per output that generating holds

    @pytest.mark.parametrize("poly, extra, head_lines",
                             [("0x1000087", [], 0), ("0x409", ["--s", "1"], 2), (hex(1 << 150 | 3), [], 0)],
                             ids=["r24-plain", "r10-s1", "r150-plain"])
    def test_two_chunk_register_at_the_cap_adds_in_lane_slices(self, tmp_path, poly, extra, head_lines):
        # r = 24 needs two comb chunks; adding all 2*10^6 lanes at once peaked at 437 MiB. In
        # LANE_BUDGET-lane slices, with the kernel's array written as it is, r = 24 plain and r = 10
        # --s 1 both peak at about 116 MiB (measured with Python 3.11, numpy 2.4); a list of Python
        # floats between the kernel and the writer takes them to 162 and 175 MiB. At r = 150 comb
        # tables bounded only by twice the lanes (17-bit chunks) took it to 184 MiB.
        out = tmp_path / "values.txt"
        code, peak_kib, err = run_from_launcher("gen", "--curve", "1009,1,1", "--poly", poly, "--n", str(MAX_OUTPUTS),
                                                "--seed", "3", *extra, "--output", str(out))
        assert code == 0, err
        with out.open() as lines:
            assert sum(1 for _ in lines) == head_lines + MAX_OUTPUTS
        assert peak_kib < 150 * 1024

    def test_tuples_over_the_cap_exit_before_the_copy(self, capsys):
        # 3,000 outputs are cheap, but 1,501 tuples of dimension 1,500 exceed MAX_OUTPUTS coordinates.
        code, out, err, peak = run_cli_traced(capsys, "gen", "--curve", "1009,1,1", "--poly", "0x409",
                                              "--n", "3000", "--s", "1500")
        assert code == 3 and out == "" and err.startswith("scale guard:") and 1501 * 1500 > MAX_OUTPUTS
        assert peak < 2**20

    @pytest.mark.parametrize("trials", [MAX_MC_TRIALS + 1, 10**12])
    def test_mc_trials_over_the_cap_exit_before_sampling(self, capsys, tmp_path, trials):
        points_file = tmp_path / "pts.csv"
        points_file.write_text("0.1,0.2\n0.3,0.8\n")
        code, out, err, peak = run_cli_traced(capsys, "disc", "--input", str(points_file), "--method", "mc",
                                              "--trials", str(trials))
        assert code == 3 and out == "" and err.startswith("scale guard:")
        assert peak < 2**20

    def test_mc_work_over_the_budget_exits_3(self, capsys, tmp_path):
        # a 1,023-point s = 2 file: 48,876 trials is one past MAX_MC_WORK, where 10^6 trials took 62 s
        points_file = tmp_path / "pts.csv"
        np.savetxt(points_file, np.random.default_rng(5).random((1023, 2)), delimiter=",")
        code, out, err = run_cli(capsys, "disc", "--input", str(points_file), "--method", "mc",
                                 "--trials", "48876")
        assert code == 3 and out == "" and "trials * N * s" in err

    def test_gen_negative_seed_is_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--curve", "13,2,3", "--poly", "0xb", "--n", "5",
                                 "--seed", "-1")
        assert code == 2 and out == "" and "seed" in err

    def test_disc_mc_negative_seed_is_validation_error(self, capsys, tmp_path):
        points_file = tmp_path / "pts.csv"
        points_file.write_text("0.1,0.2\n0.3,0.8\n")
        code, out, err = run_cli(capsys, "disc", "--input", str(points_file), "--method", "mc",
                                 "--seed", "-1")
        assert code == 2 and out == "" and "seed" in err

    def test_bad_poly_hex_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--curve", "5,1,1", "--poly", "zz", "--n", "3")
        assert code == 2 and "hex" in err


class TestCurveAndLfsrInfo:
    def test_curve_info(self, capsys):
        code, out, _ = run_cli(capsys, "curve-info", "--curve", "5,1,1")
        payload = json.loads(out)
        assert code == 0 and payload["order"] == 9 and payload["hasse_ok"]

    def test_lfsr_info_holds_no_window_set(self, capsys):
        # One period of this degree-20 register is 1,048,575 windows; the period walk holds one state.
        code, out, _, peak = run_cli_traced(capsys, "lfsr-info", "--poly", "0x100009")
        assert code == 0 and json.loads(out)["windows_distinct"] is True
        assert peak < 2**20

    def test_period_guard_runs_before_the_irreducibility_test(self, capsys, monkeypatch):
        def never(_):
            raise AssertionError("the irreducibility test ran")

        monkeypatch.setattr(gf2, "poly_is_irreducible", never)
        poly = hex((1 << 4423) | (1 << 271) | 1)  # irreducible; testing that takes about 15 s
        code, out, err = run_cli(capsys, "lfsr-info", "--poly", poly)
        assert code == 3 and out == "" and err.startswith("scale guard: period search")

    def test_lfsr_info(self, capsys):
        code, out, _ = run_cli(capsys, "lfsr-info", "--poly", "0x409")
        payload = json.loads(out)
        assert code == 0
        assert payload["degree"] == 10
        assert payload["irreducible"] and payload["max_period"]
        assert payload["period"] == 1023 and payload["windows_distinct"]

    @settings(max_examples=100, deadline=None)
    @given(curve_texts)
    @example("1048583,1,1")
    @example("3,1,1")
    def test_curve_info_exit_codes_on_any_curve(self, curve):
        code, out = run_cli_contract("curve-info", f"--curve={curve}")
        if code == 0:
            payload = json.loads(out)
            assert payload["hasse_ok"] and (curve not in CHECK_CURVES or payload["order"] == len(CHECK_CURVES[curve]))

    @settings(max_examples=100, deadline=None)
    @given(lfsr_argv())
    @example((hex(2**25 + 1), None))
    @example(("0x409", "0" * 10))
    def test_lfsr_info_exit_codes_on_any_arguments(self, case):
        poly, init = case
        code, out = run_cli_contract("lfsr-info", f"--poly={poly}", *([f"--init={init}"] if init is not None else []))
        if code == 0:
            assert json.loads(out)["degree"] == int(poly, 16).bit_length() - 1


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

    def test_strong_pseudoprime_is_validation_error(self, capsys):
        # 4,759,123,141 = 48,781 * 97,561 passes Miller-Rabin to the bases 2, 7 and 61.
        code, out, err = run_cli(capsys, "bounds", "--n", "1", "--p", "4759123141", "--r", "1", "--tau", "1")
        assert code == 2 and out == "" and "not prime" in err

    @pytest.mark.parametrize("p, code", [(MAX_PRIME_TEST, 3), (2**61 - 1, 0)])
    def test_p_past_the_exact_prime_test_is_scale_guard(self, capsys, p, code):
        # MAX_PRIME_TEST = 399,165,290,221 * 798,330,580,441 passes the strong test to every base of is_prime.
        result, out, err = run_cli(capsys, "bounds", "--n", "1", "--p", str(p), "--r", "1", "--tau", "1")
        assert result == code and (out == "") == (code == 3)
        assert err == ("" if code == 0 else f"scale guard: p = {p} is past the primality test's exact range, "
                                            f"p < {MAX_PRIME_TEST}\n")

    @pytest.mark.parametrize("extra", [("--r", "5000"), ("--r", "2", "--s", "5000"), ("--r", "2", "--delta", "1e-320")])
    def test_float_overflow_is_validation_error(self, capsys, extra):
        code, out, err = run_cli(capsys, "bounds", "--n", "5", "--p", "11", "--tau", "10", *extra)
        assert code == 2 and out == "" and "overflows a float" in err

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(-2, 10**6) | st.integers(),
        p=st.sampled_from([2, 5, 11, 1009, 2**61 - 1]) | st.integers(),
        r=st.integers(-2, 3000) | st.integers(),
        tau=st.integers(-2, 10**6) | st.integers(),
        delta=st.floats(),
        s=st.none() | st.integers(-2, 1000) | st.integers(),
    )
    @example(n=5, p=11, r=5000, tau=10, delta=1.0, s=None)
    @example(n=5, p=11, r=2, tau=10, delta=1.0, s=5000)
    def test_exit_codes_on_any_numbers(self, n, p, r, tau, delta, s):
        argv = ["bounds", f"--n={n}", f"--p={p}", f"--r={r}", f"--tau={tau}", f"--delta={delta!r}"]
        code, out, err = run_cli_on_stdin("", *argv, *([f"--s={s}"] if s is not None else []))
        assert code in (0, 2, 3), err
        if code == 0:
            json.loads(out, parse_constant=reject_constant)  # every number finite
        else:
            assert out == "" and err.startswith("error:" if code == 2 else "scale guard:")
        assert (code == 3) <= (p >= MAX_PRIME_TEST)


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

    def test_negative_seed_is_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "expsum-check", "--curve", "101,1,1", "--samples", "5",
                                 "--seed", "-1")
        assert code == 2 and out == "" and "seed" in err

    @pytest.mark.parametrize("samples", [MAX_CHECK_SAMPLES + 1, 10**11])
    def test_samples_over_the_guard_exit_before_drawing(self, capsys, samples):
        code, out, err, peak = run_cli_traced(capsys, "expsum-check", "--curve", "5,1,1", "--samples", str(samples))
        assert code == 3 and out == "" and err.startswith("scale guard:")
        assert peak < 2**20  # far below one int64 per draw

    @settings(max_examples=150, deadline=None)
    @given(check_curve_and_shift(), st.booleans(), ints((-3, 10**4), (MAX_CHECK_SAMPLES + 1, 10**12)),
           ints((-3, 2**70)))
    @example(("13,2,0", None), False, str(10**12), "0")
    @example(("13,2,0", "1,4"), True, "1", "0")
    def test_exit_codes_on_any_arguments(self, case, all_a, samples, seed):
        # Accepted sample counts stay at most 10^4, so every draw is quick.
        curve, shift = case
        argv = ["expsum-check", f"--curve={curve}", f"--seed={seed}"]
        argv += ["--all-a"] if all_a else [f"--samples={samples}"]
        argv += [f"--c={shift}"] if shift is not None else []
        code, out = run_cli_contract(*argv)
        if not all_a and int(samples) > MAX_CHECK_SAMPLES:
            assert code in (2, 3)
        if code == 0:
            p = parse_curve(curve).p
            rows = parse_csv(out)[1]
            assert rows and all(row[0] == str(p) for row in rows)
            assert len(rows) == p - 1 if all_a else len(rows) <= int(samples)
            if shift is not None and curve in CHECK_CURVES:  # a shift on the curve does not change the sums
                unshifted = run_cli_contract(*argv[:-1])
                assert unshifted == (0, out)

    @staticmethod
    def csv_writer_rendering(p, a_values, sums):
        buf = io.StringIO()
        buf.write("# version=1\n")
        writer = csv.writer(buf)
        writer.writerow(["p", "a", "abs_sum", "sqrt_p", "ratio"])
        for a in a_values:
            magnitude = abs(complex(sums[a]))
            writer.writerow([p, a, f"{magnitude:.12g}", f"{math.sqrt(p):.12g}",
                             f"{magnitude / math.sqrt(p):.12g}"])
        return buf.getvalue()

    def test_all_a_output_is_the_csv_writer_rendering(self, capsys):
        curve = CurveParams(101, 1, 1)
        c = enumerate_points(curve)[5]
        code, out, _ = run_cli(capsys, "expsum-check", "--curve", "101,1,1", "--all-a",
                               "--c", f"{c.x},{c.y}")
        assert code == 0
        assert out == self.csv_writer_rendering(101, range(1, 101), curve_char_sums_all(curve))
        assert out.count("\r\n") == 101  # csv.writer's row terminator, header included

    def test_abs_sum_is_the_modulus_of_a_python_complex(self, capsys):
        # At p = 10007, a = 9540 the modulus np.abs returns prints differently in the 12th digit.
        curve = CurveParams(10007, 1, 1)
        code, out, _ = run_cli(capsys, "expsum-check", "--curve", "10007,1,1", "--all-a")
        assert code == 0
        assert out == self.csv_writer_rendering(10007, range(1, 10007), curve_char_sums_all(curve))

    def test_sampled_output_is_the_csv_writer_rendering(self, capsys):
        curve = CurveParams(101, 1, 1)
        code, out, _ = run_cli(capsys, "expsum-check", "--curve", "101,1,1", "--samples", "8",
                               "--seed", "3")
        assert code == 0
        rng = np.random.default_rng(3)
        a_values = sorted(set(int(a) for a in rng.integers(1, 101, size=8)))
        assert out == self.csv_writer_rendering(101, a_values, curve_char_sums_all(curve))

    # Both modes write 12 rows: chunks of 4 fill exactly three, and 11 and 13 leave one row over or short.
    @pytest.mark.parametrize("chunk", [4, 11, 12, 13])
    @pytest.mark.parametrize("mode", [("13,2,0", "--all-a"), ("10007,1,1", "--samples", "12", "--seed", "3")],
                             ids=["all-a", "samples"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_chunked_rows_are_the_csv_writer_rendering(self, capsys, monkeypatch, tmp_path, chunk, mode, to_file):
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
        curve = parse_curve(mode[0])
        if mode[1] == "--all-a":
            a_values = range(1, curve.p)
        else:
            a_values = sorted(set(np.random.default_rng(3).integers(1, curve.p, size=12).tolist()))
        assert len(a_values) == 12
        self.check_rendering(capsys, tmp_path, ["--curve", *mode], to_file,
                             self.csv_writer_rendering(curve.p, a_values, curve_char_sums_all(curve)))

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_rows_in_whole_chunks_of_the_module_size(self, capsys, tmp_path, to_file):
        curve = CurveParams(12289, 1, 1)  # p - 1 = 3 * 4096
        expected = self.csv_writer_rendering(12289, range(1, 12289), curve_char_sums_all(curve))
        self.check_rendering(capsys, tmp_path, ["--curve", "12289,1,1", "--all-a"], to_file, expected)

    @staticmethod
    def check_rendering(capsys, tmp_path, argv, to_file, expected):
        path = tmp_path / "check.csv"
        code, out, _ = run_cli(capsys, "expsum-check", *argv, *(["--output", str(path)] if to_file else []))
        assert code == 0
        assert (path.read_bytes().decode() if to_file else out) == expected
        assert out == "" if to_file else not path.exists()

    def test_all_a_output_streams_in_chunks(self, tmp_path):
        # A string per row peaks at 22 MiB at p = 100003; the chunked writer at 8.5 MiB,
        # most of it the point table and the character sums.
        argv = ["expsum-check", "--curve", "100003,32984,38683", "--all-a", "--output", str(tmp_path / "check.csv")]
        main(argv[:2] + ["101,1,1"] + argv[3:])  # first-call allocations are not the command's
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 12 * 2**20, peak / 2**20


class TestExperiment:
    CONFIG = {"curve": {"p": 101, "a": 1, "b": 1}, "poly_hex": "0x25", "r": 5, "s": 1,
              "n_grid": [4, 8], "samples": 2, "delta": 1.0, "seed": 1}

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
                curve=CurveParams(101, 1, 1),
                poly=BinaryPoly(0x25),
                r=5, s=1, n_grid=(4, 8, 16), samples=5, delta=1.0, seed=99,
            )
        )
        for row, exp in zip(rows, expected):
            assert int(row[0]) == exp.n
            assert abs(float(row[1]) - exp.mean) < 1e-9

    @pytest.mark.parametrize("s, n_grid", [(4, [3, 6, 10, 11]), (8, [1, 2])])
    def test_s4_and_up_runs_monte_carlo(self, capsys, tmp_path, s, n_grid):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.CONFIG, "s": s, "n_grid": n_grid, "samples": 3}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 0 and err == ""
        expected = discrepancy_sweep(ExperimentConfig(curve=CurveParams(101, 1, 1), poly=BinaryPoly(0x25), r=5,
                                                      s=s, n_grid=tuple(n_grid), samples=3, delta=1.0, seed=1))
        assert {row.method for row in expected} == {"monte-carlo-lower-bound"}
        assert [[float(v) for v in row] for row in parse_csv(out)[1]] == [
            [float(f"{v:.12g}") for v in (row.n, row.mean, row.median, row.q90, row.thm_bound, row.elma_bound)]
            for row in expected]

    def test_missing_field_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"curve": {"p": 101, "a": 1, "b": 1}}))
        code, _, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2

    def test_negative_seed_flag_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.CONFIG))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path), "--seed", "-1")
        assert code == 2 and out == "" and "seed" in err

    @pytest.mark.parametrize("seed", [-3, 1.5, True, "7"])
    def test_bad_config_seed_is_validation_error(self, capsys, tmp_path, seed):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.CONFIG, "seed": seed}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2 and out == "" and "seed" in err

    @pytest.mark.parametrize("text", ['{"curve": ', '{"curve": 5, "poly_hex": "0x25"}'])
    def test_malformed_config_is_validation_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2

    @pytest.mark.parametrize("field, value", [
        ("samples", 2.5), ("samples", 2.0), ("s", 1.5), ("s", True), ("r", 5.0),
        ("n_grid", [5.7]), ("n_grid", ["5"]), ("n_grid", [4, True]), ("curve", {"p": 101, "a": 1.5, "b": 1}),
    ])
    def test_non_integer_field_is_validation_error(self, capsys, tmp_path, field, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.CONFIG, field: value}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2 and out == "" and "must be an integer" in err

    @pytest.mark.parametrize("delta", [True, False, "1.0", None, [1.0], 0, -1.0, 10**400])
    def test_bad_delta_is_validation_error(self, capsys, tmp_path, delta):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.CONFIG, "delta": delta}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2 and out == "" and "delta must be a positive finite number" in err

    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**12])
    def test_samples_over_the_cap_exit_before_drawing(self, capsys, tmp_path, samples):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.CONFIG, "samples": samples}))
        code, out, err, peak = run_cli_traced(capsys, "experiment", "--config", str(path))
        assert code == 3 and out == "" and err.startswith("scale guard:")
        assert peak < 2**20  # far below one spawned RNG stream per sample

    def test_oversized_reducible_poly_is_a_scale_guard(self, capsys, tmp_path):
        # The period guard runs before the irreducibility test, so X^25 + 1 = (X + 1)(...) exits 3.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.CONFIG, "poly_hex": hex((1 << 25) | 1), "r": 25}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 3 and out == "" and err.startswith("scale guard: period search")

    def test_bound_overflow_exits_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        def never(*_):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(experiments, "_weight_rows", never)
        monkeypatch.setattr(experiments, "_lane_sums", never)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.CONFIG, "delta": 1e-320}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2 and out == "" and "overflows a float" in err

    @settings(max_examples=80, deadline=None)
    @given(st.dictionaries(st.sampled_from(CONFIG_FIELDS), json_values, max_size=2))
    @example({})
    @example({"samples": 2.5})
    @example({"s": True, "n_grid": ["5"]})
    def test_exit_codes_on_any_field_values(self, overrides):
        config = json.loads(json.dumps(self.CONFIG))
        for field, value in overrides.items():
            head, _, leaf = field.partition(".")
            if not leaf:
                config[head] = value
            elif isinstance(config[head], dict):  # "curve" itself may have been replaced
                config[head][leaf] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # r > sqrt(p) warns on small primes
                code, out, err = run_cli_on_stdin("", "experiment", "--config", path)
        assert code in (0, 2, 3), err
        if code:
            assert out == "" and err.startswith(("error:", "scale guard:"))


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

    # An empty value is rejected like a blank one, not read as the flag's absence.
    @pytest.mark.parametrize("argv", [
        ("gen", "--curve", "5,1,1", "--poly", "0x7", "--n", "3", "--init", ""),
        ("lfsr-info", "--poly", "0x7", "--init", ""),
        ("gen", "--curve", "5,1,1", "--poly", "0x7", "--n", "3", "--weights", ""),
        ("expsum-check", "--curve", "13,2,0", "--all-a", "--c", ""),
    ], ids=["gen-init", "lfsr-info-init", "gen-weights", "expsum-check-c"])
    def test_empty_value_is_validation_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_shift_off_the_curve_is_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "expsum-check", "--curve", "5,1,1", "--c", "1,1")
        assert code == 2 and out == "" and err == "error: shift point must lie on the curve\n"


README_CONFIG = {"curve": {"p": 1009, "a": 1, "b": 1}, "poly_hex": "0x409", "r": 10, "s": 1,
                 "n_grid": [64, 128, 256, 512, 1023], "samples": 100, "delta": 1.0, "seed": 12345}


class TestPeakAtTheEnumerationCap:
    """Resident peaks of the point-table commands on p = 1048573, the largest prime below 2^20.

    Measured with Python 3.11 and numpy 2.4: the point table built out of place took curve-info and gen
    to about 117 MiB and expsum-check --all-a to about 238 MiB; built in place, with the histogram
    transformed in place, they peak at about 85 and 174 MiB.
    """

    @pytest.mark.parametrize("argv, bound_mib", [
        (("curve-info", "--curve", "1048573,1,1"), 100),
        (("gen", "--curve", "1048573,1,1", "--poly", "0x409", "--n", "1000"), 100),
        (("expsum-check", "--curve", "1048573,1,1", "--all-a"), 210),
    ], ids=["curve-info", "gen", "expsum-check-all-a"])
    def test_peak(self, tmp_path, argv, bound_mib):
        out = tmp_path / "out.txt"
        code, peak_kib, err = run_from_launcher(*argv, "--output", str(out))
        assert code == 0 and out.stat().st_size, err
        assert peak_kib < bound_mib * 1024, peak_kib / 1024


class TestPinnedOutputs:
    """SHA-256 of whole CLI outputs, so a kernel change that moves one digit fails here.

    The digests were taken from the scalar-oracle-checked outputs before the
    chunk-table generator kernel and the batched exact scan; an intended change
    of output (a VERSION bump, a new column) updates them.
    """

    @pytest.mark.parametrize("config, digest", [
        (README_CONFIG, "2ed00d9ddd3b90271fb14876468bef72b84b654a5f3f2463d74e1088ed6ae9ba"),
        ({**README_CONFIG, "s": 2, "n_grid": [25, 50, 100], "samples": 10},
         "f322d9880325197c36523f32ea5a1b1c1d3f5829a7c72b3061bf4e14a4fcb41e"),
    ])
    def test_experiment(self, capsys, tmp_path, config, digest):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    # At r = 10 and N = 5000 the comb is one 1024-entry table: p = 1009 inverts it through the table of
    # all p residues, p = 10007 entry by entry.  Both digests are those of the per-entry inversion.
    @pytest.mark.parametrize("p, digest", [
        (1009, "5ff4646a9084a2f3ba83ef0f17997a5e91b3da638d336cd9b9fe57ee83c87e18"),
        (10007, "2788d9e418ad0e88f975f913bdb32bc89061e5851b1a26ec6b4a0a576a86cd83"),
    ])
    def test_gen(self, capsys, p, digest):
        code, out, _ = run_cli(capsys, "gen", "--curve", f"{p},1,1", "--poly", "0x409", "--n", "5000",
                               "--seed", "7")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_disc_1d_ties(self, capsys, tmp_path):
        # 1023 outputs over p = 101 tie heavily; the value is that of the candidate-box scan.
        points = tmp_path / "points.txt"
        code, _, _ = run_cli(capsys, "gen", "--curve", "101,1,1", "--poly", "0x409", "--n", "1023",
                             "--seed", "11", "--output", str(points))
        assert code == 0
        assert run_cli(capsys, "disc", "--input", str(points)) == (
            0, '{"version": 1, "n": 1023, "s": 1, "value": 0.11690523891098784, "method": "exact"}\n', "")

    def test_gen_s3(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--curve", "1009,1,1", "--poly", "0x409", "--n", "23",
                               "--s", "3", "--seed", "7")
        digest = "53ec93427a89b1bcbea055cd3f44ce25f3194178b470b7001bf6390920d6e14f"
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    # The reports of the successor-table power iteration, which the reshape matvec reproduces bit for bit.
    BETA_REPORTS = {
        "--s 1": '"s": 1, "beta": 3.000000000000001, "alpha": 3.0, "dominant_h": [1]',
        "--s 2": '"s": 2, "beta": 3.7320508076089602, "alpha": 3.872983346207417, "dominant_h": [1, 2]',
        "--s 3": '"s": 3, "beta": 3.9394650586694624, "alpha": 3.9790572078963917, "dominant_h": [2]',
        "--s 4": '"s": 4, "beta": 3.984437223583859, "alpha": 3.996088014880467, "dominant_h": [2, 3]',
        "--s 5": '"s": 5, "beta": 3.996154038321775, "alpha": 3.9992184446452828, "dominant_h": [3]',
        "--s 6": '"s": 6, "beta": 3.999027005306564, "alpha": 3.9998372230240165, "dominant_h": [3, 4]',
        "--s 7": '"s": 7, "beta": 3.9997570164238088, "alpha": 3.9999651218555066, "dominant_h": [3, 4, 5]',
        "--s 8": '"s": 8, "beta": 3.999939036291755, "alpha": 3.9999923705545366, '
                 '"dominant_h": [1, 2, 3, 4, 5, 6, 7, 8]',
        "--s 6 --tolerance 1e-12": '"s": 6, "beta": 3.999027004704455, "alpha": 3.9998372230240165, '
                                   '"dominant_h": [3, 4]',
    }

    @pytest.mark.parametrize("argv", BETA_REPORTS)
    def test_beta(self, capsys, argv):
        assert run_cli(capsys, "beta", *argv.split()) == (0, '{"version": 1, ' + self.BETA_REPORTS[argv] + "}\n", "")

    EXPSUM_CURVE = "10007,1,10005"  # x = 1 is a root of x^3 + x + 10005, so (1, 0) is 2-torsion

    # P -> c + P permutes the curve, so the multiset of x(c + P) over P != -c,
    # and with it every |S(a)|, is the same for each shift c.
    @pytest.mark.parametrize("c", ["inf", "5000,326", "1,0"])
    @pytest.mark.parametrize("mode, digest", [
        (("--all-a",), "102486415a88aa6d9ad8353c5f63176aa35f2fe59f768ad3bf8af8f5e6f7269f"),
        (("--samples", "7", "--seed", "3"), "f2a203e8dccd008834f255ad6d90485cf4f0f285a9f231fa1bcbc09007ba227f"),
    ], ids=["all-a", "samples"])
    def test_expsum_check(self, capsys, c, mode, digest):
        code, out, _ = run_cli(capsys, "expsum-check", "--curve", self.EXPSUM_CURVE, *mode, "--c", c)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_expsum_check_sorts_and_deduplicates_draws(self, capsys):
        # 5000 draws of a in 1..1008 repeat most values; the digest is that of the set-based dedup.
        code, out, _ = run_cli(capsys, "expsum-check", "--curve", "1009,1,1", "--samples", "5000", "--seed", "11")
        digest = "fd27292ae5ffec8190b187c32eb316f2bc9aa7d871ac2e567ac8e67bb9bf7475"
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
        a_values = [int(row[1]) for row in parse_csv(out)[1]]
        assert a_values == sorted(set(a_values)) and len(a_values) < 5000

    def test_curve_info(self, capsys):
        code, out, _ = run_cli(capsys, "curve-info", "--curve", self.EXPSUM_CURVE)
        digest = "53c0cbfaebb5ecf3d15bca043486c93705ff1b705c68bf3471fc1a24da0e914c"
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


class TestNoPointList:
    """The table commands read the curve's int64 point table, never a list of CurvePoint objects."""

    @pytest.fixture(autouse=True)
    def refuse_point_list(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a whole-curve CurvePoint list was built")

        for name, module in list(sys.modules.items()):
            if name == "ecss" or name.startswith("ecss."):
                for attr, value in list(vars(module).items()):
                    if value is enumerate_points:
                        monkeypatch.setattr(module, attr, refuse)

    @pytest.mark.parametrize("argv", [
        ("expsum-check", "--curve", "101,1,1", "--all-a", "--c", "0,1"),
        ("expsum-check", "--curve", "101,1,1", "--samples", "5", "--seed", "2"),
        ("curve-info", "--curve", "101,1,1"),
        ("gen", "--curve", "1009,1,1", "--poly", "0x409", "--n", "8", "--seed", "4"),
    ], ids=["expsum-all-a", "expsum-samples", "curve-info", "gen"])
    def test_command_runs(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out

    def test_experiment_runs(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(TestExperiment.CONFIG))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 0 and out


def run_program(*argv, python_flags=(), stdin=b"", stdout=subprocess.PIPE):
    """Run `python [flags] -m ecss.cli *argv` as a process with buffered standard streams; its output as bytes."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    return subprocess.run([sys.executable, *python_flags, "-m", "ecss.cli", *argv], env=env, input=stdin,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


class TestProgramExit:
    """As the program (main called with no argv), ecss flushes its output and leaves by os._exit."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "pts.csv").write_text("n,c0,c1\n1,0.25,0.5\n2,0.75,0.125\n3,0.5,0.875\n")
        (tmp_path / "config.json").write_text(json.dumps(TestExperiment.CONFIG))
        return tmp_path

    @pytest.mark.parametrize("argv", [
        ("gen", "--curve", "101,1,1", "--poly", "0xb", "--n", "20", "--s", "2", "--seed", "3"),
        ("curve-info", "--curve", "1009,1,1"),
        ("lfsr-info", "--poly", "0x409"),
        ("disc", "--input", "{dir}/pts.csv"),
        ("bounds", "--n", "512", "--p", "65537", "--r", "16", "--tau", "65535", "--s", "2"),
        ("badpairs", "--r", "6", "--s", "2"),
        ("beta", "--s", "3"),
        ("expsum-check", "--curve", "199,5,7", "--all-a"),
        ("experiment", "--config", "{dir}/config.json"),
        ("curve-info", "--curve", "9,1,1"),
        ("lfsr-info", "--poly", "0x2000001"),
        ("curve-info", "--curve", "5,1,1", "--output", "{dir}/missing/out.json"),
    ], ids=["gen", "curve-info", "lfsr-info", "disc", "bounds", "badpairs", "beta", "expsum-check", "experiment",
            "exit-2", "exit-3", "exit-4"])
    def test_program_matches_main_with_argv(self, capsys, files, argv):
        argv = [arg.format(dir=files) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        done = run_program(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())

    def test_the_exit_skips_the_interpreter_teardown(self):
        # The benchmark's launcher; an atexit handler runs only when the interpreter is torn down.
        boot = "import atexit, sys; atexit.register(print, 'torn down'); from ecss.cli import main; sys.exit(main())"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", boot, "beta", "--s", "2"], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0 and json.loads(done.stdout)["s"] == 2 and done.stderr == ""

    @pytest.mark.parametrize("argv", [("beta", "--s", "2"), ("expsum-check", "--curve", "1009,1,1", "--all-a")],
                             ids=["fails-at-the-flush", "fails-mid-table"])
    def test_closed_stdout_pipe_exits_four_with_one_line(self, argv):
        # The teardown used to flush a closed pipe: "Exception ignored ... BrokenPipeError" and exit 120.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_program(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert done.returncode == 4
        assert done.stderr.startswith(b"i/o error: ") and done.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("flags, stdin, report", [
        (("-m", "cProfile"), b"", b"function calls"),
        (("-i",), b"print('prompt reached')\n", b"prompt reached"),
    ], ids=["cProfile", "inspect"])
    def test_a_tool_waiting_for_the_exit_still_runs(self, flags, stdin, report):
        done = run_program("beta", "--s", "2", python_flags=flags, stdin=stdin)
        assert done.returncode == 0 and b'"beta": 3.7320508076089602' in done.stdout and report in done.stdout

    def test_main_with_argv_returns(self, capsys):
        assert main(["beta", "--s", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["s"] == 2

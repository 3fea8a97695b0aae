"""What a fresh process loads: `import ecss` loads no submodule, and each CLI command only its own."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecss

SRC = Path(__file__).resolve().parents[1] / "src"

# The public names, by defining module: the 64 exported when ecss/__init__.py imported every module,
# and bad_pair_count, less the residue-ring generator ResidueWeights and subset_sum_residue, and less
# the records WeightVector (weights are a tuple of points) and WindowPattern (validate_pattern checks h),
# less the test oracles is_s_good, scalar_mul and PeriodicSource, which live in tests/oracles.py, and
# less validate_curve, whose checks CurveParams makes on construction.
PUBLIC = {
    "combinat": "BadPairCount TransferMatrix alpha bad_count_bracket bad_pair_count bad_pair_upper_bound "
                "beta brute_force_bad_count brute_force_bad_wrt_first spectral_radius transfer_matrix walk_count",
    "curve": "INFINITY CurveParams CurvePoint add enumerate_points is_on_curve negate point_table x_coord",
    "discrepancy": "BoundInputs DiscrepancyReport PointSet discrepancy_bound_1d discrepancy_bound_multi "
                   "elmahassni_bound exact_extreme_1d exact_extreme_multi mc_box_lower_bound nontrivial_exponent",
    "errors": "ScaleGuardError ValidationError",
    "experiments": "ExperimentConfig SweepRow bound_crossover discrepancy_sweep sample_weight_vectors slope_fit",
    "expsum": "ComplexSum additive_character avg_square_sum_over_weights curve_x_char_sum dirichlet_l1 "
              "koksma_szusz_rhs orthogonality_sum",
    "generator": "GeneratorConfig ec_subset_sum ec_subset_sum_stream output_normalized s_tuples",
    "gf2": "BinaryPoly BitSequenceSource LfsrSource poly_is_irreducible sequence_period windows_distinct",
}


def loaded_after(code: str) -> set[str]:
    """The ecss modules, and numpy, numpy.random and csv if loaded, in sys.modules of a fresh process after code."""
    script = (f"import contextlib, io, json, sys\n{code}\n"
              "print(json.dumps([m for m in sys.modules\n"
              "                  if m in ('numpy', 'numpy.random', 'csv') or m.split('.')[0] == 'ecss']))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def cli_run(*argv: str) -> str:
    """Code that runs `ecss ARGV` in-process with its output discarded, exiting 0."""
    return ("from ecss.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({list(argv)!r}) == 0")


def test_import_ecss_loads_no_submodule_and_no_numpy():
    assert loaded_after("import ecss") == {"ecss"}


def test_a_public_name_or_submodule_loads_only_its_module():
    assert loaded_after("import ecss\necss.alpha") == {"ecss", "ecss.combinat", "ecss.errors"}
    assert loaded_after("import ecss\necss.gf2.BinaryPoly") == {"ecss", "ecss.gf2", "ecss.errors"}


@pytest.mark.parametrize("argv, numpy", [(("beta", "--s", "3"), {"numpy"}),
                                         (("badpairs", "--r", "12", "--s", "3"), set())],  # Python ints only
                         ids=["beta", "badpairs"])
def test_table_commands_load_only_combinat(argv, numpy):
    assert loaded_after(cli_run(*argv)) == {"ecss", "ecss.cli", "ecss.errors", "ecss.combinat"} | numpy


def test_expsum_check_loads_no_combinatorics_or_discrepancy():
    # gf2 is imported inside avg_square_sum_over_weights, the one expsum function that reads a register.
    loaded = loaded_after(cli_run("expsum-check", "--curve", "13,2,0", "--all-a"))
    assert loaded == {"ecss", "ecss.cli", "ecss.errors", "ecss.curve", "ecss.expsum", "numpy"}


@pytest.mark.parametrize("code", [cli_run("expsum-check", "--curve", "13,2,0", "--all-a"),
                                  "from ecss import curve, expsum, gf2\n"
                                  "source = gf2.LfsrSource(gf2.BinaryPoly.from_hex('0x13'), (1, 0, 0, 0))\n"
                                  "expsum.avg_square_sum_over_weights(curve.parse_curve('11,1,1'), 4, 3, 15, source)"],
                         ids=["expsum-check", "avg_square"])
def test_character_sums_load_no_generator(code):
    loaded = loaded_after(code)
    assert "ecss.expsum" in loaded and "ecss.generator" not in loaded


def test_lfsr_info_loads_no_numpy():
    assert loaded_after(cli_run("lfsr-info", "--poly", "0x13")) == {"ecss", "ecss.cli", "ecss.errors", "ecss.gf2"}


@pytest.mark.parametrize("argv", [("beta", "--s", "3"), ("badpairs", "--r", "12", "--s", "3"),
                                  ("bounds", "--n", "100", "--p", "1009", "--r", "10", "--tau", "1023", "--s", "2"),
                                  ("curve-info", "--curve", "13,2,0"), ("lfsr-info", "--poly", "0x13")],
                         ids=["beta", "badpairs", "bounds", "curve-info", "lfsr-info"])
def test_json_commands_load_no_csv(argv):
    assert "csv" not in loaded_after(cli_run(*argv))


def test_disc_loads_no_combinatorics(tmp_path):
    points = tmp_path / "pts.csv"
    points.write_text("0.1,0.2\n0.3,0.8\n0.5,0.5\n")
    assert loaded_after(cli_run("disc", "--input", str(points))) == {"ecss", "ecss.cli", "ecss.errors",
                                                                     "ecss.discrepancy", "numpy", "csv"}


SAMPLING = {"ecss", "ecss.cli", "ecss.errors", "ecss.curve", "ecss.discrepancy", "ecss.experiments",
            "ecss.generator", "ecss.gf2", "numpy"}


@pytest.mark.parametrize("s", [1, 2])  # alpha_s, in the s >= 2 bound, lives in errors
def test_experiment_loads_no_combinat(tmp_path, s):
    # Nor numpy.random: the weight draw and the Monte-Carlo seeds are computed in Python ints.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"curve": {"p": 101, "a": 1, "b": 1}, "poly_hex": "0x25", "r": 5, "s": s,
                                  "n_grid": [8, 16], "samples": 2, "delta": 1.0, "seed": 1}))
    assert loaded_after(cli_run("experiment", "--config", str(config))) == SAMPLING  # no csv


def test_gen_with_sampled_weights_loads_no_numpy_random():
    loaded = loaded_after(cli_run("gen", "--curve", "1009,1,1", "--poly", "0x409", "--n", "50", "--seed", "7"))
    assert "ecss.experiments" in loaded and "numpy.random" not in loaded


def test_monte_carlo_columns_load_numpy_random(tmp_path):
    # mc_box_lower_bound keeps numpy's Generator for its bulk box draws; s = 4 is past the exact guard.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"curve": {"p": 101, "a": 1, "b": 1}, "poly_hex": "0x25", "r": 5, "s": 4,
                                  "n_grid": [8], "samples": 2, "delta": 1.0, "seed": 1}))
    assert loaded_after(cli_run("experiment", "--config", str(config))) == SAMPLING | {"numpy.random"}


@pytest.mark.parametrize("s", [[], ["--s", "2"]], ids=["s1", "s2"])
def test_bounds_loads_only_discrepancy(s):
    argv = ("bounds", "--n", "100", "--p", "1009", "--r", "10", "--tau", "1023", *s)
    assert loaded_after(cli_run(*argv)) == {"ecss", "ecss.cli", "ecss.errors", "ecss.discrepancy", "numpy"}


def test_public_names_resolve_to_their_modules():
    assert sorted(ecss.__all__) == sorted(name for names in PUBLIC.values() for name in names.split())
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"ecss.{module}")
        for name in names.split():
            assert getattr(ecss, name) is getattr(defining, name), name
    assert len(ecss.__all__) == 57
    namespace = {}
    exec("from ecss import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ecss.__all__)
    assert set(ecss.__all__) <= set(dir(ecss))
    with pytest.raises(AttributeError):
        ecss.no_such_name


def test_moved_names_still_resolve_where_they_were():
    from ecss import combinat, curve, discrepancy, errors, generator

    assert generator.PointSet is discrepancy.PointSet
    assert curve.is_prime is errors.is_prime
    assert ecss.alpha is combinat.alpha is errors.alpha

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecss import discrepancy, experiments, generator

from ecss.curve import CurveParams, enumerate_points, point_table, x_coord
from ecss.errors import ScaleGuardError, ValidationError
from ecss.experiments import (
    MAX_SAMPLES,
    ExperimentConfig,
    bound_crossover,
    discrepancy_sweep,
    sample_weight_vectors,
    slope_fit,
)
from ecss.discrepancy import (BoundInputs, discrepancy_bound_1d, elmahassni_bound, exact_extreme_1d,
                              exact_extreme_multi)
from ecss.generator import LANE_BUDGET, s_tuples
from ecss.gf2 import BinaryPoly, LfsrSource
from oracles import scalar_fold

F101 = CurveParams(101, 1, 1)
POLY5 = BinaryPoly(0b100101)  # X^5 + X^2 + 1, primitive


def small_config(**overrides):
    base = dict(
        curve=F101,
        poly=POLY5,
        r=5,
        s=1,
        n_grid=(4, 8, 16, 31),
        samples=12,
        delta=1.0,
        seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_tau_computed(self):
        assert small_config().tau == 31

    def test_tau_is_not_an_argument(self):
        with pytest.raises(TypeError):
            small_config(tau=5)

    def test_reducible_poly_rejected(self):
        with pytest.raises(ValidationError):
            small_config(poly=BinaryPoly(0b110101), r=5)  # (X+1)(X^4+X+1)

    def test_constant_term_zero_is_reported_before_reducibility(self):
        with pytest.raises(ValidationError, match="constant term must be 1"):
            small_config(poly=BinaryPoly(0b100110), r=5)  # X^5 + X^2 + X = X(X^4 + X + 1)

    def test_holds_no_window_set(self):
        # One period of this degree-20 register is 1,048,575 windows; the period walk holds one state.
        tracemalloc.start()
        try:
            config = small_config(curve=CurveParams(1009, 1, 1), poly=BinaryPoly(0x100009), r=20,
                                  n_grid=(64,), samples=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert config.tau == 2**20 - 1 and peak < 2**20

    def test_period_guard_runs_before_the_irreducibility_test(self, monkeypatch):
        def never(_):
            raise AssertionError("the irreducibility test ran")

        monkeypatch.setattr(experiments, "poly_is_irreducible", never)
        with pytest.raises(ScaleGuardError, match="period search"):
            small_config(poly=BinaryPoly((1 << 4423) | (1 << 271) | 1), r=4423)  # irreducible

    def test_grid_outside_period_rejected(self):
        with pytest.raises(ValidationError):
            small_config(n_grid=(4, 64))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            small_config(seed=seed)

    @pytest.mark.parametrize("field, value", [
        ("r", 5.0), ("r", True), ("s", 1.5), ("s", True), ("samples", 2.0), ("samples", 2.5),
        ("n_grid", (4, 5.7)), ("n_grid", ("5",)), ("n_grid", (True, 8)),
    ])
    def test_non_integer_field_rejected(self, field, value):
        with pytest.raises(ValidationError, match="must be an integer"):
            small_config(**{field: value})

    @pytest.mark.parametrize("delta", [True, False, "1.0", None, [1.0], math.nan, math.inf, 0, -1.0, 10**400])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(ValidationError, match="delta"):
            small_config(delta=delta)

    @pytest.mark.parametrize("delta", [2, 0.5, np.float64(1e-3)])
    def test_real_delta_accepted(self, delta):
        assert small_config(delta=delta).delta == delta

    def test_numpy_integer_fields_accepted(self):
        config = small_config(s=np.int64(2), samples=np.int64(3), n_grid=(np.int64(8), 4))
        assert config.n_grid == (4, 8) and all(type(n) is int for n in config.n_grid)

    def test_default_init_is_the_unit_window(self):
        assert small_config().init == (1, 0, 0, 0, 0)

    def test_numpy_integer_seed_accepted(self):
        assert small_config(seed=np.int64(5)).seed == 5

    def test_r_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            small_config(r=4)

    def test_warns_when_r_exceeds_sqrt_p(self):
        poly11 = BinaryPoly((1 << 11) | 0b101)  # X^11 + X^2 + 1, primitive
        with pytest.warns(UserWarning):
            ExperimentConfig(
                curve=F101, poly=poly11, r=11, s=1, n_grid=(16,),
                samples=1, delta=1.0, seed=0,
            )


class TestSampleWeightVectors:
    def test_empty(self):
        assert sample_weight_vectors(F101, 3, 0, 1) == []

    def test_count_over_the_cap_rejected(self):
        with pytest.raises(ScaleGuardError):
            sample_weight_vectors(F101, 3, MAX_SAMPLES + 1, 1)

    @pytest.mark.parametrize("seed", [-1, 2.0, False])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            sample_weight_vectors(F101, 4, 2, seed)

    def test_reproducible(self):
        a = sample_weight_vectors(F101, 4, 6, 42)
        b = sample_weight_vectors(F101, 4, 6, 42)
        assert a == b
        c = sample_weight_vectors(F101, 4, 6, 43)
        assert a != c

    def test_uniform_frequencies(self):
        points = enumerate_points(F101)
        draws = sample_weight_vectors(F101, 2, 5000, 7)
        counts = {}
        for vec in draws:
            for point in vec:
                counts[point] = counts.get(point, 0) + 1
        total = 2 * 5000
        cells = len(points)
        observed = np.array([counts.get(p, 0) for p in points])
        chi2 = float(((observed - total / cells) ** 2 / (total / cells)).sum())
        dof = cells - 1
        assert chi2 < dof + 5 * np.sqrt(2 * dof)


class TestWeightRows:
    """The sweep's draw: point-table rows, the same draws sample_weight_vectors turns into points."""

    F5 = CurveParams(5, 1, 1)  # 9 points, so 60 draws take the identity, row 0

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
    def test_rows_are_the_sampled_points(self, seed):
        table = point_table(self.F5)
        rows = experiments._weight_rows(len(table), 3, 20, seed)
        x, y, inf = generator._point_arrays(sample_weight_vectors(self.F5, 3, 20, seed))
        assert rows.shape == (20, 3) and rows.dtype == np.int64 and (rows == 0).any()
        assert np.array_equal(table[rows, 0], x) and np.array_equal(table[rows, 1], y)
        assert np.array_equal(rows == 0, inf)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_each_sample_has_its_own_stream(self, seed):
        streams = np.random.SeedSequence(seed).spawn(6)
        expected = [np.random.default_rng(child).integers(0, 9, size=4) for child in streams]
        assert np.array_equal(experiments._weight_rows(9, 4, 6, seed), expected)

    def test_order_and_count_guards(self):
        # The sample cap and the seed are checked through sample_weight_vectors above.
        for r, count in ((0, 2), (3, -1)):
            with pytest.raises(ValidationError):
                experiments._weight_rows(9, r, count, 1)


class TestDiscrepancySweep:
    def test_single_sample_row(self):
        config = small_config(samples=1, n_grid=(31,))
        rows = discrepancy_sweep(config)
        assert len(rows) == 1
        assert 1 / 31 - 1e-12 <= rows[0].mean <= 1.0

    def test_rows_respect_floor_and_quantile_order(self):
        rows = discrepancy_sweep(small_config())
        for row in rows:
            assert row.mean >= 1.0 / row.n - 1e-12
            assert row.median <= row.q90 + 1e-12
            assert row.method == "exact"

    def test_bounds_columns_match_evaluators(self):
        config = small_config()
        rows = discrepancy_sweep(config)
        for row in rows:
            inputs = BoundInputs(n=row.n, p=101, r=5, tau=31, delta=1.0)
            assert row.thm_bound == discrepancy_bound_1d(inputs)
            assert row.elma_bound == elmahassni_bound(inputs)

    def test_multidimensional_exact(self):
        config = small_config(s=2, n_grid=(8, 16))
        rows = discrepancy_sweep(config)
        assert all(row.method == "exact" and row.s == 2 for row in rows)

    def test_q90_at_least_mean_on_real_sweeps(self):
        rows = discrepancy_sweep(small_config(samples=30))
        for row in rows:
            assert row.q90 >= row.mean or abs(row.q90 - row.mean) < 1e-12

    def test_bound_overflow_stops_before_sampling(self, monkeypatch):
        def never(*_):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(experiments, "_weight_rows", never)
        monkeypatch.setattr(experiments, "_lane_sums", never)
        with pytest.raises(ValidationError, match="overflows a float"):
            discrepancy_sweep(small_config(delta=1e-320))

    @pytest.mark.parametrize("s, n_grid", [(4, (3, 6, 10, 11)), (8, (1, 2))])
    def test_every_column_is_monte_carlo_from_s4(self, s, n_grid):
        # The box scan covers s <= 3 only, so no N in the grid may reach the exact kernel.
        rows = discrepancy_sweep(small_config(s=s, n_grid=n_grid, samples=3))
        assert [row.n for row in rows] == list(n_grid)
        assert all(row.method == "monte-carlo-lower-bound" and 0 <= row.mean <= 1 for row in rows)

    def test_monte_carlo_rows_past_the_guard(self):
        config = small_config(s=2, n_grid=(10, 101), samples=3, curve=CurveParams(1009, 1, 1),
                              poly=BinaryPoly(0x409), r=10)
        rows = discrepancy_sweep(config)
        assert [row.method for row in rows] == ["exact", "monte-carlo-lower-bound"]
        seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence((config.seed, 1)).spawn(3)]
        bits = LfsrSource(config.poly, config.init).bits(102 + config.r - 1)
        d = []
        for weights, seed in zip(sample_weight_vectors(config.curve, config.r, 3, config.seed), seeds):
            outputs = [x_coord(point) / config.curve.p for point in scalar_fold(bits, weights, config.curve)[:102]]
            d.append(experiments.mc_box_lower_bound(s_tuples(outputs, 2), experiments.DEFAULT_MC_TRIALS, seed).value)
        assert rows[1].mean == float(np.mean(d))

    # A sample of N points has at most (N + 2)(N + 3) / 2 closed slab rows per leading axis: 5,253 at
    # N = 100, so three fill a 2^14-row block of the box scan; 36^2 = 1,296 at s = 3, N = 6, so twelve.
    @pytest.mark.parametrize("s, n_grid, samples, sizes", [(2, (25, 100), 7, [7, 3, 3, 1]), (3, (6,), 13, [12, 1])])
    def test_exact_groups_fill_a_block_and_equal_one_sample_calls(self, monkeypatch, s, n_grid, samples, sizes):
        kernel, calls = discrepancy._exact_group, []

        def recording(batch):
            values = kernel(batch)
            calls.append((len(batch), values, np.concatenate([kernel(sample[None]) for sample in batch])))
            return values

        monkeypatch.setattr(discrepancy, "_exact_group", recording)
        discrepancy_sweep(small_config(s=s, n_grid=n_grid, samples=samples, curve=CurveParams(1009, 1, 1),
                                       poly=BinaryPoly(0x409), r=10))
        assert [size for size, _, _ in calls] == sizes
        for _, grouped, single in calls:
            assert grouped.tobytes() == single.tobytes()

    def test_each_block_adds_its_lanes_in_one_slice(self, monkeypatch):
        # N = 100 is too few lanes to pay for all 2^10 subset sums, so every lane takes chunk additions;
        # a block of 163 samples holds at most LANE_BUDGET lanes, so _lane_sums adds them in one slice.
        add, widths = generator._mixed_add, []

        def recording(X, *args):
            if X.ndim == 2:  # the lane additions, not the table build
                widths.append(X.shape)
            return add(X, *args)

        monkeypatch.setattr(generator, "_mixed_add", recording)
        discrepancy_sweep(small_config(n_grid=(25, 100), samples=200, curve=CurveParams(1009, 1, 1),
                                       poly=BinaryPoly(0x409), r=10))
        block = LANE_BUDGET // 100
        assert set(widths) == {(block, 100), (200 - block, 100)}

    @pytest.mark.parametrize("overrides", [
        dict(curve=CurveParams(1009, 1, 1), poly=BinaryPoly(0x409), r=10, n_grid=(64, 256, 1023),
             samples=40),
        dict(s=2, n_grid=(10, 30), samples=530),
    ])
    def test_rows_equal_scalar_recomputation(self, overrides):
        config = small_config(**overrides)
        count = config.n_grid[-1] + config.s - 1
        assert config.samples > LANE_BUDGET // count  # the sweep runs at least two lane blocks
        bits = LfsrSource(config.poly, config.init).bits(count + config.r - 1)
        matrix = []
        for weights in sample_weight_vectors(config.curve, config.r, config.samples, config.seed):
            outputs = [x_coord(point) / config.curve.p for point in scalar_fold(bits, weights, config.curve)[:count]]
            if config.s == 1:
                matrix.append([exact_extreme_1d(outputs[:n]).value for n in config.n_grid])
            else:
                tuples = [s_tuples(outputs[: n + config.s - 1], config.s) for n in config.n_grid]
                matrix.append([exact_extreme_multi(points, config.s).value for points in tuples])
        matrix = np.asarray(matrix)
        rows = discrepancy_sweep(config)
        assert [row.n for row in rows] == list(config.n_grid)
        for row, d in zip(rows, matrix.T):
            assert row.method == "exact"
            assert (row.mean, row.median, row.q90) == (float(d.mean()), float(np.median(d)),
                                                       float(np.quantile(d, 0.9)))


class TestSweepStatistics:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0) | st.integers(0, 6).map(lambda k: k / 7), min_size=1, max_size=400))
    def test_median_q90_equal_numpy(self, values):
        d = np.array(values)
        assert experiments._median_q90(d[::-1]) == (float(np.median(d)), float(np.quantile(d, 0.9)))

    def test_experiment_does_not_import_numpy_ma(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"curve": {"p": 1009, "a": 1, "b": 1}, "poly_hex": "0x409", "r": 10, "s": 2,
                                    "n_grid": [5, 8], "samples": 3, "delta": 1.0, "seed": 4}))
        script = ("import sys\nfrom ecss.cli import main\n"
                  f"code = main(['experiment', '--config', {str(path)!r}])\n"
                  "print(code, 'numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"

    def test_monte_carlo_seeds_only_past_the_guard(self, monkeypatch):
        spawned = []
        seed_sequence = np.random.SeedSequence

        def recording(entropy, *args, **kwargs):
            spawned.append(entropy)
            return seed_sequence(entropy, *args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", recording)
        config = small_config(s=2, n_grid=(10, 20), samples=3)
        discrepancy_sweep(config)
        assert (config.seed, 1) not in spawned
        discrepancy_sweep(small_config(s=2, n_grid=(10, 101), samples=3, curve=CurveParams(1009, 1, 1),
                                       poly=BinaryPoly(0x409), r=10))
        assert (config.seed, 1) in spawned


class TestSlopeFit:
    def test_exact_square_root_decay(self):
        # synthetic rows with D = N^{-1/2} exactly
        from dataclasses import replace

        rows = discrepancy_sweep(small_config(samples=1, n_grid=(4, 8, 16)))
        synthetic = [replace(row, mean=row.n**-0.5) for row in rows]
        assert abs(slope_fit(synthetic) - (-0.5)) < 1e-12

    def test_constant_rows(self):
        from dataclasses import replace

        rows = [replace(r, mean=0.25) for r in discrepancy_sweep(small_config(samples=1, n_grid=(4, 8, 16)))]
        assert abs(slope_fit(rows)) < 1e-12

    def test_needs_three_rows(self):
        rows = discrepancy_sweep(small_config(samples=1, n_grid=(4, 8)))
        with pytest.raises(ValidationError):
            slope_fit(rows)


class TestBoundCrossover:
    def test_monotone_region_and_factor(self):
        n_star = bound_crossover(65537, 16, 65535)
        assert n_star is not None
        inputs_lo = BoundInputs(n=n_star - 1, p=65537, r=16, tau=65535, delta=1.0)
        inputs_hi = BoundInputs(n=n_star, p=65537, r=16, tau=65535, delta=1.0)
        assert discrepancy_bound_1d(inputs_lo) >= elmahassni_bound(inputs_lo)
        assert discrepancy_bound_1d(inputs_hi) < elmahassni_bound(inputs_hi)

    def test_no_crossover_for_tiny_tau(self):
        assert bound_crossover(65537, 16, 100) is None

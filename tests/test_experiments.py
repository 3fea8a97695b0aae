import numpy as np
import pytest

from ecss.curve import INFINITY, add, enumerate_points, validate_curve, x_coord
from ecss.errors import ValidationError
from ecss.experiments import (
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

F101 = validate_curve(101, 1, 1)
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

    def test_reducible_poly_rejected(self):
        with pytest.raises(ValidationError):
            small_config(poly=BinaryPoly(0b110101), r=5)  # (X+1)(X^4+X+1)

    def test_grid_outside_period_rejected(self):
        with pytest.raises(ValidationError):
            small_config(n_grid=(4, 64))

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

    @pytest.mark.parametrize("overrides", [
        dict(curve=validate_curve(1009, 1, 1), poly=BinaryPoly(0x409), r=10, n_grid=(64, 256, 1023),
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
            outputs = []
            for n in range(count):
                acc = INFINITY
                for j, point in enumerate(weights):
                    if bits[n + j]:
                        acc = add(acc, point, config.curve)
                outputs.append(x_coord(acc) / config.curve.p)
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

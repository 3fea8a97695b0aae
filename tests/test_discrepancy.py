import bisect
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecss.discrepancy import (
    EXACT,
    MC_LOWER_BOUND,
    BoundInputs,
    DiscrepancyReport,
    discrepancy_bound_1d,
    discrepancy_bound_multi,
    elmahassni_bound,
    exact_extreme_1d,
    exact_extreme_multi,
    mc_box_lower_bound,
    nontrivial_exponent,
)
from ecss.errors import ScaleGuardError, ValidationError
from ecss.generator import PointSet


def oracle_extreme_1d(pts):
    """Independent O(N^2) oracle: enumerate candidate interval endpoints with side limits."""
    pts = sorted(pts)
    n = len(pts)
    cands = sorted(set(pts) | {0.0, 1.0})
    best = 0.0
    for i, a in enumerate(cands):
        for b in cands[i:]:
            vol = b - a
            closed = bisect.bisect_right(pts, b) - bisect.bisect_left(pts, a)
            open_ = bisect.bisect_left(pts, b) - bisect.bisect_right(pts, a)
            best = max(best, closed / n - vol, vol - max(open_, 0) / n)
    return best


def oracle_extreme_multi(rows):
    """Brute-force oracle for small multi-dimensional sets: every candidate box,
    closed and open variants evaluated by direct comparison."""
    rows = np.asarray(rows, dtype=float)
    n, s = rows.shape
    cands = [sorted(set(rows[:, axis]) | {0.0, 1.0}) for axis in range(s)]
    best = 0.0
    for lows_highs in _boxes(cands):
        lo = np.array([lh[0] for lh in lows_highs])
        hi = np.array([lh[1] for lh in lows_highs])
        vol = float(np.prod(hi - lo))
        closed = int(np.all((rows >= lo) & (rows <= hi), axis=1).sum())
        open_ = int(np.all((rows > lo) & (rows < hi), axis=1).sum())
        best = max(best, closed / n - vol, vol - open_ / n)
    return best


def _boxes(cands):
    from itertools import product

    per_axis = [list(combinations_with_replacement(c, 2)) for c in cands]
    return product(*per_axis)


class TestExactExtreme1d:
    def test_equidistant(self):
        for n in range(2, 65):
            report = exact_extreme_1d([k / n for k in range(n)])
            assert abs(report.value - 1.0 / n) < 1e-12

    def test_single_point(self):
        assert exact_extreme_1d([0.5]).value == 1.0

    def test_bounds_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 60))
            value = exact_extreme_1d(rng.random(n)).value
            assert 1.0 / n - 1e-12 <= value <= 1.0 + 1e-12

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 201))
            pts = rng.random(n)
            if rng.random() < 0.3:  # exercise ties
                pts = (np.round(pts * 8) / 8) % 1.0
            assert abs(exact_extreme_1d(pts).value - oracle_extreme_1d(pts)) < 1e-12

    def test_report_fields(self):
        report = exact_extreme_1d([0.25, 0.75])
        assert isinstance(report, DiscrepancyReport)
        assert report.n == 2 and report.s == 1 and report.method == EXACT
        assert report.elapsed >= 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            exact_extreme_1d([1.0])
        with pytest.raises(ValidationError):
            exact_extreme_1d([-0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError):
            exact_extreme_1d([0.5, bad])
        with pytest.raises(ValidationError):
            mc_box_lower_bound([[0.5, bad]], 10, seed=0)


class TestExactExtremeMulti:
    def test_repeated_point_2d(self):
        ps = PointSet(s=2, rows=[[0.3, 0.7]] * 5)
        assert abs(exact_extreme_multi(ps, 2).value - 1.0) < 1e-12

    def test_regular_grid_matches_dense_scan(self):
        rows = [[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]]
        value = exact_extreme_multi(PointSet(s=2, rows=rows), 2).value
        # dense corner-grid oracle with side limits; the lattice contains the coords
        grid = np.linspace(0.0, 1.0, 201)
        pts = np.asarray(rows)
        m = len(grid)
        upper = np.triu(np.ones((m, m), dtype=bool))  # d >= c
        y_len = np.where(upper, grid[None, :] - grid[:, None], np.nan)
        # per point: which (c, d) pairs capture it, closed and open
        y_closed = (grid[:, None] <= pts[:, 1][:, None, None]) & (pts[:, 1][:, None, None] <= grid[None, :])
        y_open = (grid[:, None] < pts[:, 1][:, None, None]) & (pts[:, 1][:, None, None] < grid[None, :])
        best = 0.0
        for i, a in enumerate(grid):
            for b in grid[i:]:
                in_x_closed = (pts[:, 0] >= a) & (pts[:, 0] <= b)
                in_x_open = (pts[:, 0] > a) & (pts[:, 0] < b)
                closed = np.tensordot(in_x_closed.astype(float), y_closed, axes=1)
                open_ = np.tensordot(in_x_open.astype(float), y_open, axes=1)
                vol = (b - a) * y_len
                best = max(
                    best,
                    float(np.nanmax(closed / 4 - vol)),
                    float(np.nanmax(vol - open_ / 4)),
                )
        assert abs(value - best) < 1e-12

    def test_matches_bruteforce_oracle_2d(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            rows = rng.random((n, 2))
            value = exact_extreme_multi(PointSet(s=2, rows=rows), 2).value
            assert abs(value - oracle_extreme_multi(rows)) < 1e-12

    def test_matches_bruteforce_oracle_3d(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            n = int(rng.integers(2, 6))
            rows = rng.random((n, 3))
            value = exact_extreme_multi(PointSet(s=3, rows=rows), 3).value
            assert abs(value - oracle_extreme_multi(rows)) < 1e-12

    def test_dominates_marginals(self):
        rng = np.random.default_rng(4)
        rows = rng.random((30, 2))
        multi = exact_extreme_multi(PointSet(s=2, rows=rows), 2).value
        for axis in range(2):
            assert multi >= exact_extreme_1d(rows[:, axis]).value - 1e-12

    @pytest.mark.parametrize(
        "s, n, seed, tied, expected",
        [
            (2, 100, 20, False, 0.13158764484435337),
            (2, 100, 20, True, 0.28750000000000003),
            (3, 21, 21, False, 0.37351198632470833),
            (3, 21, 21, True, 0.43452380952380953),
        ],
    )
    def test_guard_edge_pins(self, s, n, seed, tied, expected):
        # Reference values from the earlier separate 2-D and 3-D scans, at the
        # largest N the N^(2s) guard admits, where the brute-force oracles are too slow.
        rows = np.random.default_rng(seed).random((n, s))
        if tied:
            rows = (np.round(rows * 8) / 8) % 1.0
        value = exact_extreme_multi(PointSet(s=s, rows=rows), s).value
        assert abs(value - expected) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda s: st.tuples(
                st.lists(
                    st.lists(st.integers(0, 15), min_size=s, max_size=s),
                    min_size=1,
                    max_size=12,
                ),
                st.randoms(use_true_random=False),
            )
        )
    )
    def test_invariant_under_row_permutation(self, case):
        grid, rnd = case
        rows = np.asarray(grid, dtype=float) / 16  # coarse grid forces ties
        s = rows.shape[1]
        shuffled = rows[rnd.sample(range(len(rows)), len(rows))]
        exact = exact_extreme_1d if s == 1 else (lambda pts: exact_extreme_multi(pts, s))
        assert exact(shuffled).value == exact(rows).value

    def test_guard(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ScaleGuardError):
            exact_extreme_multi(PointSet(s=2, rows=rng.random((101, 2))), 2)
        with pytest.raises(ValidationError):
            exact_extreme_multi(PointSet(s=4, rows=rng.random((5, 4))), 4)


class TestMcLowerBound:
    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(6)
        for s in (1, 2, 3):
            n = 12
            rows = rng.random((n, s))
            exact = (
                exact_extreme_1d(rows).value
                if s == 1
                else exact_extreme_multi(PointSet(s=s, rows=rows), s).value
            )
            mc = mc_box_lower_bound(rows, 3000, seed=9).value
            assert mc <= exact + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        rows = rng.random((40, 2))
        a = mc_box_lower_bound(rows, 500, seed=123)
        b = mc_box_lower_bound(rows, 500, seed=123)
        assert a.value == b.value
        assert a.method == MC_LOWER_BOUND

    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError):
            mc_box_lower_bound([[0.5]], 0, seed=0)

    def test_approaches_exact_on_easy_set(self):
        rows = [[0.3, 0.7]] * 5
        mc = mc_box_lower_bound(rows, 4000, seed=11).value
        assert mc > 0.9  # exact value is 1.0


class TestBoundEvaluators:
    def test_bound_1d_direct_arithmetic(self):
        inputs = BoundInputs(n=3, p=5, r=2, tau=3, delta=1.0)
        expected = (3**-0.5 + 3.0 * (1 / 3) * 5**-0.25 + 5**-0.5) * math.log(3) ** 2 * math.log(5)
        assert abs(discrepancy_bound_1d(inputs) - expected) < 1e-12

    def test_delta_scaling(self):
        base = BoundInputs(n=3, p=5, r=2, tau=3, delta=1.0)
        double = BoundInputs(n=3, p=5, r=2, tau=3, delta=2.0)
        for fn in (discrepancy_bound_1d, elmahassni_bound):
            assert abs(fn(double) - fn(base) / 2) < 1e-12

    def test_large_n_limit(self):
        tail = BoundInputs(n=10**12, p=1009, r=10, tau=2 * 10**12, delta=1.0)
        limit = 1009**-0.5 * math.log(2 * 10**12) ** 2 * math.log(1009)
        assert abs(discrepancy_bound_1d(tail) - limit) < 1e-3 * limit

    def test_bound_multi_direct_arithmetic(self):
        inputs = BoundInputs(n=3, p=5, r=2, tau=3, delta=1.0, s=2)
        lp = math.log(5)
        expected = (3**-0.5 * lp + 5**-0.5 * lp + math.sqrt(15.0) * (1 / 3) * lp**2) * math.log(3) ** 2
        assert abs(discrepancy_bound_multi(inputs) - expected) < 1e-12

    def test_bound_multi_monotone_in_r(self):
        values = [
            discrepancy_bound_multi(BoundInputs(n=50, p=101, r=r, tau=100, delta=1.0, s=2))
            for r in range(2, 10)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bound_multi_grows_with_s(self):
        small = discrepancy_bound_multi(BoundInputs(n=50, p=101, r=4, tau=100, delta=1.0, s=2))
        large = discrepancy_bound_multi(BoundInputs(n=50, p=101, r=4, tau=100, delta=1.0, s=3))
        assert large > small

    def test_bound_multi_needs_s_two(self):
        with pytest.raises(ValidationError):
            discrepancy_bound_multi(BoundInputs(n=3, p=5, r=2, tau=3, delta=1.0, s=1))
        with pytest.raises(ValidationError):
            discrepancy_bound_multi(BoundInputs(n=3, p=5, r=2, tau=3, delta=1.0))

    def test_elmahassni_direct_arithmetic(self):
        inputs = BoundInputs(n=3, p=5, r=2, tau=3, delta=1.0)
        expected = (3**-0.5 + 5**-0.25) * math.log(3) ** 2 * math.log(5)
        assert abs(elmahassni_bound(inputs) - expected) < 1e-12

    def test_reevaluation_bit_identical(self):
        inputs = BoundInputs(n=77, p=1009, r=10, tau=1023, delta=0.5, s=3)
        for fn in (discrepancy_bound_1d, discrepancy_bound_multi, elmahassni_bound):
            assert fn(inputs) == fn(inputs)

    def test_inputs_validated(self):
        with pytest.raises(ValidationError):
            BoundInputs(n=0, p=5, r=2, tau=3, delta=1.0)
        with pytest.raises(ValidationError):
            BoundInputs(n=4, p=5, r=2, tau=3, delta=1.0)
        with pytest.raises(ValidationError):
            BoundInputs(n=3, p=6, r=2, tau=3, delta=1.0)
        with pytest.raises(ValidationError):
            BoundInputs(n=3, p=5, r=2, tau=3, delta=0.0)


class TestNontrivialExponent:
    def test_s_one_matches_crossover_exponent(self):
        assert abs(nontrivial_exponent(1) - 0.5 * math.log(3) / math.log(2)) < 1e-15
        assert abs(nontrivial_exponent(1) - 0.79248) < 1e-5

    def test_s_two(self):
        assert abs(nontrivial_exponent(2) - 0.97673) < 1e-5

    def test_below_one(self):
        for s in range(1, 11):
            assert nontrivial_exponent(s) < 1.0

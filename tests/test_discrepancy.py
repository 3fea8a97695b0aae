import bisect
import math
import tracemalloc
from itertools import combinations_with_replacement
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecss import discrepancy
from ecss.curve import CurveParams
from ecss.discrepancy import (
    EXACT,
    MC_LOWER_BOUND,
    BoundInputs,
    _exact_extreme,
    DiscrepancyReport,
    PointSet,
    discrepancy_bound_1d,
    discrepancy_bound_multi,
    elmahassni_bound,
    exact_extreme_1d,
    exact_extreme_multi,
    mc_box_lower_bound,
    nontrivial_exponent,
)
from ecss.errors import ScaleGuardError, ValidationError
from ecss.experiments import sample_weight_vectors
from ecss.generator import GeneratorConfig, output_normalized
from ecss.gf2 import BinaryPoly, LfsrSource, default_init


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


def _reference_scan_last_axis(counts, vals, widths, n_total, closed):
    prefix = np.cumsum(counts, axis=-1)  # points at candidates <= j
    wv = widths[:, None] * vals
    if closed:
        below = prefix - counts  # points at candidates strictly left of i
        left = np.maximum.accumulate(wv - below / n_total, axis=-1)
        return float(np.max(prefix / n_total - wv + left))
    # the open box (vals[i], vals[j]) holds prefix[j-1] - prefix[i] points
    left = np.maximum.accumulate(prefix[:, :-1] / n_total - wv[:, :-1], axis=-1)
    return float(np.max(wv[:, 1:] - prefix[:, :-1] / n_total + left))


def _reference_sweep(counts, cands, width, n_total, closed):
    if counts.ndim == 1:
        return _reference_scan_last_axis(counts[None, :], cands[0], np.array([width]), n_total, closed)
    xs = cands[0]
    cum = np.concatenate([np.zeros((1,) + counts.shape[1:]), np.cumsum(counts, axis=0)])
    shift = int(closed)
    best = 0.0
    for i in range(len(xs) - 1 + shift):
        first = i + 1 - shift
        slabs = cum[first + shift : len(xs) + shift] - cum[first]
        widths = width * (xs[first:] - xs[i])
        if counts.ndim == 2:
            best = max(best, _reference_scan_last_axis(slabs, cands[1], widths, n_total, closed))
        else:
            for slab, w in zip(slabs, widths):
                best = max(best, _reference_sweep(slab, cands[1:], w, n_total, closed))
    return best


def reference_exact_extreme(rows):
    """The recursive one-slab-at-a-time scan the batched kernel replaced; the
    kernel keeps its float expressions, so the two must agree bit for bit."""
    rows = np.asarray(rows, dtype=float)
    cands, idx = [], []
    for col in rows.T:
        c, where = np.unique(np.concatenate([col, [0.0, 1.0]]), return_inverse=True)
        cands.append(c)
        idx.append(where[:-2])
    tally = np.zeros([len(c) for c in cands])
    np.add.at(tally, tuple(idx), 1.0)
    return max(_reference_sweep(tally, cands, 1.0, rows.shape[0], closed) for closed in (True, False))


def exact_value(rows):
    rows = np.asarray(rows, dtype=float)
    s = rows.shape[1]
    return (exact_extreme_1d(rows) if s == 1 else exact_extreme_multi(rows, s)).value


@st.composite
def point_sets(draw):
    """Uniform sets, or sets on a coarse 1/16 grid for ties, with some rows repeated."""
    s = draw(st.integers(1, 3))
    if draw(st.booleans()):
        coord = st.integers(0, 15).map(lambda k: k / 16)
    else:
        coord = st.floats(0.0, 1.0, exclude_max=True)
    rows = draw(st.lists(st.lists(coord, min_size=s, max_size=s), min_size=1, max_size=(40, 14, 7)[s - 1]))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
    return np.array(rows + [rows[k] for k in repeats])


def guard_edge_rows(s, n, seed, tied):
    rows = np.random.default_rng(seed).random((n, s))
    return (np.round(rows * 8) / 8) % 1.0 if tied else rows


# Stride rules for the box scan's coarse stage: every last-axis index coarse, the smallest stride
# whose cells hold two candidates, the default rule, and no coarse stage.
STRIDE_RULES = {"one": lambda c: 1, "two": lambda c: 2, "default": discrepancy._coarse_stride, "none": lambda c: 0}
SMALLEST_STRIDE = STRIDE_RULES["two"]


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
        ps = PointSet([[0.3, 0.7]] * 5)
        assert abs(exact_extreme_multi(ps, 2).value - 1.0) < 1e-12

    def test_regular_grid_matches_dense_scan(self):
        rows = [[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]]
        value = exact_extreme_multi(PointSet(rows), 2).value
        # dense corner-grid oracle with side limits; the lattice contains the coords
        grid = np.linspace(0.0, 1.0, 201)
        pts = np.asarray(rows)
        c, d = np.triu_indices(len(grid))  # every y-side pair with d >= c
        y = pts[:, 1][:, None]
        # per point: which (c, d) pairs capture it, closed and open; last row: the y-length
        y_closed = np.vstack([(grid[c] <= y) & (y <= grid[d]), grid[d] - grid[c]])
        y_open = np.vstack([(grid[c] < y) & (y < grid[d]), grid[d] - grid[c]])
        best = 0.0
        for i, a in enumerate(grid):
            b = grid[i:, None]  # every upper x-side b >= a at once
            in_x_closed = (pts[:, 0] >= a) & (pts[:, 0] <= b)
            in_x_open = (pts[:, 0] > a) & (pts[:, 0] < b)
            # one product per side limit: count/4 - volume, and volume - count/4
            excess = np.hstack([in_x_closed / 4, a - b]) @ y_closed
            best = max(best, float(excess.max()))
            deficit = np.hstack([in_x_open / -4, b - a]) @ y_open
            best = max(best, float(deficit.max()))
        assert abs(value - best) < 1e-12

    def test_matches_bruteforce_oracle_2d(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            rows = rng.random((n, 2))
            value = exact_extreme_multi(PointSet(rows), 2).value
            assert abs(value - oracle_extreme_multi(rows)) < 1e-12

    def test_matches_bruteforce_oracle_3d(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            n = int(rng.integers(2, 6))
            rows = rng.random((n, 3))
            value = exact_extreme_multi(PointSet(rows), 3).value
            assert abs(value - oracle_extreme_multi(rows)) < 1e-12

    def test_dominates_marginals(self):
        rng = np.random.default_rng(4)
        rows = rng.random((30, 2))
        multi = exact_extreme_multi(PointSet(rows), 2).value
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
        value = exact_extreme_multi(PointSet(rows), s).value
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

    @settings(max_examples=150, deadline=None)
    @given(point_sets())
    @example(np.array([[0.5]]))
    @example(np.array([[0.25, 0.75]] * 3))
    @example(np.array([[0.0, 0.5, 0.5], [0.0, 0.5, 0.5], [0.5, 0.0, 0.9375]]))
    @example(np.array([[0.0], [0.375], [0.0], [0.8125]]))  # 1-D: a point at exactly 0.0, tied
    @example(np.array([[0.3]] * 7))  # 1-D: all points equal
    @example(np.array([[0.0]]))  # 1-D: N = 1
    def test_bit_identical_to_reference_scan(self, rows):
        assert exact_value(rows) == reference_exact_extreme(rows)

    @pytest.mark.parametrize("s, n", [(1, 1023), (2, 100), (3, 21)])
    @pytest.mark.parametrize("tied", [False, True])
    def test_bit_identical_to_reference_scan_at_guard_edge(self, s, n, tied):
        rows = guard_edge_rows(s, n, 20 + s, tied)
        assert exact_value(rows) == reference_exact_extreme(rows)

    @pytest.mark.parametrize("s, n", [(2, 100), (3, 21)])
    def test_block_budget_does_not_change_the_value(self, monkeypatch, s, n):
        rows = guard_edge_rows(s, n, 30 + s, tied=False)
        values = {}
        for budget in (1, discrepancy.EXACT_BLOCK_BUDGET, 2**30):  # one slab per block, default, one block
            monkeypatch.setattr(discrepancy, "EXACT_BLOCK_BUDGET", budget)
            values[budget] = exact_value(rows)
        assert len(set(values.values())) == 1, values

    @settings(max_examples=150, deadline=None)
    @given(point_sets())
    def test_bit_identical_to_reference_scan_at_the_smallest_coarse_stride(self, rows):
        # point_sets draws N <= 14 at s = 2, where the default rule skips the coarse stage.
        with mock.patch.object(discrepancy, "_coarse_stride", SMALLEST_STRIDE):
            assert exact_value(rows) == reference_exact_extreme(rows)

    def test_coarse_floor_keeps_its_float_expression(self):
        # The property's shrunk counterexample to the closed floor summed as share - (tail - outer) in
        # _box_scan.coarse: that reassociation returns 0.5816880042251412, one ulp above the full scan.
        rows = np.array([[0.0, 0.0, 0.75], [0.5, 0.5, 0.5], [0.5, 0.75, 0.25], [0.875, 0.0, 0.0625],
                         [0.563564351435442, 0.2890625, 0.875]])
        with mock.patch.object(discrepancy, "_coarse_stride", SMALLEST_STRIDE):
            assert exact_value(rows) == reference_exact_extreme(rows) == 0.5816880042251411

    @pytest.mark.parametrize("s, n", [(2, 100), (3, 21)])
    def test_coarse_stride_does_not_change_the_value(self, monkeypatch, s, n):
        rows = guard_edge_rows(s, n, 30 + s, tied=False)
        values = {}
        for name, rule in STRIDE_RULES.items():
            monkeypatch.setattr(discrepancy, "_coarse_stride", rule)
            values[name] = exact_value(rows)
        assert len(set(values.values())) == 1, values

    def test_coarse_stage_engages_at_the_sweep_sizes(self, monkeypatch):
        # The exact_boxes sweep's s = 2 groups at N = 50 and 100 (c = N + 2 candidates) take the coarse stage.
        rule, strides = discrepancy._coarse_stride, {}
        monkeypatch.setattr(discrepancy, "_coarse_stride", lambda c: strides.setdefault(c, rule(c)))
        for n in (50, 100):
            _exact_extreme(guard_edge_rows(2, n, 40, tied=False)[None])
        assert strides == {52: 7, 102: 10}

    def test_guard(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ScaleGuardError):
            exact_extreme_multi(PointSet(rng.random((101, 2))), 2)
        with pytest.raises(ValidationError):
            exact_extreme_multi(PointSet(rng.random((5, 4))), 4)

    def test_one_guard_rule(self):
        # Any N at s = 1, N^(2s) <= 1e8 at s = 2 and 3, and never from s = 4, where the box scan has no case.
        fits = discrepancy.exact_fits_guard
        assert [fits(n, s) for n, s in [(10**6, 1), (100, 2), (101, 2), (21, 3), (22, 3)]] == [
            True, True, False, True, False]
        assert not any(fits(n, s) for n, s in [(1, 4), (2, 4), (1, 5), (3, 5), (1, 8)])


@st.composite
def sample_batches(draw, max_n=(40, 8, 3)):
    """A (B, N, s) batch whose samples differ in their distinct counts.

    Each sample is uniform or on a 2-, 3- or 7-level grid (ties), and any
    coordinate may be exactly 0.0.
    """
    s = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n[s - 1]))
    samples = []
    for _ in range(draw(st.integers(1, 4))):
        levels = draw(st.sampled_from([None, 2, 3, 7]))
        if levels is None:
            coord = st.floats(0.0, 1.0, exclude_max=True)
        else:
            coord = st.integers(0, levels - 1).map(lambda k, m=levels: k / m)
        coord = coord | st.just(0.0)
        samples.append(draw(st.lists(st.lists(coord, min_size=s, max_size=s), min_size=n, max_size=n)))
    return np.array(samples)


def tiered_batch(s, n, seed):
    """Uniform, 7-, 3- and 2-level samples of one (N, s) shape, so their candidate counts differ."""
    rng = np.random.default_rng(seed)
    rows = rng.random((4, n, s))
    for k, levels in enumerate((7, 3, 2), start=1):
        rows[k] = np.floor(rows[k] * levels) / levels
    rows[1, 0] = 0.0
    return rows


@st.composite
def zero_tie_batches(draw):
    """A (B, N, s) batch at s = 2 or 3 in which every sample has exact 0.0
    coordinates and a repeated row, and the samples lie on different grids, so
    their candidate counts and paddings differ.  Coordinates come from a drawn
    seed: hypothesis's own floats favour short fractions, whose products do
    not round."""
    s = draw(st.integers(2, 3))
    n = draw(st.integers(2, (12, 8)[s - 2]))
    samples = []
    for levels in draw(st.lists(st.sampled_from([None, 2, 3, 5, 16]), min_size=1, max_size=4)):
        rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, s))
        if levels:
            rows = np.floor(rows * levels) / levels
        zeros = st.tuples(st.integers(0, n - 2), st.integers(0, s - 1))
        for row, axis in draw(st.lists(zeros, min_size=1, max_size=3)):
            rows[row, axis] = 0.0
        rows[-1] = rows[draw(st.integers(0, n - 2))]
        samples.append(rows)
    return np.array(samples)


@st.composite
def interleaved_batches(draw):
    """A (B, N, 3) batch, B = 2..4 and N <= 10, whose samples snap a drawn
    share of their coordinates to a 1/7 grid, so their candidate counts
    differ and the box scan's bound order mixes their first-axis slabs in
    one block.  Coordinates come from a drawn seed, as in zero_tie_batches."""
    n = draw(st.integers(1, 10))
    samples = []
    for _ in range(draw(st.integers(2, 4))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows = rng.random((n, 3))
        tied = rng.random((n, 3)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
        rows[tied] = np.floor(rows[tied] * 7) / 7
        samples.append(rows)
    return np.array(samples)


class TestBatchedExactKernel:
    @settings(max_examples=80, deadline=None)
    @given(sample_batches())
    @example(np.array([[[0.0]], [[0.5]]]))
    @example(np.array([[[0.0, 0.5], [0.5, 0.0]], [[0.25, 0.25], [0.25, 0.25]]]))
    def test_equals_per_sample_calls_and_oracle(self, batch):
        s = batch.shape[2]
        values = _exact_extreme(batch)
        assert values.shape == (len(batch),)
        oracle = oracle_extreme_1d if s == 1 else oracle_extreme_multi
        for sample, value in zip(batch, values):
            assert value == _exact_extreme(sample[None])[0] == exact_value(sample)
            assert abs(value - oracle(sample[:, 0] if s == 1 else sample)) < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(zero_tie_batches())
    @example(np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.0, 0.25]]]))
    @example(np.array([[[0.0, 0.5, 0.0], [0.0, 0.5, 0.0], [0.5, 0.0, 0.75]]]))
    def test_batch_is_bit_identical_to_reference_scan(self, batch):
        values = _exact_extreme(batch)
        assert values.tolist() == [reference_exact_extreme(sample) for sample in batch]

    @settings(max_examples=100, deadline=None)
    @given(interleaved_batches())
    @example(np.array([[[0.5, 0.25, 0.75]] * 4, [[0.0, 0.0, 0.0]] * 4, [[3 / 7, 1 / 7, 0.5]] * 4]))  # all equal
    @example(np.array([[[0.5, 0.25, 0.75]], [[0.0, 0.0, 0.0]]]))  # a single point
    def test_grids_mixed_in_a_block_are_bit_identical_to_reference_scan(self, batch):
        values = _exact_extreme(batch)
        assert values.tolist() == [reference_exact_extreme(sample) for sample in batch]

    def test_readme_blocks_are_bit_identical_to_reference_scan(self):
        # The README sweep's block of 16 samples (LANE_BUDGET // 1023) at each N of its grid.
        curve, poly = CurveParams(1009, 1, 1), BinaryPoly(0x409)
        source = LfsrSource(poly, default_init(poly.degree))
        outputs = np.array([output_normalized(GeneratorConfig(source, weights, curve), 1023)
                            for weights in sample_weight_vectors(curve, poly.degree, 16, 12345)])
        assert len(np.unique(outputs)) < outputs.size  # the x-coordinates tie
        for n in (64, 128, 256, 512, 1023):
            batch = outputs[:, :n, None]
            assert _exact_extreme(batch).tolist() == [reference_exact_extreme(sample) for sample in batch], n

    @settings(max_examples=150, deadline=None)
    @given(zero_tie_batches())
    @example(np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.0, 0.25]]]))
    @example(np.array([[[0.0, 0.5, 0.0], [0.0, 0.5, 0.0], [0.5, 0.0, 0.75]]]))
    def test_batch_is_bit_identical_to_reference_scan_at_the_smallest_coarse_stride(self, batch):
        with mock.patch.object(discrepancy, "_coarse_stride", SMALLEST_STRIDE):
            values = _exact_extreme(batch)
        assert values.tolist() == [reference_exact_extreme(sample) for sample in batch]

    def test_s2_sweep_blocks_are_bit_identical_to_reference_scan(self):
        # The exact_boxes experiment's s = 2 tuples of the README generator: 10 samples at each N of its grid.
        curve, poly = CurveParams(1009, 1, 1), BinaryPoly(0x409)
        source = LfsrSource(poly, default_init(poly.degree))
        outputs = np.array([output_normalized(GeneratorConfig(source, weights, curve), 101)
                            for weights in sample_weight_vectors(curve, poly.degree, 10, 12345)])
        for n in (25, 50, 100):
            batch = np.lib.stride_tricks.sliding_window_view(outputs[:, : n + 1], 2, axis=1)
            assert _exact_extreme(batch).tolist() == [reference_exact_extreme(sample) for sample in batch], n

    @pytest.mark.parametrize("s, n", [(1, 1023), (2, 60), (3, 12)])
    def test_tiered_batch_equals_per_sample_calls(self, s, n):
        batch = tiered_batch(s, n, 40 + s)
        distinct = {len(np.unique(sample[:, 0])) for sample in batch}
        assert len(distinct) == len(batch)  # the padding differs per sample
        values = _exact_extreme(batch)
        assert values.tolist() == [exact_value(sample) for sample in batch]

    @pytest.mark.parametrize("s, n", [(2, 30), (3, 8)])
    def test_block_budget_does_not_change_the_batch(self, monkeypatch, s, n):
        batch = tiered_batch(s, n, 50 + s)
        values = set()
        for budget in (1, discrepancy.EXACT_BLOCK_BUDGET, 2**30):
            monkeypatch.setattr(discrepancy, "EXACT_BLOCK_BUDGET", budget)
            values.add(tuple(_exact_extreme(batch).tolist()))
        assert len(values) == 1, values

    @settings(max_examples=100, deadline=None)
    @given(interleaved_batches())
    def test_coarse_floors_of_one_unit_blocks_are_bit_identical_to_reference_scan(self, batch):
        # One first-axis slab per block, each with a coarse stage whose floor raises found for the later blocks.
        with mock.patch.object(discrepancy, "EXACT_BLOCK_BUDGET", 1), \
                mock.patch.object(discrepancy, "_coarse_stride", SMALLEST_STRIDE):
            values = _exact_extreme(batch)
        assert values.tolist() == [reference_exact_extreme(sample) for sample in batch]

    @pytest.mark.parametrize("budget", [1, 2**14, 2**30])
    def test_s2_groups_fit_one_block(self, monkeypatch, budget):
        # _box_scan streams an s = 2 group as one block; a one-sample group may pass the budget.
        monkeypatch.setattr(discrepancy, "EXACT_BLOCK_BUDGET", budget)
        for n in range(1, 101):
            group = discrepancy.exact_group_size(n, 2)
            assert group == 1 or group * (n + 2) * (n + 3) // 2 <= budget, n

    @pytest.mark.parametrize("s, n", [(2, 30), (3, 8)])
    def test_coarse_stride_does_not_change_the_batch(self, monkeypatch, s, n):
        batch = tiered_batch(s, n, 50 + s)
        values = set()
        for rule in STRIDE_RULES.values():
            monkeypatch.setattr(discrepancy, "_coarse_stride", rule)
            values.add(tuple(_exact_extreme(batch).tolist()))
        assert len(values) == 1, values


class TestExactKernelMemory:
    """Peak traced allocation of one exact kernel call at the guard edge.

    The streaming scan holds the group's count table (at s = 3 a block's
    first-axis slab table, one gathered copy with the lower faces subtracted
    in place) and the vectors of the block's kept rows: 1.54 MiB at s = 3,
    N = 21, where no coarse stage runs, and 0.62 / 0.82 MiB for the
    one-sample N = 100 and six-sample N = 50 shapes (numpy 2.4, Python 3.11).
    The sweep's s = 2 groups, sized by exact_group_size to fill one block,
    take 1.60 MiB (three at N = 100), 1.48 MiB (eleven at N = 50) and
    1.49 MiB (43 at N = 25, with no coarse stage); at N = 50 and 100 the
    coarse stage's eight vectors over all of the block's rows set the peak.
    A table of every row's counts at every last-axis candidate would need
    4.4 MiB at s = 2, N = 100, 3.6 MiB for six samples at N = 50 and about
    7 MiB unblocked at s = 3.  The pruned scan takes its row bounds per
    block: one float per unit and row at s = 3, N = 21 would add 0.58 MiB
    (276 x 276 x 8 bytes).
    """

    @pytest.mark.parametrize("s, n, samples, limit_mib", [
        (3, 21, 1, 1.6), (2, 100, 1, 0.66), (2, 50, 6, 0.9),
        (2, 25, 43, 1.6), (2, 100, 3, 1.7), (2, 50, 11, 1.6),
    ])
    def test_peak_allocation(self, s, n, samples, limit_mib):
        batch = np.random.default_rng(60 + s).random((samples, n, s))
        _exact_extreme(batch)  # first-call allocations are not the kernel's
        tracemalloc.start()
        try:
            _exact_extreme(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20, peak / 2**20


class TestMcLowerBound:
    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(6)
        for s in (1, 2, 3):
            n = 12
            rows = rng.random((n, s))
            exact = (
                exact_extreme_1d(rows).value
                if s == 1
                else exact_extreme_multi(PointSet(rows), s).value
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

    def test_non_integer_trials_rejected(self):
        with pytest.raises(ValidationError, match="trials must be an integer"):
            mc_box_lower_bound([[0.5]], 2.5, seed=0)

    def test_trials_over_the_cap_rejected(self):
        with pytest.raises(ScaleGuardError):
            mc_box_lower_bound([[0.5]], discrepancy.MAX_MC_TRIALS + 1, seed=0)

    @pytest.mark.parametrize("n, s", [(1023, 2), (300, 3), (10**5, 1)])
    def test_work_over_the_budget_rejected_before_sampling(self, monkeypatch, n, s):
        rows = np.random.default_rng(3).random((n, s))
        edge = discrepancy.MAX_MC_WORK // (n * s)
        monkeypatch.setattr(discrepancy.np.random, "default_rng", None)  # sampling would fail
        with pytest.raises(ScaleGuardError, match="trials \\* N \\* s"):
            mc_box_lower_bound(rows, edge + 1, seed=0)

    def test_work_budget_admits_the_sweep_and_the_benchmark_inputs(self):
        # the sweep's DEFAULT_MC_TRIALS at N <= 1023 up to s = 24, and the benchmark checker's 4000 trials at N = 21, s = 3
        assert discrepancy.DEFAULT_MC_TRIALS * 1023 * 24 <= discrepancy.MAX_MC_WORK
        assert mc_box_lower_bound(np.random.default_rng(4).random((21, 3)), 4000, seed=0).value > 0

    @pytest.mark.parametrize("seed", [-1, 0.5, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            mc_box_lower_bound([[0.5]], 10, seed=seed)

    def test_approaches_exact_on_easy_set(self):
        rows = [[0.3, 0.7]] * 5
        mc = mc_box_lower_bound(rows, 4000, seed=11).value
        assert mc > 0.9  # exact value is 1.0


BAD_POINT_INPUTS = {
    "empty": [],
    "empty-2d": np.zeros((0, 2)),
    "0-d": 0.5,
    "3-d": np.full((2, 2, 2), 0.5),
    "zero-column": np.zeros((3, 0)),
    "nan": [[0.5, np.nan], [0.25, 0.75]],
    "inf": [[0.5, np.inf], [0.25, 0.75]],
    "negative": [[0.5, -0.1], [0.25, 0.75]],
    "one": [[0.5, 1.0], [0.25, 0.75]],
    "ragged": [[0.5], [0.25, 0.75]],
    "string": [["0.5", "0.25"], ["0.125", "0.75"]],
    "complex": np.full((2, 2), 0.5 + 0j),
}
POINT_ROUTINES = {
    "exact_1d": exact_extreme_1d,
    "exact_multi": lambda rows: exact_extreme_multi(rows, 2),
    "mc": lambda rows: mc_box_lower_bound(rows, 10, seed=0),
}


class TestPointInput:
    """Every routine validates its points as a PointSet; a 1-D input is one column."""

    @pytest.mark.parametrize("kind", sorted(BAD_POINT_INPUTS))
    @pytest.mark.parametrize("routine", sorted(POINT_ROUTINES))
    def test_bad_input_is_validation_error(self, routine, kind):
        with pytest.raises(ValidationError):
            POINT_ROUTINES[routine](BAD_POINT_INPUTS[kind])

    @pytest.mark.parametrize("routine", sorted(POINT_ROUTINES))
    def test_point_set_and_array_agree(self, routine):
        rows = np.random.default_rng(4).random((9, 1 if routine == "exact_1d" else 2))
        assert POINT_ROUTINES[routine](rows).value == POINT_ROUTINES[routine](PointSet(rows)).value

    def test_one_dimensional_input_is_a_column(self):
        values = [0.1, 0.4, 0.45, 0.9]
        ps = PointSet(values)
        assert ps.s == 1 and ps.rows.tolist() == PointSet([[v] for v in values]).rows.tolist()
        assert exact_extreme_1d(values).value == exact_extreme_1d([[v] for v in values]).value
        report = mc_box_lower_bound(values, 50, seed=1)
        assert report.n == 4 and report.s == 1

    @pytest.mark.parametrize("given", [np.array([[0.1, 0.2]]), np.array([0.1, 0.2])])
    def test_rows_are_a_private_read_only_copy(self, given):
        # A contiguous float64 input was once kept as is, so a later write reached the checked rows.
        ps = PointSet(given)
        given[0] = 5.0
        assert ps.rows.ravel()[0] == 0.1
        with pytest.raises(ValueError, match="read-only"):
            ps.rows[0, 0] = 0.5

    @pytest.mark.parametrize("columns, s", [(3, 2), (2, 3), (1, 2)])
    def test_column_count_must_match_s(self, columns, s):
        rows = np.random.default_rng(4).random((5, columns))
        with pytest.raises(ValidationError, match=f"points have {columns} columns, expected {s}"):
            exact_extreme_multi(rows, s)


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

    def test_float_overflow_is_validation_error(self):
        wide = BoundInputs(n=5, p=11, r=5000, tau=10, delta=1.0, s=2)
        for fn in (discrepancy_bound_1d, discrepancy_bound_multi):
            with pytest.raises(ValidationError, match="overflows a float"):
                fn(wide)
        tiny_delta = BoundInputs(n=5, p=11, r=2, tau=10, delta=1e-320)  # inf is returned, not raised
        with pytest.raises(ValidationError, match="overflows a float"):
            elmahassni_bound(tiny_delta)

    def test_inputs_validated(self):
        with pytest.raises(ValidationError):
            BoundInputs(n=0, p=5, r=2, tau=3, delta=1.0)
        with pytest.raises(ValidationError):
            BoundInputs(n=4, p=5, r=2, tau=3, delta=1.0)
        with pytest.raises(ValidationError):
            BoundInputs(n=3, p=6, r=2, tau=3, delta=1.0)
        with pytest.raises(ValidationError):
            BoundInputs(n=3, p=5, r=2, tau=3, delta=0.0)

    @pytest.mark.parametrize("delta", [True, "1.0", None, math.nan, math.inf, -2.0, 10**400])
    def test_delta_must_be_a_positive_finite_number(self, delta):
        with pytest.raises(ValidationError, match="delta must be a positive finite number"):
            BoundInputs(n=3, p=5, r=2, tau=3, delta=delta)

    @pytest.mark.parametrize("field, value", [("n", 2.5), ("p", 5.0), ("r", 2.0), ("tau", 3.5), ("s", 2.0),
                                              ("n", True), ("p", "5")])
    def test_integer_fields_must_be_integers(self, field, value):
        # p = 5.0 once raised TypeError from pow, and n = 2.5 returned a bound at N = 2.5.
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            BoundInputs(**{**dict(n=3, p=5, r=2, tau=3, delta=1.0, s=None), field: value})

    def test_numpy_integers_become_python_ints(self):
        inputs = BoundInputs(n=np.int64(3), p=np.int64(5), r=np.int64(2), tau=np.int64(3), delta=1.0, s=np.int64(2))
        assert inputs == BoundInputs(n=3, p=5, r=2, tau=3, delta=1.0, s=2)
        assert all(type(getattr(inputs, name)) is int for name in ("n", "p", "r", "tau", "s"))
        assert BoundInputs(n=3, p=5, r=2, tau=3, delta=1.0).s is None


class TestNontrivialExponent:
    def test_s_one_matches_crossover_exponent(self):
        assert abs(nontrivial_exponent(1) - 0.5 * math.log(3) / math.log(2)) < 1e-15
        assert abs(nontrivial_exponent(1) - 0.79248) < 1e-5

    def test_s_two(self):
        assert abs(nontrivial_exponent(2) - 0.97673) < 1e-5

    def test_below_one(self):
        for s in range(1, 11):
            assert nontrivial_exponent(s) < 1.0

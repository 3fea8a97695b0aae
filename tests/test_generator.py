from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecss.curve import CurveParams, CurvePoint, INFINITY, add, enumerate_points, negate, x_coord
from ecss.discrepancy import PointSet
from ecss.errors import ScaleGuardError, ValidationError
from ecss import generator
from ecss.generator import (
    MAX_OUTPUTS,
    GeneratorConfig,
    _chunk_width,
    _lane_sums,
    _point_arrays,
    ec_subset_sum,
    ec_subset_sum_stream,
    output_normalized,
    s_tuples,
)
from ecss.gf2 import BinaryPoly, LfsrSource
from oracles import PeriodicSource, scalar_fold

F5 = CurveParams(5, 1, 1)


def lfsr_x2x1():
    return LfsrSource(BinaryPoly(0b111), (1, 0))


def f5_config():
    weights = (CurvePoint(0, 1), CurvePoint(2, 1))
    return GeneratorConfig(source=lfsr_x2x1(), weights=weights, curve=F5)


# (13, 2, 0) and (7, 0, 1) have the 2-torsion points (0, 0) and (6, 0).
KERNEL_CURVES = [CurveParams(13, 2, 0), CurveParams(7, 0, 1), F5, CurveParams(11, 1, 6)]
KERNEL_POINTS = {curve: enumerate_points(curve) for curve in KERNEL_CURVES}


@st.composite
def kernel_cases(draw):
    """A curve, a few weight vectors with identities, repeats and inverse pairs, and a bit string."""
    curve = draw(st.sampled_from(KERNEL_CURVES))
    points = KERNEL_POINTS[curve]
    r = draw(st.integers(1, 6))
    vectors = []
    for _ in range(draw(st.integers(1, 4))):
        weights = []
        for j in range(r):
            kinds = ["point", "identity", "repeat", "inverse"] if j else ["point", "identity"]
            kind = draw(st.sampled_from(kinds))
            if kind == "point":
                weights.append(draw(st.sampled_from(points)))
            elif kind == "identity":
                weights.append(INFINITY)
            else:
                earlier = weights[draw(st.integers(0, j - 1))]
                weights.append(earlier if kind == "repeat" else negate(earlier, curve))
        vectors.append(weights)
    length = draw(st.integers(0, 24)) + r - 1
    bits = draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    return curve, vectors, bits


class TestLaneKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_matches_scalar_fold(self, case):
        curve, vectors, bits = case
        x, y, inf = _lane_sums(bits, *_point_arrays(vectors), curve)
        for lane, weights in enumerate(vectors):
            got = [INFINITY if i else CurvePoint(a, b)
                   for a, b, i in zip(x[lane].tolist(), y[lane].tolist(), inf[lane].tolist())]
            assert got == scalar_fold(bits, weights, curve)

    def test_products_stay_in_int64_at_largest_field(self):
        p = (1 << 31) - 1  # the largest prime below MAX_FIELD; p = 3 mod 4
        curve = CurveParams(p, p - 3, 7)
        points = []
        for x in (p - 1, p - 3, p - 4, p - 5):
            rhs = (x**3 + curve.a * x + curve.b) % p
            y = pow(rhs, (p + 1) // 4, p)
            assert y * y % p == rhs
            points.append(CurvePoint(x, max(y, p - y)))
        p0, p1, p2, p3 = points
        weights = (p0, p1, p0, negate(p1, curve), p2, p2, negate(p0, curve), p3)
        source = LfsrSource(BinaryPoly(0x11D), (1,) + (0,) * 7)  # primitive: every nonzero window
        config = GeneratorConfig(source=source, weights=weights, curve=curve)
        assert ec_subset_sum_stream(config, 255) == scalar_fold(source.bits(262), weights, curve)


F1009 = CurveParams(1009, 1, 1)
TABLE_CURVES = KERNEL_CURVES + [F1009]
TABLE_POINTS = {**KERNEL_POINTS, F1009: enumerate_points(F1009)}


@st.composite
def table_cases(draw):
    """Weight vectors of the table kernel's orders, a bit string, a forced chunk width or None, and
    a forced lane budget or None.

    Weights mix fresh points, identities, repeats and negatives of earlier
    weights, and 2-torsion points (y = 0) where the curve has them.
    """
    curve = draw(st.sampled_from(TABLE_CURVES))
    points = TABLE_POINTS[curve]
    torsion = [pt for pt in points if pt.y == 0]
    r = draw(st.sampled_from([1, 2, 5, 10, 13, 31]))
    vectors = []
    for _ in range(draw(st.integers(1, 2))):
        weights = []
        for j in range(r):
            kinds = ["point", "identity"] + ["repeat", "inverse"] * bool(j) + ["torsion"] * bool(torsion)
            kind = draw(st.sampled_from(kinds))
            if kind == "point":
                weights.append(draw(st.sampled_from(points)))
            elif kind == "identity":
                weights.append(INFINITY)
            elif kind == "torsion":
                weights.append(draw(st.sampled_from(torsion)))
            else:
                earlier = weights[draw(st.integers(0, j - 1))]
                weights.append(earlier if kind == "repeat" else negate(earlier, curve))
        vectors.append(weights)
    n = draw(st.integers(1, 300))
    bits = draw(st.lists(st.integers(0, 1), min_size=n + r - 1, max_size=n + r - 1))
    # Only the widths _chunk_width may pick: their tables hold at most 2 max(N, 2r) entries, where
    # an unbounded width at r = 31 would ask for 2^31-entry tables.
    widths = [k for k in range(1, r + 1) if -(-r // k) << k <= 2 * max(n, 2 * r)]
    width = draw(st.none() | st.sampled_from(widths))
    budget = draw(st.none() | st.integers(1, 9))  # small budgets cut the lanes into slices and a remainder
    return curve, vectors, bits, width, budget


def lane_points(vectors, bits, curve):
    x, y, inf = _lane_sums(bits, *_point_arrays(vectors), curve)
    return [[INFINITY if i else CurvePoint(a, b) for a, b, i in zip(*row)]
            for row in zip(x.tolist(), y.tolist(), inf.tolist())]


class TestChunkTables:
    @settings(max_examples=80, deadline=None)
    @given(table_cases())
    def test_matches_scalar_fold(self, case):
        curve, vectors, bits, width, budget = case
        with pytest.MonkeyPatch.context() as patch:
            if width is not None:  # otherwise the cost model picks it
                patch.setattr(generator, "_chunk_width", lambda *_: width)
            if budget is not None:
                patch.setattr(generator, "LANE_BUDGET", budget)
            got = lane_points(vectors, bits, curve)
        assert got == [scalar_fold(bits, weights, curve) for weights in vectors]

    def test_every_width_at_r13(self, monkeypatch):
        # 13 is a multiple of no width but 1 and 13, so the last chunk is padded for every other one.
        curve = CurveParams(13, 2, 0)
        p, q = KERNEL_POINTS[curve][3], KERNEL_POINTS[curve][7]
        torsion = CurvePoint(0, 0)
        weights = [p, q, p, negate(p, curve), INFINITY, torsion, q, torsion, negate(q, curve), p, INFINITY, q, q]
        bits = LfsrSource(BinaryPoly(0x201B), (1,) + (0,) * 12).bits(200 + 12)
        expected = scalar_fold(bits, weights, curve)
        for width in range(1, 14):
            monkeypatch.setattr(generator, "_chunk_width", lambda *_: width)
            assert lane_points([weights], bits, curve) == [expected], width

    def test_tables_stay_within_twice_the_lanes(self):
        for r, n_lanes, n_vectors in product([1, 2, 5, 10, 13, 24, 31, 64], [1, 5, 23, 101, 1023, 10**5], [1, 16]):
            k = _chunk_width(r, n_lanes, n_vectors)
            assert 1 <= k <= r
            assert -(-r // k) << k <= 2 * max(n_lanes, 2 * r), (r, n_lanes, n_vectors)

    def test_tables_stay_within_the_ceiling_at_the_output_cap(self):
        # Bounded by twice the lanes only, r = 300 took 16-bit chunks: 1.2 M entries per table array.
        for r in (64, 150, 300):
            k = _chunk_width(r, MAX_OUTPUTS, 1)
            assert -(-r // k) << k <= 1 << 16, (r, k)
        k = _chunk_width(40000, 10, 1)  # past the ceiling the 2r entries of k = 1 stay admissible
        assert -(-40000 // k) << k <= 2 * 40000

    def test_widths_at_the_sweep_shapes(self):
        assert _chunk_width(10, 1023, 16) == 10  # the README sweep: one lookup per lane
        assert _chunk_width(10, 101, 10) < 10  # small N does not pay for all 2^r subset sums


class TestAffine:
    # Below p entries each Z is raised to p - 2; from p on, every residue is, once, and Z gathers.
    @pytest.mark.parametrize("size, powered", [(100, (1, 100)), (101, (101,)), (102, (101,))])
    def test_both_inversion_branches_match_python_pow(self, monkeypatch, size, powered):
        p = 101
        rng = np.random.default_rng(size)
        X, Y, Z = rng.integers(0, p, (3, 1, size))
        Z[0, : min(size, p)] = rng.permutation(p)[:size]  # every residue, 0 included, once p entries fit
        Z[0, ::9] = 0  # identity lanes
        shapes, pow_mod = [], generator._pow_mod
        monkeypatch.setattr(generator, "_pow_mod", lambda z, *args: shapes.append(z.shape) or pow_mod(z, *args))
        x, y, keep = generator._affine(X, Y, Z, p)
        assert shapes == [powered]
        inv = [pow(z, p - 2, p) for z in Z[0].tolist()]
        assert x[0].tolist() == [a * i % p for a, i in zip(X[0].tolist(), inv)]
        assert y[0].tolist() == [b * i % p for b, i in zip(Y[0].tolist(), inv)]
        assert keep[0].tolist() == [z != 0 for z in Z[0].tolist()]
        assert x.dtype == y.dtype == np.int64 and x.shape == y.shape == keep.shape == (1, size)


class TestEcGenerator:
    def test_worked_trace(self):
        config = f5_config()
        assert ec_subset_sum(config, 1) == CurvePoint(0, 1)
        assert ec_subset_sum(config, 2) == CurvePoint(2, 1)
        assert ec_subset_sum(config, 3) == CurvePoint(3, 4)

    def test_index_over_the_cap_rejected(self):
        # An output at index n reads n + r - 1 register bits.
        with pytest.raises(ScaleGuardError):
            ec_subset_sum(f5_config(), MAX_OUTPUTS + 1)
        with pytest.raises(ScaleGuardError):
            ec_subset_sum_stream(f5_config(), MAX_OUTPUTS + 1)

    def test_index_below_one_and_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="indices start at 1"):
            ec_subset_sum(f5_config(), 0)
        with pytest.raises(ValidationError, match="count must be >= 0"):
            ec_subset_sum_stream(f5_config(), -1)
        assert ec_subset_sum_stream(f5_config(), 0) == []

    def test_empty_window_gives_identity(self):
        source = LfsrSource(BinaryPoly(0b111), (0, 0))
        config = GeneratorConfig(
            source=source, weights=(CurvePoint(0, 1), CurvePoint(2, 1)), curve=F5
        )
        assert ec_subset_sum(config, 1) == INFINITY

    def test_off_curve_weights_rejected(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(
                source=lfsr_x2x1(),
                weights=(CurvePoint(1, 1), CurvePoint(2, 1)),
                curve=F5,
            )

    def test_length_mismatch_rejected(self):
        # The register has order 2; three weights do not fit its windows.
        with pytest.raises(ValidationError):
            GeneratorConfig(source=lfsr_x2x1(), weights=(CurvePoint(0, 1),) * 3, curve=F5)

    def test_non_curve_rejected(self):
        # With identity weights is_on_curve never reads the curve, so a tuple was once accepted.
        with pytest.raises(ValidationError, match="curve must be a CurveParams"):
            GeneratorConfig(source=lfsr_x2x1(), weights=(INFINITY, INFINITY), curve=(5, 1, 1))

    def test_non_point_weights_rejected(self):
        # Weights are a tuple of CurvePoints: a list of them, or a tuple holding a bare pair, is rejected.
        for weights in ([CurvePoint(0, 1), CurvePoint(2, 1)], (CurvePoint(0, 1), (2, 1))):
            with pytest.raises(ValidationError, match="weights must be a tuple of CurvePoints"):
                GeneratorConfig(source=lfsr_x2x1(), weights=weights, curve=F5)

    def test_stream_matches_single_calls(self):
        config = f5_config()
        stream = ec_subset_sum_stream(config, 9)
        assert stream == [ec_subset_sum(config, n) for n in range(1, 10)]

    def test_periodicity_divides_tau(self):
        config = f5_config()  # tau = 3
        stream = ec_subset_sum_stream(config, 12)
        assert stream[3:] == stream[:-3]

    def test_linearity_in_weights_exhaustive(self):
        # componentwise group sum of weights gives pointwise group sum of outputs
        from itertools import product

        points = enumerate_points(F5)
        bits = lfsr_x2x1().bits(4)
        windows = [bits[n - 1 : n + 1] for n in (1, 2, 3)]  # period 3 covers every window

        def outputs(weights):
            result = []
            for window in windows:
                acc = INFINITY
                for bit, point in zip(window, weights):
                    if bit:
                        acc = add(acc, point, F5)
                result.append(acc)
            return result

        vectors = list(product(points, repeat=2))
        per_vector = {w: outputs(w) for w in vectors}
        for wa in vectors:
            for wb in vectors:
                combined = tuple(add(a, b, F5) for a, b in zip(wa, wb))
                expected = [add(x, y, F5) for x, y in zip(per_vector[wa], per_vector[wb])]
                assert outputs(combined) == expected

    def test_streaming_equals_from_scratch_oracle(self):
        rng = np.random.default_rng(11)
        curves = [F5, CurveParams(7, 3, 4), CurveParams(13, 2, 3)]
        for _ in range(60):
            curve = curves[rng.integers(len(curves))]
            points = enumerate_points(curve)
            r = int(rng.integers(1, 5))
            poly = BinaryPoly((1 << r) | int(rng.integers(0, 1 << r)))
            init = tuple(int(b) for b in rng.integers(0, 2, size=r))
            source = LfsrSource(poly, init)
            weights = tuple(points[i] for i in rng.integers(0, len(points), size=r))
            config = GeneratorConfig(source=source, weights=weights, curve=curve)
            count = int(rng.integers(1, 25))
            stream = ec_subset_sum_stream(config, count)
            for n in range(1, count + 1):
                # from scratch: regenerate the bit prefix and fold the one window at index n
                assert stream[n - 1] == scalar_fold(source.bits(n + r - 1)[n - 1 :], weights, curve)[0]


class TestOutputNormalized:
    def test_worked_trace(self):
        values = output_normalized(f5_config(), 3)
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.tolist() == [0.0, 0.4, 0.6]

    def test_all_zero_source(self):
        source = LfsrSource(BinaryPoly(0b111), (0, 0))
        config = GeneratorConfig(
            source=source, weights=(CurvePoint(0, 1), CurvePoint(2, 1)), curve=F5
        )
        assert output_normalized(config, 4).tolist() == [0.0] * 4

    def test_range(self):
        values = output_normalized(f5_config(), 50)
        assert all(0.0 <= v < 1.0 for v in values)
        assert all(v == x_coord(pt) / 5 for v, pt in zip(values, ec_subset_sum_stream(f5_config(), 50)))


class TestSTuples:
    def test_windowing(self):
        ps = s_tuples([0.0, 0.4, 0.6], 2)
        assert ps.rows.tolist() == [[0.0, 0.4], [0.4, 0.6]]
        assert ps.n == 2 and ps.s == 2

    def test_s_one_is_identity(self):
        ps = s_tuples([0.1, 0.2, 0.3], 1)
        assert ps.rows.ravel().tolist() == [0.1, 0.2, 0.3]

    def test_full_length_window(self):
        ps = s_tuples([0.1, 0.2, 0.3], 3)
        assert ps.n == 1

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            s_tuples([0.1], 2)

    def test_two_dimensional_sequence_rejected(self):
        with pytest.raises(ValidationError, match="sequence must be one-dimensional"):
            s_tuples([[0.1, 0.2], [0.3, 0.4]], 1)

    def test_coordinates_over_the_cap_rejected(self):
        s = 1500
        assert s_tuples([0.5] * (MAX_OUTPUTS // s + s - 1), s).n == MAX_OUTPUTS // s
        with pytest.raises(ScaleGuardError):
            s_tuples([0.5] * (MAX_OUTPUTS // s + s), s)

    def test_point_set_validation(self):
        with pytest.raises(ValidationError):
            PointSet(s=1, rows=[[1.0]])
        with pytest.raises(ValidationError):
            PointSet(s=1, rows=np.empty((0, 1)))
        with pytest.raises(ValidationError):
            PointSet(s=2, rows=[[0.1, 0.2, 0.3]])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError):
                PointSet(s=2, rows=[[0.1, bad]])

    def test_generic_source_works(self):
        # arbitrary pattern source with distinct windows feeds the generator too
        source = PeriodicSource((1, 1, 0, 1, 0, 0, 0))
        weights = (CurvePoint(0, 1), CurvePoint(2, 1), CurvePoint(3, 4))
        config = GeneratorConfig(source=source, weights=weights, curve=F5)
        values = output_normalized(config, 14)
        assert values[7:].tolist() == values[:-7].tolist()

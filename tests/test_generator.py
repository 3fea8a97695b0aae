import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecss.curve import (CurvePoint, INFINITY, WeightVector, add, enumerate_points, negate, validate_curve,
                        x_coord)
from ecss.errors import ValidationError
from ecss.generator import (
    GeneratorConfig,
    PointSet,
    ResidueWeights,
    _lane_sums,
    _point_arrays,
    ec_subset_sum,
    ec_subset_sum_stream,
    output_normalized,
    s_tuples,
    subset_sum_residue,
)
from ecss.gf2 import BinaryPoly, LfsrSource, PeriodicSource

F5 = validate_curve(5, 1, 1)


def lfsr_x2x1():
    return LfsrSource(BinaryPoly(0b111), (1, 0))


def f5_config():
    weights = WeightVector((CurvePoint(0, 1), CurvePoint(2, 1)))
    return GeneratorConfig(source=lfsr_x2x1(), weights=weights, curve=F5)


def naive_point_sum(source, weights, curve, n):
    """From-scratch oracle: regenerate the bit prefix and fold the sum at index n."""
    bits = source.bits(n + len(weights) - 1)
    acc = INFINITY
    for j, point in enumerate(weights):
        if bits[n - 1 + j]:
            acc = add(acc, point, curve)
    return acc


def scalar_fold(bits, weights, curve):
    """Outputs of one weight vector over every window of bits, by scalar group additions."""
    out = []
    for n in range(len(bits) - len(weights) + 1):
        acc = INFINITY
        for j, point in enumerate(weights):
            if bits[n + j]:
                acc = add(acc, point, curve)
        out.append(acc)
    return out


# (13, 2, 0) and (7, 0, 1) have the 2-torsion points (0, 0) and (6, 0).
KERNEL_CURVES = [validate_curve(13, 2, 0), validate_curve(7, 0, 1), F5, validate_curve(11, 1, 6)]
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
        curve = validate_curve(p, p - 3, 7)
        points = []
        for x in (p - 1, p - 3, p - 4, p - 5):
            rhs = (x**3 + curve.a * x + curve.b) % p
            y = pow(rhs, (p + 1) // 4, p)
            assert y * y % p == rhs
            points.append(CurvePoint(x, max(y, p - y)))
        p0, p1, p2, p3 = points
        weights = WeightVector((p0, p1, p0, negate(p1, curve), p2, p2, negate(p0, curve), p3))
        source = LfsrSource(BinaryPoly(0x11D), (1,) + (0,) * 7)  # primitive: every nonzero window
        config = GeneratorConfig(source=source, weights=weights, curve=curve)
        assert ec_subset_sum_stream(config, 255) == scalar_fold(source.bits(262), weights, curve)


class TestResidueGenerator:
    def test_worked_trace(self):
        config = GeneratorConfig(source=lfsr_x2x1(), weights=ResidueWeights(8, (3, 5)))
        assert subset_sum_residue(config, range(1, 4)) == [3, 5, 0]

    def test_zero_weights(self):
        config = GeneratorConfig(source=lfsr_x2x1(), weights=ResidueWeights(8, (0, 0)))
        assert subset_sum_residue(config, range(1, 6)) == [0] * 5

    def test_zero_bits(self):
        source = LfsrSource(BinaryPoly(0b111), (0, 0))
        config = GeneratorConfig(source=source, weights=ResidueWeights(8, (3, 5)))
        assert subset_sum_residue(config, range(1, 6)) == [0] * 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(source=lfsr_x2x1(), weights=ResidueWeights(8, (3, 5, 7)))

    def test_requires_residue_weights(self):
        with pytest.raises(ValidationError):
            subset_sum_residue(f5_config(), range(1, 3))

    def test_modulus_validated(self):
        with pytest.raises(ValidationError):
            ResidueWeights(1, (0,))

    def test_values_reduced(self):
        assert ResidueWeights(8, (11, -3)).values == (3, 5)


class TestEcGenerator:
    def test_worked_trace(self):
        config = f5_config()
        assert ec_subset_sum(config, 1) == CurvePoint(0, 1)
        assert ec_subset_sum(config, 2) == CurvePoint(2, 1)
        assert ec_subset_sum(config, 3) == CurvePoint(3, 4)

    def test_empty_window_gives_identity(self):
        source = LfsrSource(BinaryPoly(0b111), (0, 0))
        config = GeneratorConfig(
            source=source, weights=WeightVector((CurvePoint(0, 1), CurvePoint(2, 1))), curve=F5
        )
        assert ec_subset_sum(config, 1) == INFINITY

    def test_off_curve_weights_rejected(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(
                source=lfsr_x2x1(),
                weights=WeightVector((CurvePoint(1, 1), CurvePoint(2, 1))),
                curve=F5,
            )

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
        curves = [F5, validate_curve(7, 3, 4), validate_curve(13, 2, 3)]
        for _ in range(60):
            curve = curves[rng.integers(len(curves))]
            points = enumerate_points(curve)
            r = int(rng.integers(1, 5))
            poly = BinaryPoly((1 << r) | int(rng.integers(0, 1 << r)))
            init = tuple(int(b) for b in rng.integers(0, 2, size=r))
            source = LfsrSource(poly, init)
            weights = WeightVector(tuple(points[i] for i in rng.integers(0, len(points), size=r)))
            config = GeneratorConfig(source=source, weights=weights, curve=curve)
            count = int(rng.integers(1, 25))
            stream = ec_subset_sum_stream(config, count)
            for n in range(1, count + 1):
                assert stream[n - 1] == naive_point_sum(source, weights, curve, n)


class TestOutputNormalized:
    def test_worked_trace(self):
        assert output_normalized(f5_config(), 3) == [0.0, 0.4, 0.6]

    def test_all_zero_source(self):
        source = LfsrSource(BinaryPoly(0b111), (0, 0))
        config = GeneratorConfig(
            source=source, weights=WeightVector((CurvePoint(0, 1), CurvePoint(2, 1))), curve=F5
        )
        assert output_normalized(config, 4) == [0.0] * 4

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
        weights = WeightVector((CurvePoint(0, 1), CurvePoint(2, 1), CurvePoint(3, 4)))
        config = GeneratorConfig(source=source, weights=weights, curve=F5)
        values = output_normalized(config, 14)
        assert values[7:] == values[:-7]

import cmath
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from ecss.curve import CurveParams, CurvePoint, INFINITY, add, enumerate_points, negate, point_table, x_coord
from ecss.discrepancy import PointSet
from ecss.errors import ScaleGuardError, ValidationError, is_prime
from ecss.expsum import (
    MAX_AVG_WINDOW_BITS,
    MAX_SUM_TERMS,
    _unit_sum,
    additive_character,
    avg_square_sum_over_weights,
    curve_char_sums_all,
    curve_x_char_sum,
    dirichlet_l1,
    koksma_szusz_rhs,
    max_char_ratio_all_curves,
    orthogonality_sum,
)
from ecss.gf2 import BinaryPoly, LfsrSource
from oracles import PeriodicSource, char_sums_out_of_place, format_curve, point_table_out_of_place

F5 = CurveParams(5, 1, 1)


class TestAdditiveCharacter:
    def test_examples(self):
        assert additive_character(4, 0) == 1
        assert abs(additive_character(4, 1) - 1j) < 1e-15
        assert abs(additive_character(2, 1) + 1) < 1e-15

    def test_unit_modulus(self):
        for m, z in [(3, 2), (7, 5), (16, 9)]:
            assert abs(abs(additive_character(m, z)) - 1) < 1e-15

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValidationError):
            additive_character(0, 1)


class TestOrthogonality:
    def test_examples(self):
        assert abs(orthogonality_sum(4, 2)) < 1e-12
        assert abs(orthogonality_sum(4, 8) - 4) < 1e-12
        assert abs(orthogonality_sum(1, 17) - 1) < 1e-12

    def test_identity_everywhere(self):
        for m in range(1, 65):
            for lam in range(0, 2 * m + 1):
                expected = m if lam % m == 0 else 0
                assert abs(orthogonality_sum(m, lam) - expected) < 1e-12

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValidationError, match="modulus must be >= 1"):
            orthogonality_sum(0, 1)

    def test_non_integer_modulus_rejected(self):
        # orthogonality_sum(2.5, 1) once returned a value.
        with pytest.raises(ValidationError, match="modulus must be an integer"):
            orthogonality_sum(2.5, 1)


class TestDirichletL1:
    def test_examples(self):
        assert abs(dirichlet_l1(2, 1) - 2.0) < 1e-12
        for m in (4, 16, 37):
            assert abs(dirichlet_l1(m, m) - m) < 1e-9
        assert dirichlet_l1(16, 8) <= 4 * 16 * math.log(17)

    def test_matches_direct_double_sum(self):
        # oracle: literal double summation of unit characters
        def direct(m, M):
            total = 0.0
            for eta in range(m):
                inner = sum(cmath.exp(2j * math.pi * eta * lam / m) for lam in range(1, M + 1))
                total += abs(inner)
            return total

        for m in (1, 2, 3, 8, 15, 16, 33, 64):
            for M in {1, m // 2 or 1, m}:
                assert abs(dirichlet_l1(m, M) - direct(m, M)) < 1e-8

    def test_bound_property(self):
        for m in (16, 61, 128, 510, 1024, 4096):
            for M in {1, m // 2, m}:
                assert dirichlet_l1(m, M) <= 4 * m * math.log(m + 1)

    def test_range_validated(self):
        with pytest.raises(ValidationError):
            dirichlet_l1(8, 0)
        with pytest.raises(ValidationError):
            dirichlet_l1(8, 9)
        with pytest.raises(ValidationError, match="modulus must be >= 1"):
            dirichlet_l1(0, 1)


class TestSumCap:
    SUMS = {"orthogonality_sum": lambda m: orthogonality_sum(m, 0), "dirichlet_l1": lambda m: dirichlet_l1(m, 1)}

    @pytest.mark.parametrize("name", SUMS)
    def test_huge_modulus_is_refused_before_any_array(self, name):
        tracemalloc.start()
        try:
            with pytest.raises(ScaleGuardError, match=f"modulus {10**12} exceeds the cap of {MAX_SUM_TERMS}"):
                self.SUMS[name](10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_edge(self):
        assert orthogonality_sum(MAX_SUM_TERMS, 0) == MAX_SUM_TERMS
        with pytest.raises(ScaleGuardError):
            orthogonality_sum(MAX_SUM_TERMS + 1, 0)


class TestCurveCharSum:
    def test_f5_direct_evaluation(self):
        value = curve_x_char_sum(F5, 1, INFINITY)
        # direct 8-term oracle: all points except -c = identity
        expected = sum(
            cmath.exp(2j * math.pi * x_coord(point) / 5)
            for point in enumerate_points(F5)
            if point != INFINITY
        )
        assert abs(value - expected) < 1e-12
        assert abs(value) <= 5 * math.sqrt(5)
        # with the identity's x(O) = 0 term restored this is the full 9-term sum
        assert abs((value + 1) - sum(
            cmath.exp(2j * math.pi * x_coord(point) / 5) for point in enumerate_points(F5)
        )) < 1e-12

    def test_conjugate_symmetry(self):
        for a in range(1, 5):
            left = curve_x_char_sum(F5, a, CurvePoint(0, 1))
            right = curve_x_char_sum(F5, -a, CurvePoint(0, 1))
            assert abs(left - right.conjugate()) < 1e-12

    def test_zero_a_rejected(self):
        with pytest.raises(ValidationError):
            curve_x_char_sum(F5, 0, INFINITY)
        with pytest.raises(ValidationError):
            curve_x_char_sum(F5, 10, INFINITY)

    def test_off_curve_shift_rejected(self):
        with pytest.raises(ValidationError):
            curve_x_char_sum(F5, 1, CurvePoint(1, 1))

    def test_shifted_sum_excludes_pole(self):
        c = CurvePoint(0, 1)
        points = enumerate_points(F5)
        value = curve_x_char_sum(F5, 2, c, points)
        expected = sum(
            cmath.exp(2j * math.pi * (2 * x_coord(add(c, point, F5)) % 5) / 5)
            for point in points
            if point != negate(c, F5)
        )
        assert abs(value - expected) < 1e-12

    def test_fft_sweep_matches_op(self):
        rng = np.random.default_rng(5)
        for curve in (F5, CurveParams(11, 1, 6), CurveParams(31, 4, 2)):
            points = enumerate_points(curve)
            for c in (INFINITY, points[1], points[-1]):
                sums = curve_char_sums_all(curve, point_table(curve))
                for a in rng.integers(1, curve.p, size=4):
                    direct = curve_x_char_sum(curve, int(a), c, points)
                    assert abs(sums[int(a)] - direct) < 1e-9

    @pytest.mark.parametrize("params,shift", [
        ((13, 2, 0), None),  # identity
        ((13, 2, 0), (1, 4)),  # generic point
        ((13, 2, 0), (0, 0)),  # 2-torsion: c = -c
        ((7, 0, 1), (6, 0)),  # 2-torsion
        ((7, 0, 1), (0, 1)),  # a point of order 3
        ((101, 1, 1), (0, 1)),
    ])
    def test_fft_sweep_equals_scalar_sum_for_every_a(self, params, shift):
        curve = CurveParams(*params)
        c = INFINITY if shift is None else CurvePoint(*shift)
        points = enumerate_points(curve)
        sums = curve_char_sums_all(curve, point_table(curve))
        assert np.array_equal(sums, curve_char_sums_all(curve))
        # S(0) counts the summed points: every point but -c
        assert abs(sums[0] - (len(points) - 1)) < 1e-9
        for a in range(1, curve.p):
            assert abs(sums[a] - curve_x_char_sum(curve, a, c, points)) < 1e-9

    # The largest prime below the enumeration cap, a curve with the affine 2-torsion point (0, 0) and
    # the curve of the benchmark's expsum-check job, among others.
    @pytest.mark.parametrize("curve", [CurveParams(*params) for params in (
        (1009, 1, 1), (100003, 1, 1), (1048573, 1, 1), (13, 2, 0), (100003, 13445, 62554))], ids=format_curve)
    def test_fft_sweep_equals_the_out_of_place_sweep(self, curve):
        got = curve_char_sums_all(curve, points=point_table(curve))
        want = char_sums_out_of_place(curve, point_table_out_of_place(curve))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @staticmethod
    def nonsingular_curves(p):
        return [CurveParams(p, a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b**2) % p]

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_fft_sweep_is_the_oracle_sum_at_every_shift(self, p):
        # P -> c + P permutes the curve, so the scalar add loop gives the sweep's value for every c.
        for curve in self.nonsingular_curves(p):
            points = enumerate_points(curve)
            sums = curve_char_sums_all(curve)
            for c in points:
                for a in range(1, p):
                    assert abs(sums[a] - curve_x_char_sum(curve, a, c, points)) < 1e-9

    @pytest.mark.parametrize("p", [17, 19, 23, 29, 31])
    def test_fft_sweep_is_the_oracle_sum_at_every_shift_sampled(self, p):
        rng = np.random.default_rng(p)
        curves = self.nonsingular_curves(p)
        for k in rng.choice(len(curves), size=3, replace=False):
            curve = curves[k]
            points = enumerate_points(curve)
            sums = curve_char_sums_all(curve)
            a_values = [int(a) for a in rng.choice(np.arange(1, p), size=2, replace=False)]
            for c in points:
                for a in a_values:
                    assert abs(sums[a] - curve_x_char_sum(curve, a, c, points)) < 1e-9

    def test_random_curve_sample_ratio(self):
        rng = np.random.default_rng(6)
        primes = [p for p in range(100, 1000) if is_prime(p)]
        for _ in range(6):
            p = int(rng.choice(primes))
            a, b = int(rng.integers(p)), int(rng.integers(p))
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            curve = CurveParams(p, a, b)
            points = enumerate_points(curve)
            worst = max(
                abs(curve_x_char_sum(curve, int(av), INFINITY, points))
                for av in rng.integers(1, p, size=20)
            )
            assert worst / math.sqrt(p) <= 5.0

    def test_whole_prime_sweep_small(self):
        for p in (5, 7, 11, 13):
            assert max_char_ratio_all_curves(p) <= 5.0

    def test_whole_prime_sweep_rejections(self):
        for p in (9, 3):
            with pytest.raises(ValidationError, match=f"p = {p} must be a prime above 3"):
                max_char_ratio_all_curves(p)
        with pytest.raises(ScaleGuardError, match="capped at p <= 2000"):
            max_char_ratio_all_curves(2003)


class TestKoksmaSzusz:
    def test_single_point(self):
        ps = PointSet([[0.5]])
        assert abs(koksma_szusz_rhs(ps, 2) - 2.5) < 1e-12

    def test_points_at_origin(self):
        ps = PointSet([[0.0]] * 4)
        assert abs(koksma_szusz_rhs(ps, 2) - 2.5) < 1e-12

    def test_equidistant_collapses_to_one_over_n(self):
        for n in (8, 32, 128):
            ps = PointSet([[k / n] for k in range(n)])
            value = koksma_szusz_rhs(ps, n)
            assert abs(value - 1.0 / n) < 1e-8

    def test_matches_naive_enumeration_2d(self):
        # oracle: literal loop over frequency vectors
        rng = np.random.default_rng(7)
        rows = rng.random((6, 2))
        ps = PointSet(rows)
        L = 4
        total = 0.0
        for a0 in range(-(L - 1), L):
            for a1 in range(-(L - 1), L):
                if a0 == 0 and a1 == 0:
                    continue
                inner = np.exp(2j * np.pi * (rows[:, 0] * a0 + rows[:, 1] * a1)).sum()
                total += abs(inner) / (max(abs(a0), 1) * max(abs(a1), 1))
        expected = 1.0 / L + total / 6
        assert abs(koksma_szusz_rhs(ps, L) - expected) < 1e-10

    def test_upper_bounds_discrepancy(self):
        from ecss.discrepancy import exact_extreme_1d

        rng = np.random.default_rng(8)
        for n in (5, 20, 60):
            pts = rng.random(n)
            value = koksma_szusz_rhs(PointSet(pts[:, None]), n)
            assert 10.0 * value >= exact_extreme_1d(pts).value

    def test_array_reads_as_its_point_set(self):
        # koksma_szusz_rhs once raised AttributeError on an array.
        rows = np.random.default_rng(9).random((5, 2))
        assert koksma_szusz_rhs(rows, 3) == koksma_szusz_rhs(PointSet(rows), 3)
        assert koksma_szusz_rhs(rows[:, 0], 3) == koksma_szusz_rhs(PointSet(rows[:, :1]), 3)

    def test_guard_and_validation(self):
        ps = PointSet([[0.5]] * 10)
        with pytest.raises(ScaleGuardError):
            koksma_szusz_rhs(ps, 10**7)
        with pytest.raises(ValidationError):
            koksma_szusz_rhs(ps, 1)


def exhaustive_avg_square(params, r, a, count, source):
    """Average of |sum_{n<=N} e_p(a x(V(n)))|^2 over all (#E)^r weight vectors, by an addition table."""
    points = enumerate_points(params)  # index 0 is the identity
    index = {point: i for i, point in enumerate(points)}
    table = np.array([[index[add(u, v, params)] for v in points] for u in points])
    xs = np.array([x_coord(point) for point in points])
    combos = np.array(list(product(range(len(points)), repeat=r)))  # (#E^r, r)
    sums = np.zeros((1 << r, len(combos)), dtype=np.int64)  # sums[mask] = index of sum_{j in mask} P_j
    for mask in range(1, 1 << r):
        top = mask.bit_length() - 1
        sums[mask] = table[sums[mask ^ (1 << top)], combos[:, top]]
    bits = source.bits(count + r - 1)
    windows = [sum(bits[n + t] << t for t in range(r)) for n in range(count)]
    phases = np.exp(2j * np.pi * ((a * xs[sums[windows]]) % params.p) / params.p)  # (N, #E^r)
    return float(np.mean(np.abs(phases.sum(axis=0)) ** 2))


def mean_character(params, a):
    """(1/#E) sum_{P in E} e_p(a x(P)), with x(O) = 0, summed point by point."""
    points = enumerate_points(params)
    return sum(cmath.exp(2j * math.pi * a * x_coord(point) / params.p) for point in points) / len(points)


# A primitive trinomial X^31 + X^3 + 1: tau = 2^31 - 1, far beyond any N used here.
POLY_31 = BinaryPoly((1 << 31) | (1 << 3) | 1)


class TestAvgSquareSum:
    def source(self):
        return LfsrSource(BinaryPoly(0b111), (1, 0))

    def test_single_term(self):
        assert abs(avg_square_sum_over_weights(F5, 2, 1, 1, self.source()) - 1.0) < 1e-12

    def test_zero_frequency_calibration(self):
        assert abs(avg_square_sum_over_weights(F5, 2, 0, 3, self.source()) - 9.0) < 1e-9

    def test_matches_independent_recomputation(self):
        # oracle: explicit double loop over all 81 weight vectors
        points = enumerate_points(F5)
        bits = self.source().bits(4)
        total = 0.0
        for combo in product(points, repeat=2):
            inner = 0j
            for n in (1, 2, 3):
                acc = INFINITY
                for j in range(2):
                    if bits[n - 1 + j]:
                        acc = add(acc, combo[j], F5)
                inner += cmath.exp(2j * math.pi * x_coord(acc) / 5)
            total += abs(inner) ** 2
        expected = total / 81
        value = avg_square_sum_over_weights(F5, 2, 1, 3, self.source())
        assert abs(value - expected) < 1e-9
        assert value <= 3 + 9 / math.sqrt(5) + 1e-9  # diagonal plus off-diagonal shape

    def test_matches_enumeration_at_r4(self):
        source = LfsrSource(BinaryPoly(0x13), (1, 0, 0, 1))
        points = enumerate_points(F5)
        bits = source.bits(6)
        total = 0.0
        for combo in product(points, repeat=4):
            inner = 0j
            for n in range(3):
                acc = INFINITY
                for j in range(4):
                    if bits[n + j]:
                        acc = add(acc, combo[j], F5)
                inner += cmath.exp(2j * math.pi * 2 * x_coord(acc) / 5)
            total += abs(inner) ** 2
        assert abs(avg_square_sum_over_weights(F5, 4, 2, 3, source) - total / len(points) ** 4) < 1e-9

    @pytest.mark.parametrize(
        "params, r, count, source",
        [
            ((11, 1, 1), 4, 15, LfsrSource(BinaryPoly(0x13), (1, 0, 0, 0))),  # the benchmark input
            ((13, 2, 0), 3, 7, LfsrSource(BinaryPoly(0b1011), (0, 1, 1))),  # 2-torsion point (0, 0)
            ((7, 0, 1), 4, 12, LfsrSource(BinaryPoly(0x19), (1, 1, 0, 1))),  # 2-torsion point (6, 0)
            ((7, 0, 1), 3, 14, PeriodicSource((0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1))),  # zero, repeated windows
        ],
    )
    def test_closed_form_matches_exhaustive_oracle_for_every_a(self, params, r, count, source):
        params = CurveParams(*params)
        for a in range(params.p):
            want = exhaustive_avg_square(params, r, a, count, source)
            got = avg_square_sum_over_weights(params, r, a, count, source)
            assert abs(got - want) <= 1e-12 * want, (a, got, want)
        assert avg_square_sum_over_weights(params, r, 0, count, source) == count * count

    def test_distinct_windows_give_n_plus_off_diagonal_mean_square(self):
        # N <= tau: every window is distinct and nonzero, so avg = N + N(N-1)|S|^2.
        # (#E)^r N is about 10^35 here; an enumeration could not run.
        params = CurveParams(101, 1, 1)
        source = LfsrSource(POLY_31, (1,) + (0,) * 30)
        count = 10**4
        for a in (1, 2, 50, 100):
            want = count + count * (count - 1) * abs(mean_character(params, a)) ** 2
            got = avg_square_sum_over_weights(params, 31, a, count, source)
            assert abs(got - want) <= 1e-12 * want, (a, got, want)

    @pytest.mark.parametrize("params, poly", [((101, 1, 1), 0x25), ((1009, 3, 7), 0x409)])
    def test_average_within_bombieri_constant(self, params, poly):
        # |S(a)| <= 5 sqrt(p) (criterion 6) bounds the mean character by (1 + 5 sqrt(p)) / #E.
        params = CurveParams(*params)
        poly = BinaryPoly(poly)
        source = LfsrSource(poly, (1,) + (0,) * (poly.degree - 1))
        count = 2**poly.degree - 1  # N = tau
        order = len(enumerate_points(params))
        bound = count + count * (count - 1) * (1 + 5 * math.sqrt(params.p)) ** 2 / order**2
        for a in range(1, params.p):
            assert avg_square_sum_over_weights(params, poly.degree, a, count, source) <= bound

    def test_register_order_must_match_r(self):
        with pytest.raises(ValidationError):
            avg_square_sum_over_weights(F5, 3, 1, 3, self.source())

    @pytest.mark.parametrize("r, count", [(0, 3), (2, 0)])
    def test_empty_weight_vector_or_sum_rejected(self, r, count):
        with pytest.raises(ValidationError, match="r must be >= 1" if r < 1 else "N must be >= 1"):
            avg_square_sum_over_weights(F5, r, 1, count, self.source())

    def test_guard(self):
        source = LfsrSource(POLY_31, (1,) * 31)
        with pytest.raises(ScaleGuardError, match="register bits"):
            avg_square_sum_over_weights(F5, 31, 1, MAX_AVG_WINDOW_BITS - 29, source)


class TestDomainTypes:
    def test_complex_sum_invariant(self):
        assert _unit_sum(1 + 1j, 2) == 1 + 1j
        with pytest.raises(ValidationError, match="sum modulus exceeds the number of unit terms"):
            _unit_sum(3 + 0j, 2)

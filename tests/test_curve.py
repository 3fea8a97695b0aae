import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecss import curve as curve_module
from ecss.curve import (
    INFINITY,
    CurveParams,
    CurvePoint,
    add,
    all_curve_orders,
    enumerate_points,
    format_point,
    is_on_curve,
    is_prime,
    negate,
    parse_curve,
    parse_point,
    point_table,
    validate_weights,
    x_coord,
)
from ecss.errors import ScaleGuardError, ValidationError
from ecss.expsum import max_char_ratio_all_curves
from oracles import format_curve, point_table_out_of_place, scalar_mul

F5 = CurveParams(5, 1, 1)

SMALL_CURVES = [F5, CurveParams(7, 3, 4), CurveParams(11, 1, 6), CurveParams(13, 2, 3)]


@st.composite
def curve_with_points(draw):
    """A nonsingular curve over a prime below 2000 and three of its points, often the identity."""
    p = draw(st.sampled_from([q for q in range(5, 2000) if is_prime(q)]))
    a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    assume((4 * a**3 + 27 * b**2) % p)
    curve = CurveParams(p, a, b)
    table = point_table(curve)  # row 0 is the point at infinity
    rows = draw(st.lists(st.integers(0, len(table) - 1) | st.just(0), min_size=3, max_size=3))
    return curve, [CurvePoint(*map(int, table[k])) if k else INFINITY for k in rows]


class TestValidateCurve:
    def test_valid(self):
        c = CurveParams(5, 1, 1)
        assert (c.p, c.a, c.b) == (5, 1, 1)

    def test_singular_rejected(self):
        with pytest.raises(ValidationError):
            CurveParams(5, 0, 0)

    def test_nonprime_rejected(self):
        with pytest.raises(ValidationError):
            CurveParams(6, 1, 1)

    def test_small_prime_rejected(self):
        with pytest.raises(ValidationError):
            CurveParams(3, 1, 1)

    def test_reduction(self):
        c = CurveParams(5, 6, -4)
        assert (c.a, c.b) == (1, 1)
        assert CurveParams(5, 7, 1) == CurveParams(5, 2, 1)
        assert CurveParams(p=1009, a=-1, b=2018) == CurveParams(1009, 1008, 0)

    # CurveParams(1009, 1.0, 1) was once accepted, and point_table then failed a numpy cast.
    @pytest.mark.parametrize("params", [(101.0, 1, 1), (101, 1.5, 1), (101, 1, 1e300), (101, True, 1), (101, 1, "1"),
                                        (1009, 1.0, 1), (1009, 1, np.float64(1.0))])
    def test_non_integer_rejected(self, params):
        with pytest.raises(ValidationError, match="must be an integer"):
            CurveParams(*params)

    def test_numpy_integers_become_python_ints(self):
        c = CurveParams(np.int64(2_147_483_629), np.int64(2_000_000_000), np.int64(7))
        assert all(type(v) is int for v in (c.p, c.a, c.b))
        assert CurveParams(np.int64(1009), np.int64(500), 1) == CurveParams(1009, 500, 1)

    @pytest.mark.parametrize("params, message", [
        ((4, 1, 1), "p = 4 is not prime"),
        ((3, 1, 1), "p must exceed 3"),
        ((2_147_483_659, 1, 1), "p must be below 2^31, got 2147483659"),
        ((1009, 0, 0), "singular curve: 4a^3 + 27b^2 = 0 (mod p)"),
        ((1009, 1009, 2018), "singular curve"),  # reduced to (0, 0) first
        (("1009", 1, 1), "p must be an integer, got '1009'"),
        ((1009.0, 1.5, "x"), "p must be an integer"),  # p is checked before a and b
        ((6, 1.5, 1), "a must be an integer"),  # the integer checks run before primality
    ])
    def test_messages(self, params, message):
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            CurveParams(*params)

    def test_field_cap(self):
        with pytest.raises(ValidationError):
            CurveParams(2_147_483_659, 1, 1)  # prime just above 2^31

    def test_is_prime_matches_naive(self):
        def naive(n):
            return n >= 2 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))

        assert all(is_prime(n) == naive(n) for n in range(2000))

    def test_is_prime_rejects_strong_pseudoprimes_to_few_bases(self):
        # 4,759,123,141 = 48,781 * 97,561 is a strong pseudoprime to 2, 7 and 61; 3,215,031,751 to 2, 3, 5
        # and 7; 3,825,123,056,546,413,051 to every prime base up to 23.
        for n in (4_759_123_141, 3_215_031_751, 3_825_123_056_546_413_051):
            assert not is_prime(n)
        assert is_prime(2**61 - 1) and is_prime(2**89 - 1)


class TestGroupLaw:
    def test_identity(self):
        assert add(CurvePoint(0, 1), INFINITY, F5) == CurvePoint(0, 1)
        assert add(INFINITY, CurvePoint(0, 1), F5) == CurvePoint(0, 1)

    def test_inverse_points(self):
        assert add(CurvePoint(0, 1), CurvePoint(0, 4), F5) == INFINITY

    def test_chord(self):
        assert add(CurvePoint(0, 1), CurvePoint(2, 1), F5) == CurvePoint(3, 4)

    def test_doubling_matches_add(self):
        assert scalar_mul(2, CurvePoint(0, 1), F5) == CurvePoint(4, 2)
        assert scalar_mul(2, CurvePoint(0, 1), F5) == add(CurvePoint(0, 1), CurvePoint(0, 1), F5)

    def test_scalar_zero(self):
        assert scalar_mul(0, CurvePoint(0, 1), F5) == INFINITY

    def test_negative_scalar_rejected(self):
        with pytest.raises(ValidationError):
            scalar_mul(-1, CurvePoint(0, 1), F5)

    @pytest.mark.parametrize("curve", SMALL_CURVES, ids=format_curve)
    def test_results_stay_on_curve(self, curve):
        points = enumerate_points(curve)
        for p0 in points:
            for p1 in points:
                assert is_on_curve(add(p0, p1, curve), curve)

    @pytest.mark.parametrize("curve", SMALL_CURVES, ids=format_curve)
    def test_commutative_associative(self, curve):
        points = enumerate_points(curve)
        for p0 in points:
            for p1 in points:
                assert add(p0, p1, curve) == add(p1, p0, curve)
        for p0 in points:
            for p1 in points:
                for p2 in points:
                    left = add(add(p0, p1, curve), p2, curve)
                    right = add(p0, add(p1, p2, curve), curve)
                    assert left == right

    @settings(max_examples=200, deadline=None)
    @given(curve_with_points())
    def test_group_law_property(self, case):
        curve, (p0, p1, p2) = case
        assert add(p0, INFINITY, curve) == add(INFINITY, p0, curve) == p0
        assert add(p0, negate(p0, curve), curve) == INFINITY
        assert add(p0, p1, curve) == add(p1, p0, curve)
        assert add(add(p0, p1, curve), p2, curve) == add(p0, add(p1, p2, curve), curve)

    @pytest.mark.parametrize("curve", SMALL_CURVES, ids=format_curve)
    def test_inverse_and_order(self, curve):
        points = enumerate_points(curve)
        order = len(points)
        for point in points:
            assert add(point, negate(point, curve), curve) == INFINITY
            assert scalar_mul(order, point, curve) == INFINITY

    def test_scalar_mul_matches_repeated_addition(self):
        points = enumerate_points(F5)
        for point in points:
            acc = INFINITY
            for k in range(12):
                assert scalar_mul(k, point, F5) == acc
                acc = add(acc, point, F5)


class TestEnumeratePoints:
    def test_f5_count(self):
        points = enumerate_points(F5)
        assert len(points) == 9
        assert points[0] is INFINITY

    def test_x_zero_points_present(self):
        points = enumerate_points(CurveParams(5, 0, 1))
        assert CurvePoint(0, 1) in points and CurvePoint(0, 4) in points

    def test_all_points_on_curve_no_dups(self):
        for curve in SMALL_CURVES:
            points = enumerate_points(curve)
            assert len(set(points)) == len(points)
            assert all(is_on_curve(p, curve) for p in points)

    def test_hasse_random_curves(self):
        rng = np.random.default_rng(2)
        primes = [p for p in range(5, 1000) if is_prime(p)]
        done = 0
        while done < 25:
            p = int(rng.choice(primes))
            a, b = int(rng.integers(p)), int(rng.integers(p))
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            order = len(enumerate_points(CurveParams(p, a, b)))
            assert (order - p - 1) ** 2 <= 4 * p
            done += 1

    @pytest.mark.parametrize("params", [(5, 1, 1), (7, 0, 1), (13, 2, 0), (11, 1, 6), (17, 0, 3),
                                        (31, 4, 2), (101, 1, 1)])
    def test_matches_double_loop(self, params):
        curve = CurveParams(*params)
        p, a, b = params
        expected = [INFINITY] + [CurvePoint(x, y) for x in range(p) for y in range(p)
                                 if (y * y - x**3 - a * x - b) % p == 0]
        assert enumerate_points(curve) == expected

    def test_scale_guard(self):
        for build in (point_table, enumerate_points):
            with pytest.raises(ScaleGuardError):
                build(CurveParams(1_048_583, 1, 1))  # the least prime above 2^20


class TestPointTable:
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_rows_match_double_loop_and_enumeration(self, p):
        grid = np.arange(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                curve = CurveParams(p, a, b)
                table = point_table(curve)
                on_curve = (grid[None, :] ** 2 - grid[:, None] ** 3 - a * grid[:, None] - b) % p == 0
                assert table.dtype == np.int64 and table.shape[1] == 2
                assert table[0].tolist() == [0, 0]
                assert np.array_equal(table[1:], np.argwhere(on_curve))  # [x, y] grid: (x, y) order
                points = enumerate_points(curve)
                assert points[0] is INFINITY
                assert [(q.x, q.y) for q in points[1:]] == [tuple(row) for row in table[1:].tolist()]

    def test_identity_row_stays_first_when_origin_is_affine(self):
        curve = CurveParams(13, 2, 0)  # b = 0, so (0, 0) is an affine 2-torsion point
        table = point_table(curve)
        assert table[0].tolist() == [0, 0] and table[1].tolist() == [0, 0]
        assert len(table) == len(enumerate_points(curve))
        assert enumerate_points(curve)[:2] == [INFINITY, CurvePoint(0, 0)]

    def test_hasse_violation_raises(self, monkeypatch):
        real = curve_module._square_root_table

        def doubled(p):
            nsol, ys, starts = real(p)
            return 2 * nsol, ys, starts

        monkeypatch.setattr(curve_module, "_square_root_table", doubled)
        with pytest.raises(ValidationError, match="Hasse"):
            point_table(F5)

    # p = 1048573 is the largest prime below the enumeration cap; (13, 2, 0) has the affine 2-torsion
    # point (0, 0); (100003, 13445, 62554) is the curve of the benchmark's expsum-check job.
    @pytest.mark.parametrize("curve", [CurveParams(*params) for params in (
        (1009, 1, 1), (100003, 1, 1), (1048573, 1, 1), (13, 2, 0), (100003, 13445, 62554))], ids=format_curve)
    def test_equals_the_out_of_place_build(self, curve):
        got, want = point_table(curve), point_table_out_of_place(curve)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def argsort_square_root_table(p):
    """The quadratic-residue table by a stable sort of every y by y^2, the reference for the sort-free build."""
    ys = np.arange(p, dtype=np.int64)
    squares = (ys * ys) % p
    nsol = np.bincount(squares, minlength=p)
    order = np.argsort(squares, kind="stable")
    starts = np.concatenate([[0], np.cumsum(nsol)])
    return nsol, ys[order], starts


class TestSquareRootTable:
    @pytest.mark.parametrize("p", [p for p in range(5, 300) if is_prime(p)] + [1009, 100003, 1048573])
    def test_equals_the_argsort_build(self, p):
        for name, got, want in zip(("nsol", "ys", "starts"), curve_module._square_root_table(p),
                                   argsort_square_root_table(p)):
            assert got.dtype == want.dtype and np.array_equal(got, want), name


class TestAllCurveOrders:
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
    def test_matches_enumeration_exhaustively(self, p):
        orders = all_curve_orders(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    assert orders[a, b] == -1
                else:
                    assert orders[a, b] == len(enumerate_points(CurveParams(p, a, b)))

    def test_guard_past_p_2000(self):
        # Each a takes ~p^2 work and (p, p) int64 tables, so the cap is checked before the (p, p) result.
        with pytest.raises(ScaleGuardError):
            all_curve_orders(2003)

    @pytest.mark.parametrize("p", [2003, 10**9 + 7])
    def test_both_sweeps_share_one_cap_checked_before_any_table(self, p):
        # _root_counts_by_a checks p when called, so all_curve_orders never allocates its (p, p) result.
        for sweep in (all_curve_orders, max_char_ratio_all_curves):
            tracemalloc.start()
            try:
                with pytest.raises(ScaleGuardError) as info:
                    sweep(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(info.value) == f"whole-prime (a, b) sweep capped at p <= 2000, got {p}"
            assert peak < 1 << 20

    @pytest.mark.parametrize("p", [9, 3, 2001])
    def test_rejects_a_p_that_is_no_prime_above_3(self, p):
        with pytest.raises(ValidationError, match=f"p = {p} must be a prime above 3"):
            all_curve_orders(p)

    def test_matches_enumeration_sampled_larger(self):
        rng = np.random.default_rng(3)
        for p in (101, 151, 199):
            orders = all_curve_orders(p)
            for _ in range(20):
                a, b = int(rng.integers(p)), int(rng.integers(p))
                if (4 * a**3 + 27 * b**2) % p == 0:
                    assert orders[a, b] == -1
                else:
                    assert orders[a, b] == len(enumerate_points(CurveParams(p, a, b)))


class TestXCoord:
    def test_affine(self):
        assert x_coord(CurvePoint(3, 4)) == 3

    def test_infinity_maps_to_zero(self):
        assert x_coord(INFINITY) == 0

    def test_collides_with_genuine_zero(self):
        assert x_coord(CurvePoint(0, 1)) == 0 == x_coord(INFINITY)


class TestSerialization:
    def test_point_round_trip(self):
        assert parse_point("inf") is INFINITY or parse_point("inf") == INFINITY
        assert parse_point("3,4") == CurvePoint(3, 4)
        assert format_point(INFINITY) == "inf"
        assert format_point(CurvePoint(3, 4)) == "3,4"

    def test_curve_round_trip(self):
        assert parse_curve(format_curve(F5)) == F5

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            parse_point("3")
        with pytest.raises(ValidationError):
            parse_curve("5,1")
        with pytest.raises(ValidationError):
            parse_point("a,b")
        with pytest.raises(ValidationError, match="curve must be decimal 'p,a,b', got '1009,x,1'"):
            parse_curve("1009,x,1")

    def test_half_infinite_point_rejected(self):
        with pytest.raises(ValidationError):
            CurvePoint(3, None)

    def test_float_coordinates_rejected(self):
        # CurvePoint(0.0, 1.0) once passed is_on_curve on (5, 1, 1), and add then raised TypeError from pow.
        with pytest.raises(ValidationError, match="x must be an integer, got 0.0"):
            CurvePoint(0.0, 1.0)

    def test_numpy_coordinates_become_python_ints(self):
        point = CurvePoint(np.int64(2), np.int64(1))
        assert type(point.x) is int and type(point.y) is int
        assert add(point, CurvePoint(0, 1), F5) == add(CurvePoint(2, 1), CurvePoint(0, 1), F5)


class TestValidateWeights:
    def test_length_validated(self):
        with pytest.raises(ValidationError, match="at least one point"):
            validate_weights((), F5)

    def test_points_checked_against_curve(self):
        weights = (CurvePoint(0, 1), CurvePoint(1, 1))
        with pytest.raises(ValidationError):
            validate_weights(weights, F5)
        validate_weights((CurvePoint(0, 1), INFINITY), F5)

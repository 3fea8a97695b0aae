"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time

import numpy as np

from ecss.combinat import (
    alpha,
    bad_pair_upper_bound,
    beta,
    brute_force_bad_count,
    brute_force_bad_wrt_first,
    transfer_matrix,
    walk_count,
)
from ecss.curve import (
    CurvePoint,
    all_curve_orders,
    enumerate_points,
    validate_curve,
    x_coord,
)
from ecss.discrepancy import PointSet, exact_extreme_1d, exact_extreme_multi, mc_box_lower_bound
from ecss.errors import is_prime
from ecss.experiments import ExperimentConfig, bound_crossover, discrepancy_sweep, slope_fit
from ecss.expsum import curve_x_char_sum, dirichlet_l1, max_char_ratio_all_curves, orthogonality_sum
from ecss.generator import GeneratorConfig, output_normalized
from ecss.gf2 import BinaryPoly, LfsrSource

from oracles import scalar_fold
from test_discrepancy import oracle_extreme_1d

BETA_TABLE = {2: 3.73205, 3: 3.93947, 4: 3.98444, 5: 3.99615, 6: 3.99903}
ALPHA_TABLE = {2: 3.87298, 3: 3.97906, 4: 3.99609, 5: 3.99922, 6: 3.99984}

PRIMES_TO_200 = [p for p in range(5, 201) if is_prime(p)]


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_beta_table():
    start = time.perf_counter()
    values = {s: beta(s, 1e-9) for s in range(2, 7)}
    elapsed = time.perf_counter() - start
    for s, expected in BETA_TABLE.items():
        assert abs(values[s] - expected) <= 1e-5, (s, values[s])
    assert elapsed < 60.0
    _report(1, f"beta table s=2..6 within 1e-5 in {elapsed:.2f}s")


def test_criterion_02_alpha_table():
    alpha(2)  # warm up
    start = time.perf_counter()
    values = {s: alpha(s) for s in range(2, 7)}
    elapsed = time.perf_counter() - start
    for s, expected in ALPHA_TABLE.items():
        assert abs(values[s] - expected) <= 1e-5
    assert elapsed < 1e-3
    _report(2, f"alpha table s=2..6 within 1e-5 in {elapsed * 1e6:.0f}us")


def test_criterion_03_walk_count_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for s in (1, 2, 3):
        for h in range(1, s + 1):
            matrix = transfer_matrix(s, h)
            for r in range(s, 13):
                assert walk_count(matrix, r - s) == brute_force_bad_wrt_first(r, s, h)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(3, f"{checked} exact walk-vs-enumeration identities in {elapsed:.1f}s")


def test_criterion_04_bad_pair_bound_and_closed_form():
    for s in (1, 2, 3):
        for r in range(s, 13):
            tally = brute_force_bad_count(r, s)
            assert tally.f <= 2 * s * 4 ** (s - 1) * alpha(s) ** r
            assert tally.f <= bad_pair_upper_bound(r, s)
    for r in range(1, 13):
        assert brute_force_bad_count(r, 1).f == 2 * 3**r - 2**r
    _report(4, "f_s(r) <= 2s 4^(s-1) alpha_s^r for s<=3, r<=12; f_1(r) closed form exact")


def test_criterion_05_hasse_interval():
    start = time.perf_counter()
    curves = 0
    for p in PRIMES_TO_200:
        orders = all_curve_orders(p)
        valid = orders[orders >= 0]
        curves += valid.size
        assert ((valid - p - 1) ** 2 <= 4 * p).all()
    rng = np.random.default_rng(101)
    primes = [p for p in range(201, 1001) if is_prime(p)]
    done = 0
    while done < 50:
        p = int(rng.choice(primes))
        a, b = int(rng.integers(p)), int(rng.integers(p))
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        order = len(enumerate_points(validate_curve(p, a, b)))
        assert (order - p - 1) ** 2 <= 4 * p
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, f"Hasse interval for {curves} curves with p<=200 plus 50 random to p=1000 in {elapsed:.1f}s")


def test_criterion_06_bombieri_ratio():
    start = time.perf_counter()
    for p in PRIMES_TO_200:
        assert max_char_ratio_all_curves(p) <= 5.0, p
    rng = np.random.default_rng(202)
    primes = [p for p in range(201, 1000) if is_prime(p)]
    done = 0
    while done < 20:
        p = int(rng.choice(primes))
        a, b = int(rng.integers(p)), int(rng.integers(p))
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        curve = validate_curve(p, a, b)
        points = enumerate_points(curve)
        for _ in range(6):
            a_char = int(rng.integers(1, p))
            c = points[int(rng.integers(len(points)))]
            value = curve_x_char_sum(curve, a_char, c, points)
            assert abs(value) <= 5.0 * math.sqrt(p)
        done += 1
    elapsed = time.perf_counter() - start
    _report(6, f"char-sum ratio <= 5 sqrt(p): full sweep p<=200, sampled (a,c) on 20 larger curves in {elapsed:.1f}s")


def test_criterion_07_identities():
    for m in range(1, 65):
        for lam in range(0, 2 * m + 1):
            expected = m if lam % m == 0 else 0
            assert abs(orthogonality_sum(m, lam) - expected) < 1e-12
    for m in range(16, 1025):
        for M in {1, m // 2, m}:
            assert dirichlet_l1(m, M) <= 4 * m * math.log(m + 1)
    _report(7, "orthogonality identity to 1e-12 for m<=64; L1 kernel bound for m in 16..1024")


def test_criterion_08_discrepancy_exactness():
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(1, 201))
        pts = rng.random(n)
        assert abs(exact_extreme_1d(pts).value - oracle_extreme_1d(pts)) < 1e-12
    for n in range(2, 65):
        assert abs(exact_extreme_1d([k / n for k in range(n)]).value - 1.0 / n) < 1e-12
    for s in (2, 3):
        for trial in range(5):
            n = int(rng.integers(2, 15))
            rows = rng.random((n, s))
            exact = exact_extreme_multi(PointSet(s=s, rows=rows), s).value
            lower = mc_box_lower_bound(rows, 2000, seed=trial).value
            assert lower <= exact + 1e-12
    _report(8, "exact 1-D equals O(N^2) oracle on 100 sets; k/N law exact; MC never exceeds exact")


def test_criterion_09_decay_law():
    start = time.perf_counter()
    config = ExperimentConfig(
        curve=validate_curve(1009, 1, 1),
        poly=BinaryPoly(0x409),  # X^10 + X^3 + 1, primitive, tau = 1023
        r=10,
        s=1,
        n_grid=(64, 128, 256, 512, 1023),
        samples=100,
        delta=1.0,
        seed=12345,
    )
    assert config.tau == 1023
    rows = discrepancy_sweep(config)
    slope = slope_fit(rows)
    elapsed = time.perf_counter() - start
    assert -0.65 <= slope <= -0.35, slope
    assert elapsed < 600.0
    _report(9, f"mean-D decay slope {slope:.3f} in [-0.65, -0.35] over 100 weight draws in {elapsed:.1f}s")


def test_criterion_10_crossover():
    tau = 2**16 - 1
    n_star = bound_crossover(p=65537, r=16, tau=tau)
    target = tau**0.79248
    assert n_star is not None
    assert target / 2.0 <= n_star <= target * 2.0
    _report(10, f"bound crossover at N = {n_star}, within factor 2 of tau^0.79248 = {target:.0f}")


def test_criterion_11_generator_correctness():
    src = LfsrSource(BinaryPoly(0b111), (1, 0))
    config = GeneratorConfig(
        source=src,
        weights=(CurvePoint(0, 1), CurvePoint(2, 1)),
        curve=validate_curve(5, 1, 1),
    )
    trace = output_normalized(config, 3)
    assert max(abs(a - b) for a, b in zip(trace, [0.0, 0.4, 0.6])) < 1e-12

    rng = np.random.default_rng(404)
    curves = [validate_curve(5, 1, 1), validate_curve(7, 3, 4), validate_curve(11, 1, 6), validate_curve(13, 2, 3)]
    points_by_curve = [enumerate_points(c) for c in curves]
    for _ in range(1000):
        pick = int(rng.integers(len(curves)))
        curve, points = curves[pick], points_by_curve[pick]
        r = int(rng.integers(1, 4))
        poly = BinaryPoly((1 << r) | int(rng.integers(0, 1 << r)))
        init = tuple(int(b) for b in rng.integers(0, 2, size=r))
        source = LfsrSource(poly, init)
        weights = tuple(points[i] for i in rng.integers(0, len(points), size=r))
        gen = GeneratorConfig(source=source, weights=weights, curve=curve)
        count = int(rng.integers(1, 13))
        stream = output_normalized(gen, count)
        bits = source.bits(count + r - 1)
        for n in range(1, count + 1):
            [acc] = scalar_fold(bits[n - 1 : n - 1 + r], weights, curve)
            assert stream[n - 1] == x_coord(acc) / curve.p
    _report(11, "worked trace matches; streaming equals from-scratch recomputation on 1000 random configs")

"""Additive characters, exponential-sum identities, and curve character sums."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curve import (CurveParams, CurvePoint, INFINITY, _square_root_table, add, enumerate_points, is_on_curve,
                    is_prime, negate, x_coord)
from .errors import ScaleGuardError, ValidationError
from .generator import LANE_BUDGET, GeneratorConfig, PointSet, WeightVector, _lane_sums, _point_arrays

MAX_KOKSMA_WORK = 10**8  # (2L)^s * N
MAX_AVG_WEIGHT_WORK = 10**6  # (#E)^r * N


@dataclass(frozen=True)
class ComplexSum:
    """Accumulated character sum; its modulus can never exceed the term count."""

    value: complex
    terms: int

    def __post_init__(self):
        if abs(self.value) > self.terms + 1e-9:
            raise ValidationError("sum modulus exceeds the number of unit terms")


def _accumulate(values) -> ComplexSum:
    arr = np.asarray(values, dtype=complex)
    return ComplexSum(value=complex(arr.sum()), terms=arr.size)


def additive_character(m: int, z) -> complex:
    """exp(2 pi i z / m); always on the unit circle."""
    if m < 1:
        raise ValidationError("modulus must be >= 1")
    return cmath.exp(2j * math.pi * (z / m))


def orthogonality_sum(m: int, lam: int) -> complex:
    """Direct evaluation of sum_{eta < m} e_m(eta * lam): m when m | lam, else 0."""
    if m < 1:
        raise ValidationError("modulus must be >= 1")
    eta = np.arange(m)
    values = np.exp(2j * np.pi * ((eta * (lam % m)) % m) / m)
    return _accumulate(values).value


def dirichlet_l1(m: int, M: int) -> float:
    """L1 norm sum_{eta < m} |sum_{lambda=1..M} e_m(eta lambda)|.

    Evaluated through the closed Dirichlet-kernel modulus
    |sin(pi M eta / m)| / |sin(pi eta / m)|; the unit tests pin this against
    the direct double sum.  Grows like m log m; tests use 4 m ln(m+1) as the
    explicit ceiling.
    """
    if m < 1:
        raise ValidationError("modulus must be >= 1")
    if not 1 <= M <= m:
        raise ValidationError(f"need 1 <= M <= m, got M={M}, m={m}")
    eta = np.arange(1, m)
    num = np.abs(np.sin(np.pi * M * eta / m))
    den = np.abs(np.sin(np.pi * eta / m))
    return float(M + (num / den).sum())


def curve_x_char_sum(curve: CurveParams, a: int, c: CurvePoint, points=None) -> complex:
    """Character sum e_p(a * x(c + P)) over all curve points P except P = -c.

    Bombieri's bound for nonconstant rational functions on a curve makes the
    modulus O(sqrt(p)); the tests use 5 sqrt(p) as the explicit constant.
    Pass a precomputed point list to amortise enumeration across sweeps.
    """
    p = curve.p
    if a % p == 0:
        raise ValidationError("a must be nonzero mod p (the sum degenerates to a point count)")
    if not is_on_curve(c, curve):
        raise ValidationError("shift point must lie on the curve")
    if points is None:
        points = enumerate_points(curve)
    minus_c = negate(c, curve)
    xs = [x_coord(add(c, point, curve)) for point in points if point != minus_c]
    values = np.exp(2j * np.pi * ((a % p) * np.asarray(xs, dtype=np.int64) % p) / p)
    return _accumulate(values).value


def curve_char_sums_all(curve: CurveParams, c: CurvePoint = INFINITY, points=None) -> np.ndarray:
    """All sums S(a), a = 0..p-1, at once via an x-coordinate histogram and FFT.

    Agrees with curve_x_char_sum entry by entry (cross-checked in tests);
    meant for whole-curve sweeps.
    """
    p = curve.p
    if not is_on_curve(c, curve):
        raise ValidationError("shift point must lie on the curve")
    if points is None:
        points = enumerate_points(curve)
    minus_c = negate(c, curve)
    hist = np.zeros(p, dtype=np.float64)
    for point in points:
        if point != minus_c:
            hist[x_coord(add(c, point, curve))] += 1.0
    # S(a) = sum_v hist[v] exp(+2 pi i a v / p) = p * ifft(hist)[a]
    return p * np.fft.ifft(hist)


def max_char_ratio_all_curves(p: int) -> float:
    """max |S(a)| / sqrt(p) over every nonsingular curve mod p and every a != 0 (c = identity).

    Runs the histogram/FFT sweep batched over all (a, b) parameter pairs;
    spot agreement with curve_x_char_sum is covered by tests.
    """
    if not is_prime(p) or p <= 3:
        raise ValidationError(f"p = {p} must be a prime above 3")
    if p > 2000:
        raise ScaleGuardError("whole-curve character sweep capped at p <= 2000")
    nsol = _square_root_table(p)[0].astype(np.float64)
    x = np.arange(p, dtype=np.int64)
    b_arr = np.arange(p, dtype=np.int64)
    x3 = (x * x * x) % p
    best = 0.0
    for a in range(p):
        rhs = ((x3 + a * x)[:, None] + b_arr[None, :]) % p
        hists = nsol[rhs]  # (x value, b)
        mags = np.abs(np.fft.rfft(hists, axis=0)[1:, :])
        nonsingular = (4 * a**3 + 27 * b_arr**2) % p != 0
        if nonsingular.any():
            best = max(best, float(mags[:, nonsingular].max()))
    return best / math.sqrt(p)


def koksma_szusz_rhs(points: PointSet, L: int) -> float:
    """Frequency-sum side of the Koksma-Szusz inequality for a point set.

    1/L + (1/N) sum over integer vectors a with 0 < |a| < L of
    |sum_n e(a . x_n)| / weight(a).  Enumerates the full frequency box, so
    the cost is O((2L)^s N); guarded accordingly.
    """
    if L < 2:
        raise ValidationError("L must be >= 2")
    rows = points.rows
    n_points, s = rows.shape
    if (2 * L) ** s * n_points > MAX_KOKSMA_WORK:
        raise ScaleGuardError(
            f"(2L)^s * N = {(2 * L) ** s * n_points} exceeds {MAX_KOKSMA_WORK}"
        )
    unit = np.exp(2j * np.pi * rows)  # (N, s)
    total = 0.0

    def scan(axis: int, acc: np.ndarray, weight: int, nonzero: bool) -> None:
        nonlocal total
        col = unit[:, axis]
        cur = acc * col ** (-(L - 1))
        for k in range(-(L - 1), L):
            if axis == s - 1:
                if nonzero or k != 0:
                    total += abs(cur.sum()) / (weight * max(abs(k), 1))
            else:
                scan(axis + 1, cur, weight * max(abs(k), 1), nonzero or k != 0)
            cur = cur * col
        return

    scan(0, np.ones(n_points, dtype=complex), 1, False)
    return 1.0 / L + total / n_points


def avg_square_sum_over_weights(curve: CurveParams, r: int, a: int, count: int, source) -> float:
    """Exact average over all weight vectors of |sum_{n<=N} e_p(a x(V(n)))|^2.

    Exhausts the full (#E)^r weight space; a = 0 is allowed as a calibration
    input (every term is 1, so the result is N^2).
    """
    if r < 1 or count < 1:
        raise ValidationError("need r >= 1 and N >= 1")
    points = enumerate_points(curve)
    order = len(points)
    vectors = order**r
    work = vectors * count
    if work > MAX_AVG_WEIGHT_WORK:
        raise ScaleGuardError(f"(#E)^r * N = {work} exceeds {MAX_AVG_WEIGHT_WORK}")
    GeneratorConfig(source=source, weights=WeightVector((INFINITY,) * r), curve=curve)  # validates the source
    p = curve.p
    bits = source.bits(count + r - 1)
    px, py, pinf = (arr[0] for arr in _point_arrays([points]))
    # Summed in itertools.product(points, repeat=r) order, where vector k picks points k // place % #E.
    place = order ** np.arange(r - 1, -1, -1)
    block = max(1, LANE_BUDGET // count)
    total = 0.0
    for start in range(0, vectors, block):
        picks = np.arange(start, min(start + block, vectors))[:, None] // place % order
        xs = _lane_sums(bits, px[picks], py[picks], pinf[picks], curve)[0]
        sums = np.exp(2j * np.pi * ((a % p) * xs % p) / p).sum(axis=1)
        for value in sums.tolist():
            total += abs(ComplexSum(value, count).value) ** 2
    return total / vectors

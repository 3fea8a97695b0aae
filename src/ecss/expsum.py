"""Additive characters, exponential-sum identities, and curve character sums."""

from __future__ import annotations

import cmath
import math
from collections import Counter

import numpy as np

from .curve import (CurveParams, CurvePoint, _root_counts_by_a, add, enumerate_points, is_on_curve, negate,
                    point_table, x_coord)
from .errors import ScaleGuardError, ValidationError, validate_int

MAX_KOKSMA_WORK = 10**8  # (2L)^s * N
MAX_AVG_WINDOW_BITS = 10**6  # N + r - 1 register bits, read and packed in Python
# Terms of orthogonality_sum and dirichlet_l1, one entry of each float array: any modulus below the
# point table's p < 2^20, and m^2 stays far inside int64.
MAX_SUM_TERMS = 2**20


def _unit_sum(value: complex, terms: int) -> complex:
    """value, a sum of `terms` unit-modulus numbers, once checked that its modulus does not exceed terms."""
    if abs(value) > terms + 1e-9:
        raise ValidationError("sum modulus exceeds the number of unit terms")
    return value


def _summed_modulus(m: int) -> int:
    """m as a Python int, checked as the modulus of an m-term sum before any array of its terms is allocated."""
    m = validate_int(m, "modulus", 1)
    if m > MAX_SUM_TERMS:
        raise ScaleGuardError(f"modulus {m} exceeds the cap of {MAX_SUM_TERMS} summed terms")
    return m


def additive_character(m: int, z) -> complex:
    """exp(2 pi i z / m); always on the unit circle."""
    validate_int(m, "modulus", 1)
    return cmath.exp(2j * math.pi * (z / m))


def orthogonality_sum(m: int, lam: int) -> complex:
    """Direct evaluation of sum_{eta < m} e_m(eta * lam): m when m | lam, else 0."""
    m = _summed_modulus(m)
    validate_int(lam, "lam")
    eta = np.arange(m)
    values = np.exp(2j * np.pi * ((eta * (lam % m)) % m) / m)
    return _unit_sum(complex(values.sum()), values.size)


def dirichlet_l1(m: int, M: int) -> float:
    """L1 norm sum_{eta < m} |sum_{lambda=1..M} e_m(eta lambda)|.

    Evaluated through the closed Dirichlet-kernel modulus
    |sin(pi M eta / m)| / |sin(pi eta / m)|; the unit tests pin this against
    the direct double sum.  Grows like m log m; tests use 4 m ln(m+1) as the
    explicit ceiling.
    """
    m = _summed_modulus(m)
    if not 1 <= validate_int(M, "M") <= m:
        raise ValidationError(f"need 1 <= M <= m, got M={M}, m={m}")
    eta = np.arange(1, m)
    num = np.abs(np.sin(np.pi * M * eta / m))
    den = np.abs(np.sin(np.pi * eta / m))
    return float(M + (num / den).sum())


def curve_x_char_sum(curve: CurveParams, a: int, c: CurvePoint, points=None) -> complex:
    """Character sum e_p(a * x(c + P)) over all curve points P except P = -c.

    Bombieri's bound for nonconstant rational functions on a curve makes the
    modulus O(sqrt(p)); the tests use 5 sqrt(p) as the explicit constant.
    Over the whole curve its value is the same for every c (P -> c + P permutes E).
    Pass a precomputed point list to amortise enumeration across sweeps.
    """
    p = curve.p
    if validate_int(a, "a") % p == 0:
        raise ValidationError("a must be nonzero mod p (the sum degenerates to a point count)")
    if not is_on_curve(c, curve):
        raise ValidationError("shift point must lie on the curve")
    if points is None:
        points = enumerate_points(curve)
    minus_c = negate(c, curve)
    xs = [x_coord(add(c, point, curve)) for point in points if point != minus_c]
    values = np.exp(2j * np.pi * ((a % p) * np.asarray(xs, dtype=np.int64) % p) / p)
    return _unit_sum(complex(values.sum()), values.size)


def curve_char_sums_all(curve: CurveParams, points=None) -> np.ndarray:
    """All sums S(a), a = 0..p-1, at once via an x-coordinate histogram and FFT.

    points is the whole-curve point table (row 0 the identity, as from
    point_table; computed when None).  The sums take no shift c, since c
    cannot change them: P -> c + P permutes E(F_p), so the sum over P != -c
    of e_p(a x(c + P)) is the sum over Q != O of e_p(a x(Q)).  Agrees with
    curve_x_char_sum entry by entry for every c (cross-checked in tests).
    The histogram is complex and transformed in place, and the table is
    dropped before the FFT, so passing it inline (points=point_table(curve))
    frees it early.
    """
    if points is None:
        points = point_table(curve)
    hist = np.bincount(points[1:, 0], minlength=curve.p).astype(np.complex128)  # x(Q) over Q != O
    del points
    # S(a) = sum_v hist[v] exp(+2 pi i a v / p) = p * ifft(hist)[a]
    np.fft.ifft(hist, out=hist)
    hist *= curve.p
    return hist


def max_char_ratio_all_curves(p: int) -> float:
    """max |S(a)| / sqrt(p) over every nonsingular curve mod p and every a != 0 (c = identity).

    Runs the histogram/FFT sweep batched over all (a, b) parameter pairs;
    spot agreement with curve_x_char_sum is covered by tests.
    """
    best = 0.0
    for _, roots, nonsingular in _root_counts_by_a(p):
        mags = np.abs(np.fft.rfft(roots.astype(np.float64), axis=0)[1:, :])  # roots: (x value, b)
        if nonsingular.any():
            best = max(best, float(mags[:, nonsingular].max()))
    return best / math.sqrt(p)


def koksma_szusz_rhs(points, L: int) -> float:
    """Frequency-sum side of the Koksma-Szusz inequality for a PointSet, or PointSet(points).

    1/L + (1/N) sum over integer vectors a with 0 < |a| < L of
    |sum_n e(a . x_n)| / weight(a).  Enumerates the full frequency box, so
    the cost is O((2L)^s N); guarded accordingly.
    """
    from .discrepancy import _as_rows  # here, so expsum-check loads no discrepancy

    validate_int(L, "L", 2)
    rows = _as_rows(points)
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
    """Exact average over all weight vectors of |sum_{n<=N} e_p(a x(V(n)))|^2, in closed form.

    If window n has a set bit j that window m lacks, P_j makes V(n) uniform on E
    and independent of V(m).  So with c_w the number of n <= N with window w,
    z = c_0, N' = N - z and S = (1/#E) sum_{P in E} e_p(a x(P)) (x(O) = 0),
    the average is sum_w c_w^2 + (N'^2 - sum_{w != 0} c_w^2) |S|^2 + 2 z N' Re S.
    a = 0 is allowed as a calibration input (S = 1, so the result is N^2).
    """
    from .gf2 import LfsrSource, packed_windows  # here, so expsum-check loads no gf2

    validate_int(r, "r", 1)
    validate_int(a, "a")
    validate_int(count, "N", 1)
    if count + r - 1 > MAX_AVG_WINDOW_BITS:
        raise ScaleGuardError(f"N + r - 1 = {count + r - 1} register bits exceed {MAX_AVG_WINDOW_BITS}")
    if isinstance(source, LfsrSource) and source.order != r:
        raise ValidationError(f"weight length {r} does not match register order {source.order}")
    order = len(enumerate_points(curve))  # perfbench/traced_job.py learns #E from this call
    mean = _unit_sum(1 + complex(curve_char_sums_all(curve)[a % curve.p]), order) / order
    counts = Counter(packed_windows(source.bits(count + r - 1), r))
    zero = counts[0]
    nonzero = count - zero
    squares = sum(c * c for c in counts.values())
    off_diagonal = nonzero * nonzero - (squares - zero * zero)
    return squares + off_diagonal * abs(mean) ** 2 + 2 * zero * nonzero * mean.real

"""Subset-sum generators: residue-ring and elliptic-curve variants, plus s-tuple windows."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curve import CurveParams, CurvePoint, INFINITY, WeightVector, validate_weights
from .errors import ValidationError
from .gf2 import BitSequenceSource, LfsrSource


@dataclass(frozen=True)
class ResidueWeights:
    """Weight vector z_0..z_{r-1} over the residue ring Z_m."""

    modulus: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValidationError("modulus must be >= 2")
        if len(self.values) < 1:
            raise ValidationError("weight vector needs at least one residue")
        object.__setattr__(self, "values", tuple(v % self.modulus for v in self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class GeneratorConfig:
    """Bit source plus weights; the curve is required for the point-valued variant."""

    source: BitSequenceSource
    weights: WeightVector | ResidueWeights
    curve: CurveParams | None = None

    def __post_init__(self):
        if isinstance(self.weights, WeightVector):
            if self.curve is None:
                raise ValidationError("curve weights need curve parameters")
            validate_weights(self.weights, self.curve)
        if isinstance(self.source, LfsrSource) and self.source.order != len(self.weights):
            raise ValidationError(
                f"weight length {len(self.weights)} does not match register order "
                f"{self.source.order}"
            )

    @property
    def r(self) -> int:
        return len(self.weights)


def subset_sum_residue(config: GeneratorConfig, ns) -> list[int]:
    """Residue outputs sum_{j<r} u(n+j) z_j mod m for each requested index n."""
    if not isinstance(config.weights, ResidueWeights):
        raise ValidationError("residue generator needs ResidueWeights")
    ns = list(ns)
    if not ns:
        return []
    if min(ns) < 1:
        raise ValidationError("indices start at 1")
    r = config.r
    z = config.weights.values
    m = config.weights.modulus
    stream = config.source.bits(max(ns) + r - 1)
    out = []
    for n in ns:
        window = stream[n - 1 : n - 1 + r]
        out.append(sum(u * w for u, w in zip(window, z)) % m)
    return out


LANE_BUDGET = 1 << 14  # lanes per kernel call in the batched callers; bounds the temporaries


def _point_arrays(vectors):
    """x, y and identity mask of a sequence of weight vectors, as (L, r) arrays.

    The identity gets x = y = 0, so x matches the x_coord convention.
    """
    inf = np.array([[point.is_infinity for point in v] for v in vectors], dtype=bool)
    x = np.array([[point.x or 0 for point in v] for v in vectors], dtype=np.int64)
    y = np.array([[point.y or 0 for point in v] for v in vectors], dtype=np.int64)
    return x, y, inf


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p, as floor division by a scalar: several times faster than np.remainder."""
    return a - a // p * p


def _pow_mod(z: np.ndarray, e: int, p: int) -> np.ndarray:
    result = np.ones_like(z)
    while e:
        if e & 1:
            result = _mod(result * z, p)
        e >>= 1
        if e:
            z = _mod(z * z, p)
    return result


def _lane_sums(bits, wx, wy, winf, curve: CurveParams):
    """Subset sums V(n) = sum_j u(n+j) P_j on an (L, N) grid of lanes.

    Lane (l, n) holds the output at index n + 1 of weight vector l, whose
    window is bits[n : n + r]; bits is shared by all L weight vectors, so
    N = len(bits) - r + 1.  wx, wy, winf are the (L, r) weights from
    _point_arrays.  Returns the affine x and y and the identity mask, each
    (L, N); identity lanes read x = y = 0.

    Step j adds weight j wherever bit j of the window is set, with the mixed
    projective-plus-affine addition on int64 (X : Y : Z); the identity is
    Z = 0.  The special cases are masks, not branches: an identity
    accumulator takes the weight; an accumulator equal to the weight takes
    its precomputed double, whose Z is 0 for 2-torsion; the opposite point
    gives v = 0 and hence Z = 0; an identity weight is skipped.  One
    Fermat inversion Z^(p-2) ends the loop.  Since p < 2^31, a product of
    two residues is below 2^62; each is reduced before it is used again.
    """
    p = curve.p
    bits = np.asarray(bits, dtype=bool)
    n_lanes = len(bits) - wx.shape[1] + 1
    # Tangent doubles in projective form: w = 3x^2 + a, X = 2hy, Z = 8y^3.
    w = _mod(3 * _mod(wx * wx, p) + curve.a, p)
    yy = _mod(wy * wy, p)
    xyy = _mod(wx * yy, p)
    h = _mod(w * w - 8 * xyy, p)
    dx = _mod(2 * _mod(h * wy, p), p)
    dy = _mod(w * _mod(4 * xyy - h, p) - 8 * _mod(yy * yy, p), p)
    dz = _mod(8 * _mod(yy * wy, p), p)
    keep = ~np.asarray(winf, dtype=bool)

    # Step 0 adds weight 0 to the identity, which leaves weight 0 itself.
    Z = (bits[None, :n_lanes] & keep[:, :1]).astype(np.int64)
    X = Z * wx[:, :1]
    Y = Z * wy[:, :1]
    for j in range(1, wx.shape[1]):
        x2, y2 = wx[:, j, None], wy[:, j, None]
        sel = bits[None, j : j + n_lanes] & keep[:, j, None]
        first = sel & (Z == 0)
        u = _mod(y2 * Z - Y, p)
        v = _mod(x2 * Z - X, p)
        same = sel & ((u | v) == 0)
        vv = _mod(v * v, p)
        vvv = _mod(v * vv, p)
        R = _mod(vv * X, p)
        A = _mod(_mod(u * u, p) * Z - vvv - 2 * R, p)
        X3 = _mod(v * A, p)
        Y3 = _mod(u * _mod(R - A, p) - _mod(vvv * Y, p), p)
        Z3 = _mod(vvv * Z, p)
        for acc, new, weight, double in ((X, X3, x2, dx), (Y, Y3, y2, dy), (Z, Z3, 1, dz)):
            new += same * (double[:, j, None] - new)
            new += first * (weight - new)
            acc += sel * (new - acc)
    z_inv = _pow_mod(Z, p - 2, p)
    return _mod(X * z_inv, p), _mod(Y * z_inv, p), Z == 0


def _curve_outputs(config: GeneratorConfig, first: int, count: int):
    """x, y and identity mask of the outputs n = first, ..., first + count - 1."""
    if not isinstance(config.weights, WeightVector):
        raise ValidationError("curve generator needs a WeightVector")
    if first < 1:
        raise ValidationError("indices start at 1")
    if count < 0:
        raise ValidationError("count must be >= 0")
    bits = config.source.bits(first + count + config.r - 2)[first - 1 :]
    x, y, inf = _lane_sums(bits, *_point_arrays([config.weights]), config.curve)
    return x[0], y[0], inf[0]


def ec_subset_sum(config: GeneratorConfig, n: int) -> CurvePoint:
    """Point output at index n: the group sum of the weights selected by the window."""
    x, y, inf = _curve_outputs(config, n, 1)
    return INFINITY if inf[0] else CurvePoint(int(x[0]), int(y[0]))


def ec_subset_sum_stream(config: GeneratorConfig, count: int) -> list[CurvePoint]:
    """Point outputs for n = 1..count in a single register pass.

    Each output is a sum of up to r weights: the sliding window reweights
    every term, so there is no cheaper incremental update.  All outputs are
    summed at once as lanes of one vectorised kernel.
    """
    x, y, inf = _curve_outputs(config, 1, count)
    return [INFINITY if i else CurvePoint(xi, yi)
            for xi, yi, i in zip(x.tolist(), y.tolist(), inf.tolist())]


def output_normalized(config: GeneratorConfig, count: int) -> list[float]:
    """Normalised x-coordinates x(V(n))/p for n = 1..count; values in [0, 1)."""
    x = _curve_outputs(config, 1, count)[0]
    return (x / config.curve.p).tolist()


@dataclass(frozen=True)
class PointSet:
    """N points in the half-open unit cube [0, 1)^s, stored as an (N, s) array."""

    s: int
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.ascontiguousarray(np.atleast_2d(np.asarray(self.rows, dtype=float)))
        if rows.ndim != 2 or rows.shape[1] != self.s:
            raise ValidationError(f"rows must be (N, {self.s}), got {rows.shape}")
        if rows.shape[0] < 1:
            raise ValidationError("point set must be nonempty")
        if self.s < 1:
            raise ValidationError("dimension must be >= 1")
        if not np.isfinite(rows).all():
            raise ValidationError("coordinates must be finite")
        if rows.size and (rows.min() < 0.0 or rows.max() >= 1.0):
            raise ValidationError("coordinates must lie in [0, 1)")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def s_tuples(seq, s: int) -> PointSet:
    """Overlapping windows (seq[n], ..., seq[n+s-1]) as rows of a PointSet."""
    if s < 1:
        raise ValidationError("dimension must be >= 1")
    arr = np.asarray(list(seq), dtype=float)
    if arr.ndim != 1:
        raise ValidationError("sequence must be one-dimensional")
    if len(arr) < s:
        raise ValidationError(f"sequence of length {len(arr)} is shorter than s = {s}")
    rows = np.lib.stride_tricks.sliding_window_view(arr, s).copy()
    return PointSet(s=s, rows=rows)

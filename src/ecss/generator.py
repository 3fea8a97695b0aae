"""The elliptic-curve subset-sum generator V(n) = sum_j u(n+j) P_j, plus s-tuple windows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import CurveParams, CurvePoint, INFINITY, format_point, is_on_curve
from .discrepancy import PointSet
from .errors import ScaleGuardError, ValidationError, validate_int, validate_type
from .gf2 import BitSequenceSource, LfsrSource


@dataclass(frozen=True)
class GeneratorConfig:
    """Bit source, weight points P_0..P_{r-1} and the curve they lie on; the one gate for the weights,
    a nonempty tuple of CurvePoints on the curve, as many as an LfsrSource's register order."""

    source: BitSequenceSource
    weights: tuple[CurvePoint, ...]
    curve: CurveParams

    def __post_init__(self):
        validate_type(self.source, BitSequenceSource, "source")
        validate_type(self.curve, CurveParams, "curve")
        if not isinstance(self.weights, tuple) or not all(isinstance(point, CurvePoint) for point in self.weights):
            raise ValidationError("weights must be a tuple of CurvePoints")
        if not self.weights:
            raise ValidationError("weight vector needs at least one point")
        for point in self.weights:
            if not is_on_curve(point, self.curve):
                raise ValidationError(f"weight point {format_point(point)} is not on the curve")
        if isinstance(self.source, LfsrSource) and self.source.poly.degree != len(self.weights):
            raise ValidationError(f"weight length {len(self.weights)} does not match register order "
                                  f"{self.source.poly.degree}")


LANE_BUDGET = 1 << 14  # lanes per kernel call in the batched callers, and per slice of lane additions
# Output index, or s-tuple coordinates, per call; at the cap `ecss gen` peaks at about
# 115 MiB RSS for r = 10 (one comb chunk) and r = 24 (chunk additions), plain or with --s 1,
# and 118-119 MiB for r = 64..300, whose comb tables MAX_TABLE_ENTRIES bounds.
MAX_OUTPUTS = 2 * 10**6
# Comb table entries per weight vector: at the output cap, r = 300 otherwise takes 16-bit chunks
# and 1.2 M entries in each of six table arrays.
MAX_TABLE_ENTRIES = 1 << 16


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


def _affine(X, Y, Z, p: int):
    """Affine x and y (0 and 0 at the identity) and non-identity mask of projective points."""
    # Fermat, 0 where Z = 0; once per residue and gathered when the entries are at least p
    z_inv = _pow_mod(np.arange(p), p - 2, p)[Z] if Z.size >= p else _pow_mod(Z, p - 2, p)
    return _mod(X * z_inv, p), _mod(Y * z_inv, p), Z != 0


def _doubles(x, y, curve: CurveParams):
    """Projective tangent doubles (X, Y, Z) of affine points: w = 3x^2 + a, X = 2hy, Z = 8y^3.

    Z is 0 exactly for the 2-torsion points (y = 0).
    """
    p = curve.p
    w = _mod(3 * _mod(x * x, p) + curve.a, p)
    yy = _mod(y * y, p)
    xyy = _mod(x * yy, p)
    h = _mod(w * w - 8 * xyy, p)
    return (_mod(2 * _mod(h * y, p), p),
            _mod(w * _mod(4 * xyy - h, p) - 8 * _mod(yy * yy, p), p),
            _mod(8 * _mod(yy * y, p), p))


def _mixed_add(X, Y, Z, x2, y2, double, sel, p: int):
    """(X : Y : Z) + (x2, y2) where sel is set, (X : Y : Z) elsewhere; returns new arrays.

    The accumulator is projective on int64, the identity being Z = 0; the
    point is affine with its projective double.  The special cases are
    masks, not branches: an identity accumulator takes the point; an
    accumulator equal to the point takes its double, whose Z is 0 for
    2-torsion; the opposite point gives v = 0 and hence Z = 0.  sel must be
    clear where the point is the identity.  Since p < 2^31, a product of two
    residues is below 2^62; each is reduced before it is used again.
    """
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
    return [np.where(sel, np.where(first, coord, np.where(same, dbl, new)), acc)
            for acc, new, coord, dbl in ((X, X3, x2, double[0]), (Y, Y3, y2, double[1]), (Z, Z3, 1, double[2]))]


def _chunk_width(r: int, n_lanes: int, n_vectors: int) -> int:
    """Chunk width k of _lane_sums: the minimum of a cost model counted in array elements.

    A pass of additions or inversions costs its elements plus about 300 for
    numpy's per-call overhead.  With c = ceil(r/k) chunks, the tables take k
    passes over about 2 c 2^k elements per weight vector (doubling, then
    normalising); for c > 1 the lanes take c more passes (c - 1 additions, one
    inversion) over N elements each.  Widths whose tables would exceed
    2 max(N, 2r) entries per weight vector are not considered.  So once
    N >= 2r the tables never outgrow twice the lanes, which the batched
    callers keep within LANE_BUDGET (256 KiB per int64 table array), and
    below that they hold at most 4r entries, four per weight.  Nor are widths
    whose tables exceed max(MAX_TABLE_ENTRIES, 2r) entries, 2r being the size
    at k = 1, so at the output cap a large r takes more, narrower chunks.
    """

    def cost(k):
        chunks = -(-r // k)
        lane_passes = chunks * (chunks > 1)
        return 300 * (k + lane_passes) + n_vectors * ((2 * chunks << k) + lane_passes * n_lanes)

    ceiling = min(2 * max(n_lanes, 2 * r), max(MAX_TABLE_ENTRIES, 2 * r))
    return min((k for k in range(1, r + 1) if -(-r // k) << k <= ceiling), key=cost)


def _chunk_tables(wx, wy, winf, k: int, curve: CurveParams):
    """Affine subset sums of each chunk of k weights, as (L, chunks * 2^k) x, y and non-identity mask.

    Entry m of chunk i is the sum of the weights i*k + t over the set bits t
    of m; the last chunk is padded with identities.  The tables are built by
    doubling, entry m + 2^t = entry m + P_t for m < 2^t, and normalised by
    one Fermat inversion.
    """
    p = curve.p
    n_vectors, r = wx.shape
    chunks = -(-r // k)
    cx, cy, keep = (np.zeros((n_vectors, chunks * k), dtype=w.dtype) for w in (wx, wy, winf))
    cx[:, :r], cy[:, :r], keep[:, :r] = wx, wy, ~winf
    cx, cy, keep = (w.reshape(n_vectors, chunks, k) for w in (cx, cy, keep))
    double = _doubles(cx, cy, curve)
    X, Y, Z = (np.zeros((n_vectors, chunks, 1 << k), dtype=np.int64) for _ in range(3))
    X[..., 1], Y[..., 1], Z[..., 1] = cx[..., 0], cy[..., 0], keep[..., 0]  # an identity has x = y = 0
    for t in range(1, k):
        low, high = slice(None, 1 << t), slice(1 << t, 2 << t)
        X[..., high], Y[..., high], Z[..., high] = _mixed_add(
            X[..., low], Y[..., low], Z[..., low], cx[..., t, None], cy[..., t, None],
            [d[..., t, None] for d in double], keep[..., t, None], p)
    return [a.reshape(n_vectors, -1) for a in _affine(X, Y, Z, p)]


def _lane_sums(bits, wx, wy, winf, curve: CurveParams):
    """Subset sums V(n) = sum_j u(n+j) P_j on an (L, N) grid of lanes.

    Lane (l, n) holds the output at index n + 1 of weight vector l, whose
    window is bits[n : n + r]; bits is shared by all L weight vectors, so
    N = len(bits) - r + 1.  wx, wy, winf are the (L, r) weights, gathered
    from point_table rows or from CurvePoints by _point_arrays.  Returns the
    affine x and y and the identity mask, each (L, N); identity lanes read
    x = y = 0.

    V(n) depends on n only through its window, so this is Lim and Lee's
    fixed-base comb: the window is cut into chunks of k bits, each chunk
    indexes a table of the subset sums of its k weights (_chunk_tables), and
    V(n) is the sum of one entry per chunk.  The ceil(r/k) - 1 mixed
    additions run on int64 projective lanes, and a last Fermat inversion
    normalises them.  They run on slices of at most LANE_BUDGET lanes (one
    output column per weight vector at least), which bounds their
    temporaries; every lane is computed alone, so the slices change no bit.
    With one chunk V(n) is a single lookup.
    """
    p = curve.p
    r = wx.shape[1]
    n_lanes = len(bits) - r + 1
    k = _chunk_width(r, n_lanes, wx.shape[0])
    chunks = -(-r // k)
    tx, ty, tkeep = _chunk_tables(wx, wy, np.asarray(winf, dtype=bool), k, curve)
    # Entry m of packed holds bits[m : m + k], LSB first; the zero padding completes the
    # last chunk and keeps one k-window when N = 0.
    padded = np.concatenate([np.asarray(bits, dtype=np.int64), np.zeros(chunks * k - r + 1, dtype=np.int64)])
    packed = np.convolve(padded, 1 << np.arange(k - 1, -1, -1), "valid")
    g = packed[:n_lanes]  # chunk 0's table index; each later chunk's is formed when it is added
    if chunks == 1:
        return tx[:, g], ty[:, g], ~tkeep[:, g]
    double = _doubles(tx, ty, curve)
    x, y = (np.empty((len(wx), n_lanes), dtype=np.int64) for _ in range(2))
    inf = np.empty((len(wx), n_lanes), dtype=bool)
    width = max(1, LANE_BUDGET // len(wx))  # lanes per slice: bounds the group-law temporaries
    for lo in range(0, n_lanes, width):
        hi = min(lo + width, n_lanes)
        g = packed[lo:hi]
        X, Y, Z = tx[:, g], ty[:, g], tkeep[:, g].astype(np.int64)
        for i in range(1, chunks):
            g = packed[i * k + lo : i * k + hi] + (i << k)
            X, Y, Z = _mixed_add(X, Y, Z, tx[:, g], ty[:, g], [d[:, g] for d in double], tkeep[:, g], p)
        x[:, lo:hi], y[:, lo:hi], keep = _affine(X, Y, Z, p)
        inf[:, lo:hi] = ~keep
    return x, y, inf


def _curve_outputs(config: GeneratorConfig, first: int, count: int):
    """x, y and identity mask of the outputs n = first, ..., first + count - 1."""
    first = validate_int(first, "index", 1)
    count = validate_int(count, "count", 0)
    if first + count - 1 > MAX_OUTPUTS:
        raise ScaleGuardError(f"output index {first + count - 1} exceeds the cap of {MAX_OUTPUTS}")
    bits = config.source.bits(first + count + len(config.weights) - 2)[first - 1 :]
    x, y, inf = _lane_sums(bits, *_point_arrays([config.weights]), config.curve)
    return x[0], y[0], inf[0]


def ec_subset_sum(config: GeneratorConfig, n: int) -> CurvePoint:
    """Point output at index n: the group sum of the weights selected by the window."""
    x, y, inf = _curve_outputs(config, n, 1)
    return INFINITY if inf[0] else CurvePoint(int(x[0]), int(y[0]))


def ec_subset_sum_stream(config: GeneratorConfig, count: int) -> list[CurvePoint]:
    """Point outputs for n = 1..count in a single register pass.

    The sliding window reweights every term, so V(n + 1) is no cheap update
    of V(n); but V(n) depends on n only through its window.  So the outputs
    are lanes of one vectorised kernel that looks up precomputed subset sums
    of chunks of the weights and adds one per chunk (_lane_sums).
    """
    x, y, inf = _curve_outputs(config, 1, count)
    return [INFINITY if i else CurvePoint(xi, yi)
            for xi, yi, i in zip(x.tolist(), y.tolist(), inf.tolist())]


def output_normalized(config: GeneratorConfig, count: int) -> np.ndarray:
    """Normalised x-coordinates x(V(n))/p for n = 1..count, as a float64 array; values in [0, 1)."""
    return _curve_outputs(config, 1, count)[0] / config.curve.p


def s_tuples(seq, s: int) -> PointSet:
    """Overlapping windows (seq[n], ..., seq[n+s-1]) of a list or array, as rows of a PointSet.

    The sequence is read as PointSet(seq), by the rule of every point input, and must be one column.
    """
    s = validate_int(s, "dimension", 1)
    column = PointSet(seq)
    if column.s != 1:
        raise ValidationError("sequence must be one-dimensional")
    if column.n < s:
        raise ValidationError(f"sequence of length {column.n} is shorter than s = {s}")
    if (column.n - s + 1) * s > MAX_OUTPUTS:
        raise ScaleGuardError(f"{(column.n - s + 1) * s} tuple coordinates exceed the cap of {MAX_OUTPUTS}")
    return PointSet(np.lib.stride_tricks.sliding_window_view(column.rows[:, 0], s))

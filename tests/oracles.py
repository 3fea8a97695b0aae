"""Reference implementations the tests check the library against; no command or paper formula uses them.

Each is the plain definition: a direct window scan, repeated doubling, a scalar
group-law fold, a build the library now does in place, or numpy's own random
streams, which the sweep's draw reproduces in Python ints.  Tests import them
with ``from oracles import ...``.
"""

import numpy as np

from ecss.combinat import _validate_r_s
from ecss.curve import INFINITY, CurveParams, CurvePoint, _square_root_table, add
from ecss.errors import ValidationError
from ecss.gf2 import BitSequenceSource


def _as_bits(vec) -> tuple[int, ...]:
    bits = tuple(int(b) for b in vec)
    if any(b not in (0, 1) for b in bits):
        raise ValidationError("vectors must be 0/1 sequences")
    return bits


def is_s_good(x, y, s: int) -> bool:
    """True iff (x, y) contains both orientations of (e_h, 0_s) for every h = 1..s."""
    xb = _as_bits(x)
    yb = _as_bits(y)
    if len(xb) != len(yb):
        raise ValidationError("vectors must have equal length")
    _validate_r_s(len(xb), s)
    seen = {(xb[i : i + s], yb[i : i + s]) for i in range(len(xb) - s + 1)}
    zero = (0,) * s
    basis = (zero[:h] + (1,) + zero[h + 1 :] for h in range(s))
    return all((e, zero) in seen and (zero, e) in seen for e in basis)


def scalar_mul(k: int, point: CurvePoint, curve: CurveParams) -> CurvePoint:
    """k-fold group sum via double-and-add; scalar_mul(0, P) is the identity."""
    if k < 0:
        raise ValidationError("scalar must be nonnegative")
    acc = INFINITY
    addend = point
    while k:
        if k & 1:
            acc = add(acc, addend, curve)
        addend = add(addend, addend, curve)
        k >>= 1
    return acc


def format_curve(curve: CurveParams) -> str:
    return f"{curve.p},{curve.a},{curve.b}"


class PeriodicSource(BitSequenceSource):
    """Repeats a fixed bit pattern: u(n) = pattern[(n-1) mod len(pattern)]."""

    def __init__(self, pattern):
        pattern = tuple(int(b) for b in pattern)
        if not pattern:
            raise ValidationError("pattern must be nonempty")
        if any(b not in (0, 1) for b in pattern):
            raise ValidationError("pattern bits must be 0 or 1")
        self.pattern = pattern

    def bits(self, count: int) -> list[int]:
        m = len(self.pattern)
        return [self.pattern[n % m] for n in range(count)]


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


def point_table_out_of_place(curve: CurveParams) -> np.ndarray:
    """curve.point_table with every step a new array, as built before the in-place build (no guards)."""
    p = curve.p
    nsol, ys, starts = _square_root_table(p)
    x = np.arange(p, dtype=np.int64)
    rhs = (x * x % p * x + curve.a * x + curve.b) % p
    counts = nsol[rhs]
    order = 1 + int(counts.sum())
    shift = np.repeat(starts[rhs] - (np.cumsum(counts) - counts), counts)
    table = np.zeros((order, 2), dtype=np.int64)
    table[1:, 0] = np.repeat(x, counts)
    table[1:, 1] = ys[np.arange(order - 1) + shift]
    return table


def char_sums_out_of_place(curve: CurveParams, points: np.ndarray) -> np.ndarray:
    """expsum.curve_char_sums_all as p times the inverse FFT of a float x-histogram, as before the in-place sweep."""
    hist = np.bincount(points[1:, 0], minlength=curve.p).astype(np.float64)
    return curve.p * np.fft.ifft(hist)


def weight_rows_numpy(table_size: int, r: int, count: int, seed: int) -> np.ndarray:
    """The sweep's weight rows by numpy: default_rng of each SeedSequence(seed) child, integers(0, table_size)."""
    children = np.random.SeedSequence(seed).spawn(count)
    rows = [np.random.default_rng(child).integers(0, table_size, size=r) for child in children]
    return np.array(rows, dtype=np.int64).reshape(count, r)


def mc_seeds_numpy(seed: int, count: int) -> list[int]:
    """The sweep's Monte-Carlo seeds by numpy: generate_state(1) of each SeedSequence((seed, 1)) child."""
    return [int(child.generate_state(1)[0]) for child in np.random.SeedSequence((seed, 1)).spawn(count)]

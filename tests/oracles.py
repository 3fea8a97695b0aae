"""Reference implementations the tests check the library against; no command or paper formula uses them.

Each is the plain definition: a direct window scan, repeated doubling, a scalar
group-law fold.  Tests import them with ``from oracles import ...``.
"""

from ecss.combinat import _validate_r_s
from ecss.curve import INFINITY, CurveParams, CurvePoint, add
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

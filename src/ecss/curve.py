"""Short-Weierstrass elliptic curve arithmetic over small prime fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScaleGuardError, ValidationError, int_fields, is_prime, validate_int

MAX_FIELD = 1 << 31  # modular products stay desk-scale; no big-field tricks
MAX_ENUMERATION_P = 1 << 20  # point enumeration builds an O(p) residue table
MAX_ALL_CURVES_P = 2000  # the whole-prime (a, b) sweeps: ~p^3 work and (p, p) int64 tables


@dataclass(frozen=True)
class CurveParams:
    """Curve y^2 = x^3 + a*x + b over F_p, and the one gate for curve parameters.

    Construction checks p, a and b as integers and stores them as Python ints,
    since numpy integers would overflow in 4a^3 + 27b^2.  It rejects p unless
    it is a prime in (3, 2^31), reduces a and b mod p and rejects a singular curve.
    """

    p: int
    a: int
    b: int

    def __post_init__(self):
        int_fields(self, "p", "a", "b")
        if not is_prime(self.p):
            raise ValidationError(f"p = {self.p} is not prime")
        if self.p <= 3:
            raise ValidationError("p must exceed 3")
        if self.p >= MAX_FIELD:
            raise ValidationError(f"p must be below 2^31, got {self.p}")
        for name in ("a", "b"):
            object.__setattr__(self, name, getattr(self, name) % self.p)
        if (4 * self.a**3 + 27 * self.b**2) % self.p == 0:
            raise ValidationError("singular curve: 4a^3 + 27b^2 = 0 (mod p)")


@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y) of Python ints, or the point at infinity when both fields are None."""

    x: int | None
    y: int | None

    def __post_init__(self):
        if type(self.x) is int and type(self.y) is int:  # the common case, as enumerate_points builds a million
            return
        if (self.x is None) != (self.y is None):
            raise ValidationError("point must be affine (x, y) or fully infinite")
        if self.x is not None:
            int_fields(self, "x", "y")

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = CurvePoint(None, None)


def is_on_curve(point: CurvePoint, curve: CurveParams) -> bool:
    if point.is_infinity:
        return True
    x, y, p = point.x, point.y, curve.p
    if not (0 <= x < p and 0 <= y < p):
        return False
    return (y * y - (x * x * x + curve.a * x + curve.b)) % p == 0


def negate(point: CurvePoint, curve: CurveParams) -> CurvePoint:
    if point.is_infinity:
        return INFINITY
    return CurvePoint(point.x, (-point.y) % curve.p)


def add(p0: CurvePoint, p1: CurvePoint, curve: CurveParams) -> CurvePoint:
    """Group law by chord/tangent; handles identity, inverses and doubling."""
    if p0.is_infinity:
        return p1
    if p1.is_infinity:
        return p0
    p = curve.p
    x0, y0 = p0.x, p0.y
    x1, y1 = p1.x, p1.y
    if x0 == x1:
        if (y0 + y1) % p == 0:
            return INFINITY
        slope = (3 * x0 * x0 + curve.a) * pow(2 * y0, -1, p) % p
    else:
        slope = (y1 - y0) * pow(x1 - x0, -1, p) % p
    x2 = (slope * slope - x0 - x1) % p
    y2 = (slope * (x0 - x2) - y0) % p
    return CurvePoint(x2, y2)


def _square_root_table(p: int):
    """Return (nsol, ys, starts): ys[starts[t]:starts[t+1]] are the roots of y^2 = t, increasing.

    The roots of a nonzero square y^2 with 1 <= y <= (p-1)/2 are y < p - y,
    and 0 is the one root of 0, so no sort is needed.
    """
    half = np.arange(1, (p + 1) // 2, dtype=np.int64)
    squares = half * half % p  # distinct: y^2 = z^2 means y = +-z
    nsol = 2 * np.bincount(squares, minlength=p)
    nsol[0] = 1
    starts = np.concatenate([[0], np.cumsum(nsol)])
    ys = np.zeros(p, dtype=np.int64)
    ys[starts[squares]] = half
    ys[starts[squares] + 1] = p - half
    return nsol, ys, starts


def point_table(curve: CurveParams) -> np.ndarray:
    """Every point of the curve as an (#E, 2) int64 array of (x, y) rows.

    Row 0 is the identity, stored as (0, 0) to match x_coord; the affine
    points follow in (x, y) order.  Each x is repeated once per root of
    y^2 = x^3 + ax + b, gathered from one quadratic-residue table in
    increasing order, so the scan is O(p).  The Hasse inequality is checked
    before returning.  The build works in place and frees each p-sized array
    once read; a caller that passes the table inline, as
    curve_char_sums_all(curve, points=point_table(curve)), holds no copy.
    """
    p = curve.p
    if p >= MAX_ENUMERATION_P:
        raise ScaleGuardError(f"point enumeration capped at p < 2^20, got {p}")
    nsol, ys, starts = _square_root_table(p)
    x = np.arange(p, dtype=np.int64)
    rhs = x * x  # x^3 + ax + b as (x^2 mod p + a) x + b, below 2^41 at the cap
    rhs %= p
    rhs += curve.a
    rhs *= x
    rhs += curve.b
    rhs %= p
    counts = nsol[rhs]
    del nsol
    order = 1 + int(counts.sum())
    if (order - p - 1) ** 2 > 4 * p:
        raise ValidationError(f"Hasse inequality violated: #E = {order} for p = {p}")
    # Point k is root k - first of its x's bucket, where first is the bucket's first point index.
    offsets = starts[rhs]
    del starts
    offsets -= np.cumsum(counts, out=rhs)  # rhs is read; its buffer takes the running sum
    del rhs
    offsets += counts
    index = np.repeat(offsets, counts)
    del offsets
    index += np.arange(order - 1)
    table = np.zeros((order, 2), dtype=np.int64)
    table[1:, 0] = np.repeat(x, counts)
    table[1:, 1] = ys[index]
    return table


def enumerate_points(curve: CurveParams) -> list[CurvePoint]:
    """point_table as CurvePoint objects: the identity first, then affine points by (x, y)."""
    return [INFINITY, *map(CurvePoint, *point_table(curve)[1:].T.tolist())]


def all_curve_orders(p: int) -> np.ndarray:
    """Group orders of every curve over F_p as a (p, p) array indexed [a, b].

    Singular parameter pairs are marked -1.  Counts come from the same
    quadratic-residue table as point_table, vectorised over b, which
    makes whole-prime sweeps cheap.
    """
    counts = _root_counts_by_a(p)  # checks p before the (p, p) table
    orders = np.empty((p, p), dtype=np.int64)
    for a, roots, nonsingular in counts:
        orders[a] = np.where(nonsingular, 1 + roots.sum(axis=0), -1)
    return orders


def _root_counts_by_a(p: int):
    """For each a: the (x, b) table of root counts of y^2 = x^3 + ax + b, and which b are nonsingular.

    The one gate of the whole-prime sweeps: p is checked on the call, before the first a is asked for.
    """
    if not is_prime(validate_int(p, "p")) or p <= 3:
        raise ValidationError(f"p = {p} must be a prime above 3")
    if p > MAX_ALL_CURVES_P:
        raise ScaleGuardError(f"whole-prime (a, b) sweep capped at p <= {MAX_ALL_CURVES_P}, got {p}")
    nsol = _square_root_table(p)[0]
    x = np.arange(p, dtype=np.int64)  # also the b axis
    x3 = (x * x * x) % p
    return ((a, nsol[((x3 + a * x)[:, None] + x[None, :]) % p], (4 * a**3 + 27 * x**2) % p != 0) for a in range(p))


def x_coord(point: CurvePoint) -> int:
    """x-coordinate of an affine point; the identity maps to 0 by convention."""
    return 0 if point.is_infinity else point.x


def validate_weights(weights: tuple[CurvePoint, ...], curve: CurveParams) -> None:
    """Reject anything but a nonempty tuple of CurvePoints on the curve: the weights P_0..P_{r-1}."""
    if not isinstance(weights, tuple) or not all(isinstance(point, CurvePoint) for point in weights):
        raise ValidationError("weights must be a tuple of CurvePoints")
    if not weights:
        raise ValidationError("weight vector needs at least one point")
    for point in weights:
        if not is_on_curve(point, curve):
            raise ValidationError(f"weight point {format_point(point)} is not on the curve")


def parse_curve(text: str) -> CurveParams:
    parts = text.strip().split(",")
    if len(parts) != 3:
        raise ValidationError(f"curve must be 'p,a,b', got {text!r}")
    try:
        p, a, b = (int(v) for v in parts)
    except ValueError as exc:
        raise ValidationError(f"curve must be decimal 'p,a,b', got {text!r}") from exc
    return CurveParams(p, a, b)


def format_point(point: CurvePoint) -> str:
    return "inf" if point.is_infinity else f"{point.x},{point.y}"


def parse_point(text: str) -> CurvePoint:
    text = text.strip()
    if text == "inf":
        return INFINITY
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"point must be 'inf' or 'x,y', got {text!r}")
    try:
        x, y = (int(v) for v in parts)
    except ValueError as exc:
        raise ValidationError(f"point must be decimal 'x,y', got {text!r}") from exc
    return CurvePoint(x, y)

"""Short-Weierstrass elliptic curve arithmetic over small prime fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScaleGuardError, ValidationError

MAX_FIELD = 1 << 31  # modular products stay desk-scale; no big-field tricks
MAX_ENUMERATION_P = 1 << 20  # point enumeration builds an O(p) residue table


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; witnesses {2, 7, 61} are exact below 4,759,123,141."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 7, 61):
        if base % n == 0:
            continue
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CurveParams:
    """Curve y^2 = x^3 + a*x + b over F_p; construction validates the parameters."""

    p: int
    a: int
    b: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"p = {self.p} is not prime")
        if self.p <= 3:
            raise ValidationError("p must exceed 3")
        if self.p >= MAX_FIELD:
            raise ValidationError(f"p must be below 2^31, got {self.p}")
        if not (0 <= self.a < self.p and 0 <= self.b < self.p):
            raise ValidationError("a and b must be reduced field elements")
        if (4 * self.a**3 + 27 * self.b**2) % self.p == 0:
            raise ValidationError("singular curve: 4a^3 + 27b^2 = 0 (mod p)")


def validate_curve(p: int, a: int, b: int) -> CurveParams:
    """Validate (p, a, b), reducing a and b mod p."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValidationError(f"p = {p} is not prime")
    return CurveParams(p, a % p, b % p)


@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y), or the point at infinity when both fields are None."""

    x: int | None
    y: int | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValidationError("point must be affine (x, y) or fully infinite")

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


def _square_root_table(p: int):
    """Return (nsol, ys, starts): ys[starts[t]:starts[t+1]] are the roots of y^2 = t."""
    ys = np.arange(p, dtype=np.int64)
    squares = (ys * ys) % p
    nsol = np.bincount(squares, minlength=p)
    order = np.argsort(squares, kind="stable")
    starts = np.concatenate([[0], np.cumsum(nsol)])
    return nsol, ys[order], starts


def enumerate_points(curve: CurveParams) -> list[CurvePoint]:
    """All points of the curve: the identity first, then affine points by (x, y).

    Builds a quadratic-residue table once, so the scan is O(p).  The group
    order is the length of the returned list; the Hasse inequality is checked
    before returning.
    """
    p = curve.p
    if p >= MAX_ENUMERATION_P:
        raise ScaleGuardError(f"point enumeration capped at p < 2^20, got {p}")
    _, ys, starts = _square_root_table(p)
    points = [INFINITY]
    a, b = curve.a, curve.b
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in ys[starts[rhs] : starts[rhs + 1]]:
            points.append(CurvePoint(x, int(y)))
    order = len(points)
    if (order - p - 1) ** 2 > 4 * p:
        raise ValidationError(f"Hasse inequality violated: #E = {order} for p = {p}")
    return points


def all_curve_orders(p: int) -> np.ndarray:
    """Group orders of every curve over F_p as a (p, p) array indexed [a, b].

    Singular parameter pairs are marked -1.  Counts come from the same
    quadratic-residue table as enumerate_points, vectorised over b, which
    makes whole-prime sweeps cheap.
    """
    if not is_prime(p) or p <= 3:
        raise ValidationError(f"p = {p} must be a prime above 3")
    if p >= MAX_ENUMERATION_P:
        raise ScaleGuardError(f"curve-order sweep capped at p < 2^20, got {p}")
    nsol = _square_root_table(p)[0]
    x = np.arange(p, dtype=np.int64)
    b_arr = np.arange(p, dtype=np.int64)
    orders = np.empty((p, p), dtype=np.int64)
    x3 = (x * x * x) % p
    for a in range(p):
        base = (x3 + a * x) % p
        rhs = (base[:, None] + b_arr[None, :]) % p
        orders[a, :] = 1 + nsol[rhs].sum(axis=0)
    aa = np.arange(p, dtype=np.int64)[:, None]
    singular = (4 * aa**3 + 27 * b_arr[None, :] ** 2) % p == 0
    orders[singular] = -1
    return orders


def x_coord(point: CurvePoint) -> int:
    """x-coordinate of an affine point; the identity maps to 0 by convention."""
    return 0 if point.is_infinity else point.x


@dataclass(frozen=True)
class WeightVector:
    """Tuple of r curve points, the weights averaged over in the analysis."""

    points: tuple[CurvePoint, ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValidationError("weight vector needs at least one point")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]


def validate_weights(weights: WeightVector, curve: CurveParams) -> None:
    for point in weights:
        if not is_on_curve(point, curve):
            raise ValidationError(f"weight point {format_point(point)} is not on the curve")


def format_curve(curve: CurveParams) -> str:
    return f"{curve.p},{curve.a},{curve.b}"


def parse_curve(text: str) -> CurveParams:
    parts = text.strip().split(",")
    if len(parts) != 3:
        raise ValidationError(f"curve must be 'p,a,b', got {text!r}")
    try:
        p, a, b = (int(v) for v in parts)
    except ValueError as exc:
        raise ValidationError(f"curve must be decimal 'p,a,b', got {text!r}") from exc
    return validate_curve(p, a, b)


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

"""Binary polynomials and bit-sequence sources built on GF(2) linear recurrences."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import ScaleGuardError, ValidationError, int_fields, is_int, validate_int, validate_type

# Exhaustive period search walks up to 2^r - 1 states; keep the register desk-sized.
MAX_PERIOD_SEARCH_DEGREE = 24


@dataclass(frozen=True)
class BinaryPoly:
    """Polynomial over GF(2), stored as an integer mask (bit i = coefficient of X^i).

    The top set bit defines the degree, so the leading coefficient is 1 by
    construction.  X^2 + X + 1 is mask 0b111 == 0x7.
    """

    mask: int

    def __post_init__(self):
        int_fields(self, "mask")
        if self.mask < 2:
            raise ValidationError("polynomial must have degree >= 1")

    @property
    def degree(self) -> int:
        return self.mask.bit_length() - 1

    @property
    def constant_term(self) -> int:
        return self.mask & 1

    @property
    def recurrence_taps(self) -> int:
        """Mask of the lower coefficients c_0..c_{r-1} feeding the recurrence."""
        return self.mask ^ (1 << self.degree)

    @classmethod
    def from_hex(cls, text: str) -> "BinaryPoly":
        try:
            mask = int(text, 16)
        except ValueError as exc:
            raise ValidationError(f"polynomial must be a hex mask, got {text!r}") from exc
        return cls(mask)

    def to_hex(self) -> str:
        return hex(self.mask)

    def __str__(self) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            if (self.mask >> i) & 1:
                terms.append("1" if i == 0 else ("X" if i == 1 else f"X^{i}"))
        return " + ".join(terms)


def _gf2_mod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _gf2_mulmod(a: int, b: int, f: int) -> int:
    """a * b mod f for a already reduced below the degree of f."""
    top = 1 << (f.bit_length() - 1)
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= f
    return acc  # a XOR of values of a, each already reduced below degree f


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_mod(a, b)
    return a


def poly_is_irreducible(poly: BinaryPoly) -> bool:
    """True iff the polynomial has no nontrivial factor over GF(2).

    Standard gcd test: a reducible polynomial of degree r has an irreducible
    factor of degree d <= r/2, which divides X^(2^d) - X and therefore shows
    up as a nontrivial gcd.  Degree-1 polynomials pass vacuously.
    """
    f = poly.mask
    r = poly.degree
    x2i = 2  # X
    for _ in range(r // 2):
        x2i = _gf2_mulmod(x2i, x2i, f)
        if _gf2_gcd(f, x2i ^ 2) != 1:
            return False
    return True


class BitSequenceSource(ABC):
    """Deterministic supplier of the bit stream u(1), u(2), ...

    Repeated reads from index 1 return identical bits.
    """

    @abstractmethod
    def bits(self, count: int) -> list[int]:
        """Return [u(1), ..., u(count)]."""


def default_init(degree: int) -> tuple[int, ...]:
    """The initial window (1, 0, ..., 0) used when none is given."""
    return (1,) + (0,) * (degree - 1)


class LfsrSource(BitSequenceSource):
    """Linear feedback shift register driven by a characteristic polynomial.

    The register window holds (u(n), ..., u(n+r-1)); stepping applies
    u(n+r) = sum_{i<r} c_i u(n+i) over GF(2), where c_i is the coefficient
    of X^i.  ``bits`` always replays from u(1).
    """

    def __init__(self, poly: BinaryPoly, init):
        validate_type(poly, BinaryPoly, "poly")
        try:
            init = tuple(init)
        except TypeError:
            raise ValidationError(f"initial window must be a sequence of bits, got {init!r}") from None
        if not all(is_int(b) and b in (0, 1) for b in init):
            raise ValidationError(f"window bits must be 0 or 1, got {init!r}")
        if len(init) != poly.degree:
            raise ValidationError(f"initial window has {len(init)} bits, polynomial degree is {poly.degree}")
        self.poly = poly
        self._init = sum(int(b) << t for t, b in enumerate(init))  # packed LSB-first

    def bits(self, count: int) -> list[int]:
        count = validate_int(count, "count", 0)
        r = self.poly.degree
        taps = self.poly.recurrence_taps
        state = self._init
        out = []
        for _ in range(count):
            out.append(state & 1)
            new = (state & taps).bit_count() & 1
            state = (state >> 1) | (new << (r - 1))
        return out


def packed_windows(stream, r: int):
    """Yield the windows stream[k:k+r] packed LSB-first (bit t = stream[k+t]), k = 0, 1, ...

    Stops at the last full window; each step shifts in one new bit.
    """
    w = 0
    for t in range(r):
        w |= stream[t] << t
    yield w
    for k in range(r, len(stream)):
        w = (w >> 1) | (stream[k] << (r - 1))
        yield w


def sequence_period(poly: BinaryPoly, init) -> int:
    """Smallest tau >= 1 with window(n + tau) = window(n) for every n.

    Requires a nonzero initial window and constant term 1.  The state map on
    the r-bit windows is then a bijection, so the first return to the start is
    the period, and the tau windows of one period are pairwise distinct.  For
    an irreducible polynomial the result divides 2^r - 1.
    """
    packed = LfsrSource(poly, init)._init
    if packed == 0:
        raise ValidationError("zero initial window is excluded (all-zero output)")
    if poly.constant_term != 1:
        raise ValidationError("constant term must be 1 for a purely periodic register")
    if poly.degree > MAX_PERIOD_SEARCH_DEGREE:
        raise ScaleGuardError(
            f"period search capped at degree {MAX_PERIOD_SEARCH_DEGREE}, got {poly.degree}"
        )
    r = poly.degree
    taps = poly.recurrence_taps
    state = packed
    tau = 0
    while True:
        new = (state & taps).bit_count() & 1
        state = (state >> 1) | (new << (r - 1))
        tau += 1
        if state == packed:
            return tau


def windows_distinct(src: BitSequenceSource, r: int, tau: int) -> bool:
    """True iff the windows (u(n+1), ..., u(n+r)), n = 1..tau, of any source are pairwise distinct.
    An LfsrSource's windows are its states, so at tau = sequence_period(...) it always passes.

    More than 2^r windows cannot be distinct, which is answered without reading a bit.  Otherwise
    the tau windows of r bits are capped at the period walk's budget, 2^24 windows of 24 bits.
    """
    r = validate_int(r, "window length", 1)
    tau = validate_int(tau, "tau", 1)
    if (tau - 1).bit_length() > r:  # tau > 2^r, without building 2^r
        return False
    if tau * r > MAX_PERIOD_SEARCH_DEGREE << MAX_PERIOD_SEARCH_DEGREE:
        raise ScaleGuardError(f"{tau} windows of {r} bits exceed the cap of "
                              f"{MAX_PERIOD_SEARCH_DEGREE} * 2^{MAX_PERIOD_SEARCH_DEGREE} window bits")
    seen = set()
    for w in packed_windows(src.bits(tau + r)[1:], r):
        if w in seen:
            return False
        seen.add(w)
    return True

"""Binary polynomials and bit-sequence sources built on GF(2) linear recurrences."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import ScaleGuardError, ValidationError

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


def _gf2_degree(a: int) -> int:
    return a.bit_length() - 1


def _gf2_mod(a: int, f: int) -> int:
    df = _gf2_degree(f)
    while a.bit_length() - 1 >= df and a:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _gf2_mulmod(a: int, b: int, f: int) -> int:
    a = _gf2_mod(a, f)
    df = _gf2_degree(f)
    top = 1 << df
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= f
    return _gf2_mod(acc, f)


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

    Repeated reads from index 1 return identical bits.  ``purely_periodic``
    declares whether the stream repeats from the very first bit; ``period``
    carries the period when it is known (None otherwise).
    """

    purely_periodic: bool = True
    period: int | None = None

    @abstractmethod
    def bits(self, count: int) -> list[int]:
        """Return [u(1), ..., u(count)]."""


def _pack_window(bits) -> tuple[int, int]:
    packed = 0
    length = 0
    for b in bits:
        if b not in (0, 1):
            raise ValidationError(f"window bits must be 0 or 1, got {b!r}")
        packed |= b << length
        length += 1
    return packed, length


class LfsrSource(BitSequenceSource):
    """Linear feedback shift register driven by a characteristic polynomial.

    The register window holds (u(n), ..., u(n+r-1)); stepping applies
    u(n+r) = sum_{i<r} c_i u(n+i) over GF(2), where c_i is the coefficient
    of X^i.  ``bits`` always replays from u(1).
    """

    def __init__(self, poly: BinaryPoly, init):
        packed, length = _pack_window(init)
        if length != poly.degree:
            raise ValidationError(
                f"initial window has {length} bits, polynomial degree is {poly.degree}"
            )
        self.poly = poly
        self._init = packed
        # The state map is invertible exactly when the constant term is 1;
        # the all-zero register is the fixed point either way.
        self.purely_periodic = poly.constant_term == 1 or packed == 0
        self.period = 1 if packed == 0 else None

    @property
    def order(self) -> int:
        return self.poly.degree

    def bits(self, count: int) -> list[int]:
        r = self.poly.degree
        taps = self.poly.recurrence_taps
        state = self._init
        out = []
        for _ in range(count):
            out.append(state & 1)
            new = (state & taps).bit_count() & 1
            state = (state >> 1) | (new << (r - 1))
        return out


class PeriodicSource(BitSequenceSource):
    """Repeats a fixed bit pattern: u(n) = pattern[(n-1) mod len(pattern)]."""

    def __init__(self, pattern):
        pattern = tuple(int(b) for b in pattern)
        if not pattern:
            raise ValidationError("pattern must be nonempty")
        if any(b not in (0, 1) for b in pattern):
            raise ValidationError("pattern bits must be 0 or 1")
        self.pattern = pattern
        self.purely_periodic = True
        self.period = len(pattern)

    def bits(self, count: int) -> list[int]:
        m = len(self.pattern)
        return [self.pattern[n % m] for n in range(count)]


def packed_windows(stream, r: int, start: int = 0):
    """Yield the windows stream[k:k+r] packed LSB-first (bit t = stream[k+t]), k = start, ...

    Stops at the last full window; each step shifts in one new bit.
    """
    w = 0
    for t in range(r):
        w |= stream[start + t] << t
    yield w
    for k in range(start + r, len(stream)):
        w = (w >> 1) | (stream[k] << (r - 1))
        yield w


def generate_bits(src: BitSequenceSource, count: int) -> list[int]:
    """Return u(1..count) from the source."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    return src.bits(count)


def sequence_period(poly: BinaryPoly, init) -> int:
    """Smallest tau >= 1 with window(n + tau) = window(n) for every n.

    Requires a nonzero initial window and constant term 1 (the state map is
    then a bijection, so the first return to the start is the period).  For
    an irreducible polynomial the result divides 2^r - 1.
    """
    packed, length = _pack_window(init)
    if length != poly.degree:
        raise ValidationError(
            f"initial window has {length} bits, polynomial degree is {poly.degree}"
        )
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
    """True iff the windows (u(n+1), ..., u(n+r)), n = 1..tau, are pairwise distinct."""
    if r < 1 or tau < 1:
        raise ValidationError("window length and tau must be >= 1")
    seen = set()
    for w in packed_windows(src.bits(tau + r), r, start=1):
        if w in seen:
            return False
        seen.add(w)
    return True

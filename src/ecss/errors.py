"""Exception types and input rules shared across the package, and alpha_s, which combinat and discrepancy share."""

import functools
import math
from numbers import Integral, Real


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# is_prime is exact below this, the least strong pseudoprime to every base above: 399165290221 * 798330580441
MAX_PRIME_TEST = 318665857834031151167461


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition or invariant."""


class ScaleGuardError(RuntimeError):
    """Raised when a request exceeds the desk-scale guard of an exhaustive routine."""


def is_prime(n: int) -> bool:
    """Strong probable-prime test to the prime bases 2..37; exact below MAX_PRIME_TEST (Sorenson and Webster, 2015)."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _PRIME_BASES:  # each below n, which has no factor up to 37
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


def is_int(value) -> bool:
    """The one integer rule: an Integral, numpy integers included, that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def validate_int(value, name: str, minimum: int | None = None) -> int:
    """Reject anything but an integer, and one below minimum when given; return it as a Python int."""
    if not is_int(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def int_fields(record, *names: str, minimum: int | None = None) -> None:
    """Check the named fields of a frozen dataclass record by validate_int, in order, and store Python ints."""
    for name in names:
        object.__setattr__(record, name, validate_int(getattr(record, name), name, minimum))


def validate_type(value, kind: type, name: str) -> None:
    """Reject a record-typed field that is not a kind, whose attributes the record's methods read."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {value!r}")


def validate_positive_real(value, name: str) -> float:
    """Reject anything but a real number (not a bool) above 0 and finite as a float; return it as a float."""
    try:
        valid = not isinstance(value, bool) and isinstance(value, Real) and 0 < float(value) < math.inf
    except OverflowError:  # an int too large for a float
        valid = False
    if not valid:
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def finite_float(fn):
    """Report a float overflow in fn, raised or returned as inf or nan, as a ValidationError."""

    @functools.wraps(fn)
    def checked(*args):
        try:
            value = fn(*args)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValidationError(f"{fn.__name__} overflows a float at {', '.join(map(repr, args))}")
        return value

    return checked


@finite_float
def alpha(s: int) -> float:
    """Growth base (4^s - 1)^(1/s) of the explicit bad-pair upper bound."""
    s = validate_int(s, "s", 1)
    return (4.0**s - 1.0) ** (1.0 / s)

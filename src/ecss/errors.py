"""Exception types, input rules and the frozen record rule shared across the package, and alpha_s, which
combinat and discrepancy share."""

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


def int_fields(instance, *names: str, minimum: int | None = None) -> None:
    """Check the named fields of a frozen record by validate_int, in order, and store Python ints."""
    for name in names:
        object.__setattr__(instance, name, validate_int(getattr(instance, name), name, minimum))


def record(cls=None, /, *, no_init: tuple[str, ...] = ()):
    """Make the annotated fields of cls a frozen value record, as dataclass(frozen=True) does, generating no code.

    dataclasses compiles each record's methods by exec, about 1 ms per class in a fresh process, so every
    record shares these closures instead.  cls gets the field names in order as _fields, and each of these
    methods it does not define itself: __init__ taking the fields but no_init ones, positional or by keyword,
    a class attribute being a field's default, and then calling __post_init__ if the class has one;
    __setattr__ and __delattr__ raising AttributeError; __eq__ and __hash__ on the tuple of every field's
    value, equal only within the class; and the dataclass __repr__ of the fields.
    """
    if cls is None:
        return lambda cls: record(cls, no_init=no_init)
    fields = tuple(cls.__annotations__)
    params = tuple(name for name in fields if name not in no_init)
    defaults = {name: vars(cls)[name] for name in params if name in vars(cls)}
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if len(args) > len(params):
            raise TypeError(f"{cls.__name__}() takes {len(params)} positional arguments but {len(args)} were given")
        given = dict(zip(params, args))
        for name, value in kwargs.items():
            if name not in params or name in given:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            given[name] = value
        for name in params:  # one by one, which keeps the instance's values inline and shares their keys
            if name not in given and name not in defaults:
                raise TypeError(f"{cls.__name__}() is missing the argument {name!r}")
            object.__setattr__(self, name, given[name] if name in given else defaults[name])
        if post_init:
            self.__post_init__()  # looked up on each call, so a wrapper set on the class later runs

    def values(self) -> tuple:
        return tuple([getattr(self, name) for name in fields])

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown_values = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{self.__class__.__qualname__}({shown_values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls._fields = fields
    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in vars(cls):
            setattr(cls, method.__name__, method)
    return cls


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

"""Exception types shared across the package, and the seed check every seeded entry point runs."""

from numbers import Integral


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition or invariant."""


class ScaleGuardError(RuntimeError):
    """Raised when a request exceeds the desk-scale guard of an exhaustive routine."""


def validate_seed(seed) -> None:
    """Reject a seed numpy cannot take: it must be an integer (not a bool) and >= 0."""
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")

"""Exception types shared across the library, and the integer check that
the value constructors share."""

import operator


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class CapacityError(RuntimeError):
    """The requested computation exceeds the configured desk-scale limits."""


class StructuralError(ValueError):
    """A composite object (representation, JSON payload) is malformed."""


def exact_ints(values, error=DomainError):
    """The values as a tuple of exact ints, each through ``operator.index``:
    a float, string, Fraction or None raises ``error`` rather than being
    truncated or parsed."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise error(f"entries must be integers: {exc}") from exc

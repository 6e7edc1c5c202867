"""Exception types shared across the library, and the integer checks that
every value constructor and every entry point taking a weight share."""

import operator


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class CapacityError(RuntimeError):
    """The requested computation exceeds the configured desk-scale limits."""


class StructuralError(ValueError):
    """A composite object (representation, JSON payload) is malformed."""


_INT = {int}


def exact_ints(values, error=DomainError):
    """The values as a tuple of exact ints, each through ``operator.index``:
    a float, string, Fraction or None raises ``error`` rather than being
    truncated or parsed.  A tuple of exact ints is returned as it is."""
    if type(values) is tuple and set(map(type, values)) <= _INT:
        return values
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise error(f"entries must be integers: {exc}") from exc


def exact_grid(rows):
    """The rows as a tuple of ``exact_ints`` tuples; a grid or row that is
    not iterable raises ``DomainError`` too."""
    try:
        return tuple(map(exact_ints, rows))
    except TypeError as exc:
        raise DomainError(f"entries must be integers: {exc}") from exc


def positive_weight(n):
    """The weight n as an exact int of at least 1, through
    ``operator.index``: anything else raises ``DomainError``."""
    try:
        n = operator.index(n)
    except TypeError as exc:
        raise DomainError(f"weight must be an integer: {exc}") from exc
    if n < 1:
        raise DomainError(f"weight must be positive, got {n}")
    return n

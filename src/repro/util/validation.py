"""Small argument-validation helpers used across the library."""

from __future__ import annotations

from repro.errors import ShapeError


def require_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int,)) or isinstance(value, bool) or value <= 0:
        raise ShapeError(f"{name} must be a positive integer, got {value!r}")
    return value


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division; used for tile counts everywhere."""
    return -(-a // b)


def round_up(a: int, b: int) -> int:
    """Round ``a`` up to the next multiple of ``b``."""
    return ceil_div(a, b) * b

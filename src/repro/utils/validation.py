"""Argument validation helpers.

Every public entry point of the library validates its scalar arguments with
these functions so error messages are uniform ("``E must be a positive
integer, got -3``") and so NumPy integer scalars are accepted anywhere a
Python int is.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "as_int",
    "check_in_range",
    "check_no_nan",
    "check_nonnegative_int",
    "check_positive_int",
    "check_power_of_two",
]


def as_int(value: Any, name: str) -> int:
    """Coerce ``value`` to a Python int, rejecting floats and non-numerics.

    NumPy integer scalars are accepted (they show up naturally when callers
    index into NumPy arrays); booleans and floats are rejected even when
    integral, because a float ``E`` is almost always a unit mistake.
    """
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got bool {value!r}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    raise ValidationError(
        f"{name} must be an integer, got {type(value).__name__} {value!r}"
    )


def check_positive_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 1`` and return it as int."""
    ivalue = as_int(value, name)
    if ivalue < 1:
        raise ValidationError(f"{name} must be a positive integer, got {ivalue}")
    return ivalue


def check_nonnegative_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 0`` and return it as int."""
    ivalue = as_int(value, name)
    if ivalue < 0:
        raise ValidationError(f"{name} must be a nonnegative integer, got {ivalue}")
    return ivalue


def check_power_of_two(value: Any, name: str) -> int:
    """Validate that ``value`` is a positive power of two and return it."""
    ivalue = check_positive_int(value, name)
    if ivalue & (ivalue - 1):
        raise ValidationError(f"{name} must be a power of two, got {ivalue}")
    return ivalue


def check_in_range(value: Any, name: str, low: int, high: int) -> int:
    """Validate ``low <= value <= high`` (inclusive) and return it as int."""
    ivalue = as_int(value, name)
    if not low <= ivalue <= high:
        raise ValidationError(f"{name} must be in [{low}, {high}], got {ivalue}")
    return ivalue


def check_no_nan(values: np.ndarray, name: str) -> None:
    """Reject NaN keys: they have no place in a total order, and the
    sorting networks' ``minimum``/``maximum`` comparators would copy one
    NaN across a thread's registers."""
    if values.dtype.kind in "fc" and np.isnan(values).any():
        raise ValidationError(f"{name} must not contain NaN")

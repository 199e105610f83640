"""Argument-validation helpers shared across the library.

All helpers raise ``ValueError`` (or ``TypeError`` for wrong types) with a
message naming the offending parameter, and return the validated value so
they can be used inline::

    self.fanout = check_positive("fanout", fanout)
"""

from __future__ import annotations

import math
import numbers


def check_probability(
    name: str, value: object, *, allow_zero: bool = True, allow_one: bool = True
) -> float:
    """Validate that ``value`` is a probability in [0, 1]."""
    value = check_real(name, value)
    lo_ok = value > 0.0 or (allow_zero and value == 0.0)
    hi_ok = value < 1.0 or (allow_one and value == 1.0)
    if not (lo_ok and hi_ok):
        lo = "[0" if allow_zero else "(0"
        hi = "1]" if allow_one else "1)"
        raise ValueError(f"{name} must be a probability in {lo}, {hi}, got {value!r}")
    return float(value)


def check_real(name: str, value: object) -> float:
    """Validate that ``value`` is a finite real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_positive(name: str, value: object) -> float:
    """Validate that ``value`` is a finite real number > 0."""
    value = check_real(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: object) -> float:
    """Validate that ``value`` is a finite real number >= 0."""
    value = check_real(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_integer(
    name: str, value: object, *, minimum: int | None = None, maximum: int | None = None
) -> int:
    """Validate that ``value`` is an integer within optional bounds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_choice(name: str, value: str, options: tuple[str, ...]) -> str:
    """Validate that ``value`` is one of the allowed string ``options``."""
    if value not in options:
        allowed = " or ".join(repr(option) for option in options)
        raise ValueError(f"{name} must be {allowed}, got {value!r}")
    return value


def check_sample_shape(name: str, value: object) -> int | tuple[int, ...]:
    """Validate a sampling ``size``: a non-negative int or a tuple of them.

    Scalar sizes return an ``int``; tuple sizes return a tuple so they can be
    forwarded directly to numpy's ``size=`` arguments (ensemble workloads
    draw ``(replicas, members)``-shaped fanout matrices in one call).
    """
    if isinstance(value, tuple):
        return tuple(check_integer(f"{name}[{i}]", v, minimum=0) for i, v in enumerate(value))
    return check_integer(name, value, minimum=0)

"""Shared utilities: RNG management, validation, formatting, parallel helpers, numerics."""

from repro.utils.rng import as_generator, seed_sequence
from repro.utils.validation import (
    check_probability,
    check_positive,
    check_non_negative,
    check_integer,
)

__all__ = [
    "as_generator",
    "seed_sequence",
    "check_probability",
    "check_positive",
    "check_non_negative",
    "check_integer",
]
